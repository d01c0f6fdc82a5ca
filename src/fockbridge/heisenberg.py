"""Graded Heisenberg-algebra representations and their matrix elements.

A representation is specified by nonzero parameters a_k, a positive degree
step m with deg(B_k) = -mk, a finite ordered basis per degree, and either
the generator action raw_B or the exponential-side actions raw_U / raw_D.
Whichever half is missing is reconstructed through Newton's identities,
which is legitimate because the positive-index operators commute among
themselves, as do the negative-index ones.

The payoff is the pair of symmetric functions attached to basis indices s, t:

    F_{s/t} = sum over lam of z_lam^{-1} <B_{-lam} v_t, v_s> p_lam
    G_{s/t} = sum over lam of z_lam^{-1} <B_{lam}  v_s, v_t> p_lam

and the linear map phi sending v to sum_s <v, v_s> G_{s/highest}, which
intertwines the module action with the polynomial model on symmetric
functions (multiplication by a_k p_k against k d/dp_k).

G is built degree by degree.  With j the smallest part of lam and nu = lam
minus one part j, B_lam = B_nu B_j and z_lam = z_nu j m_j(lam), so

    G_{s/t}[p_lam] = sum over u of <B_j v_s, v_u> G_{u/t}[p_nu] / (j m_j(lam))

reads the G of the indices u one lowering step below s.  A rep without raw_B
runs the same recursion on the m_lam coefficients <D_lam v_s, v_t>, and
builds F from the m_lam coefficients <U_lam v_t, v_s>: F and G stay in the
basis they are built in (p or m) until a reader asks for another.
"""

from __future__ import annotations

import functools
import itertools
import json

from .partitions import EMPTY, partitions_of, z_of
from .scalars import (ONE, Scalar, ZERO, _printer, accumulate, parse_scalar,
                      product)
from .symfunc import SymFunc, convert, multiply, perp_apply, sym_p

__all__ = [
    "HeisenbergParams",
    "params_equal",
    "StateVec",
    "Rep",
    "apply_B",
    "apply_U",
    "apply_D",
    "compute_F",
    "compute_G",
    "monomial_coeff",
    "phi_map",
    "bosonic_apply_B",
    "adjoint_rep",
    "specialize_rep",
    "graded_matrix",
    "rep_to_bundle",
    "load_bundle",
    "BundleRep",
    "BundleFormatError",
    "BundleRangeError",
]


class HeisenbergParams:
    """Lazily evaluated nonzero parameters a_k, k >= 1."""

    def __init__(self, gen):
        self._gen = gen
        self._cache = {}

    @classmethod
    def constant(cls, c):
        c = Scalar.from_int(c) if isinstance(c, int) else c
        return cls(lambda k: c)

    def value(self, k):
        if k < 1:
            raise ValueError(f"parameter index must be >= 1, got {k}")
        v = self._cache.get(k)
        if v is None:
            v = self._gen(k)
            if isinstance(v, int):
                v = Scalar.from_int(v)
            if v.is_zero:
                raise ValueError(f"parameter a_{k} vanishes")
            self._cache[k] = v
        return v


def params_equal(p1, p2, kmax=8):
    # lazy generators cannot be compared extensionally; sample a prefix
    return all(p1.value(k) == p2.value(k) for k in range(1, kmax + 1))


class StateVec:
    """Finite linear combination of basis indices, zero terms dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {i: c for i, c in (terms or {}).items() if not c.is_zero}

    @classmethod
    def basis(cls, index):
        return cls({index: ONE})

    @classmethod
    def zero(cls):
        return cls()

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, index):
        return self.terms.get(index, ZERO)

    def __add__(self, other):
        return StateVec(accumulate(
            itertools.chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        return self + StateVec({i: -c for i, c in other.terms.items()})

    def scaled(self, c):
        if isinstance(c, int):
            c = Scalar.from_int(c)
        if c.is_zero:
            return StateVec()
        return StateVec({i: c * v for i, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, StateVec):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda kv: repr(kv[0]))))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: repr(kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*v[{i}]" for i, c in self.sorted_terms())

    def __repr__(self):
        return f"StateVec<{self}>"


class Rep:
    """Abstract graded representation.

    Subclasses set params, degree_step (positive), highest, and implement
    basis_of_degree / degree_of plus at least one action family:
    raw_B(k, index) for all k != 0, or raw_U(k, index) and raw_D(k, index)
    for k >= 1.  Action methods return plain dicts index -> Scalar and must
    be pure; results are memoized per (op, k, index).
    """

    params = None
    degree_step = 1
    highest = None
    raw_B = None
    raw_U = None
    raw_D = None

    def __init__(self):
        self._cache = {}

    def basis_of_degree(self, d):
        raise NotImplementedError

    def degree_of(self, index):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# operator calculus

def _entries(rep, op, k, terms, sign=1):
    # the entries (j, w, c, sign) whose sums of sign * w * c are sign *
    # op_k applied to terms
    return ((j, w, c, sign) for i, c in terms.items()
            for j, w in _op_single(rep, op, k, i).items())


def _linear(rep, op, k, terms):
    return accumulate((j, product(w, c))
                      for j, w, c, _ in _entries(rep, op, k, terms))


def _op_single(rep, op, k, index):
    # U_0 and D_0 are the identity; otherwise the rep's raw action, zeros
    # dropped, or the Newton rebuild when it has none
    key = (op, k, index)
    hit = rep._cache.get(key)
    if hit is not None:
        return hit
    raw = getattr(rep, "raw_" + op)
    if k == 0 and op != "B":
        res = {index: ONE}
    elif raw is not None:
        res = {i: c for i, c in raw(k, index).items() if not c.is_zero}
    else:
        res = _b_single(rep, k, index) if op == "B" else \
            _ud_single(rep, op, k, index)
    rep._cache[key] = res
    return res


def _b_single(rep, k, index):
    # Newton's identities: p_k = k h_k - sum_{i<k} p_i h_{k-i}, read with
    # p -> B-negative, h -> U on the raising side and p -> B-positive,
    # h -> D on the lowering side
    j = abs(k)
    op, sign = ("U", -1) if k < 0 else ("D", 1)
    pairs = [(i, c * j) for i, c in _op_single(rep, op, j, index).items()]
    for i in range(1, j):
        inner = _linear(rep, "B", sign * i, _op_single(rep, op, j - i, index))
        pairs.extend((x, -c) for x, c in inner.items())
    return accumulate(pairs)


def _ud_single(rep, op, k, index):
    # U_k (D_k) is h_k of the B_{-j} (B_j): sum over lam of B_{-+lam} / z_lam
    sign = -1 if op == "U" else 1
    return accumulate(
        (i, c / z_of(lam)) for lam in partitions_of(k)
        for i, c in _chain(rep, "B", tuple(sign * p for p in lam),
                           index).items())


def _chain(rep, op, ks, index):
    """op_{ks[0]} ... op_{ks[-1]} applied to v_index, rightmost factor
    first; cached per tail, so chains that end alike share the work."""
    if len(ks) == 1:
        return _op_single(rep, op, ks[0], index)
    key = ("chain", op, ks, index)
    hit = rep._cache.get(key)
    if hit is None:
        hit = _linear(rep, op, ks[0], _chain(rep, op, ks[1:], index)) \
            if ks else {index: ONE}
        rep._cache[key] = hit
    return hit


def apply_B(rep, k, v):
    if k == 0:
        raise ValueError("B_0 is not a generator")
    return StateVec(_linear(rep, "B", k, v.terms))


def apply_U(rep, k, v):
    if k < 0:
        raise ValueError("U index must be nonnegative")
    return StateVec(_linear(rep, "U", k, v.terms))


def apply_D(rep, k, v):
    if k < 0:
        raise ValueError("D index must be nonnegative")
    return StateVec(_linear(rep, "D", k, v.terms))


def _fg_degree(rep, upper, lower):
    # the degree of F_{s/t} and G_{s/t} from the degrees of s and t: None
    # off the lattice of degree steps
    d, r = divmod(upper - lower, rep.degree_step)
    return d if not r and d >= 0 else None


def _basis(rep):
    # the basis _fg builds F and G in: p from B products on a rep with
    # raw_B, m from U/D chains on one without
    return "m" if rep.raw_B is None else "p"


def _fg(rep, fn, s, t):
    """F_{s/t} (fn "F") or G_{s/t} (fn "G") in the rep's build basis,
    cached; zero off the degree lattice."""
    # F's m_lam coefficient is <U_lam v_t, v_s>, its p_lam coefficient
    # <B_{-lam} v_t, v_s> / z_lam, from chains shared per tail.  G is built
    # from the G of the indices one lowering step below s (_lowered): the m
    # coefficients <D_lam v_s, v_t> with D_lam = D_nu D_j, or B products
    # with B_lam = B_nu B_j and z_lam = z_nu j m_j(lam)
    key = (fn, s, t)
    hit = rep._cache.get(key)
    if hit is not None:
        return hit
    basis = _basis(rep)
    if fn == "G":
        terms = accumulate(_lowered(rep, "D" if basis == "m" else "B", s, t,
                                    lambda u: _fg(rep, "G", u, t).terms))
        if basis == "p":
            terms = {lam: x / (lam[-1] * lam.multiplicity(lam[-1]))
                     if lam else x for lam, x in terms.items()}
    else:
        d = _fg_degree(rep, rep.degree_of(s), rep.degree_of(t))
        lams = partitions_of(d) if d is not None else ()
        if basis == "m":
            terms = {lam: _chain(rep, "U", lam, t).get(s, ZERO)
                     for lam in lams}
        else:
            chains = {lam: _chain(rep, "B", tuple(-p for p in lam), t)
                      for lam in lams}
            terms = {lam: v[s] / z_of(lam)
                     for lam, v in chains.items() if s in v}
    hit = rep._cache[key] = SymFunc(basis, terms)
    return hit


def _in_p(rep, fn, s, t):
    # _fg in the power-sum basis: on a U/D rep converted once, and cached
    f = _fg(rep, fn, s, t)
    if f.basis == "p":
        return f
    key = ("p", fn, s, t)
    hit = rep._cache.get(key)
    if hit is None:
        hit = rep._cache[key] = convert(f, "p")
    return hit


def compute_F(rep, s, t):
    """F_{s/t} in the power-sum basis; zero off the degree lattice."""
    return _in_p(rep, "F", s, t)


def compute_G(rep, s, t):
    """G_{s/t} in the power-sum basis; zero off the degree lattice."""
    return _in_p(rep, "G", s, t)


def _lowered(rep, op, s, t, below):
    # the degree recursion of G_{s/t}, as pairs (lam, product) for
    # accumulate: with j the smallest part of lam and nu = lam - j, the
    # lam coefficient sums op_j[u, s] times below(u)'s nu coefficient over
    # the column of s.  At degree 0 it is <v_s, v_t>
    d = _fg_degree(rep, rep.degree_of(s), rep.degree_of(t))
    if not d:
        return [(EMPTY, ONE)] if d == 0 and s == t else []
    pairs = []
    for lam in partitions_of(d):
        nu = lam[:-1]
        for u, w in _op_single(rep, op, lam[-1], s).items():
            x = below(u).get(nu)
            if x is not None:
                pairs.append((lam, product(w, x)))
    return pairs


def monomial_coeff(rep, s, t, alpha):
    """Coefficient of x^alpha in F_{s/t}, via the U-operator chain applied
    in the order of alpha.

    For a rep with raw_B, compute_F takes B products, so agreement is an
    independent check; otherwise compute_F reads the same U chains.
    """
    if any(a < 1 for a in alpha):
        raise ValueError("composition parts must be positive")
    return _chain(rep, "U", tuple(reversed(alpha)), t).get(s, ZERO)


def _phi_entries(rep, terms):
    # the entries (lam, x, c, 1) whose sums of x * c are phi of sum c v_s
    # over terms, in the rep's build basis
    if rep.highest is None:
        raise ValueError("rep has no designated highest index")
    return ((lam, x, c, 1) for s, c in terms.items()
            for lam, x in _fg(rep, "G", s, rep.highest).terms.items())


def phi_map(rep, v):
    """The correspondence map: v -> sum_s <v, v_s> G_{s/highest}."""
    return convert(SymFunc(_basis(rep), accumulate(
        (lam, product(x, c)) for lam, x, c, _ in _phi_entries(rep, v.terms))),
        "p")


def bosonic_apply_B(f, k, params):
    """Action on symmetric functions: B_{-k} is a_k p_k, B_k is k d/dp_k."""
    if k == 0:
        raise ValueError("B_0 is not a generator")
    if k < 0:
        return multiply(sym_p((-k,)), f).scaled(params.value(-k))
    return perp_apply(sym_p((k,)), f)


# ---------------------------------------------------------------------------
# derived representations

class _OnBase(Rep):
    """A rep on the basis, grading, parameters and highest vector of base."""

    def __init__(self, base):
        super().__init__()
        self.base = base
        self.params = base.params
        self.degree_step = base.degree_step
        self.highest = base.highest

    def basis_of_degree(self, d):
        return self.base.basis_of_degree(d)

    def degree_of(self, index):
        return self.base.degree_of(index)


class _AdjointRep(_OnBase):
    """Transpose of the graded action, with raising and lowering swapped."""

    def raw_B(self, k, index):
        # <B_k v_index, v_j> = <B_-k v_j, v_index>: a row of B_-k's block
        src = _target(self.degree_step, "B", k, self.degree_of(index))
        return {j: col[index]
                for j, col in _block(self.base, "B", -k, src).items()
                if index in col}


def adjoint_rep(rep):
    return _AdjointRep(rep)


class _SpecializedRep(_OnBase):
    """Coefficientwise specialization (e.g. q=0) of an existing rep."""

    def __init__(self, base, bindings):
        super().__init__(base)
        self.bindings = dict(bindings)
        self.params = HeisenbergParams(
            lambda k: base.params.value(k).specialize(self.bindings))
        if base.raw_B is not None:
            self.raw_B = lambda k, i: self._spec(_op_single(base, "B", k, i))
        if base.raw_U is not None:
            self.raw_U = lambda k, i: self._spec(_op_single(base, "U", k, i))
        if base.raw_D is not None:
            self.raw_D = lambda k, i: self._spec(_op_single(base, "D", k, i))

    def _spec(self, terms):
        out = {}
        for i, c in terms.items():
            v = c.specialize(self.bindings)
            if not v.is_zero:
                out[i] = v
        return out


def specialize_rep(rep, bindings):
    return _SpecializedRep(rep, bindings)


# ---------------------------------------------------------------------------
# JSON matrix bundles
#
# Schema (all mapping keys are strings, all scalars are strings accepted by
# parse_scalar):
#   {
#     "degree_step": m,
#     "kmax": K, "dmax": D,
#     "basis":  {"0": [label, ...], ..., "D": [...]},
#     "params": {"1": scalar, ..., "K": scalar},
#     "U": {"k": {"d": matrix}},   # degree d -> d + m*k, for d + m*k <= D
#     "D": {"k": {"d": matrix}}    # degree d -> d - m*k, for m*k <= d <= D
#   }
# A matrix is a list of rows over the target basis; columns follow the
# source basis order.

class BundleFormatError(ValueError):
    pass


class BundleRangeError(ValueError):
    """Requested data beyond the kmax/dmax the bundle was exported with."""


def _target(m, op, k, d):
    # the degree op_k sends degree d to: U_k raises by m*k, D_k and B_k lower
    return d + m * k if op == "U" else d - m * k


def _block(rep, op, k, d):
    """op_k from degree d as {src: column}, in basis order; a column is the
    cached {dst: entry} of _op_single.  Empty below degree 0."""
    if d < 0:
        return {}
    return {i: _op_single(rep, op, k, i) for i in rep.basis_of_degree(d)}


def _rows(block):
    """The transpose of a block: {dst: {src: entry}}, sources in order."""
    rows = {}
    for src, col in block.items():
        for dst, c in col.items():
            rows.setdefault(dst, {})[src] = c
    return rows


def graded_matrix(rep, op, k, d):
    """Matrix of U_k or D_k from degree d, rows indexed by the target basis."""
    target = _target(rep.degree_step, op, k, d)
    rows = rep.basis_of_degree(target) if target >= 0 else ()
    cols = _block(rep, op, k, d).values()
    return [[col.get(t, ZERO) for col in cols] for t in rows]


def rep_to_bundle(rep, kmax, dmax):
    """Export the U/D action matrices for degrees <= dmax, orders <= kmax."""
    m = rep.degree_step
    text = _printer()
    bundle = {
        "degree_step": m,
        "kmax": kmax,
        "dmax": dmax,
        "basis": {str(d): [str(i) for i in rep.basis_of_degree(d)]
                  for d in range(dmax + 1)},
        "params": {str(k): text(rep.params.value(k))
                   for k in range(1, kmax + 1)},
        "U": {str(k): {} for k in range(1, kmax + 1)},
        "D": {str(k): {} for k in range(1, kmax + 1)},
    }
    for k in range(1, kmax + 1):
        for d in range(dmax + 1):
            for op in ("U", "D"):
                if 0 <= _target(m, op, k, d) <= dmax:
                    bundle[op][str(k)][str(d)] = [
                        [text(c) for c in row]
                        for row in graded_matrix(rep, op, k, d)]
    return bundle


def _require(cond, msg):
    if not cond:
        raise BundleFormatError(msg)


def load_bundle(source):
    """Build a BundleRep from a bundle dict or a file path."""
    if isinstance(source, dict):
        data = source
    else:
        with open(source, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise BundleFormatError("bundle nests too deeply") from None
    _require(isinstance(data, dict), "bundle must be a JSON object")
    for field in ("degree_step", "kmax", "dmax", "basis", "params", "U", "D"):
        _require(field in data, f"bundle missing field {field!r}")
    for field in ("basis", "params", "U", "D"):
        _require(isinstance(data[field], dict), f"{field} must be an object")
    m = data["degree_step"]
    kmax = data["kmax"]
    dmax = data["dmax"]
    _require(isinstance(m, int) and m >= 1, "degree_step must be a positive int")
    _require(isinstance(kmax, int) and kmax >= 1, "kmax must be a positive int")
    _require(isinstance(dmax, int) and dmax >= 0, "dmax must be a nonnegative int")
    labels = {}
    for d in range(dmax + 1):
        row = data["basis"].get(str(d))
        _require(isinstance(row, list), f"basis missing degree {d}")
        _require(all(isinstance(x, str) for x in row),
                 f"basis labels at degree {d} must be strings")
        _require(len(set(row)) == len(row),
                 f"duplicate basis labels at degree {d}")
        labels[d] = tuple(row)
    # a bundle repeats few values: each distinct string is parsed once
    parse = functools.cache(parse_scalar)
    params = {}
    for k in range(1, kmax + 1):
        raw = data["params"].get(str(k))
        _require(isinstance(raw, str), f"params missing a_{k}")
        try:
            params[k] = parse(raw)
        except ValueError as e:
            raise BundleFormatError(f"bad scalar for a_{k}: {e}") from None
        _require(not params[k].is_zero, f"parameter a_{k} is zero")

    def read_columns(side, k, d, target):
        # U[k][d] or D[k][d] as the columns of its sources (d, i); D_k below
        # degree m*k is zero, and not stored
        cols = [{} for _ in labels[d]]
        columns.update(((side, k, (d, i)), col) for i, col in enumerate(cols))
        if target < 0:
            return
        nrows, ncols = len(labels[target]), len(cols)
        block = data[side].get(str(k), {})
        _require(isinstance(block, dict), f"{side}[{k}] must be an object")
        mat = block.get(str(d))
        _require(mat is not None, f"{side}[{k}][{d}] missing")
        _require(isinstance(mat, list) and len(mat) == nrows,
                 f"{side}[{k}][{d}] wants a list of {nrows} rows")
        for r, row in enumerate(mat):
            _require(isinstance(row, list) and len(row) == ncols,
                     f"{side}[{k}][{d}] wants rows of {ncols} cols")
            _require(all(isinstance(x, str) for x in row),
                     f"{side}[{k}][{d}] entries must be strings")
            try:
                row = [parse(x) for x in row]
            except ValueError as e:
                raise BundleFormatError(
                    f"bad scalar in {side}[{k}][{d}]: {e}") from None
            for col, c in zip(cols, row):
                if not c.is_zero:
                    col[(target, r)] = c

    columns = {}
    for k in range(1, kmax + 1):
        for d in range(dmax + 1):
            for side in ("U", "D"):
                target = _target(m, side, k, d)
                if target <= dmax:
                    read_columns(side, k, d, target)
    return BundleRep(m, kmax, dmax, labels, params, columns)


class BundleRep(Rep):
    """Rep backed by explicit matrices; indices are (degree, position).
    The columns load_bundle reads, keyed (op, k, index), seed the cache."""

    def __init__(self, m, kmax, dmax, labels, params, columns):
        super().__init__()
        self.degree_step = m
        self.kmax = kmax
        self.dmax = dmax
        self.labels = labels
        self._params_table = params
        self.params = HeisenbergParams(self._param)
        self.columns = columns
        self._cache.update(columns)
        self.highest = (0, 0) if labels.get(0) else None

    def _param(self, k):
        v = self._params_table.get(k)
        if v is None:
            raise BundleRangeError(f"bundle has no parameter a_{k} (kmax={self.kmax})")
        return v

    def basis_of_degree(self, d):
        if d < 0:
            return ()
        if d > self.dmax:
            raise BundleRangeError(f"degree {d} beyond bundle dmax={self.dmax}")
        return tuple((d, i) for i in range(len(self.labels[d])))

    def degree_of(self, index):
        return index[0]

    def label_of(self, index):
        return self.labels[index[0]][index[1]]

    def index_of_label(self, label):
        for d, row in self.labels.items():
            if label in row:
                return (d, row.index(label))
        raise KeyError(f"label {label!r} not in bundle basis")

    def _check_k(self, k):
        if k > self.kmax:
            raise BundleRangeError(f"operator order {k} beyond bundle kmax={self.kmax}")

    # the stored columns are cached: these run only past the stored range
    def raw_U(self, k, index):
        self._check_k(k)
        raise BundleRangeError(
            f"U_{k} from degree {index[0]} leaves bundle dmax={self.dmax}")

    def raw_D(self, k, index):
        self._check_k(k)
        return {}
