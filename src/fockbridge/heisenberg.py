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
"""

from __future__ import annotations

import itertools
import json

from .partitions import Partition, partitions_of, z_of
from .scalars import ONE, Scalar, ZERO, accumulate, parse_scalar
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
        return self + other.scaled(Scalar.from_int(-1))

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

def _linear(rep, op, k, terms):
    return accumulate((j, w * c) for i, c in terms.items()
                      for j, w in _op_single(rep, op, k, i).items())


def _op_single(rep, op, k, index):
    key = (op, k, index)
    hit = rep._cache.get(key)
    if hit is not None:
        return hit
    res = _b_single(rep, k, index) if op == "B" else \
        _ud_single(rep, op, k, index)
    rep._cache[key] = res
    return res


def _b_single(rep, k, index):
    if rep.raw_B is not None:
        return {i: c for i, c in rep.raw_B(k, index).items() if not c.is_zero}
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
    if k == 0:
        return {index: ONE}
    raw = rep.raw_U if op == "U" else rep.raw_D
    if raw is not None:
        return {i: c for i, c in raw(k, index).items() if not c.is_zero}
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


def _fg_degree(rep, s, t):
    diff = rep.degree_of(s) - rep.degree_of(t)
    d, r = divmod(diff, rep.degree_step)
    if r or d < 0:
        return None
    return d


def _fg(rep, fn, s, t):
    # the m_lam coefficient of F_{s/t} is <U_lam v_t, v_s>, that of G_{s/t}
    # <D_lam v_s, v_t>: a rep with U/D actions but no raw_B sums these
    # chains and converts to p once; one with raw_B takes B products,
    # <B_{-+lam} ...> / z_lam in the p basis, without Newton's identities
    key = (fn, s, t)
    hit = rep._cache.get(key)
    if hit is not None:
        return hit
    d = _fg_degree(rep, s, t)
    src, dst = (t, s) if fn == "F" else (s, t)
    lams = partitions_of(d) if d is not None else ()
    if rep.raw_B is None:
        op = "U" if fn == "F" else "D"
        m = {lam: _chain(rep, op, lam, src).get(dst, ZERO) for lam in lams}
        out = convert(SymFunc("m", m), "p")
    else:
        sign = -1 if fn == "F" else 1
        chains = {lam: _chain(rep, "B", tuple(sign * p for p in lam), src)
                  for lam in lams}
        out = SymFunc("p", {lam: v[dst] / z_of(lam)
                            for lam, v in chains.items() if dst in v})
    rep._cache[key] = out
    return out


def compute_F(rep, s, t):
    """F_{s/t} in the power-sum basis; zero off the degree lattice."""
    return _fg(rep, "F", s, t)


def compute_G(rep, s, t):
    """G_{s/t} in the power-sum basis; zero off the degree lattice."""
    return _fg(rep, "G", s, t)


def monomial_coeff(rep, s, t, alpha):
    """Coefficient of x^alpha in F_{s/t}, via the U-operator chain applied
    in the order of alpha.

    For a rep with raw_B, compute_F takes B products, so agreement is an
    independent check; otherwise compute_F reads the same U chains.
    """
    if any(a < 1 for a in alpha):
        raise ValueError("composition parts must be positive")
    terms = {t: ONE}
    for a in alpha:
        terms = _linear(rep, "U", a, terms)
        if not terms:
            return ZERO
    return terms.get(s, ZERO)


def phi_map(rep, v):
    """The correspondence map: v -> sum_s <v, v_s> G_{s/highest}."""
    if rep.highest is None:
        raise ValueError("rep has no designated highest index")
    return SymFunc("p", accumulate(
        (lam, x * c) for s, c in v.terms.items()
        for lam, x in compute_G(rep, s, rep.highest).terms.items()))


def bosonic_apply_B(f, k, params):
    """Action on symmetric functions: B_{-k} is a_k p_k, B_k is k d/dp_k."""
    if k == 0:
        raise ValueError("B_0 is not a generator")
    if k < 0:
        return multiply(sym_p((-k,)), f).scaled(params.value(-k))
    return perp_apply(sym_p((k,)), f)


# ---------------------------------------------------------------------------
# derived representations

class _AdjointRep(Rep):
    """Transpose of the graded action, with raising and lowering swapped."""

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

    def raw_B(self, k, index):
        target = self.degree_of(index) - self.degree_step * k
        out = {}
        for j in self.base.basis_of_degree(target):
            c = _op_single(self.base, "B", -k, j).get(index)
            if c is not None:
                out[j] = c
        return out


def adjoint_rep(rep):
    return _AdjointRep(rep)


class _SpecializedRep(Rep):
    """Coefficientwise specialization (e.g. q=0) of an existing rep."""

    def __init__(self, base, bindings):
        super().__init__()
        self.base = base
        self.bindings = dict(bindings)
        self.params = HeisenbergParams(
            lambda k: base.params.value(k).specialize(self.bindings))
        self.degree_step = base.degree_step
        self.highest = base.highest
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

    def basis_of_degree(self, d):
        return self.base.basis_of_degree(d)

    def degree_of(self, index):
        return self.base.degree_of(index)


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


def graded_matrix(rep, op, k, d):
    """Matrix of U_k or D_k from degree d, rows indexed by the target basis."""
    m = rep.degree_step
    target = d + m * k if op == "U" else d - m * k
    source_basis = rep.basis_of_degree(d)
    target_basis = rep.basis_of_degree(target) if target >= 0 else ()
    rows = []
    cols = [_op_single(rep, op, k, i) for i in source_basis]
    for tgt in target_basis:
        rows.append([col.get(tgt, ZERO) for col in cols])
    return rows


def rep_to_bundle(rep, kmax, dmax):
    """Export the U/D action matrices for degrees <= dmax, orders <= kmax."""
    m = rep.degree_step
    bundle = {
        "degree_step": m,
        "kmax": kmax,
        "dmax": dmax,
        "basis": {str(d): [str(i) for i in rep.basis_of_degree(d)]
                  for d in range(dmax + 1)},
        "params": {str(k): str(rep.params.value(k))
                   for k in range(1, kmax + 1)},
        "U": {},
        "D": {},
    }
    for k in range(1, kmax + 1):
        u_k, d_k = {}, {}
        for d in range(dmax + 1):
            if d + m * k <= dmax:
                u_k[str(d)] = [[str(c) for c in row]
                               for row in graded_matrix(rep, "U", k, d)]
            if d - m * k >= 0:
                d_k[str(d)] = [[str(c) for c in row]
                               for row in graded_matrix(rep, "D", k, d)]
        bundle["U"][str(k)] = u_k
        bundle["D"][str(k)] = d_k
    return bundle


def _require(cond, msg):
    if not cond:
        raise BundleFormatError(msg)


def load_bundle(source):
    """Build a Rep from a bundle dict, a JSON string path, or a file path."""
    if isinstance(source, dict):
        data = source
    else:
        with open(source) as fh:
            data = json.load(fh)
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
    params = {}
    for k in range(1, kmax + 1):
        raw = data["params"].get(str(k))
        _require(isinstance(raw, str), f"params missing a_{k}")
        try:
            params[k] = parse_scalar(raw)
        except ValueError as e:
            raise BundleFormatError(f"bad scalar for a_{k}: {e}") from None
        _require(not params[k].is_zero, f"parameter a_{k} is zero")

    def read_matrix(side, k, d, nrows, ncols):
        block = data[side].get(str(k), {})
        _require(isinstance(block, dict), f"{side}[{k}] must be an object")
        mat = block.get(str(d))
        _require(mat is not None, f"{side}[{k}][{d}] missing")
        _require(isinstance(mat, list) and len(mat) == nrows,
                 f"{side}[{k}][{d}] wants a list of {nrows} rows")
        out = []
        for row in mat:
            _require(isinstance(row, list) and len(row) == ncols,
                     f"{side}[{k}][{d}] wants rows of {ncols} cols")
            _require(all(isinstance(x, str) for x in row),
                     f"{side}[{k}][{d}] entries must be strings")
            try:
                out.append([parse_scalar(x) for x in row])
            except ValueError as e:
                raise BundleFormatError(
                    f"bad scalar in {side}[{k}][{d}]: {e}") from None
        return out

    u_mats, d_mats = {}, {}
    for k in range(1, kmax + 1):
        for d in range(dmax + 1):
            if d + m * k <= dmax:
                u_mats[(k, d)] = read_matrix(
                    "U", k, d, len(labels[d + m * k]), len(labels[d]))
            if d - m * k >= 0:
                d_mats[(k, d)] = read_matrix(
                    "D", k, d, len(labels[d - m * k]), len(labels[d]))
    return BundleRep(m, kmax, dmax, labels, params, u_mats, d_mats)


class BundleRep(Rep):
    """Rep backed by explicit matrices; indices are (degree, position)."""

    def __init__(self, m, kmax, dmax, labels, params, u_mats, d_mats):
        super().__init__()
        self.degree_step = m
        self.kmax = kmax
        self.dmax = dmax
        self.labels = labels
        self._params_table = params
        self.params = HeisenbergParams(self._param)
        self._U = u_mats
        self._D = d_mats
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

    def raw_U(self, k, index):
        self._check_k(k)
        d, i = index
        target = d + self.degree_step * k
        if target > self.dmax:
            raise BundleRangeError(
                f"U_{k} from degree {d} leaves bundle dmax={self.dmax}")
        mat = self._U[(k, d)]
        return {(target, r): mat[r][i]
                for r in range(len(mat)) if not mat[r][i].is_zero}

    def raw_D(self, k, index):
        self._check_k(k)
        d, i = index
        target = d - self.degree_step * k
        if target < 0:
            return {}
        mat = self._D[(k, d)]
        return {(target, r): mat[r][i]
                for r in range(len(mat)) if not mat[r][i].is_zero}
