"""Symmetric functions over Q(q, t) in the p, h, m, s bases.

Conversions route through the monomial basis: s expands by tableau
enumeration, p by direct monomial expansion, h through p; the reverse
directions invert the per-degree transition matrices exactly.  Products and
the Hall pairing live in the power-sum basis, where p-monomials are free
generators and <p_lam, p_mu> = z_lam delta.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .partitions import (
    EMPTY,
    Partition,
    SkewShape,
    horizontal_strips,
    partitions_of,
    z_of,
)
from .scalars import ONE, Scalar, ZERO, accumulate, scalar_sum

__all__ = [
    "BASES",
    "SymFunc",
    "VarPoly",
    "sym_p",
    "sym_h",
    "sym_m",
    "sym_s",
    "convert",
    "multiply",
    "hall_inner",
    "perp_apply",
    "theta_apply",
    "kappa_eval",
    "schur_tableaux",
    "evaluate_vars",
]

BASES = ("p", "h", "m", "s")


def _clean(terms):
    return {lam: c for lam, c in terms.items() if not c.is_zero}


class SymFunc:
    """A finite linear combination of basis elements of one named basis."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.terms = _clean(dict(terms or {}))

    @classmethod
    def zero(cls, basis="p"):
        return cls(basis, {})

    @classmethod
    def one(cls, basis="p"):
        return cls(basis, {EMPTY: ONE})

    @property
    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted({lam.size for lam in self.terms})

    def homogeneous(self, d):
        return SymFunc(self.basis,
                       {lam: c for lam, c in self.terms.items() if lam.size == d})

    def coefficient(self, lam):
        return self.terms.get(Partition(lam), ZERO)

    def scaled(self, c):
        if isinstance(c, int):
            c = Scalar.from_int(c)
        if c.is_zero:
            return SymFunc(self.basis, {})
        return SymFunc(self.basis, {lam: c * v for lam, v in self.terms.items()})

    def map_coefficients(self, fn):
        return SymFunc(self.basis, {lam: fn(c) for lam, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if other.basis != self.basis:
            return convert(self, "p") + convert(other, "p")
        return SymFunc(self.basis, accumulate(
            itertools.chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        return self.__add__(other.scaled(-1))

    def __neg__(self):
        return self.scaled(-1)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scaled(other)
        if isinstance(other, SymFunc):
            return multiply(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scaled(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis == other.basis:
            if self.terms == other.terms:
                return True
        a = convert(self, "p")
        b = convert(other, "p")
        return a.terms == b.terms

    def __hash__(self):
        p = convert(self, "p")
        return hash(tuple(sorted(p.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{self.basis}{lam}*({c})"
                          for lam, c in self.sorted_terms())

    def __repr__(self):
        return f"SymFunc<{self}>"


def sym_p(lam):
    return SymFunc("p", {Partition(lam): ONE})


def sym_h(lam):
    if isinstance(lam, int):
        lam = (lam,) if lam else ()
    return SymFunc("h", {Partition(lam): ONE})


def sym_m(lam):
    return SymFunc("m", {Partition(lam): ONE})


def sym_s(lam):
    return SymFunc("s", {Partition(lam): ONE})


# ---------------------------------------------------------------------------
# transition matrices, cached per (basis, degree)

class TransitionCache:
    """Caches per-degree expansions into m and their exact inverses."""

    def __init__(self):
        self._to_m = {}
        self._from_m = {}

    def to_m(self, basis, d):
        key = (basis, d)
        hit = self._to_m.get(key)
        if hit is None:
            hit = _build_to_m(basis, d)
            self._to_m[key] = hit
        return hit

    def from_m(self, basis, d):
        key = (basis, d)
        hit = self._from_m.get(key)
        if hit is None:
            hit = _invert_rows(self.to_m(basis, d), d)
            self._from_m[key] = hit
        return hit


_CACHE = TransitionCache()


def _m_times_pk(expansion, k):
    """Multiply an m-basis dict by p_k, staying in the m basis."""
    pairs = []
    for mu, c in expansion.items():
        candidates = set()
        for v in set(mu) | {0}:
            nu = list(mu)
            if v:
                nu.remove(v)
            nu.append(v + k)
            candidates.add(Partition(sorted(nu, reverse=True)))
        for nu in candidates:
            count = 0
            for w in set(nu):
                if w - k < 0:
                    continue
                pred = list(nu)
                pred.remove(w)
                if w - k:
                    pred.append(w - k)
                if Partition(sorted(pred, reverse=True)) == mu:
                    count += nu.multiplicity(w)
            if count:
                pairs.append((nu, c * count))
    return accumulate(pairs)


@lru_cache(maxsize=None)
def _p_to_m_row(lam):
    row = {EMPTY: ONE}
    for k in lam:
        row = _m_times_pk(row, k)
    return row


@lru_cache(maxsize=None)
def _h_to_p_single(k):
    # h_k = sum over partitions of k of p_lam / z_lam
    return {lam: ONE / z_of(lam) for lam in partitions_of(k)}


@lru_cache(maxsize=None)
def _h_to_p_row(lam):
    row = {EMPTY: ONE}
    for k in lam:
        row = accumulate((Partition(sorted(alpha + beta, reverse=True)),
                          c1 * c2) for alpha, c1 in row.items()
                         for beta, c2 in _h_to_p_single(k).items())
    return row


@lru_cache(maxsize=None)
def _chain_count(inner, outer, sizes):
    """Number of strip chains inner -> outer with the given step sizes."""
    if not sizes:
        return 1 if inner == outer else 0
    remaining = sum(sizes[1:])
    total = 0
    for nu in horizontal_strips(inner, sizes[0]):
        if outer.contains(nu) and outer.size - nu.size == remaining:
            total += _chain_count(nu, outer, sizes[1:])
    return total


@lru_cache(maxsize=None)
def _s_to_m_row(lam):
    row = {}
    for mu in partitions_of(lam.size):
        c = _chain_count(EMPTY, lam, tuple(mu))
        if c:
            row[mu] = Scalar.from_int(c)
    return row


def _build_to_m(basis, d):
    rows = {}
    for lam in partitions_of(d):
        if basis == "m":
            rows[lam] = {lam: ONE}
        elif basis == "p":
            rows[lam] = dict(_p_to_m_row(lam))
        elif basis == "s":
            rows[lam] = dict(_s_to_m_row(lam))
        elif basis == "h":
            rows[lam] = accumulate(
                (nu, c * c2) for mu, c in _h_to_p_row(lam).items()
                for nu, c2 in _p_to_m_row(mu).items())
    return rows


def _invert_rows(rows, d):
    """Exact inverse of the (basis -> m) matrix for one degree."""
    order = partitions_of(d)
    idx = {lam: i for i, lam in enumerate(order)}
    n = len(order)
    mat = [[rows[lam].get(mu, ZERO) for mu in order] for lam in order]
    inv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not mat[r][col].is_zero), None)
        if pivot is None:
            raise ValueError("transition matrix is singular")
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        p = mat[col][col]
        if not p.is_one:
            pinv = ONE / p
            mat[col] = [x * pinv for x in mat[col]]
            inv[col] = [x * pinv for x in inv[col]]
        for r in range(n):
            if r != col and not mat[r][col].is_zero:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    # inv now maps m-coordinates to basis-coordinates: row mu of inv gives
    # the expansion of m_mu in the basis
    out = {}
    for mu in order:
        row = {}
        for lam in order:
            c = inv[idx[mu]][idx[lam]]
            if not c.is_zero:
                row[lam] = c
        out[mu] = row
    return out


def convert(f, target):
    """Rewrite f in the target basis."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if f.basis == target:
        return f
    out = f.terms
    if f.basis != "m":
        out = accumulate((mu, c * w) for lam, c in out.items() for mu, w
                         in _CACHE.to_m(f.basis, lam.size)[lam].items())
    if target != "m":
        out = accumulate((lam, c * w) for mu, c in out.items() for lam, w
                         in _CACHE.from_m(target, mu.size)[mu].items())
    return SymFunc(target, out)


def multiply(f, g):
    """Product, computed in the power-sum basis."""
    fp = convert(f, "p")
    gp = convert(g, "p")
    return SymFunc("p", accumulate(
        (Partition(sorted(lam + mu, reverse=True)), c1 * c2)
        for lam, c1 in fp.terms.items() for mu, c2 in gp.terms.items()))


def hall_inner(f, g):
    """Hall pairing: <p_lam, p_mu> = z_lam delta."""
    fp = convert(f, "p")
    gp = convert(g, "p")
    small, big = fp.terms, gp.terms
    if len(big) < len(small):
        small, big = big, small
    return scalar_sum([c * big[lam] * z_of(lam)
                       for lam, c in small.items() if lam in big])


def _pk_perp(terms, k):
    """Apply the adjoint of multiplication by p_k to a p-basis dict."""
    pairs = []
    for mu, c in terms.items():
        m = mu.multiplicity(k)
        if m:
            reduced = list(mu)
            reduced.remove(k)
            pairs.append((Partition(reduced), c * (k * m)))
    return accumulate(pairs)


def perp_apply(g, f):
    """Apply g-perp, the Hall adjoint of multiplication by g, to f."""
    gp = convert(g, "p")
    fp = convert(f, "p")
    pairs = []
    for lam, c in gp.terms.items():
        terms = fp.terms
        for k in lam:
            terms = _pk_perp(terms, k)
            if not terms:
                break
        pairs.extend((mu, c * v) for mu, v in terms.items())
    return SymFunc("p", accumulate(pairs))


def theta_apply(f, params):
    """Rescale p_k by a_k: the algebra map sending p_k to a_k * p_k."""
    fp = convert(f, "p")
    out = {}
    for lam, c in fp.terms.items():
        for k in lam:
            c = c * params.value(k)
        if not c.is_zero:
            out[lam] = c
    return SymFunc("p", out)


def kappa_eval(f, params):
    """Evaluate the algebra map sending p_k to the scalar a_k."""
    fp = convert(f, "p")
    vals = []
    for lam, c in fp.terms.items():
        for k in lam:
            c = c * params.value(k)
        vals.append(c)
    return scalar_sum(vals)


def schur_tableaux(shape):
    """Skew Schur function by tableau (strip chain) enumeration, m basis."""
    if isinstance(shape, Partition):
        shape = SkewShape(shape)
    n = shape.size
    out = {}
    for mu in partitions_of(n):
        c = _chain_count(shape.inner, shape.outer, tuple(mu))
        if c:
            out[mu] = Scalar.from_int(c)
    return SymFunc("m", out)


# ---------------------------------------------------------------------------
# polynomial evaluation in finitely many variables

class VarPoly:
    """Polynomial in named variables with Scalar coefficients."""

    __slots__ = ("names", "terms")

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if not c.is_zero:
                    self.terms[tuple(exps)] = c

    @classmethod
    def zero(cls, names):
        return cls(names)

    @classmethod
    def one(cls, names):
        return cls(names, {(0,) * len(tuple(names)): ONE})

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.names != other.names:
            raise ValueError("variable mismatch")
        p = VarPoly(self.names)
        p.terms = accumulate(
            itertools.chain(self.terms.items(), other.terms.items()))
        return p

    def __sub__(self, other):
        return self + other.scaled(Scalar.from_int(-1))

    def scaled(self, c):
        p = VarPoly(self.names)
        if not c.is_zero:
            p.terms = {e: c * v for e, v in self.terms.items()}
        return p

    def mul(self, other, trunc=None):
        if self.names != other.names:
            raise ValueError("variable mismatch")
        pairs = []
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if trunc is None or sum(e) <= trunc:
                    pairs.append((e, c1 * c2))
        p = VarPoly(self.names)
        p.terms = accumulate(pairs)
        return p

    def __mul__(self, other):
        if isinstance(other, VarPoly):
            return self.mul(other)
        return NotImplemented

    def truncate(self, dmax):
        p = VarPoly(self.names)
        p.terms = {e: c for e, c in self.terms.items() if sum(e) <= dmax}
        return p

    def embed(self, names, offset):
        """View this polynomial inside a larger variable list."""
        names = tuple(names)
        pad_after = len(names) - offset - len(self.names)
        if pad_after < 0:
            raise ValueError("embedding does not fit")
        p = VarPoly(names)
        p.terms = {(0,) * offset + e + (0,) * pad_after: c
                   for e, c in self.terms.items()}
        return p

    def __eq__(self, other):
        if not isinstance(other, VarPoly):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def __hash__(self):
        return hash((self.names, tuple(sorted(self.terms.items()))))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                (n if k == 1 else f"{n}^{k}")
                for n, k in zip(self.names, e) if k)
            cs = str(c)
            if "/" in cs or " " in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"VarPoly<{self}>"


def _var_names(vars_or_count, prefix="x"):
    if isinstance(vars_or_count, int):
        return tuple(f"{prefix}{i + 1}" for i in range(vars_or_count))
    return tuple(vars_or_count)


@lru_cache(maxsize=None)
def _distinct_padded_perms(lam, n):
    # the distinct orderings of lam padded with zeros to n parts, in
    # lexicographic order: next-permutation steps from the sorted tuple, so
    # the work is one step per distinct ordering, not n!
    a = sorted(tuple(lam) + (0,) * (n - len(lam)))
    out = [tuple(a)]
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return tuple(out)
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])
        out.append(tuple(a))


def evaluate_vars(f, variables):
    """Evaluate f as a polynomial in finitely many variables."""
    names = _var_names(variables)
    n = len(names)
    fm = convert(f, "m")
    out = VarPoly(names)
    terms = {}
    for lam, c in fm.terms.items():
        if len(lam) > n:
            continue
        for exps in _distinct_padded_perms(lam, n):
            terms[exps] = c
    out.terms = {e: c for e, c in terms.items() if not c.is_zero}
    return out
