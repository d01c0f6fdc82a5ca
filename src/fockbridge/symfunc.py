"""Symmetric functions over Q(q, t) in the p, h, m, s bases.

Conversions route through the monomial basis: s expands by tableau
enumeration, p by direct monomial expansion, h through the Kostka numbers
of the s rows; the reverse directions invert the per-degree transition
matrices exactly.  Products and the Hall pairing live in the power-sum
basis, where p-monomials are free generators and <p_lam, p_mu> = z_lam
delta.  For the verifiers' zero tests, products by p_nu and the perps of
h_k and p_k also come as integer rows in m or p (_pm_row, _perp_row), so
that no reduced value is built.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .partitions import (
    EMPTY,
    Partition,
    SkewShape,
    horizontal_strips,
    partitions_of,
    z_of,
)
from .scalars import ONE, Scalar, ZERO, accumulate, product, scalar_sum

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
        return self.__add__(-other)

    def __neg__(self):
        return SymFunc(self.basis, {lam: -c for lam, c in self.terms.items()})

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

def _union(lam, nu):
    # the index of p_lam p_nu
    return Partition(sorted(lam + nu, reverse=True))


def _minus(mu, beta):
    # mu with the parts of beta taken out, or None when beta is not inside mu
    rest = list(mu)
    for j in beta:
        if j not in rest:
            return None
        rest.remove(j)
    return Partition(rest)


@lru_cache(maxsize=None)
def _pm_row(nu, mu):
    """p_nu m_mu = sum n m_lam as integers {lam: n}.  p_r m_kappa adds r to
    one part v of kappa, or appends it (v = 0); n is the multiplicity of
    v + r in the result."""
    if not nu:
        return {mu: 1}
    r, row = nu[0], {}
    for kappa, c in _pm_row(nu[1:], mu).items():
        for v in set(kappa) | {0}:
            lam = _union(_minus(kappa, (v,)) if v else kappa, (v + r,))
            row[lam] = row.get(lam, 0) + c * lam.multiplicity(v + r)
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
def _to_m(basis, d):
    """Expansions into m of the basis elements of degree d, from partitions
    alone: tableaux for s, _pm_row for p, and for h the Kostka numbers K
    of the s rows, as h_lam = sum_mu K_{mu lam} s_mu (Macdonald I (6.5))."""
    order = partitions_of(d)
    if basis == "h":
        ks = [{nu: c.as_int() for nu, c in row.items()}
              for row in _to_m("s", d).values()]
        # K_{(d) nu} = 1, so no m_nu of h_lam is zero
        return {lam: {nu: Scalar.from_int(sum(k.get(lam, 0) * k.get(nu, 0)
                                              for k in ks)) for nu in order}
                for lam in order}
    if basis == "p":
        return {lam: {nu: Scalar.from_int(n) for nu, n in
                      _pm_row(lam, EMPTY).items()} for lam in order}
    return {lam: {lam: ONE} if basis == "m" else schur_tableaux(lam).terms
            for lam in order}


def _reduce(mat, ncols):
    """Exact Gauss-Jordan elimination in place on mat, rows of Scalars,
    pivoting in the first ncols columns (any past them ride along as an
    augmented block).  Returns the pivot count: the rank of those columns."""
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat))
                      if not mat[r][col].is_zero), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        if not mat[rank][col].is_one:
            pinv = ONE / mat[rank][col]
            mat[rank] = [x * pinv for x in mat[rank]]
        for r, row in enumerate(mat):
            if r != rank and not row[col].is_zero:
                f = row[col]
                mat[r] = [x - f * y for x, y in zip(row, mat[rank])]
        rank += 1
    return rank


def _invert_rows(rows, d):
    """Exact inverse of the (basis -> m) matrix for one degree."""
    order = partitions_of(d)
    n = len(order)
    mat = [[rows[lam].get(mu, ZERO) for mu in order] +
           [ONE if i == j else ZERO for j in range(n)]
           for i, lam in enumerate(order)]
    if _reduce(mat, n) < n:
        raise ValueError("transition matrix is singular")
    # the right half is the inverse: its row mu expands m_mu in the basis
    return {mu: {lam: c for lam, c in zip(order, row[n:]) if not c.is_zero}
            for mu, row in zip(order, mat)}


@lru_cache(maxsize=None)
def _from_m(basis, d):
    """Expansions in the basis of the m_mu of degree d."""
    return _invert_rows(_to_m(basis, d), d)


def convert(f, target):
    """Rewrite f in the target basis."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if f.basis == target:
        return f
    out = f.terms
    if f.basis != "m":
        out = accumulate((mu, product(c, w)) for lam, c in out.items()
                         for mu, w in _to_m(f.basis, lam.size)[lam].items())
    if target != "m":
        out = accumulate((lam, product(c, w)) for mu, c in out.items()
                         for lam, w in _from_m(target, mu.size)[mu].items())
    return SymFunc(target, out)


def multiply(f, g):
    """Product, computed in the power-sum basis."""
    fp = convert(f, "p")
    gp = convert(g, "p")
    return SymFunc("p", accumulate(
        (_union(lam, mu), c1 * c2)
        for lam, c1 in fp.terms.items() for mu, c2 in gp.terms.items()))


def _pairing(fp, gp, z):
    """The pairing <p_lam, p_mu> = z(lam) delta of fp and gp, both in p."""
    small, big = fp.terms, gp.terms
    if len(big) < len(small):
        small, big = big, small
    return scalar_sum([c * big[lam] * z(lam)
                       for lam, c in small.items() if lam in big])


def hall_inner(f, g):
    """Hall pairing: <p_lam, p_mu> = z_lam delta."""
    return _pairing(convert(f, "p"), convert(g, "p"), z_of)


def perp_apply(g, f):
    """Apply g-perp, the Hall adjoint of multiplication by g, to f."""
    gp = convert(g, "p")
    fp = convert(f, "p")
    pairs = []
    for lam, c in gp.terms.items():
        terms = fp.terms
        for k in lam:
            terms = accumulate((nu, v * n) for mu, v in terms.items()
                               for nu, n in _perp_row("p", k, "p", mu).items())
            if not terms:
                break
        pairs.extend((mu, c * v) for mu, v in terms.items())
    return SymFunc("p", accumulate(pairs))


# integer rows, cached per partition pair, and the zero-test entries
# (scalars._vanishes) read off them in the basis F and G are built in, so
# that a passing check reduces no product, perp or basis change

@lru_cache(maxsize=None)
def _perp_row(g, k, basis, mu):
    """g_k-perp b_mu for g = h or p and b = m or p, in b: the integers
    {mu - beta: n} over the beta |- k whose parts are among mu's."""
    row = {}
    for beta in partitions_of(k):
        nu, ms = _minus(mu, beta), [beta.multiplicity(j) for j in set(beta)]
        if nu is None:
            continue
        if basis == "m" and g == "h":
            # h and m are dual: h_beta-perp m_mu = m_{mu - beta}
            n = int(beta == (k,))
        elif basis == "m":
            # p_k = sum over compositions alpha of k of (-1)^(l(alpha) - 1)
            # alpha_1 h_alpha, and the alpha_1 of the orderings alpha of
            # beta add up to k (l - 1)! / prod_i m_i(beta)!, l = l(beta)
            n = (-1) ** (len(beta) - 1) * k * math.factorial(len(beta) - 1) \
                // math.prod(map(math.factorial, ms))
        elif g == "h":
            # h_k = sum p_beta / z_beta, and p_beta-perp p_mu / z_beta =
            # prod_j C(m_j(mu), m_j(beta)) p_{mu - beta}
            n = math.prod(math.comb(mu.multiplicity(j), m)
                          for j, m in zip(set(beta), ms))
        else:
            # p_k-perp p_mu = k m_k(mu) p_{mu - k}
            n = k * mu.multiplicity(k) if beta == (k,) else 0
        if n:
            row[nu] = n
    return row


def _int(n):
    # n as the y of an entry: None (a lone x) for 1
    return None if n == 1 else Scalar.from_int(n)


def _perp_entries(g, k, f):
    """The entries (nu, x, n, -1) whose sums of x * n are -(g_k-perp f), in
    f's basis, m or p (_perp_row); g is "h" or "p"."""
    return ((nu, x, _int(n), -1) for mu, x in f.terms.items()
            for nu, n in _perp_row(g, k, f.basis, mu).items())


def _times_entries(g, f):
    """The entries (lam, x, w, -1) whose sums of x * w are -(g * f), in f's
    basis, m or p, for g in p: p_nu p_mu = p_{nu + mu}, and p_nu m_mu =
    sum n m_lam (_pm_row) with w = g[nu] * n."""
    if f.basis == "p":
        return ((_union(nu, mu), x, w, -1) for nu, w in g.terms.items()
                for mu, x in f.terms.items())
    w = lru_cache(maxsize=None)(lambda nu, n: g.terms[nu] * n)
    return ((lam, x, w(nu, n), -1) for nu in g.terms
            for mu, x in f.terms.items()
            for lam, n in _pm_row(nu, mu).items())


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
    return scalar_sum(list(theta_apply(f, params).terms.values()))


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
        return self + VarPoly(other.names,
                              {e: -c for e, c in other.terms.items()})

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
