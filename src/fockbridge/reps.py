"""Concrete graded representations.

fermionic_rep: semi-infinite wedges encoded as partitions, B_k shifting one
wedge index (bead) at a time, U_k and D_k by the Schur Pieri rule: a sum
over horizontal k-strips, each with coefficient 1.  macdonald_rep:
partition basis with the arm/leg weighted Pieri actions.  direct_sum and
tensor combine reps sharing parameters; llt_q1_rep transports an n-fold
fermionic tensor through the core/quotient bijection so that the index set
is again all partitions.
"""

from __future__ import annotations

import itertools

from .heisenberg import HeisenbergParams, Rep, _op_single, params_equal
from .partitions import (
    EMPTY,
    Partition,
    SkewShape,
    _spreads,
    arm_leg,
    core_quotient,
    from_core_quotient,
    horizontal_strips,
    horizontal_strips_below,
    is_horizontal_strip,
    partitions_of,
    z_of,
)
from .scalars import ONE, _binomial_ratio, accumulate, product, scalar_sum
from .symfunc import SymFunc, _pairing, convert, sym_m

__all__ = [
    "fermionic_rep",
    "macdonald_b",
    "macdonald_phi_psi",
    "macdonald_rep",
    "direct_sum",
    "tensor",
    "llt_q1_rep",
    "deformed_z",
    "deformed_inner",
    "macdonald_p_oracle",
]


# ---------------------------------------------------------------------------
# fermionic Fock space

class _OnPartitions(Rep):
    """Basis v_lam over all partitions lam, graded by |lam|, v_[] highest."""

    highest = EMPTY

    def basis_of_degree(self, d):
        return partitions_of(d) if d >= 0 else ()

    def degree_of(self, index):
        return index.size


class _FermionicRep(_OnPartitions):
    """Wedge indices i_r = lam_{r+1} - r, strictly decreasing, frozen tail.

    B_k shifts one index by -k; a repeated index kills the term, otherwise
    the wedge is resorted with the crossing sign.  A window of
    len(lam) + |k| indices is enough: any shift of a frozen index collides
    with another frozen one.
    """

    params = HeisenbergParams.constant(1)

    def raw_B(self, k, lam):
        w = len(lam) + abs(k)
        beads = [lam.part(r + 1) - r for r in range(w)]
        present = set(beads)
        pairs = []
        for j in range(w):
            nb = beads[j] - k
            if nb in present or nb <= -w:
                continue
            rest = beads[:j] + beads[j + 1:]
            p = 0
            while p < len(rest) and rest[p] > nb:
                p += 1
            resorted = rest[:p] + [nb] + rest[p:]
            mu = Partition(tuple(x for x in
                                 (resorted[r] + r for r in range(w)) if x))
            pairs.append((mu, -ONE if (p - j) % 2 else ONE))
        return accumulate(pairs)

    def raw_U(self, k, lam):
        # the Pieri rule: U_k is multiplication by h_k on Schur functions and
        # D_k its adjoint (Macdonald I (5.16)), so no chain of B products
        # (Newton's identities) is needed for them
        return dict.fromkeys(horizontal_strips(lam, k), ONE)

    def raw_D(self, k, lam):
        return dict.fromkeys(horizontal_strips_below(lam, k), ONE)


_FERMIONIC = _FermionicRep()


def fermionic_rep():
    return _FERMIONIC


# ---------------------------------------------------------------------------
# Macdonald module

def _b_binomials(lam, cell):
    # the weight of a cell as ([(a, l + 1)], [(a + 1, l)]): the binomials
    # 1 - q^x t^y of its numerator and its denominator; none outside lam
    i, j = cell
    if not (1 <= i <= len(lam) and 1 <= j <= lam.part(i)):
        return [], []
    a, l = arm_leg(lam, cell)
    return [(a, l + 1)], [(a + 1, l)]


def macdonald_b(lam, cell):
    """Arm/leg weight of a cell: (1 - q^a t^{l+1})/(1 - q^{a+1} t^l) inside
    lam, and 1 outside."""
    return _binomial_ratio(*_b_binomials(Partition(lam), cell))


def macdonald_phi_psi(shape):
    """Pieri coefficients (phi, psi) of a horizontal strip.

    phi multiplies b-ratios over the cells of the outer shape lying in
    columns that meet the strip; psi over cells in rows meeting the strip
    whose columns do not.  Each is collected as binomials and built once.
    """
    if not is_horizontal_strip(shape):
        raise ValueError(f"{shape.outer}/{shape.inner} is not a horizontal strip")
    return _strip_ratio(shape, False), _strip_ratio(shape, True)


def _strip_ratio(shape, psi):
    # phi of a horizontal strip: b_outer(s) / b_inner(s) over the cells s of
    # the outer shape in columns that meet the strip; or, when psi is true,
    # psi: b_inner(s) / b_outer(s) over the others in rows that meet it
    strip = shape.cells()
    cols = {c.col for c in strip}
    rows = {c.row for c in strip}
    over, under = (shape.inner, shape.outer) if psi else \
        (shape.outer, shape.inner)
    ups, downs = [], []
    for s in shape.outer.cells():
        if (s.row in rows and s.col not in cols) if psi else s.col in cols:
            up, down = _b_binomials(over, s)
            down_under, up_under = _b_binomials(under, s)
            ups.extend(up + up_under)
            downs.extend(down + down_under)
    return _binomial_ratio(ups, downs)


class _MacdonaldRep(_OnPartitions):
    params = HeisenbergParams(lambda k: _binomial_ratio([(0, k)], [(k, 0)]))

    def raw_U(self, k, lam):       # phi alone
        return {mu: _strip_ratio(SkewShape(mu, lam), False)
                for mu in horizontal_strips(lam, k)}

    def raw_D(self, k, lam):       # psi alone
        return {mu: _strip_ratio(SkewShape(lam, mu), True)
                for mu in horizontal_strips_below(lam, k)}


_MACDONALD = _MacdonaldRep()


def macdonald_rep():
    return _MACDONALD


# ---------------------------------------------------------------------------
# direct sums and tensor products

def _kmax(reps):
    # the parameters of reps known to all: a bundle's stop at its kmax, and
    # a direct sum's or tensor's at its parts' smallest (8 if none)
    return min(getattr(r, "kmax", 8) for r in reps)


def _check_compatible(reps):
    # a power's factor is not compared with itself; a pair compares its
    # parameters up to its _kmax
    first = reps[0]
    for r in reps[1:]:
        if r.degree_step != first.degree_step:
            raise ValueError("degree_step mismatch between summands/factors")
        if r is not first and \
                not params_equal(first.params, r.params, _kmax((first, r))):
            raise ValueError("parameter mismatch between summands/factors")


class _DirectSumRep(Rep):
    """Disjoint-union basis with componentwise action; indices are tagged."""

    def __init__(self, r1, r2):
        super().__init__()
        _check_compatible((r1, r2))
        self.parts = (r1, r2)
        self.kmax = _kmax(self.parts)
        self.params = r1.params
        self.degree_step = r1.degree_step
        self.highest = (0, r1.highest) if r1.highest is not None else None

    def basis_of_degree(self, d):
        out = []
        for tag, r in enumerate(self.parts):
            out.extend((tag, i) for i in r.basis_of_degree(d))
        return tuple(out)

    def degree_of(self, index):
        tag, i = index
        return self.parts[tag].degree_of(i)

    def _delegate(self, op, k, index):
        tag, i = index
        return {(tag, j): c
                for j, c in _op_single(self.parts[tag], op, k, i).items()}

    def raw_B(self, k, index):
        return self._delegate("B", k, index)

    def raw_U(self, k, index):
        return self._delegate("U", k, index)

    def raw_D(self, k, index):
        return self._delegate("D", k, index)


def direct_sum(r1, r2):
    return _DirectSumRep(r1, r2)


class _TensorRep(Rep):
    """Tensor product over a shared parameter family; a_k scales by the
    number of factors.  B acts by the Leibniz sum, U and D by convolution
    of the factor actions."""

    def __init__(self, factors):
        super().__init__()
        _check_compatible(factors)
        self.factors = tuple(factors)
        self.kmax = _kmax(self.factors)
        n = len(factors)
        base = factors[0].params
        self.params = HeisenbergParams(lambda k: base.value(k) * n)
        self.degree_step = factors[0].degree_step
        if all(f.highest is not None for f in factors):
            self.highest = tuple(f.highest for f in factors)

    def basis_of_degree(self, d):
        return tuple(t for split in _spreads(d, (d,) * len(self.factors))
                     for t in itertools.product(
                         *(f.basis_of_degree(di)
                           for f, di in zip(self.factors, split))))

    def degree_of(self, index):
        return sum(f.degree_of(i) for f, i in zip(self.factors, index))

    def raw_B(self, k, index):
        return accumulate(
            (index[:pos] + (j,) + index[pos + 1:], c)
            for pos, (f, i) in enumerate(zip(self.factors, index))
            for j, c in _op_single(f, "B", k, i).items())

    def _convolve(self, op, k, index):
        # a factor with order 0 acts as the identity: only the positions of
        # a split's nonzero orders are rewritten
        pairs = []
        for split in _spreads(k, (k,) * len(self.factors)):
            partial = {index: ONE}
            for pos, ki in enumerate(split):
                if not ki:
                    continue
                block = _op_single(self.factors[pos], op, ki, index[pos])
                partial = {t[:pos] + (j,) + t[pos + 1:]:
                           cj if c.is_one else c * cj
                           for t, c in partial.items()
                           for j, cj in block.items()}
                if not partial:
                    break
            pairs.extend(partial.items())
        return accumulate(pairs)

    def raw_U(self, k, index):
        return self._convolve("U", k, index)

    def raw_D(self, k, index):
        return self._convolve("D", k, index)


def tensor(*factors):
    if len(factors) < 2:
        raise ValueError("tensor needs at least two factors")
    return _TensorRep(factors)


# ---------------------------------------------------------------------------
# LLT Fock space at q = 1

class _LltQ1Rep(_OnPartitions):
    """All partitions, acted on through the n-core/quotient bijection.

    v_lam is identified with the n-tuple of quotient components inside the
    n-fold fermionic tensor; the core is inert, so the space splits into
    blocks indexed by n-cores.  One B_k step moves nk cells of lam."""

    def __init__(self, n):
        super().__init__()
        if n < 2:
            raise ValueError("n must be >= 2")
        self.n = n
        self._tensor = _TensorRep((_FERMIONIC,) * n)
        self.params = HeisenbergParams.constant(n)
        self.degree_step = n

    def _transport(self, op, k, lam):
        core, quot = core_quotient(lam, self.n)
        return {from_core_quotient(core, tup): c
                for tup, c in _op_single(self._tensor, op, k, quot).items()}

    def raw_B(self, k, lam):
        return self._transport("B", k, lam)

    def raw_U(self, k, lam):
        return self._transport("U", k, lam)

    def raw_D(self, k, lam):
        return self._transport("D", k, lam)


def llt_q1_rep(n):
    return _LltQ1Rep(n)


# ---------------------------------------------------------------------------
# Gram-Schmidt oracle for the Macdonald family

def deformed_z(lam):
    """z_lam(q,t) = z_lam * prod over parts (1 - q^part)/(1 - t^part)."""
    return z_of(lam) * _binomial_ratio([(p, 0) for p in lam],
                                       [(0, p) for p in lam])


def deformed_inner(f, g):
    """The (q,t) inner product with <p_lam, p_mu> = delta * z_lam(q,t)."""
    return _pairing(convert(f, "p"), convert(g, "p"), deformed_z)


def macdonald_p_oracle(d):
    """Orthogonalize {m_lam} bottom-up in reverse-lex order under the
    deformed inner product; returns {lam: P_lam} in the p basis.

    P_lam = sum u_{lam beta} m_beta, against the Gram matrix G[a, b] =
    <m_a, m_b>_{q,t} paired from the p rows of the m_a; <P_mu, P_mu> =
    <m_mu, P_mu>.  No operator enters: only the inner product and the
    monomial transition matrices.
    """
    order = partitions_of(d)[::-1]
    z = {lam: deformed_z(lam) for lam in order}.__getitem__
    rows = {lam: convert(sym_m(lam), "p") for lam in order}
    us, norms = {}, {}
    for lam, f in rows.items():
        g = {mu: _pairing(f, rows[mu], z) for mu in [*us, lam]}
        pairs = [(lam, ONE)]
        for mu, u in us.items():
            c = -scalar_sum([x * g[b] for b, x in u.items()]) / norms[mu]
            if not c.is_zero:
                pairs.extend((b, product(c, x)) for b, x in u.items())
        u = us[lam] = accumulate(pairs)
        norms[lam] = scalar_sum([x * g[b] for b, x in u.items()])
    return {lam: convert(SymFunc("m", u), "p") for lam, u in us.items()}
