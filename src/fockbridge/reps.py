"""Concrete graded representations.

fermionic_rep: semi-infinite wedges encoded as partitions, B_k shifting one
wedge index at a time.  macdonald_rep: partition basis with the arm/leg
weighted Pieri actions.  direct_sum and tensor combine reps sharing
parameters; llt_q1_rep transports an n-fold fermionic tensor through the
core/quotient bijection so that the index set is again all partitions.
"""

from __future__ import annotations

from functools import lru_cache

from .heisenberg import HeisenbergParams, Rep, _op_single, params_equal
from .partitions import (
    EMPTY,
    Partition,
    SkewShape,
    core_quotient,
    from_core_quotient,
    horizontal_strips,
    horizontal_strips_below,
    is_horizontal_strip,
    partitions_of,
    z_of,
)
from .scalars import ONE, Q, Scalar, T, accumulate, scalar_sum
from .symfunc import SymFunc, convert, sym_m

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

class _FermionicRep(Rep):
    """Wedge indices i_r = lam_{r+1} - r, strictly decreasing, frozen tail.

    B_k shifts one index by -k; a repeated index kills the term, otherwise
    the wedge is resorted with the crossing sign.  A window of
    len(lam) + |k| indices is enough: any shift of a frozen index collides
    with another frozen one.
    """

    degree_step = 1
    highest = EMPTY
    params = HeisenbergParams.constant(1)

    def basis_of_degree(self, d):
        return partitions_of(d) if d >= 0 else ()

    def degree_of(self, index):
        return index.size

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
            pairs.append((mu, Scalar.from_int(-1 if (p - j) % 2 else 1)))
        return accumulate(pairs)


_FERMIONIC = _FermionicRep()


def fermionic_rep():
    return _FERMIONIC


# ---------------------------------------------------------------------------
# Macdonald module

@lru_cache(maxsize=None)
def macdonald_b(lam, cell):
    """Arm/leg weight of a cell: (1 - q^a t^{l+1})/(1 - q^{a+1} t^l) inside
    lam, and 1 outside."""
    lam = Partition(lam)
    i, j = cell
    if not (1 <= i <= len(lam) and 1 <= j <= lam.part(i)):
        return ONE
    a = lam.part(i) - j
    l = sum(1 for r in range(i, len(lam)) if lam[r] >= j)
    return (ONE - Q ** a * T ** (l + 1)) / (ONE - Q ** (a + 1) * T ** l)


def macdonald_phi_psi(shape):
    """Pieri coefficients (phi, psi) of a horizontal strip.

    phi multiplies b-ratios over the cells of the outer shape lying in
    columns that meet the strip; psi over cells in rows meeting the strip
    whose columns do not.
    """
    if not is_horizontal_strip(shape):
        raise ValueError(f"{shape.outer}/{shape.inner} is not a horizontal strip")
    strip = shape.cells()
    cols = {c.col for c in strip}
    rows = {c.row for c in strip}
    phi = ONE
    psi = ONE
    for s in shape.outer.cells():
        if s.col in cols:
            phi = phi * macdonald_b(shape.outer, s) / macdonald_b(shape.inner, s)
        elif s.row in rows:
            psi = psi * macdonald_b(shape.inner, s) / macdonald_b(shape.outer, s)
    return phi, psi


class _MacdonaldRep(Rep):
    degree_step = 1
    highest = EMPTY
    params = HeisenbergParams(lambda k: (ONE - T ** k) / (ONE - Q ** k))

    def basis_of_degree(self, d):
        return partitions_of(d) if d >= 0 else ()

    def degree_of(self, index):
        return index.size

    def raw_U(self, k, lam):
        out = {}
        for mu in horizontal_strips(lam, k):
            out[mu], _ = macdonald_phi_psi(SkewShape(mu, lam))
        return out

    def raw_D(self, k, lam):
        out = {}
        for mu in horizontal_strips_below(lam, k):
            _, out[mu] = macdonald_phi_psi(SkewShape(lam, mu))
        return out


_MACDONALD = _MacdonaldRep()


def macdonald_rep():
    return _MACDONALD


# ---------------------------------------------------------------------------
# direct sums and tensor products

def _check_compatible(reps):
    first = reps[0]
    for r in reps[1:]:
        if r.degree_step != first.degree_step:
            raise ValueError("degree_step mismatch between summands/factors")
        if not params_equal(first.params, r.params):
            raise ValueError("parameter mismatch between summands/factors")


class _DirectSumRep(Rep):
    """Disjoint-union basis with componentwise action; indices are tagged."""

    def __init__(self, r1, r2):
        super().__init__()
        _check_compatible((r1, r2))
        self.parts = (r1, r2)
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


def _compositions(total, length):
    if length == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, length - 1):
            yield (head,) + tail


class _TensorRep(Rep):
    """Tensor product over a shared parameter family; a_k scales by the
    number of factors.  B acts by the Leibniz sum, U and D by convolution
    of the factor actions."""

    def __init__(self, factors):
        super().__init__()
        _check_compatible(factors)
        self.factors = tuple(factors)
        n = len(factors)
        base = factors[0].params
        self.params = HeisenbergParams(lambda k: base.value(k) * n)
        self.degree_step = factors[0].degree_step
        if all(f.highest is not None for f in factors):
            self.highest = tuple(f.highest for f in factors)

    def basis_of_degree(self, d):
        out = []
        for split in _compositions(d, len(self.factors)):
            blocks = [f.basis_of_degree(di)
                      for f, di in zip(self.factors, split)]
            stack = [()]
            for block in blocks:
                stack = [t + (i,) for t in stack for i in block]
            out.extend(stack)
        return tuple(out)

    def degree_of(self, index):
        return sum(f.degree_of(i) for f, i in zip(self.factors, index))

    def raw_B(self, k, index):
        return accumulate(
            (index[:pos] + (j,) + index[pos + 1:], c)
            for pos, (f, i) in enumerate(zip(self.factors, index))
            for j, c in _op_single(f, "B", k, i).items())

    def _convolve(self, op, k, index):
        pairs = []
        for split in _compositions(k, len(self.factors)):
            partial = {(): ONE}
            for f, i, ki in zip(self.factors, index, split):
                block = _op_single(f, op, ki, i)
                if not block:
                    partial = {}
                    break
                partial = {t + (j,): c * cj
                           for t, c in partial.items()
                           for j, cj in block.items()}
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

class _LltQ1Rep(Rep):
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
        self.highest = EMPTY

    def basis_of_degree(self, d):
        return partitions_of(d) if d >= 0 else ()

    def degree_of(self, index):
        return index.size

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
    v = z_of(lam)
    for part in lam:
        v = v * (ONE - Q ** part) / (ONE - T ** part)
    return v


def deformed_inner(f, g):
    """The (q,t) inner product with <p_lam, p_mu> = delta * z_lam(q,t)."""
    fp = convert(f, "p")
    gp = convert(g, "p")
    return scalar_sum([c * gp.terms[lam] * deformed_z(lam)
                       for lam, c in fp.terms.items() if lam in gp.terms])


def macdonald_p_oracle(d):
    """Orthogonalize {m_lam} bottom-up in reverse-lex order under the
    deformed inner product; returns {lam: P_lam} in the p basis.

    Independent of the operator route: only the inner product and the
    monomial transition matrices enter.
    """
    out = {}
    done = []
    for lam in reversed(partitions_of(d)):
        f = convert(sym_m(lam), "p")
        for mu in done:
            p_mu = out[mu]
            coef = deformed_inner(f, p_mu) / deformed_inner(p_mu, p_mu)
            if not coef.is_zero:
                f = f - p_mu.scaled(coef)
        out[lam] = f
        done.append(lam)
    return out
