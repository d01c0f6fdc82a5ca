"""Partitions, skew shapes, strips, and the n-core / n-quotient bijection.

Partitions are weakly decreasing tuples of positive integers.  Cells use
matrix coordinates (row, col), both 1-based.  Beta-numbers for the abacus
construction are lambda_i + (N - i) with N the least multiple of n that is
at least the length; quotient components are indexed by runner residue.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .scalars import _TABLE_LIMIT, Scalar

__all__ = [
    "Partition",
    "EMPTY",
    "Cell",
    "SkewShape",
    "parse_partition",
    "z_of",
    "partitions_of",
    "horizontal_strips",
    "horizontal_strips_below",
    "is_horizontal_strip",
    "dominates",
    "arm_leg",
    "core_quotient",
    "from_core_quotient",
]


# the one Partition of each validated tuple of parts (hash-consing:
# Filliatre & Conchon, ML Workshop 2006); past _TABLE_LIMIT entries a new
# partition is built but not stored
_PARTITIONS = {}


class Partition(tuple):
    """A partition as a tuple of weakly decreasing positive ints; equal
    partitions are one object."""

    def __new__(cls, parts=()):
        if isinstance(parts, tuple):    # a Partition among them
            p = _PARTITIONS.get(parts)
            if p is not None:
                return p
        parts = tuple(int(p) for p in parts)
        p = _PARTITIONS.get(parts)
        if p is not None:
            return p
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"partition parts must be positive: {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"partition parts must weakly decrease: {parts}")
        p = tuple.__new__(cls, parts)
        if len(_PARTITIONS) < _TABLE_LIMIT:
            _PARTITIONS[parts] = p
        return p

    @property
    def size(self):
        return sum(self)

    def multiplicity(self, i):
        return sum(1 for p in self if p == i)

    def conjugate(self):
        if not self:
            return EMPTY
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def contains(self, other):
        if len(other) > len(self):
            return False
        return all(self[i] >= other[i] for i in range(len(other)))

    def cells(self):
        return [Cell(i + 1, j + 1) for i, p in enumerate(self) for j in range(p)]

    def part(self, i):
        """1-based part access, zero beyond the length."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    def __str__(self):
        return "[" + ",".join(str(p) for p in self) + "]"

    def __repr__(self):
        return f"Partition({list(self)})"


EMPTY = Partition()


def parse_partition(text):
    """Parse the bracket form, e.g. "[3,1,1]" or "[]"."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"partition must look like [3,1,1]: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return EMPTY
    try:
        parts = [int(x) for x in body.split(",")]
    except ValueError:
        raise ValueError(f"bad partition entries: {text!r}") from None
    return Partition(parts)


class Cell(NamedTuple):
    row: int
    col: int


class SkewShape:
    """outer/inner pair with inner contained in outer."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner=EMPTY):
        outer = Partition(outer)
        inner = Partition(inner)
        if not outer.contains(inner):
            raise ValueError(f"inner {inner} not contained in outer {outer}")
        self.outer = outer
        self.inner = inner

    @property
    def size(self):
        return self.outer.size - self.inner.size

    def cells(self):
        out = []
        for i, p in enumerate(self.outer):
            lo = self.inner[i] if i < len(self.inner) else 0
            out.extend(Cell(i + 1, j + 1) for j in range(lo, p))
        return out

    def __eq__(self, other):
        return (isinstance(other, SkewShape)
                and self.outer == other.outer and self.inner == other.inner)

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return f"SkewShape({self.outer}/{self.inner})"


def z_of(lam):
    """The order of the centralizer of a permutation of cycle type lam."""
    lam = Partition(lam)
    z = 1
    for i in set(lam):
        m = lam.multiplicity(i)
        z *= i ** m * math.factorial(m)
    return Scalar.from_int(z)


@lru_cache(maxsize=None)
def partitions_of(d):
    """All partitions of d in reverse lexicographic order, largest first."""
    if d < 0:
        return ()
    out = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.append(Partition(acc))
            return
        for p in range(min(cap, remaining), 0, -1):
            rec(remaining - p, p, acc + (p,))

    rec(d, d if d else 1, ())
    if d == 0:
        return (EMPTY,)
    return tuple(out)


@lru_cache(maxsize=None)
def _spreads(k, caps):
    """The tuples d of nonnegative ints with d_i <= caps[i] summing to k,
    in lexicographic order: the row gains (losses) of a horizontal strip,
    or the degrees of a tensor split."""
    if not caps:
        return ((),) if k == 0 else ()
    return tuple((head,) + tail for head in range(min(k, caps[0]) + 1)
                 for tail in _spreads(k - head, caps[1:]))


# a horizontal strip interlaces, lam_{i+1} <= mu_i <= lam_i (Macdonald I
# (5.16)): a choice of how many cells each row gains (loses), capped by the
# step to the row above (below); lam is padded with one zero row
def horizontal_strips(lam, k):
    """Partitions mu containing lam with mu/lam a horizontal k-strip."""
    lam = Partition(lam)
    rows = lam + (0,)
    caps = (k,) + tuple(a - b for a, b in zip(lam, rows[1:]))
    return tuple(Partition(tuple(r + d for r, d in zip(rows, ds) if r + d))
                 for ds in reversed(_spreads(k, caps)))


def horizontal_strips_below(lam, k):
    """Partitions mu contained in lam with lam/mu a horizontal k-strip."""
    lam = Partition(lam)
    caps = tuple(a - b for a, b in zip(lam, lam[1:] + (0,)))
    return tuple(Partition(tuple(r - d for r, d in zip(lam, ds) if r - d))
                 for ds in _spreads(k, caps))


def is_horizontal_strip(shape):
    """True when the skew shape has at most one cell in every column."""
    inner, outer = shape.inner, shape.outer
    return all(inner.part(i) >= outer.part(i + 1)
               for i in range(1, len(outer)))


def dominates(lam, mu):
    """Dominance order: lam >= mu (requires equal sizes)."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError("dominance compares partitions of equal size")
    sa = sb = 0
    for i in range(max(len(lam), len(mu))):
        sa += lam.part(i + 1)
        sb += mu.part(i + 1)
        if sa < sb:
            return False
    return True


def arm_leg(lam, cell):
    """(arm, leg) of a cell of lam; errors when the cell is outside lam."""
    lam = Partition(lam)
    i, j = cell
    if not (1 <= i <= len(lam) and 1 <= j <= lam[i - 1]):
        raise ValueError(f"cell {cell} not in partition {lam}")
    arm = lam[i - 1] - j
    leg = sum(1 for r in range(i, len(lam)) if lam[r] >= j)
    return arm, leg


def _beta_numbers(lam, N):
    return [lam.part(i) + (N - i) for i in range(1, N + 1)]


def _partition_from_betas(betas):
    betas = sorted(betas, reverse=True)
    N = len(betas)
    parts = [betas[i] - (N - 1 - i) for i in range(N)]
    return Partition(tuple(p for p in parts if p))


def core_quotient(lam, n):
    """n-core and n-quotient via the abacus; quotient indexed by runner."""
    lam = Partition(lam)
    if n < 2:
        raise ValueError("modulus must be at least 2")
    N = ((len(lam) + n - 1) // n) * n
    runners = [[] for _ in range(n)]
    for b in _beta_numbers(lam, N):
        runners[b % n].append(b // n)
    # a runner's beads are its quotient's beta-numbers; the core's sit atop
    core_betas = [n * j + r for r in range(n) for j in range(len(runners[r]))]
    return _partition_from_betas(core_betas), tuple(
        map(_partition_from_betas, runners))


def from_core_quotient(core, quotient):
    """Inverse of core_quotient; modulus is the number of quotient components."""
    core = Partition(core)
    n = len(quotient)
    if n < 2:
        raise ValueError("quotient must have at least 2 components")
    quotient = tuple(Partition(q) for q in quotient)
    N = ((len(core) + n - 1) // n) * n
    runners = [[] for _ in range(n)]
    for b in _beta_numbers(core, N):
        runners[b % n].append(b // n)
    if any(sorted(beads) != list(range(len(beads))) for beads in runners):
        raise ValueError(f"{core} is not an {n}-core")
    # n more beta-numbers put one more bead at the foot of every runner
    extra = max(0, *(len(q) - len(b) for q, b in zip(quotient, runners)))
    betas = []
    for r, q in enumerate(quotient):
        c = len(runners[r]) + extra
        betas.extend(n * (q.part(j + 1) + (c - 1 - j)) + r for j in range(c))
    return _partition_from_betas(betas)
