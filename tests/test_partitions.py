"""Partition combinatorics against brute-force oracles."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fockbridge.partitions import (
    EMPTY,
    Cell,
    Partition,
    SkewShape,
    _spreads,
    arm_leg,
    core_quotient,
    dominates,
    from_core_quotient,
    horizontal_strips,
    horizontal_strips_below,
    is_horizontal_strip,
    parse_partition,
    partitions_of,
    z_of,
)


def one_cell_per_column(shape):
    # the column definition of a horizontal strip, computed cellwise
    cols = [c.col for c in shape.cells()]
    return len(cols) == len(set(cols))


def brute_strips(lam, k):
    # oracle: filter all partitions of |lam|+k by containment and the
    # one-cell-per-column condition
    lam = Partition(lam)
    return tuple(sorted((mu for mu in partitions_of(lam.size + k)
                         if mu.contains(lam)
                         and one_cell_per_column(SkewShape(mu, lam))),
                        reverse=True))


def brute_strips_below(lam, k):
    # the same oracle below lam, over the partitions of |lam|-k
    lam = Partition(lam)
    return tuple(sorted((mu for mu in partitions_of(lam.size - k)
                         if lam.contains(mu)
                         and one_cell_per_column(SkewShape(lam, mu))),
                        reverse=True))


def partitions_up_to(d):
    return st.integers(0, d).flatmap(
        lambda k: st.sampled_from(partitions_of(k)))


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        assert Partition([3, 1, 1]).size == 5

    def test_one_object_per_partition(self):
        lam = Partition([3, 1])
        assert lam is Partition((3, 1)) is Partition(Partition([3, 1]))
        assert lam is parse_partition("[3,1]") is Partition(iter([3, 1]))
        assert Partition() is EMPTY is Partition([]) is Partition(())
        assert horizontal_strips([2], 2)[1] is Partition([3, 1])
        assert Partition([3, 2]).conjugate() is Partition([2, 2, 1])

    def test_invalid_parts_raise_every_time(self):
        from fockbridge.partitions import _PARTITIONS
        for bad in ((1, 2), [2, 0], (3, -1), [0]):
            for _ in range(2):
                with pytest.raises(ValueError):
                    Partition(bad)
            assert tuple(bad) not in _PARTITIONS

    def test_parse_and_str(self):
        assert parse_partition("[3,1,1]") == Partition([3, 1, 1])
        assert parse_partition("[]") == EMPTY
        assert str(Partition([2, 1])) == "[2,1]"
        with pytest.raises(ValueError):
            parse_partition("3,1")

    def test_conjugate_involution(self):
        for d in range(8):
            for lam in partitions_of(d):
                assert lam.conjugate().conjugate() == lam
        assert Partition([3, 2]).conjugate() == Partition([2, 2, 1])

    def test_contains(self):
        assert Partition([3, 2]).contains(Partition([2, 2]))
        assert not Partition([3, 2]).contains(Partition([1, 1, 1]))

    def test_skew_validation(self):
        with pytest.raises(ValueError):
            SkewShape([2], [1, 1])
        shape = SkewShape([2, 1], [1])
        assert shape.size == 2
        assert shape.cells() == [Cell(1, 2), Cell(2, 1)]


class TestEnumeration:
    def test_reverse_lex_order(self):
        assert partitions_of(3) == (
            Partition([3]), Partition([2, 1]), Partition([1, 1, 1]))

    def test_counts(self):
        # p(0)..p(10)
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for d, e in enumerate(expected):
            assert len(partitions_of(d)) == e

    def test_z_values(self):
        assert z_of(EMPTY) == 1
        assert z_of([2, 1]) == 2
        assert z_of([1, 1, 1]) == 6
        assert z_of([3, 3, 1]) == 18
        # sum over a degree of 1/z equals 1 (coefficientwise identity for h_n)
        from fockbridge.scalars import ONE, ZERO
        for d in range(1, 7):
            total = ZERO
            for lam in partitions_of(d):
                total = total + ONE / z_of(lam)
            # sum of 1/z_lam over partitions of d is h_d evaluated at x=(1):
            # equals 1 for every d
            assert total == ONE


class TestStrips:
    def test_examples(self):
        assert horizontal_strips(Partition([1]), 2) == (
            Partition([3]), Partition([2, 1]))
        assert horizontal_strips(Partition([2, 2]), 1) == (
            Partition([3, 2]), Partition([2, 2, 1]))
        assert horizontal_strips(EMPTY, 3) == (Partition([3]),)

    def test_against_brute_force(self):
        for d in range(5):
            for lam in partitions_of(d):
                for k in range(5):
                    assert horizontal_strips(lam, k) == brute_strips(lam, k)

    def test_below_matches_up(self):
        # mu in strips_below(lam, k) iff lam in strips(mu, k)
        for d in range(6):
            for lam in partitions_of(d):
                for k in range(4):
                    below = horizontal_strips_below(lam, k)
                    for mu in below:
                        assert lam in horizontal_strips(mu, k)
                    for mu in partitions_of(d - k):
                        if lam in horizontal_strips(mu, k):
                            assert mu in below

    def test_below_against_brute_force(self):
        # in order, not only as sets
        for d in range(7):
            for lam in partitions_of(d):
                for k in range(5):
                    assert horizontal_strips_below(lam, k) == \
                        brute_strips_below(lam, k), (lam, k)

    def test_zero_and_negative_k(self):
        for lam in (EMPTY, Partition([1]), Partition([3, 1, 1])):
            for strips in (horizontal_strips, horizontal_strips_below):
                assert strips(lam, -1) == strips(lam, -3) == ()
                assert strips(lam, 0) == (lam,)
                assert strips(lam, 0)[0] is lam

    def test_is_horizontal_strip(self):
        assert is_horizontal_strip(SkewShape([3, 1], [1]))
        assert not is_horizontal_strip(SkewShape([2, 2], [1]))
        assert is_horizontal_strip(SkewShape([2, 2], [2, 1]))

    def test_is_horizontal_strip_is_the_column_condition(self):
        # the interlacing test against at most one cell per column, on
        # every mu inside lam with |lam| <= 7
        checked = 0
        for d in range(8):
            for lam in partitions_of(d):
                for e in range(d + 1):
                    for mu in partitions_of(e):
                        if lam.contains(mu):
                            shape = SkewShape(lam, mu)
                            assert is_horizontal_strip(shape) == \
                                one_cell_per_column(shape), shape
                            checked += 1
        assert checked == 449

    def test_spreads_filter_the_product(self):
        # every cap tuple of length <= 3 with caps <= 3: the product's
        # tuples of sum k, in its (lexicographic) order
        for n in range(4):
            for caps in itertools.product(range(4), repeat=n):
                for k in range(-1, 11):
                    want = tuple(
                        d for d in itertools.product(
                            *(range(c + 1) for c in caps)) if sum(d) == k)
                    assert _spreads(k, caps) == want, (k, caps)


class TestArmLeg:
    def test_values(self):
        lam = Partition([3, 2])
        assert arm_leg(lam, Cell(1, 1)) == (2, 1)
        assert arm_leg(lam, Cell(1, 2)) == (1, 1)
        assert arm_leg(lam, Cell(1, 3)) == (0, 0)
        assert arm_leg(lam, Cell(2, 1)) == (1, 0)

    def test_conjugate_symmetry(self):
        for lam in partitions_of(6):
            conj = lam.conjugate()
            for cell in lam.cells():
                a, l = arm_leg(lam, cell)
                a2, l2 = arm_leg(conj, Cell(cell.col, cell.row))
                assert (a, l) == (l2, a2)

    def test_outside_cell_rejected(self):
        with pytest.raises(ValueError):
            arm_leg(Partition([2]), Cell(2, 1))


class TestCoreQuotient:
    def test_examples(self):
        core, quot = core_quotient(Partition([2]), 2)
        assert core == EMPTY
        assert sorted(map(tuple, quot)) == [(), (1,)]
        core, quot = core_quotient(Partition([2, 1]), 2)
        assert core == Partition([2, 1])
        assert quot == (EMPTY, EMPTY)

    def test_size_identity(self):
        for n in (2, 3):
            for d in range(9):
                for lam in partitions_of(d):
                    core, quot = core_quotient(lam, n)
                    assert lam.size == core.size + n * sum(q.size for q in quot)

    def test_round_trip(self):
        for n in (2, 3):
            for d in range(9):
                for lam in partitions_of(d):
                    core, quot = core_quotient(lam, n)
                    assert from_core_quotient(core, quot) == lam

    def test_bijection_is_injective(self):
        seen = {}
        for d in range(8):
            for lam in partitions_of(d):
                key = core_quotient(lam, 2)
                assert key not in seen
                seen[key] = lam

    def test_core_has_empty_quotient(self):
        for d in range(9):
            for lam in partitions_of(d):
                core, _ = core_quotient(lam, 3)
                core2, quot2 = core_quotient(core, 3)
                assert core2 == core
                assert all(q == EMPTY for q in quot2)

    def test_non_core_rejected(self):
        with pytest.raises(ValueError):
            from_core_quotient(Partition([2]), (EMPTY, EMPTY))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.just(n), partitions_up_to(8),
        st.lists(partitions_up_to(5), min_size=n, max_size=n))))
    def test_core_and_quotient_round_trip(self, drawn):
        # the reverse of test_round_trip: a quotient part longer than its
        # runner's core beads needs extra beads on every runner
        n, lam, quotient = drawn
        core, quotient = core_quotient(lam, n)[0], tuple(quotient)
        assert core_quotient(from_core_quotient(core, quotient), n) == \
            (core, quotient)


class TestDominance:
    def test_chain(self):
        assert dominates([3], [2, 1])
        assert dominates([2, 1], [1, 1, 1])
        assert not dominates([1, 1, 1], [2, 1])

    def test_incomparable(self):
        assert not dominates([3, 1, 1, 1], [2, 2, 2])
        assert not dominates([2, 2, 2], [3, 1, 1, 1])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            dominates([2], [1])
