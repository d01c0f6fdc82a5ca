"""Basis conversions, Hall pairing, products, tableaux, evaluation."""

import time
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from fockbridge.partitions import (
    EMPTY,
    Partition,
    SkewShape,
    horizontal_strips,
    partitions_of,
    z_of,
)
from fockbridge.scalars import ONE, Q, Scalar, ZERO
from fockbridge.symfunc import (
    _distinct_padded_perms,
    SymFunc,
    convert,
    evaluate_vars,
    hall_inner,
    kappa_eval,
    multiply,
    perp_apply,
    schur_tableaux,
    sym_h,
    sym_m,
    sym_p,
    sym_s,
    theta_apply,
)

P = Partition
half = Scalar.fraction(1, 2)


class TestFrozenExpansions:
    def test_h2_in_p(self):
        f = convert(sym_h((2,)), "p")
        assert f.terms == {P((2,)): half, P((1, 1)): half}

    def test_m11_in_p(self):
        f = convert(sym_m((1, 1)), "p")
        assert f.terms == {P((1, 1)): half, P((2,)): -half}

    def test_p11_in_m(self):
        f = convert(sym_p((1, 1)), "m")
        assert f.terms == {P((1, 1)): Scalar.from_int(2), P((2,)): ONE}

    def test_s21_in_m(self):
        f = convert(sym_s((2, 1)), "m")
        assert f.terms == {P((2, 1)): ONE, P((1, 1, 1)): Scalar.from_int(2)}

    def test_s111_in_p(self):
        # e_3 = (p_1^3 - 3 p_2 p_1 + 2 p_3)/6
        f = convert(sym_s((1, 1, 1)), "p")
        assert f.coefficient((1, 1, 1)) == Scalar.fraction(1, 6)
        assert f.coefficient((2, 1)) == Scalar.fraction(-1, 2)
        assert f.coefficient((3,)) == Scalar.fraction(1, 3)

    def test_skew_schur(self):
        sk = SkewShape(P((2, 1)), P((1,)))
        f = schur_tableaux(sk)
        assert f.terms == {P((2,)): ONE, P((1, 1)): Scalar.from_int(2)}

    def test_schur_straight_shape_matches(self):
        for lam in partitions_of(4):
            assert schur_tableaux(lam) == convert(sym_s(lam), "m")


class TestRoundTrips:
    @pytest.mark.parametrize("basis", ["p", "h", "m", "s"])
    @pytest.mark.parametrize("target", ["p", "h", "m", "s"])
    def test_round_trip(self, basis, target):
        for d in range(6):
            for lam in partitions_of(d):
                f = SymFunc(basis, {lam: ONE})
                back = convert(convert(f, target), basis)
                assert back.terms == f.terms, (basis, target, lam)

    def test_cross_basis_equality(self):
        assert sym_h((1,)) == sym_p((1,))
        assert sym_h((1,)) == sym_m((1,))
        assert sym_s((1, 1)) - sym_m((1, 1)) == SymFunc.zero("m")


class TestHallPairing:
    def test_p_orthogonality(self):
        for lam in partitions_of(4):
            for mu in partitions_of(4):
                v = hall_inner(sym_p(lam), sym_p(mu))
                assert v == (z_of(lam) if lam == mu else ZERO)

    def test_h_m_duality(self):
        for d in range(1, 6):
            for lam in partitions_of(d):
                for mu in partitions_of(d):
                    v = hall_inner(sym_h(lam), sym_m(mu))
                    assert v == (ONE if lam == mu else ZERO)

    def test_schur_orthonormality(self):
        for lam in partitions_of(5):
            for mu in partitions_of(5):
                v = hall_inner(sym_s(lam), sym_s(mu))
                assert v == (ONE if lam == mu else ZERO)

    def test_degree_mismatch_vanishes(self):
        assert hall_inner(sym_p((2,)), sym_p((1, 1))) == ZERO
        assert hall_inner(sym_h((3,)), sym_s((2,))) == ZERO


class TestProducts:
    def test_p_free(self):
        assert multiply(sym_p((2,)), sym_p((1,))).terms == {P((2, 1)): ONE}

    def test_schur_square(self):
        f = convert(multiply(sym_s((1,)), sym_s((1,))), "s")
        assert f.terms == {P((2,)): ONE, P((1, 1)): ONE}

    def test_pieri_rule(self):
        # h_k * s_lam = sum of s_mu over horizontal k-strips above lam
        for lam in [P(()), P((1,)), P((2, 1)), P((2, 2, 1))]:
            for k in range(4):
                lhs = convert(multiply(sym_h((k,) if k else ()), sym_s(lam)), "s")
                rhs = SymFunc("s", {mu: ONE for mu in horizontal_strips(lam, k)})
                assert lhs == rhs, (lam, k)

    def test_scalar_action(self):
        f = (sym_p((1,)) + sym_p((2,))) * 3
        assert f.coefficient((2,)) == Scalar.from_int(3)
        g = Q * sym_p((1,))
        assert g.coefficient((1,)) == Q


class TestPerp:
    def test_pk_perp_monomial(self):
        f = perp_apply(sym_p((2,)), sym_p((2, 2, 1)))
        assert f.terms == {P((2, 1)): Scalar.from_int(4)}

    def test_perp_kills_lower_degree(self):
        assert perp_apply(sym_p((3,)), sym_p((2, 1))).is_zero

    def test_adjointness(self):
        # <p_k f, g> == <f, p_k-perp g> across a small grid
        fs = [sym_p((1,)), sym_h((2,)), sym_s((2, 1))]
        gs = [sym_p((2, 1, 1)), sym_s((3, 1)), sym_h((2, 2))]
        for k in (1, 2, 3):
            pk = sym_p((k,))
            for f in fs:
                for g in gs:
                    lhs = hall_inner(multiply(pk, f), g)
                    rhs = hall_inner(f, perp_apply(pk, g))
                    assert lhs == rhs, (k, f, g)

    def test_h_perp_via_strips(self):
        # h_1-perp on a Schur function strips one cell in all ways
        f = convert(perp_apply(sym_h((1,)), sym_s((2, 1))), "s")
        assert f.terms == {P((2,)): ONE, P((1, 1)): ONE}


class _ConstParams:
    def __init__(self, table):
        self.table = table

    def value(self, k):
        return self.table[k]


class TestThetaKappa:
    def test_theta_rescales(self):
        params = _ConstParams({1: Q, 2: Q * Q})
        f = theta_apply(sym_p((2, 1)), params)
        assert f.terms == {P((2, 1)): Q ** 3}

    def test_kappa_on_h(self):
        # with a_k = 1, kappa(h_d) = sum over partitions of 1/z = 1
        params = _ConstParams({k: ONE for k in range(1, 7)})
        for d in range(1, 6):
            assert kappa_eval(sym_h((d,)), params) == ONE

    def test_kappa_linear(self):
        params = _ConstParams({1: Q, 2: ONE - Q})
        v = kappa_eval(sym_p((2,)) + sym_p((1, 1)), params)
        assert v == (ONE - Q) + Q * Q


class TestEvaluate:
    def test_too_few_variables(self):
        assert evaluate_vars(sym_m((1, 1)), 1).is_zero

    def test_s2_two_vars(self):
        p = evaluate_vars(sym_s((2,)), ["x1", "x2"])
        assert p.terms == {(2, 0): ONE, (1, 1): ONE, (0, 2): ONE}

    def test_p2_two_vars(self):
        p = evaluate_vars(sym_p((2,)), 2)
        assert p.terms == {(2, 0): ONE, (0, 2): ONE}

    def test_product_compatible(self):
        f = multiply(sym_s((2, 1)), sym_h((2,)))
        direct = evaluate_vars(f, 3)
        a = evaluate_vars(sym_s((2, 1)), 3)
        b = evaluate_vars(sym_h((2,)), 3)
        assert direct == a * b

    def test_cauchy_in_ring(self):
        # sum over d <= 4 of schur pairing equals power-sum pairing, 3+3 vars
        names = ["x1", "x2", "x3", "y1", "y2", "y3"]
        from fockbridge.symfunc import VarPoly
        lhs = VarPoly.zero(names)
        rhs = VarPoly.zero(names)
        for d in range(5):
            for lam in partitions_of(d):
                sx = evaluate_vars(sym_s(lam), 3).embed(names, 0)
                sy = evaluate_vars(sym_s(lam), ["y1", "y2", "y3"]).embed(names, 3)
                lhs = lhs + sx * sy
                px = evaluate_vars(sym_p(lam), 3).embed(names, 0)
                py = evaluate_vars(sym_p(lam), ["y1", "y2", "y3"]).embed(names, 3)
                rhs = rhs + (px * py).scaled(ONE / z_of(lam))
        assert lhs == rhs

    def test_many_variables_fast(self):
        # twelve variables: 12 * 11 distinct exponent vectors, not 12! orderings
        t0 = time.perf_counter()
        p = evaluate_vars(sym_m((2, 1)), 12)
        assert time.perf_counter() - t0 < 1.0
        assert len(p.terms) == 132
        assert all(c == ONE for c in p.terms.values())

    def test_distinct_perms_match_itertools(self):
        for lam in [(), (1,), (1, 1), (2, 1), (3, 1, 1), (2, 2, 1, 1), (4,)]:
            for n in range(len(lam), 7):
                padded = tuple(lam) + (0,) * (n - len(lam))
                want = tuple(sorted(set(permutations(padded))))
                assert _distinct_padded_perms(lam, n) == want, (lam, n)


@st.composite
def small_symfuncs(draw):
    basis = draw(st.sampled_from(["p", "h", "m", "s"]))
    n = draw(st.integers(0, 2))
    terms = {}
    for _ in range(n):
        d = draw(st.integers(0, 4))
        parts = partitions_of(d)
        lam = parts[draw(st.integers(0, len(parts) - 1))]
        c = draw(st.integers(-3, 3))
        terms[lam] = Scalar.from_int(c)
    return SymFunc(basis, terms)


@settings(max_examples=40, deadline=None)
@given(small_symfuncs(), st.sampled_from(["p", "h", "m", "s"]))
def test_conversion_is_faithful(f, target):
    g = convert(f, target)
    assert convert(g, f.basis) == f


@settings(max_examples=30, deadline=None)
@given(small_symfuncs(), small_symfuncs())
def test_product_commutes(f, g):
    assert multiply(f, g) == multiply(g, f)


@settings(max_examples=30, deadline=None)
@given(small_symfuncs(), small_symfuncs())
def test_pairing_symmetric(f, g):
    assert hall_inner(f, g) == hall_inner(g, f)
