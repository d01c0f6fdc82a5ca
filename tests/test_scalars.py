"""Exact scalar kernel: canonical forms, arithmetic, parsing, specialization.

The independent oracle here evaluates scalars at integer points with
fractions.Fraction, bypassing all of the polynomial gcd machinery.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fockbridge.scalars import (
    _tq_gcd_heu,
    _tq_gcd_prs,
    IntPoly,
    Scalar,
    SpecializationPoleError,
    parse_scalar,
    ZERO,
    ONE,
    Q,
    T,
)


# sample points for the evaluation oracle; values chosen so the structured
# denominators appearing in tests do not vanish
POINTS = [(2, 3), (5, 2), (-3, 7), (11, -4), (7, 13)]


def poly_eval(p, qv, tv):
    return sum(c * Fraction(qv) ** dq * Fraction(tv) ** dt
               for (dq, dt), c in p.terms.items())


def frac_eval(s, qv, tv):
    den = poly_eval(s.den, qv, tv)
    if den == 0:
        return None
    return poly_eval(s.num, qv, tv) / den


def agree(s, expected_fn):
    for qv, tv in POINTS:
        got = frac_eval(s, qv, tv)
        want = expected_fn(Fraction(qv), Fraction(tv))
        if got is None or want is None:
            continue
        assert got == want, (s, qv, tv, got, want)


class TestArithmetic:
    def test_exact_division_cancels(self):
        assert parse_scalar("(1 - q^2)/(1 - q)") == Q + 1

    def test_inverse_product_is_one(self):
        a = parse_scalar("(1 - t)/(1 - q)")
        b = parse_scalar("(1 - q)/(1 - t)")
        assert a * b == ONE

    def test_add_cancellation(self):
        a = parse_scalar("(1 - t)/(1 - q)")
        assert a + (-a) == ZERO
        assert a - a == ZERO

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            Scalar(IntPoly.const(1), IntPoly.const(0))

    def test_oracle_on_compound_expression(self):
        s = parse_scalar("(1-t^2)*(1-q^3)/((1-t)*(1-q)) + q*t - 2")
        agree(s, lambda q, t: (1 - t**2) * (1 - q**3) / ((1 - t) * (1 - q)) + q * t - 2)

    def test_oracle_on_nested_quotient(self):
        s = parse_scalar("((1-q*t)/(1-q^2))/((1-q*t)/(1-t^2))")
        agree(s, lambda q, t: ((1 - q * t) / (1 - q**2)) / ((1 - q * t) / (1 - t**2)))

    def test_int_interop(self):
        assert (Q + 1) * (Q - 1) == parse_scalar("q^2 - 1")
        assert 2 * T == T + T
        assert 1 - Q == -(Q - 1)
        assert (ONE / 2) + (ONE / 2) == ONE

    def test_power(self):
        assert (ONE - Q) ** 2 == parse_scalar("q^2 - 2*q + 1")
        assert (Q / T) ** -1 == T / Q


class TestCanonical:
    def test_den_leading_coefficient_positive(self):
        s = parse_scalar("(1 - t)/(1 - q)")
        (dq, dt), c = s.den.lex_leading()
        assert c > 0
        assert str(s) == "(t - 1)/(q - 1)"

    def test_equality_is_structural(self):
        a = parse_scalar("(1 - q^4)/(1 - q^2)")
        b = parse_scalar("1 + q^2")
        assert a.num == b.num and a.den == b.den

    def test_zero_normal_form(self):
        z = parse_scalar("(q - q)/(1 - q*t)")
        assert z.num.is_zero and z.den.is_one
        assert str(z) == "0"

    def test_printing_round_trips(self):
        samples = [
            "0",
            "1",
            "-3",
            "q",
            "(1 - t)/(1 - q)",
            "(q^2*t - 2*q + 1)/(3*q - t^2)",
            "(1-q*t)*(1+q*t)/((1-q)*(1-t))",
            "1/2 + q/3",
        ]
        for text in samples:
            s = parse_scalar(text)
            assert parse_scalar(str(s)) == s

    def test_parse_rejects_garbage(self):
        for bad in ["q +", "(1", "1..2", "x", "q^t", "2 3", "q^", "2^", "(1+q)^",
                    "1/0", "q/(t-t)"]:
            with pytest.raises(ValueError):
                parse_scalar(bad)


class TestSpecialize:
    def test_at_zero(self):
        s = parse_scalar("(1 - t)/(1 - q)")
        assert s.specialize({"q": ZERO}) == ONE - T

    def test_t_to_q_collapses(self):
        s = parse_scalar("(1 - t)/(1 - q)")
        assert s.specialize({"t": Q}) == ONE

    def test_scalar_valued_binding(self):
        s = parse_scalar("q^2 + t")
        assert s.specialize({"q": T / 2}) == T * T / 4 + T

    def test_pole_names_binding(self):
        s = parse_scalar("1/(1 - q)")
        with pytest.raises(SpecializationPoleError, match="q=1"):
            s.specialize({"q": ONE})

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            ONE.specialize({"x": ONE})

    def test_commutes_with_arithmetic(self):
        a = parse_scalar("(1 - t^3)/(1 - q^2)")
        b = parse_scalar("q*t/(1 + q)")
        bind = {"t": Q * Q}
        assert (a * b).specialize(bind) == a.specialize(bind) * b.specialize(bind)
        assert (a + b).specialize(bind) == a.specialize(bind) + b.specialize(bind)


# ---------------------------------------------------------------------------
# property tests

coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def intpolys(draw, max_terms=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        dq = draw(st.integers(min_value=0, max_value=3))
        dt = draw(st.integers(min_value=0, max_value=3))
        c = draw(coeffs)
        if c:
            terms[(dq, dt)] = terms.get((dq, dt), 0) + c
    return IntPoly(terms)


@st.composite
def scalars(draw):
    num = draw(intpolys())
    den = draw(intpolys().filter(lambda p: not p.is_zero))
    return Scalar(num, den)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    if not a.is_zero:
        assert a * (ONE / a) == ONE


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_canonical_idempotent(a):
    rebuilt = Scalar(a.num, a.den)
    assert rebuilt.num == a.num and rebuilt.den == a.den
    if not a.is_zero:
        assert a.den.lex_leading()[1] > 0
        assert a.num.gcd(a.den).is_one


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_str_parse_round_trip(a):
    assert parse_scalar(str(a)) == a


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars())
def test_matches_fraction_oracle(a, b):
    for s, fn in [
        (a + b, lambda x, y: None if x is None or y is None else x + y),
        (a * b, lambda x, y: None if x is None or y is None else x * y),
        (a - b, lambda x, y: None if x is None or y is None else x - y),
    ]:
        for qv, tv in POINTS:
            got = frac_eval(s, qv, tv)
            want = fn(frac_eval(a, qv, tv), frac_eval(b, qv, tv))
            if got is None or want is None:
                continue
            assert got == want


# ---------------------------------------------------------------------------
# the gcd core on Macdonald-shaped inputs: products of (1 - q^a t^b) with
# integer multipliers and monomial shifts, as in the b_lam and a_k factors

def macdonald_shaped(rng, factors=4):
    p = IntPoly.const(rng.choice([1, -1, 2, -3, 6, 12]))
    for _ in range(rng.randint(0, factors)):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        p = p * IntPoly({(0, 0): 1, (a, b): -1})
    return p.shifted(rng.randint(0, 2), rng.randint(0, 2))


def shaped_pairs(count, seed=7):
    # pairs that share a random common factor, so most gcds are nontrivial
    rng = random.Random(seed)
    for _ in range(count):
        common = macdonald_shaped(rng, 3)
        yield (common * macdonald_shaped(rng), common * macdonald_shaped(rng))


class TestCofactors:
    def test_invariants(self):
        nontrivial = 0
        for a, b in shaped_pairs(150):
            g, ca, cb = a.cofactors(b)
            assert g * ca == a and g * cb == b
            assert ca.gcd(cb).is_one
            assert g.lex_leading()[1] > 0
            nontrivial += not g.is_constant
        assert nontrivial > 100

    def test_degenerate_pairs(self):
        p = IntPoly({(1, 0): -2, (0, 1): 4})
        zero = IntPoly()
        assert p.cofactors(zero) == (-p, IntPoly.const(-1), zero)
        assert zero.cofactors(p) == (-p, zero, IntPoly.const(-1))
        assert p.cofactors(p) == (-p, IntPoly.const(-1), IntPoly.const(-1))
        assert zero.cofactors(zero) == (zero, zero, zero)
        six, four = IntPoly.const(6), IntPoly.const(-4)
        assert six.cofactors(four) == (IntPoly.const(2), IntPoly.const(3),
                                        IntPoly.const(-2))
        assert p.cofactors(four) == (IntPoly.const(2),
                                     IntPoly({(1, 0): -1, (0, 1): 2}),
                                     IntPoly.const(-2))

    def test_heuristic_agrees_with_prs(self):
        checked = 0
        for a, b in shaped_pairs(80, seed=11):
            aq, at = a.min_degrees()
            bq, bt = b.min_degrees()
            f = a.shifted(-aq, -at)._to_tq()
            h = b.shifted(-bq, -bt)._to_tq()
            if len(f) < 2 or len(h) < 2:
                continue
            res = _tq_gcd_heu(f, h)
            assert res is not None
            g_heu, cf, ch = (IntPoly._from_tq(x) for x in res)
            g_prs = IntPoly._from_tq(_tq_gcd_prs(f, h))
            assert g_heu in (g_prs, -g_prs)
            assert g_heu * cf == IntPoly._from_tq(f)
            assert g_heu * ch == IntPoly._from_tq(h)
            checked += 1
        assert checked > 40

    def test_divexact_rejects_non_divisor(self):
        one_minus_q = IntPoly({(0, 0): 1, (1, 0): -1})
        one_minus_t = IntPoly({(0, 0): 1, (0, 1): -1})
        p = one_minus_q * one_minus_q * IntPoly({(0, 0): 1, (1, 1): -1})
        assert p.divexact(one_minus_q) * one_minus_q == p
        for bad in [one_minus_t, IntPoly.const(2), IntPoly.monomial(0, 1),
                    one_minus_q * one_minus_t, p * one_minus_q]:
            with pytest.raises(ValueError):
                p.divexact(bad)

    def test_gcd_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        q, t = sympy.symbols("q t")

        def to_sympy(p):
            return sum(c * q**dq * t**dt for (dq, dt), c in p.terms.items())

        for a, b in shaped_pairs(40, seed=3):
            want = sympy.Poly(sympy.gcd(to_sympy(a), to_sympy(b)), q, t)
            got = sympy.Poly(to_sympy(a.gcd(b)), q, t)
            assert got in (want, -want), (a, b)
