"""Exact scalar kernel: canonical forms, arithmetic, parsing, specialization.

The independent oracle here evaluates scalars at integer points with
fractions.Fraction, bypassing all of the polynomial gcd machinery.
"""

import functools
import operator
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fockbridge
from fockbridge.identities import verify_du, verify_pieri
from fockbridge.reps import macdonald_rep
from fockbridge.scalars import (
    _FACTORS,
    _factor,
    _tq_gcd_heu,
    _tq_gcd_prs,
    IntPoly,
    Scalar,
    SpecializationPoleError,
    accumulate,
    parse_scalar,
    scalar_sum,
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


# ---------------------------------------------------------------------------
# factored denominators: values built from q, t, integers and (1 -+ q^a t^b)
# keep den = c * prod f^e over registered irreducibles, and stay canonical

def fac_expansion(fac):
    # the product of a fac, computed here rather than read from the memo
    c, fl = fac
    p = IntPoly.const(c)
    for fid, e in fl:
        for _ in range(e):
            p = p * _FACTORS[fid]
    return p


def binomial_leaf(rng):
    a, b = rng.randint(0, 3), rng.randint(0, 3)
    if a == b == 0:
        a = 1
    sign = rng.choice([1, -1])
    s = ONE + sign * Q ** a * T ** b
    f = lambda q, t: 1 + sign * q ** a * t ** b
    if rng.random() < 0.5:
        return s, f
    return ONE / s, lambda q, t: 1 / f(q, t)


def random_tree(rng, depth, leaf_divisors=False):
    """(Scalar, oracle) for a random + - * / tree; the oracle maps a point
    to a Fraction, or None where a divisor vanishes.  With leaf_divisors
    every divisor is a leaf, so every den is a product of alphabet factors."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(4)
        if kind == 0:
            n = rng.randint(-6, 6)
            return Scalar.from_int(n), lambda q, t: Fraction(n)
        if kind == 1:
            return Q, lambda q, t: q
        if kind == 2:
            return T, lambda q, t: t
        return binomial_leaf(rng)
    op = rng.choice("+-*/")
    x, fx = random_tree(rng, depth - 1, leaf_divisors)
    y, fy = random_tree(rng, 0 if leaf_divisors and op == "/" else depth - 1,
                        leaf_divisors)
    if op == "/" and y.is_zero:
        op = "*"

    def oracle(q, t):
        u, v = fx(q, t), fy(q, t)
        if u is None or v is None or (op == "/" and v == 0):
            return None
        return {"+": u + v, "-": u - v, "*": u * v}[op] if op != "/" \
            else u / v
    value = {"+": lambda: x + y, "-": lambda: x - y,
             "*": lambda: x * y, "/": lambda: x / y}[op]()
    return value, oracle


def assert_canonical(x):
    assert x.num.gcd(x.den).is_one, x
    assert x.den.lex_leading()[1] > 0, x
    rebuilt = Scalar(x.num, x.den)
    assert rebuilt.num == x.num and rebuilt.den == x.den
    if x.fac is not None:
        assert x.den == fac_expansion(x.fac), (x, x.fac)
        assert rebuilt.fac == x.fac
    assert parse_scalar(str(x)) == x


def count_generic_gcds(monkeypatch):
    calls = []
    cofactors = IntPoly.cofactors

    def counting(self, other):
        calls.append((self, other))
        return cofactors(self, other)
    monkeypatch.setattr(IntPoly, "cofactors", counting)
    return calls


class TestFactored:
    def test_random_trees(self):
        rng = random.Random(20)
        factored = 0
        for _ in range(250):
            x, oracle = random_tree(rng, rng.randint(1, 4))
            assert_canonical(x)
            agree(x, oracle)
            factored += x.fac is not None and not x.den.is_constant
        assert factored > 50

    def test_alphabet_trees_stay_factored(self, monkeypatch):
        rng = random.Random(21)
        calls = count_generic_gcds(monkeypatch)
        built = [random_tree(rng, rng.randint(1, 5), leaf_divisors=True)
                 for _ in range(250)]
        assert calls == [], "alphabet arithmetic reached the generic gcd"
        monkeypatch.undo()
        nontrivial = 0
        for x, oracle in built:
            assert x.fac is not None, x
            assert_canonical(x)
            agree(x, oracle)
            nontrivial += not x.den.is_constant
        assert nontrivial > 80

    def test_outside_the_alphabet_falls_back(self, monkeypatch):
        calls = count_generic_gcds(monkeypatch)
        odd = ONE / parse_scalar("1 + q + t")
        assert odd.fac is None
        y = parse_scalar("(1 - q)/(1 - q*t)")
        mixed = [odd + y, odd * y, odd - odd * y, (odd + y) * odd]
        assert calls, "a den outside the alphabet must take the generic gcd"
        monkeypatch.undo()
        for x in mixed:
            assert x.fac is None
            assert_canonical(x)
        agree(mixed[0], lambda q, t: 1 / (1 + q + t) + (1 - q) / (1 - q * t))
        agree(mixed[3], lambda q, t: (1 / (1 + q + t) + (1 - q) / (1 - q * t))
              / (1 + q + t))
        quotient = y / odd
        assert quotient.fac is not None
        assert_canonical(quotient)
        agree(quotient, lambda q, t: (1 - q) * (1 + q + t) / (1 - q * t))
        back = odd * parse_scalar("(1 + q + t)/(1 - q)")
        assert back == ONE / (ONE - Q)
        assert back.fac is not None and back.den == fac_expansion(back.fac)

    def test_factor_refuses_outside_dens(self):
        # 1 + q + t has a triangle for Newton polygon, refused before any
        # trial division; 1 + q + t + 3qt has a square, refused after it
        ONE / (ONE - Q), ONE / (ONE + Q * T ** 2)     # registers both
        for text in ["(1 + q + t)*(1 - q)", "(1 + q)*(1 + t) + 2*q*t",
                     "(1 + q + t)^3*(1 - q*t)^2"]:
            assert _factor(parse_scalar(text).num._pos_leading()) is None
        assert _factor(parse_scalar("(1 - q)^3*(1 + q*t^2)").num
                       ._pos_leading()) is not None

    def test_high_multiplicity(self, monkeypatch):
        # a factor's multiplicity is found in one division, not one per copy
        ONE / (ONE - Q)
        power = (ONE - Q) ** 120
        divisors = []
        divexact = IntPoly.divexact
        monkeypatch.setattr(IntPoly, "divexact",
                            lambda p, d: divisors.append(d) or divexact(p, d))
        x = ONE / power
        monkeypatch.undo()
        assert x.fac is not None and len(divisors) == 1
        assert x.den == fac_expansion(x.fac) == power.num._pos_leading()
        assert_canonical(x)
        y = x + ONE / (ONE - Q * T)
        assert y.den == x.den * IntPoly({(0, 0): -1, (1, 1): 1})
        assert_canonical(y)

    def test_high_degree_numerator_is_cheap(self):
        # trial division evaluates q^100000 at the probe point: with power
        # tables up to its degree that took about 12 GB
        tracemalloc.start()
        start = time.perf_counter()
        try:
            x = parse_scalar("q^100000/(1-t)")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5
        assert peak < 8 << 20, peak
        assert str(x) == "(-q^100000)/(t - 1)"
        assert x.fac is not None and x.den == fac_expansion(x.fac)
        assert x * (ONE - T) == Q ** 100000

    def test_macdonald_operators_take_no_generic_gcd(self, monkeypatch):
        fresh = type(macdonald_rep())()
        calls = count_generic_gcds(monkeypatch)
        assert verify_pieri(fresh, 2, 4).passed
        assert verify_du(fresh, 2, 3).passed
        assert calls == []

    def test_registered_factors_irreducible(self):
        sympy = pytest.importorskip("sympy")
        q, t = sympy.symbols("q t")
        for a in range(5):
            for b in range(5):
                if a or b:
                    ONE / (ONE - Q ** a * T ** b)
                    ONE / (ONE + Q ** a * T ** b)
        assert len(_FACTORS) > 20
        assert len(set(_FACTORS)) == len(_FACTORS)
        for f in _FACTORS:
            assert f.content() == 1 and f.lex_leading()[1] > 0
            expr = sum(c * q ** i * t ** j for (i, j), c in f.terms.items())
            _, parts = sympy.factor_list(expr)
            assert len(parts) == 1 and parts[0][1] == 1, f


def test_power_size_bound():
    for bad in ["(1+q+t)^250", "((1+q)^80)^80", "(1/(1-q*t))^300"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)
    assert parse_scalar("q^200") == Q ** 200
    assert parse_scalar("2^4000") == Scalar.from_int(2 ** 4000)
    assert parse_scalar("(1+q)^3") == parse_scalar("q^3 + 3*q^2 + 3*q + 1")


def random_addend(rng, kind):
    """One addend of a random sum: an integer monomial ("int"); a fraction
    times a monomial times one or two (1 -+ q^a t^b)^{+-1} ("binomial");
    or, in "mixed", sometimes 1/(1 + q + t) in place of the binomials,
    a den outside the alphabet."""
    if kind == "int":
        base, c = ONE, Scalar.from_int(rng.choice([1, -1, 2, -3, 6]))
    else:
        c = Scalar.fraction(rng.choice([1, -1, 2, -3, 6]),
                            rng.choice([1, 1, 2, 3]))
        if kind == "mixed" and rng.random() < 0.3:
            base = ONE / parse_scalar("1 + q + t")
        else:
            base = binomial_leaf(rng)[0]
            if rng.random() < 0.5:
                base = base * binomial_leaf(rng)[0]
    return c * Q ** rng.randint(0, 2) * T ** rng.randint(0, 2) * base


def generic_sum(xs):
    # cross-multiplied and reduced once by the generic gcd: shares no code
    # with the factored sum
    num, den = IntPoly.const(0), IntPoly.const(1)
    for x in xs:
        num, den = num * x.den + x.num * den, den * x.den
    return Scalar(num, den)


class TestScalarSum:
    @pytest.mark.parametrize("kind", ["int", "binomial", "mixed"])
    def test_matches_left_fold(self, kind):
        rng = random.Random({"int": 30, "binomial": 31, "mixed": 32}[kind])
        for _ in range(120):
            xs = [random_addend(rng, kind) for _ in range(rng.randint(1, 6))]
            got = scalar_sum(xs)
            for want in (functools.reduce(operator.add, xs, ZERO),
                         generic_sum(xs)):
                assert (got.num, got.den, got.fac) == \
                    (want.num, want.den, want.fac), xs
            assert_canonical(got)
        assert scalar_sum([]) == ZERO

    @pytest.mark.parametrize("texts, want", [
        (["1/(1-q)", "-q/(1-q)"], "1"),
        (["1/(1-q)^2", "-q/(1-q)^2", "1/(1-q)"], "2/(1-q)"),
        (["1/(2-2*q*t)", "1/(2-2*q*t)", "1/(3*(1+q))"],
         "1/(1-q*t) + 1/(3+3*q)"),
        (["1/2", "1/3", "1/6"], "1"),
    ])
    def test_shared_top_exponents_cancel(self, texts, want):
        got = scalar_sum([parse_scalar(x) for x in texts])
        assert got == parse_scalar(want)
        assert_canonical(got)

    @pytest.mark.parametrize("kind", ["int", "binomial", "mixed"])
    def test_zero_sum_drops_its_key(self, kind):
        rng = random.Random({"int": 33, "binomial": 34, "mixed": 35}[kind])
        for _ in range(40):
            xs = [random_addend(rng, kind) for _ in range(rng.randint(1, 5))]
            keep = random_addend(rng, kind)
            total = functools.reduce(operator.add, xs, ZERO)
            pairs = [("z", x) for x in xs] + [("k", keep), ("z", -total)]
            rng.shuffle(pairs)
            out = accumulate(pairs)
            assert "z" not in out
            assert out == ({"k": keep} if not keep.is_zero else {})

    @pytest.mark.parametrize("kind", ["int", "binomial"])
    def test_factored_sums_take_no_generic_gcd(self, monkeypatch, kind):
        rng = random.Random({"int": 36, "binomial": 37}[kind])
        sums = [[random_addend(rng, kind) for _ in range(rng.randint(2, 6))]
                for _ in range(40)]
        calls = count_generic_gcds(monkeypatch)
        got = [scalar_sum(xs) for xs in sums]
        grouped = accumulate((i % 3, x) for xs in sums for i, x in
                             enumerate(xs))
        assert calls == [], "factored addends reached IntPoly.cofactors"
        monkeypatch.undo()
        for xs, x in zip(sums, got):
            assert x == functools.reduce(operator.add, xs, ZERO)
        for key, x in grouped.items():
            assert x == functools.reduce(
                operator.add, [y for xs in sums for y in xs[key::3]], ZERO)


def test_generic_gcd_degree_bound():
    # x^g - 1 with g > 64 is outside the alphabet; at degree 100000 the
    # heuristic gcd would pack integers of millions of bits
    start = time.perf_counter()
    with pytest.raises(ValueError, match="total degree"):
        parse_scalar("1/(q^100000-1)+1/(1-q)")
    assert time.perf_counter() - start < 1
    assert parse_scalar("q^100000/(1-t)") * (ONE - T) == Q ** 100000


def test_factor_registers_binomials_from_newton_polygon():
    # the factor registry is global to a process, so this needs a fresh one:
    # there, neither den has a registered factor, and neither is a binomial.
    # x^1000 - 1 has an edge too long to register from, and stays generic
    code = """if True:
        from fockbridge.scalars import _FACTORS, IntPoly, Q, parse_scalar
        x = parse_scalar("1/(q^1000-1)+1/(1-q)")
        assert x.fac is None
        assert x * (Q ** 1000 - 1) * (Q - 1) == Q - Q ** 1000
        for text in ["(t - 1)/(q^3*t^2 - q^2*t - q*t + 1)",
                     "1/(q^4 + q^2 + 1)", "(1 + q*t^2)/(1 - q^2*t^4)^3"]:
            x = parse_scalar(text)
            assert x.fac is not None, text
            c, fl = x.fac
            p = IntPoly.const(c)
            for fid, e in fl:
                p = p * _FACTORS[fid] ** e
            assert p == x.den, text
        assert parse_scalar("1/(1 + q + t + 3*q*t)").fac is None
        print("ok")
    """
    root = os.path.dirname(os.path.dirname(fockbridge.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0 and res.stdout == "ok\n", res.stderr
