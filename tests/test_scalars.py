"""Exact scalar kernel: canonical forms, arithmetic, parsing, specialization.

The independent oracle here evaluates scalars at integer points with
fractions.Fraction, bypassing all of the polynomial gcd machinery.
"""

import copy
import functools
import math
import operator
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import fockbridge
from fockbridge.identities import verify_du, verify_pieri
from fockbridge.reps import macdonald_b, macdonald_rep
from fockbridge import scalars as scalars_module
from fockbridge.scalars import (
    _FACTOR_VALS,
    _FACTORS,
    _RATIONALS,
    _binomial_ratio,
    _cyclotomic,
    _factor,
    _pack,
    _probe,
    _prs_gcd,
    _tq_gcd_heu,
    _unpack,
    _vanishes,
    IntPoly,
    Scalar,
    SpecializationPoleError,
    accumulate,
    parse_scalar,
    product,
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
            f, h = a.shifted(-aq, -at), b.shifted(-bq, -bt)
            if f.is_constant or h.is_constant:
                continue
            res = _tq_gcd_heu(f.terms, h.terms)
            assert res is not None
            g_heu, cf, ch = res
            g_prs = _prs_gcd(f, h)
            assert g_heu in (g_prs, -g_prs)
            assert g_heu * cf == f
            assert g_heu * ch == h
            checked += 1
        assert checked > 40

    @pytest.mark.parametrize("a, b, g", [
        ("q^2 - t", "q - t", "1"),
        ("(q^2 - t)*(q - t^2)", "(q - t)*(q - t^2)", "q - t^2"),
        ("(q^2 - t)*(q*t + t^2 - q)", "(q - t)*(q*t + t^2 - q)",
         "q*t + t^2 - q")])
    def test_no_constant_term_takes_no_remainder_sequence(
            self, monkeypatch, a, b, g):
        # at q = 2^zbits, t = 2^tbits both values are multiples of 2^zbits
        # at every width; the retry at odd bases certifies the gcd
        calls, prs = [], scalars_module._prs_gcd
        monkeypatch.setattr(scalars_module, "_prs_gcd",
                            lambda *args: calls.append(args) or prs(*args))
        monkeypatch.setattr(scalars_module, "_GCD_MEMO", {})
        a, b, g = (parse_scalar(x).num for x in (a, b, g))
        got, ca, cb = a.cofactors(b)
        assert (got, got * ca, got * cb) == (g, a, b)
        assert calls == []

    def test_odd_base_digits_round_trip(self):
        rng = random.Random(5)
        x, y = (1 << 9) + 1, (1 << 62) - 1
        for _ in range(200):
            terms = {(rng.randrange(5), rng.randrange(5)):
                     rng.randint(-255, 255) for _ in range(rng.randint(1, 9))}
            terms = {k: c for k, c in terms.items() if c} or {(0, 0): 1}
            got = scalars_module._unpack_at(
                scalars_module._pack_at(terms, x, y), x, y)
            assert got == terms

    def test_divexact_rejects_non_divisor(self):
        one_minus_q = IntPoly({(0, 0): 1, (1, 0): -1})
        one_minus_t = IntPoly({(0, 0): 1, (0, 1): -1})
        p = one_minus_q * one_minus_q * IntPoly({(0, 0): 1, (1, 1): -1})
        assert p.divexact(one_minus_q) * one_minus_q == p
        for bad in [one_minus_t, IntPoly.const(2), IntPoly.monomial(0, 1),
                    one_minus_q * one_minus_t, p * one_minus_q]:
            with pytest.raises(ValueError):
                p.divexact(bad)

    def test_gcd_matches_sympy(self, monkeypatch):
        sympy = pytest.importorskip("sympy")
        q, t = sympy.symbols("q t")

        def to_sympy(p):
            return sum(c * q**dq * t**dt for (dq, dt), c in p.terms.items())

        # GCDHEU refuses t + 4 and (q^2 - 1)(t + 5) at every power-of-two
        # width: packing sends t to 4 x^D, and both images share x + 1.
        # Its retry at odd bases certifies them coprime
        refused = (IntPoly({(0, 1): 1, (0, 0): 4}),
                   IntPoly({(2, 0): 1, (0, 0): -1}) *
                   IntPoly({(0, 1): 1, (0, 0): 5}))
        assert _tq_gcd_heu(refused[0].terms, refused[1].terms)[0].is_one
        t_free = [
            (IntPoly({(2, 0): 2, (0, 0): -2}), IntPoly({(3, 0): 6, (0, 0): 6})),
            (IntPoly({(4, 0): 1, (2, 0): 1, (0, 0): 1}),
             IntPoly({(3, 0): 1, (2, 0): -2, (1, 0): 2, (0, 0): -1})),
        ]
        pairs = [refused, *t_free, *shaped_pairs(40, seed=3)]
        # and cofactors with every heuristic call refused: _prs_gcd alone
        with monkeypatch.context() as m:
            m.setattr(scalars_module, "_tq_gcd_heu", lambda f, g: None)
            m.setattr(scalars_module, "_GCD_MEMO", {})
            fallback = [a.gcd(b) for a, b in pairs]
        for (a, b), fell_back in zip(pairs, fallback):
            want = sympy.Poly(sympy.gcd(to_sympy(a), to_sympy(b)), q, t)
            got = [a.gcd(b), _prs_gcd(a, b), fell_back]
            if (a, b) in t_free:        # the sequence in q over Z alone
                got.append(_prs_gcd(a, b, 0))
            for g in got:
                assert sympy.Poly(to_sympy(g), q, t) in (want, -want), (a, b)


# ---------------------------------------------------------------------------
# the Kronecker kernel: term dicts packed into one integer and read back as
# balanced digits; exact quotients certified at the division width

def random_terms(rng, dq, dt, bits):
    # a term dict with negative coefficients, some at the digit limit
    # +-(2^(bits-1) - 1), and whole t-rows left empty
    lim = 1 << (bits - 1)
    rows = [j for j in range(dt + 1) if j in (0, dt) or rng.random() < 0.5]
    terms = {}
    for j in rows:
        for i in range(dq + 1):
            if rng.random() < 0.6:
                terms[(i, j)] = rng.choice([lim - 1, -(lim - 1),
                                            rng.randint(1 - lim, lim - 1)])
    terms = {k: c for k, c in terms.items() if c}
    terms.setdefault((dq, dt), 1 - lim)
    terms.setdefault((0, 0), lim - 1)
    return terms


class TestPacking:
    def test_round_trip_at_the_digit_limit(self):
        rng = random.Random(5)
        for _ in range(300):
            dq, dt = rng.randint(0, 6), rng.randint(0, 6)
            zbits = rng.randint(2, 70)
            terms = random_terms(rng, dq, dt, zbits)
            # the tightest t-width the layout allows
            tbits = zbits * (dq + 1)
            n = _pack(terms, zbits, tbits)
            assert _unpack(n, zbits, tbits) == (terms, dq, dt)
            assert _unpack(-n, zbits, tbits) == (
                {k: -c for k, c in terms.items()}, dq, dt)

    def test_unpack_inverts_pack_on_every_integer(self):
        rng = random.Random(6)
        for _ in range(300):
            zbits = rng.randint(2, 40)
            tbits = zbits * rng.randint(1, 5) + rng.randint(0, 2)
            n = rng.randint(-(1 << 400), 1 << 400)
            terms, dq, dt = _unpack(n, zbits, tbits)
            assert _pack(terms, zbits, tbits) == n
            assert 0 not in terms.values()
            assert (dq, dt) == (max(terms)[0], max(j for _, j in terms))
        assert _unpack(0, 8, 16) == ({}, -1, -1)

    def test_packed_product_matches_schoolbook(self):
        rng = random.Random(8)
        for _ in range(100):
            a = IntPoly(random_terms(rng, rng.randint(0, 5), rng.randint(0, 5),
                                     rng.randint(2, 30)))
            b = IntPoly(random_terms(rng, rng.randint(0, 5), rng.randint(0, 5),
                                     rng.randint(2, 30)))
            want = {}
            for (i, j), x in a.terms.items():
                for (k, l), y in b.terms.items():
                    want[(i + k, j + l)] = want.get((i + k, j + l), 0) + x * y
            want = {k: c for k, c in want.items() if c}
            assert IntPoly._mul_packed(a, b).terms == want

    def test_wide_sparse_products_go_term_by_term(self, monkeypatch):
        # packed, (1 - q)^300, with coefficients of up to 297 bits, times a
        # 6 x 6 bivariate block would take six t-rows 306 digits of 308
        # bits wide: more bits a term pair than term by term costs.  Two
        # narrow factors still pack
        wide = (ONE - Q).num ** 300
        block = IntPoly({(i, j): 1 + i - j for i in range(6)
                         for j in range(6)})
        packs = record(monkeypatch, "_pack")
        got = wide * block
        assert packs == []
        assert got.terms == IntPoly._mul_packed(wide, block).terms
        packs.clear()
        assert (block * block).terms == \
            IntPoly._mul_packed(block, block).terms
        assert len(packs) == 4

    def test_divexact_on_macdonald_products(self):
        rng = random.Random(9)
        for _ in range(200):
            f = IntPoly.const(rng.choice([1, -1, 2, -6]))
            parts = []
            for _ in range(rng.randint(1, 6)):
                a, b = rng.randint(0, 4), rng.randint(0, 3)
                if a or b:
                    parts.append(IntPoly({(0, 0): 1, (a, b): -1}))
            for p in parts:
                f = f * p
            f = f.shifted(rng.randint(0, 2), rng.randint(0, 2))
            for k in range(1, len(parts) + 1):
                g = functools.reduce(operator.mul, rng.sample(parts, k))
                q = f.divexact(g)
                assert q * g == f
                assert f.divexact(q) == g

    def test_non_divisors(self):
        one_minus_q = IntPoly({(0, 0): 1, (1, 0): -1})
        p = one_minus_q ** 3 * IntPoly({(0, 0): 1, (2, 1): -1})
        for bad in [IntPoly({(0, 0): 1, (0, 1): -1}),
                    IntPoly({(0, 0): 1, (1, 0): 1}),
                    IntPoly({(0, 0): 1, (1, 1): -1}),
                    one_minus_q ** 4,
                    IntPoly({(0, 0): 3, (1, 0): -3})]:
            with pytest.raises(ValueError):
                p.divexact(bad)

    def test_exact_integer_division_of_a_non_divisor(self):
        # q*t - 4 at q = Z, t = 4 Z^2 (the layout of a q-degree 1 dividend)
        # is 4 Z^3 - 4, a multiple of Z - 1 at every width, yet q - 1 does
        # not divide q*t - 4: the digits of the integer quotient must fail
        f = IntPoly({(1, 1): 1, (0, 0): -4})
        g = IntPoly({(1, 0): 1, (0, 0): -1})
        for zbits in range(2, 80):
            tbits = 2 * zbits + 2
            assert _pack(f.terms, zbits, tbits) % _pack(g.terms, zbits,
                                                        tbits) == 0
        with pytest.raises(ValueError):
            f.divexact(g)

    def test_quotient_past_the_division_width_is_remultiplied(
            self, monkeypatch):
        # (1 + q)^20 (1 - q)^6 / (1 + q)^20: the quotient's height times the
        # divisor's is far above the dividend's, so the product bound
        # exceeds the division width and the quotient is checked by one
        # more packed product (three more packs)
        g = IntPoly({(0, 0): 1, (1, 0): 1}) ** 20
        want = IntPoly({(0, 0): 1, (1, 0): -1}) ** 6
        f = g * want
        packs = []
        real = scalars_module._pack
        monkeypatch.setattr(scalars_module, "_pack",
                            lambda *a: packs.append(a[1]) or real(*a))
        assert f.divexact(g) == want
        assert len(packs) == 5 and packs[2] > packs[0]
        packs.clear()
        assert f.divexact(want) == g
        assert len(packs) == 2


# ---------------------------------------------------------------------------
# factored denominators: values built from q, t, integers and (1 -+ q^a t^b)
# keep den = c * prod f^e over registered irreducibles, and stay canonical

def fac_expansion(fac):
    # the product of a fac, computed here rather than by Scalar.den
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

    def test_refused_den_is_not_factored_again(self, monkeypatch):
        # each parse divides by q^2 + q + 3, a den outside the alphabet:
        # _factor refuses it once, and again only after a factor registers
        calls = []
        real = scalars_module._register_edges
        monkeypatch.setattr(scalars_module, "_register_edges",
                            lambda r: calls.append(r) or real(r))
        for _ in range(1000):
            x = parse_scalar("(q+2)/(q^2+q+3)")
        assert x.fac is None and str(x) == "(q + 2)/(q^2 + q + 3)"
        assert len(calls) <= 2

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

    def test_factor_divides_once_per_round(self, monkeypatch):
        # every registered factor's count is read from the probe value
        # first, then all of them go in one exact division
        for k in range(1, 41):
            ONE / (ONE - Q ** k)            # registers Phi_d(q), d <= 40
        quotients = []
        quo = scalars_module._quo
        monkeypatch.setattr(scalars_module, "_quo",
                            lambda *a: quotients.append(a) or quo(*a))
        # q^1000 - 1 keeps a leftover of degree 940 with no factor to try
        assert _factor(IntPoly({(1000, 0): 1, (0, 0): -1})) is None
        assert len(quotients) == 1
        quotients.clear()
        p = (Q ** 40 - 1) * (Q ** 35 - 1)
        fac = _factor(p.num)
        assert len(quotients) == 1
        assert fac is not None and fac_expansion(fac) == p.num

    def test_probe_false_positive_divides_each_factor_alone(self,
                                                            monkeypatch):
        # q = 1000003 = 1 and t = 1000033 = 31 mod 1000002, so the probe
        # value of t - 31 is a multiple of that of 1 - q: 1 - q seems to
        # divide, the one division by both factors fails, and each
        # candidate is then tried alone
        one_q = scalars_module._register(1, 1, 0)
        one_qt = scalars_module._register(1, 1, 1)
        calls = []
        trial = scalars_module._trial
        monkeypatch.setattr(
            scalars_module, "_trial",
            lambda n, cands: calls.append([f for f, _ in cands])
            or trial(n, cands))
        x = parse_scalar("1/((1-q*t)*(t-31))")
        monkeypatch.undo()
        both = next(i for i, fids in enumerate(calls)
                    if {one_q, one_qt} <= set(fids))
        alone = [fids for fids in calls[both + 1:] if len(fids) == 1]
        assert [one_q] in alone and [one_qt] in alone
        assert x.fac is None
        assert x * parse_scalar("(1-q*t)*(t-31)") == ONE
        assert_canonical(x)

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

    def test_cyclotomic_products(self):
        # q^d - 1 is the product of the Phi_e(q) over the divisors e of d
        assert _cyclotomic(12) == [1, 0, -1, 0, 1]
        for d in range(1, 129):
            prod = IntPoly.const(1)
            for e in range(1, d + 1):
                if d % e == 0:
                    prod = prod * IntPoly(
                        {(i, 0): c for i, c in enumerate(_cyclotomic(e))})
            assert prod == IntPoly({(d, 0): 1, (0, 0): -1}), d


class TestDenOnDemand:
    """A factored value stores num and fac; its den is multiplied out only
    when read, and kept."""

    def test_arithmetic_reads_no_den(self, monkeypatch):
        rep = macdonald_rep()
        lam = fockbridge.Partition([3, 2, 1])
        xs = [macdonald_b(lam, (i, j)) for i in (1, 2, 3) for j in (1, 2)]
        xs += rep.raw_U(2, lam).values()        # Pieri coefficients
        xs += rep.raw_D(1, lam).values()
        v = ONE / (ONE - Q)
        w = v ** 900
        assert all(x.fac is not None for x in xs + [w])
        assert sum(bool(x.fac[1]) for x in xs) > 10
        reads = []
        den = Scalar.den
        monkeypatch.setattr(Scalar, "den", property(
            lambda x: reads.append(x) or den.fget(x)))
        products = [x * y for x in xs for y in xs]
        sums = [x + y for x in xs for y in xs]
        # stored: num, fac.  A rational sum is the table's one object, whose
        # den an earlier caller may have read
        assert all(x._den is None for x in sums if x.fac[1])
        rationals = [x for x in sums if not x.fac[1] and x.num.is_constant]
        assert rationals and all(
            _RATIONALS[x.num.as_int(), x.fac[0]] is x for x in rationals)
        built = products + sums
        built += [x * w for x in xs + [w]]
        built += [w + xs[0], w - v, -w]
        built += [-x for x in xs]
        built += [scalar_sum(xs + products),
                  scalar_sum([w, w * Q, -w, w * xs[3]])]
        assert all(x == -(-x) and x * 1 == x for x in built)
        pairs = [(x, y) for x in xs + products for y in xs]
        eqs = [x == y for x, y in pairs]
        assert reads == []
        monkeypatch.undo()
        assert eqs == [(x.num, x.den) == (y.num, y.den) for x, y in pairs]
        assert 0 < sum(eqs) < len(eqs)
        assert w.den == (Q - ONE).num ** 900 and w.den is w.den
        for x in xs + built:
            assert x.fac is not None
            if sum(e for _, e in x.fac[1]) < 60:
                assert x.den == fac_expansion(x.fac), x
                assert x.den is x.den

    def test_shared_factor_power_is_multiplied_in_once(self):
        # only (1/(1-q))^900 reaches the top exponent of 1 - q, so every
        # other addend's cofactor holds (1-q)^898 or more: multiplied out
        # per addend, the sum took 43 s
        rep = macdonald_rep()
        lam = fockbridge.Partition([3, 2, 1])
        xs = [macdonald_b(lam, (i, j)) for i in (1, 2, 3) for j in (1, 2)]
        xs += rep.raw_U(2, lam).values()
        xs += rep.raw_D(1, lam).values()
        xs.append((ONE / (ONE - Q)) ** 900)
        start = time.perf_counter()
        got = scalar_sum(xs)
        assert time.perf_counter() - start < 15
        assert got == functools.reduce(operator.add, xs)

    def test_value_built_before_its_factor_registers(self):
        # Phi_67(q^2 t^3): its Newton polygon's one edge is longer than 64,
        # so _factor registers nothing for it until 1 - q^134 t^201 does
        phi = IntPoly({(2 * i, 3 * i): c for i, c in
                       enumerate(_cyclotomic(67))})
        a = Scalar(IntPoly.const(1), phi)
        _binomial_ratio([(134, 201)], [])
        b = Scalar(IntPoly.const(1), phi)
        assert a.fac is None and b.fac is not None
        assert a == b and b == a
        assert len({a, b}) == 1


def test_nesting_depth_bound():
    # 100 levels of ( and unary signs parse; one more is a ValueError, not
    # a RecursionError, however deep the input goes
    assert parse_scalar("(" * 100 + "q" + ")" * 100) == Q
    assert parse_scalar("-" * 100 + "q") == Q
    assert parse_scalar("-(" * 50 + "q" + ")" * 50) == Q
    assert parse_scalar("(" * 60 + "1" + ")" * 60 + "+" + "-" * 90 + "t") == \
        ONE + T
    for bad in ["(" * 101 + "q" + ")" * 101, "-" * 101 + "q",
                "+(" * 51 + "q" + ")" * 51, "(" * 200 + "q" + ")" * 200,
                "-" * 1000 + "q", "(" * 100000]:
        with pytest.raises(ValueError, match="nests deeper"):
            parse_scalar(bad)


def test_power_size_bound():
    # a chain of * and / may build no more than one ^ may
    for bad in ["(1+q+t)^250", "((1+q)^80)^80", "(1/(1-q*t))^300",
                "(1+q+t+2*q*t)^40*(1+q+t+2*q*t)^40",
                "1/(1+q+t+2*q*t)^40/(1+q+t+2*q*t)^40"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)
    assert parse_scalar("q^200") == Q ** 200
    assert parse_scalar("2^4000") == Scalar.from_int(2 ** 4000)
    assert parse_scalar("(1+q)^3") == parse_scalar("q^3 + 3*q^2 + 3*q + 1")
    assert parse_scalar("(1+q)^20*(1+q)^20/(1-t)^9") == \
        (ONE + Q) ** 40 / (ONE - T) ** 9


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


@st.composite
def factored_sums(draw):
    """Addends over dens from a few alphabet binomials, in pairs a/den and
    (b*f - a)/den: the pair sums to b*f/den, so f must be divided out."""
    pool = [ONE - Q, ONE + Q, ONE - Q * T, ONE - Q ** 2 * T, ONE + T]
    xs = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        den = Scalar.from_int(draw(st.sampled_from([1, 2, 3])))
        for f in pool:
            den = den * f ** draw(st.integers(min_value=0, max_value=2))
        den = den * Q ** draw(st.integers(min_value=0, max_value=1))
        a, b = Scalar(draw(intpolys())), Scalar(draw(intpolys()))
        f = draw(st.sampled_from(pool + [Q, T]))
        xs += [a / den, (b * f - a) / den]
    return xs


@settings(max_examples=60, deadline=None)
@given(factored_sums())
def test_packed_and_probe_reduction_agree(xs):
    packed = scalar_sum(xs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars_module, "_PACK_BITS", 0)     # nothing packs
        probed = scalar_sum(xs)
    assert (packed.num, packed.den, packed.fac) == \
        (probed.num, probed.den, probed.fac)
    assert packed == generic_sum(xs)
    assert_canonical(packed)


@st.composite
def product_sums(draw):
    """(key, value) pairs for accumulate: products of two values, each a
    small polynomial, maybe times a binomial of its den, over a product of
    alphabet binomials, and some plain values, one in ten over 1 + q + t,
    outside the alphabet."""
    pool = [ONE - Q, ONE + Q, ONE - Q * T, ONE - Q ** 2 * T, ONE + T, Q]

    def value():
        den = ONE
        for f in draw(st.lists(st.sampled_from(pool), max_size=3)):
            den = den * f
        if draw(st.integers(0, 9)) == 0:
            den = den * parse_scalar("1 + q + t")
        num = Scalar(draw(intpolys())) + draw(st.sampled_from([ONE, Q, T]))
        if draw(st.booleans()):
            num = num * draw(st.sampled_from(pool))
        return num / den

    out = []
    for _ in range(draw(st.integers(1, 8))):
        x = value()
        out.append((draw(st.integers(0, 2)),
                    (x, value()) if draw(st.integers(0, 3)) else (x,)))
    return out


@settings(max_examples=80, deadline=None)
@given(product_sums())
def test_sums_of_products_match_generic(items):
    got = accumulate((k, product(*xs) if len(xs) == 2 else xs[0])
                     for k, xs in items)
    for key in {k for k, _ in items}:
        num, den = IntPoly.const(0), IntPoly.const(1)
        for k, xs in items:
            if k == key:
                xn, xd = IntPoly.const(1), IntPoly.const(1)
                for x in xs:
                    xn, xd = xn * x.num, xd * x.den
                num, den = num * xd + xn * den, den * xd
        want = Scalar(num, den)
        x = got.get(key, ZERO)
        assert type(x.num) is IntPoly
        assert (x.num, x.den) == (want.num, want.den), items
        if x.fac is not None and want.fac is not None:
            assert x.fac == want.fac
        assert_canonical(x)


def test_product_is_multiplied_out():
    x, y = parse_scalar("(1+q)/(1-q*t)"), parse_scalar("(2+t)/(1-q)")
    p = product(x, y)
    assert type(p.num) is IntPoly and triple(p) == triple(x * y)
    assert scalar_sum([p]) == x * y and accumulate([(0, p)]) == {0: x * y}
    assert scalar_sum([p, p, -(x * y)]) == x * y
    # over different dens that share 1 - q*t
    z = parse_scalar("(3+q)/(1+t)")
    assert scalar_sum([p, product(x, z)]) == x * y + x * z


# a value whose numerator over its den packs past _PACK_BITS
WIDE = "(q^90*t^90 + 2)/(1 - q)"


@st.composite
def zero_test_entries(draw):
    """(key, x, y, sign) entries for _vanishes: constants and polynomials
    over integer dens, many-term numerators over products of alphabet
    binomials, values over 1 + q + t (outside the alphabet) and lone WIDE
    values, and zeros; lone values and pairs, both signs.  Key 3, when
    drawn, has 5 to 9 terms over pairwise different factored dens, so that
    _packed's tree over partial lcms is 3 or 4 levels deep, odd counts
    among them.  Some keys also get minus their sum as one reduced value,
    so that zero sums are common and cancel across different dens."""
    pool = [ONE - Q, ONE + Q, ONE - Q * T, ONE - Q ** 2 * T, ONE + T, Q]

    def value(kinds=("int", "rational", "factored", "factored", "generic",
                     "zero")):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            return ZERO
        if kind == "int":
            return Scalar.fraction(draw(st.integers(-6, 6)),
                                   draw(st.integers(1, 6)))
        if kind == "wide":
            return parse_scalar(WIDE)
        num = Scalar(draw(intpolys())) + draw(st.sampled_from([ONE, Q, T]))
        if kind == "rational":
            return num / draw(st.integers(1, 6))
        den = ONE
        for f in draw(st.lists(st.sampled_from(pool), min_size=1,
                               max_size=3)):
            den = den * f
        if kind == "generic":
            den = den * parse_scalar("1 + q + t")
        return num / den

    entries = []
    for _ in range(draw(st.integers(1, 6))):
        pair = draw(st.booleans())
        x = value() if pair else value(("int", "rational", "factored",
                                        "factored", "generic", "wide"))
        entries.append((draw(st.integers(0, 2)), x, value() if pair else None,
                        draw(st.sampled_from([1, -1]))))
    if draw(st.booleans()):
        n = draw(st.integers(5, 9))
        dens = draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(pool)),
                             min_size=n, max_size=n, unique=True))
        xs = [(Scalar(draw(intpolys())) + ONE) /
              math.prod((f ** e for f, e in zip(pool, es)), start=ONE)
              for es in dens]
        assume(len({x.fac[1] for x in xs if x.num.terms}) == n)
        for x in xs:
            y = Scalar.fraction(draw(st.integers(1, 6)), draw(
                st.integers(1, 6))) if draw(st.booleans()) else None
            entries.append((3, x, y, draw(st.sampled_from([1, -1]))))
    for key in sorted({e[0] for e in entries}):
        if draw(st.integers(0, 4)):
            entries.append((key, scalar_sum([
                (x if y is None else x * y) * s
                for k, x, y, s in entries if k == key]), None, -1))
    return entries


@settings(max_examples=120, deadline=None)
@given(zero_test_entries())
def test_vanishes_matches_accumulate(entries):
    assert _vanishes(entries) == (not accumulate(
        (k, (x if y is None else x * y) * s) for k, x, y, s in entries))


def test_vanishes_lanes(monkeypatch):
    sums = record(monkeypatch, "scalar_sum")
    x, y = ONE / (ONE - Q), ONE / (ONE - Q ** 2)
    # 1/(1-q) - (1+q)/(1-q^2) cancels only over the lcm (1-q)(1+q)
    assert _vanishes([(0, x, None, 1), (0, ONE + Q, y, -1)])
    assert not _vanishes([(0, x, None, 1), (0, ONE + Q, y, 1)])
    half, third = Scalar.fraction(1, 2), Scalar.fraction(1, 3)
    assert _vanishes([(1, half, Scalar.fraction(2, 3), 1), (0, x, x, 1),
                      (1, third, None, -1), (0, x * x, None, -1)])
    assert not _vanishes([(1, half, None, 1), (1, third, None, -1)])
    assert sums == []
    # a generic den, and a value past _PACK_BITS, take scalar_sum
    g = parse_scalar("(1 + q)/(1 + q + t)")
    assert _vanishes([(0, g, x, 1), (0, x * g, None, -1)])
    assert len(sums) == 1
    wide = parse_scalar(WIDE)
    assert not _vanishes([(0, wide, half, 1), (0, wide, None, -1)])
    assert _vanishes([(0, wide, half, 1), (0, wide, third, -1),
                      (0, wide, Scalar.fraction(1, 6), -1)])
    assert len(sums) == 3


def test_vanishes_degenerate_keys(monkeypatch):
    # keys whose terms all vanish reach _zero_sum with the integer
    # fraction as the one leaf, or with no leaves, which sum to 0
    zero_sums = record(monkeypatch, "_zero_sum")
    x, half = ONE / (ONE - Q), Scalar.fraction(1, 2)
    assert not _vanishes([(0, half, None, 1), (0, ZERO, x, 1)])
    assert _vanishes([(0, half, None, 1), (0, x, ZERO, -1),
                      (0, half, None, -1)])
    assert _vanishes([(0, ZERO, x, 1), (0, x, ZERO, -1)])
    assert [r for _, r in zero_sums] == [False, True, True]


def test_bounds_of_a_three_factor_leaf():
    # a coefficient of (1 + q + ... + q^16)^3 sums up to 17^2 products,
    # one term of each of two factors fixing the third: the largest is 217
    ts = ({(i, 0): 1 for i in range(17)},) * 3
    want = IntPoly(ts[0]) ** 3
    dq, dt, h = scalars_module._bounds([(ts, 1, 1, {})])
    assert (dq, dt) == (48, 0)
    assert max(want.terms.values()) == 217 <= h


@st.composite
def factored_leaves(draw, signed=False):
    """1 to 6 leaves (ts, s, c, exps) of one term dict each, over dens that
    are an integer times powers of q, t and three registered binomial
    factors; with exponents 0 to 2, top exponents are often shared.  When
    signed, exponents run from -2 (a numerator factor) and ts may be
    empty."""
    fids = [0, 1] + [scalars_module._register(d, a, b)
                     for d, a, b in ((1, 1, 0), (2, 1, 0), (1, 1, 1))]
    leaves = []
    for _ in range(draw(st.integers(1, 6))):
        p = draw(intpolys().filter(lambda p: not p.is_zero))
        exps = {f: e for f in fids
                if (e := draw(st.integers(-2 if signed else 0, 2)))}
        ts = (p.terms,) if not signed or draw(st.booleans()) else ()
        leaves.append((ts, draw(st.sampled_from([1, -1, 3])),
                       draw(st.integers(1, 6)), exps))
    return leaves


@settings(max_examples=80, deadline=None)
@given(factored_leaves())
def test_tree_rings_agree(leaves):
    # the numerator over L of sum s * p / (c * prod f^e), as _packed and
    # _numerator sum it by the tree, and naively as sum s * p * L / D_i
    lc = math.lcm(*(c for *_, c, _ in leaves))
    top = {}
    for *_, exps in leaves:
        for f, e in exps.items():
            top[f] = max(top.get(f, 0), e)
    naive = functools.reduce(operator.add, (
        IntPoly(ts[0]).mul_int(s * (lc // c)) * math.prod(
            (_FACTORS[f] ** (e - exps.get(f, 0)) for f, e in top.items()),
            start=IntPoly.const(1))
        for ts, s, c, exps in leaves))
    dq, dt, h = scalars_module._bounds(leaves)
    zbits = h.bit_length() + 2
    tbits = zbits * (dq + 1) + 2
    assert scalars_module._numerator(leaves) == naive
    assert scalars_module._packed(leaves, zbits, tbits) == \
        _pack(naive.terms, zbits, tbits)
    assert all(i <= dq and j <= dt and abs(c) <= h
               for (i, j), c in naive.terms.items())


def record(monkeypatch, name):
    # the (args, result) of each call of a scalars function
    calls = []
    real = getattr(scalars_module, name)

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]
    monkeypatch.setattr(scalars_module, name, recording)
    return calls


class TestPackedTrialDivision:
    # a dividend is trial-divided as one Kronecker value; these are the
    # ways that value misleads, and the inputs it must not be used for

    @pytest.mark.parametrize("got, want", [
        (lambda: T / Q, "t/q"),
        (lambda: (T ** 3 + T ** 4) / Q ** 2, "(t^3 + t^4)/q^2"),
        (lambda: scalar_sum([T / Q, T ** 2 / Q, Q * T / Q ** 2]),
         "(2*t + t^2)/q"),
        (lambda: scalar_sum([T / (Q * T), T ** 5 / (Q * T)]),
         "(1 + t^4)/q"),
        (lambda: (T ** 2 / Q) * (Q / T), "t"),
    ])
    def test_monomial_factors_go_by_degree(self, got, want):
        # at q = 2^zbits the value of t is a multiple of q's, so an integer
        # test would divide t^k by q
        x = got()
        assert x == parse_scalar(want)
        assert_canonical(x)

    @pytest.mark.parametrize("summed", [False, True])
    def test_false_positive_reaches_the_fallback(self, monkeypatch, summed):
        # 333334*q*t - 1333336 packs, at every width, to 1333336*(Z^3 - 1)
        # (Z = 2^zbits, t = 4Z^2), a multiple of Z - 1, the value of q - 1,
        # and its probe value is a multiple of q - 1's too; yet q - 1 does
        # not divide it
        num, inv = 333334 * Q * T - 1333336, ONE / (Q - 1)
        addends = [333334 * Q * T * inv, -1333336 * inv]
        strips = record(monkeypatch, "_strip")
        trials = record(monkeypatch, "_trial")
        probes = record(monkeypatch, "_probe")
        x = scalar_sum(addends) if summed else num * inv
        monkeypatch.undo()
        if summed:
            assert strips and all(r is None for _, r in strips)
        else:
            # a product's numerator is divided at the probe point only:
            # the one division by the candidate fails, and its fallback
            # (recorded first, as it returns first) tries it no more
            one_q = scalars_module._FACTOR_IDS[1, 1, 0]
            assert strips == []
            assert [cands for (_, cands), _ in trials] == \
                [[(one_q, 0)], [(one_q, 1)]]
        assert len(probes) == 1
        assert x.num == num.num and x.den == (Q - 1).num
        assert_canonical(x)
        # t^6 - 1 packs at zbits = 12 to 2^84 - 1, a multiple of 2^12 - 1;
        # q - 1 is of higher q-degree, so it is not even tried
        y = (T ** 6 - 1) * inv
        assert str(y) == "(t^6 - 1)/(q - 1)"
        assert_canonical(y)

    def test_strip_gets_only_factors_whose_value_divides(self, monkeypatch):
        # f | n implies f(P) | n(P) at the probe point P, so a factor whose
        # value does not divide the numerator's is not tried: q*t - 4 at P
        # is no multiple of q - 1 at P, and reaches no trial division
        trials = record(monkeypatch, "_trial")
        x = (Q * T - 4) * (ONE / (Q - 1))
        assert trials == []
        assert x.num == (Q * T - 4).num and x.den == (Q - 1).num
        assert_canonical(x)
        # the calls _cancel makes, not the fallbacks within _trial
        calls, trial = [], scalars_module._trial

        def from_cancel(n, cands):
            if sys._getframe(1).f_code.co_name == "_cancel":
                calls.append((n, cands))
            return trial(n, cands)
        monkeypatch.setattr(scalars_module, "_trial", from_cancel)
        assert verify_pieri(type(macdonald_rep())(), 2, 3).passed
        monkeypatch.undo()
        assert calls
        sizes = scalars_module._FACTOR_SIZES
        for n, cands in calls:
            dq, dt = max(n.terms)[0], max(j for _, j in n.terms)
            assert all(sizes[f][0] <= dq and sizes[f][1] <= dt and
                       _probe(n) % _FACTOR_VALS[f] == 0 for f, _ in cands)

    def test_factors_of_more_degree_go_before_the_probe(self, monkeypatch):
        # past _probe's tables the value of q^100000 is a 2-Mbit power,
        # which took 0.16 s; 1 - t has more t-degree, so no value is needed
        probes = record(monkeypatch, "_probe")
        x = parse_scalar("q^100000/(1-t)")
        assert probes == []
        assert x == Q ** 100000 / (ONE - T)

    def test_refused_sum_is_stripped_once(self, monkeypatch):
        # a sum's numerator that _strip refuses goes to the probe route
        # directly, not through a second packed division first
        inv = ONE / (Q - 1)
        addends = [Q * T * inv, -4 * inv]
        strips = record(monkeypatch, "_strip")
        x = scalar_sum(addends)
        monkeypatch.undo()
        assert sum(r is None for _, r in strips) <= 1
        assert x == (Q * T - 4) * inv
        assert_canonical(x)

    @pytest.mark.parametrize("text, want", [
        ("(q^300*t^300+1)/(1-q*t)^2 + 1/(1-q*t)^2",
         "(q^300*t^300 + 2)/(1 - q*t)^2"),
        ("q^100000/(1-t)+1/(1-t)^2", "(q^100000*(1 - t) + 1)/(1 - t)^2"),
    ])
    def test_sparse_dividends_are_cheap(self, text, want):
        # packed, the first takes about 90,000 slots for two terms
        tracemalloc.start()
        start = time.perf_counter()
        try:
            x = parse_scalar(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5
        assert peak < 8 << 20, peak
        assert x == parse_scalar(want)
        assert x.fac is not None and x.den == fac_expansion(x.fac)

    def test_macdonald_reduces_packed(self, monkeypatch):
        fresh = type(macdonald_rep())()
        strips = record(monkeypatch, "_strip")
        assert verify_pieri(fresh, 2, 4).passed
        # certified, with a factor of the candidates divided out
        assert any(r is not None and r[1] != args[1] for args, r in strips)
        assert sum(r is None for _, r in strips) * 100 < len(strips)

    def test_integer_dens_never_pack(self, monkeypatch):
        xs = [Scalar.fraction(k + 1, 6 - k) * Q ** k * T for k in range(6)]
        xs += [x * x for x in xs]
        packs = record(monkeypatch, "_pack")
        total = scalar_sum(xs)
        grouped = accumulate((k % 2, x) for k, x in enumerate(xs))
        monkeypatch.undo()
        assert packs == []
        assert total == functools.reduce(operator.add, xs, ZERO)
        assert grouped[0] == functools.reduce(operator.add, xs[::2], ZERO)


binomials = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any)


class TestExponentSpace:
    # products of binomials 1 - q^a t^b built from their cyclotomic
    # factors, and integers times factored values: neither divides

    @settings(max_examples=60, deadline=None)
    @given(st.lists(binomials, max_size=5), st.lists(binomials, max_size=5))
    def test_binomial_ratio_matches_division(self, ups, downs):
        want = ONE
        for a, b in ups:
            want = want * (ONE - Q ** a * T ** b)
        for a, b in downs:
            want = want / (ONE - Q ** a * T ** b)
        got = _binomial_ratio(ups, downs)
        assert (got.num, got.den, got.fac) == (want.num, want.den, want.fac)
        assert_canonical(got)

    @pytest.mark.parametrize("ups, downs", [
        ([(0, 0)], []), ([(1, 0)], [(0, 0)]), ([(0, 0)], [(0, 0)])])
    def test_zero_binomial_is_refused(self, ups, downs):
        # gcd(0, 0) = 0 would otherwise count no factor and give -1
        with pytest.raises(ValueError, match="zero"):
            _binomial_ratio(ups, downs)

    def test_integer_cancels_the_den_content(self, monkeypatch):
        x = Q / (6 * (ONE - Q * T))
        cancels = record(monkeypatch, "_cancel")
        y, z = 4 * x, x * Scalar.from_int(-9)
        monkeypatch.undo()
        assert cancels == []
        assert str(y) == "(-2*q)/(3*q*t - 3)" and y.fac[0] == 3
        assert str(z) == "(3*q)/(2*q*t - 2)" and z.fac[0] == 2
        assert x * 1 is x and ONE * x is x
        assert_canonical(y)
        assert_canonical(z)

    @settings(max_examples=80, deadline=None)
    @given(scalars(), st.integers(-12, 12), st.sampled_from([1, 2, 4, 6]),
           st.booleans())
    def test_integer_times_scalar_matches_general_route(self, x, n, c,
                                                        outside):
        # n may share a factor with the den's integer part; outside of the
        # alphabet (fac None) the product takes the general route
        x = x / c
        if outside:
            x = x / parse_scalar("1 + q + t")
        want = Scalar(x.num.mul_int(n), x.den)
        for y in (x * n, n * x, x * Scalar.from_int(n),
                  Scalar.from_int(n) * x):
            assert (y.num, y.den, y.fac) == (want.num, want.den, want.fac)
            assert_canonical(y)


# n / m with n in [-50, 50] and m in [1, 60]; 0, 1, -1 and m = 1 drawn often
rationals = st.tuples(
    st.one_of(st.sampled_from([0, 1, -1]), st.integers(-50, 50)),
    st.one_of(st.just(1), st.integers(1, 60)))


def triple(x):
    return x.num, x.den, x.fac


def generic(num, den):
    # num / den for ints or IntPolys, reduced by the generic constructor
    return Scalar(IntPoly.const(num) if isinstance(num, int) else num,
                  IntPoly.const(den) if isinstance(den, int) else den)


class TestRationalRoute:
    # values over integer dens, fac (c, ()), multiply, divide and add over
    # those integers; each result is the generic constructor's, with the
    # same (num, den, fac)

    @settings(max_examples=200, deadline=None)
    @given(rationals, rationals)
    def test_binary_ops_match_generic(self, a, b):
        (n1, m1), (n2, m2) = a, b
        x, y = generic(n1, m1), generic(n2, m2)
        assert triple(x * y) == triple(generic(n1 * n2, m1 * m2))
        assert triple(x + y) == triple(generic(n1 * m2 + n2 * m1, m1 * m2))
        assert triple(x - y) == triple(generic(n1 * m2 - n2 * m1, m1 * m2))
        if n2:
            assert triple(x / y) == triple(generic(n1 * m2, m1 * n2))
        else:
            with pytest.raises(ZeroDivisionError):
                x / y

    @settings(max_examples=150, deadline=None)
    @given(st.lists(rationals, min_size=2, max_size=6))
    def test_scalar_sum_matches_generic(self, pairs):
        # cross-multiplied over the product of the dens, reduced once
        den = math.prod(m for _, m in pairs)
        num = sum(n * (den // m) for n, m in pairs)
        got = scalar_sum([generic(n, m) for n, m in pairs])
        assert triple(got) == triple(generic(num, den))

    @settings(max_examples=100, deadline=None)
    @given(intpolys(), intpolys(), st.integers(1, 60), st.integers(1, 60),
           rationals)
    def test_polynomial_numerators_match_generic(self, a, b, m1, m2, r):
        x, y, z = generic(a, m1), generic(b, m2), generic(*r)
        assert triple(x * y) == triple(generic(a * b, m1 * m2))
        assert triple(x + y) == \
            triple(generic(a.mul_int(m2) + b.mul_int(m1), m1 * m2))
        assert triple(x * z) == triple(generic(a.mul_int(r[0]), m1 * r[1]))
        if r[0]:
            assert triple(x / z) == \
                triple(generic(a.mul_int(r[1]), m1 * r[0]))

    @pytest.mark.parametrize("got, num, den", [
        (lambda: parse_scalar("(1+q)/6") * 4, "2 + 2*q", "3"),
        (lambda: 4 * parse_scalar("(1+q)/6"), "2 + 2*q", "3"),
        (lambda: parse_scalar("(1+q)/6") / parse_scalar("-3/4"),
         "-2 - 2*q", "9"),
        (lambda: parse_scalar("q/2") + parse_scalar("t/3"), "3*q + 2*t", "6"),
        (lambda: parse_scalar("(1+q)/6") * parse_scalar("q/4"), "q + q^2",
         "24"),
        (lambda: parse_scalar("(1+q)/6") - parse_scalar("q/6"), "1", "6")])
    def test_integer_dens_times_polynomials(self, got, num, den):
        x = got()
        assert triple(x) == \
            triple(generic(parse_scalar(num).num, parse_scalar(den).num))
        assert_canonical(x)

    @pytest.mark.parametrize("text, kind", [
        ("0", "int"), ("1", "int"), ("-1", "int"), ("-7", "int"),
        ("3/4", "int"), ("(1+q)/6", "int"), ("q/(1-q*t)", "factored"),
        ("(q+2)/(q^2+q+3)", "generic")])
    def test_unit_rule(self, text, kind):
        x = parse_scalar(text)
        assert {None: "generic", (): "int"}.get(
            x.fac and x.fac[1], "factored") == kind
        assert x * ONE is x and x * 1 is x and triple(ONE * x) == triple(x)
        for y in (x * -ONE, -ONE * x, x * -1, -1 * x):
            assert triple(y) == triple(-x) == \
                triple(generic(x.num.mul_int(-1), x.den))

    def test_no_polynomial_reduction(self, monkeypatch):
        # the route takes no polynomial gcd, trial division or factored sum
        xs = [generic(n, m) for n, m in [(3, 4), (-1, 6), (5, 1), (-2, 9)]]
        calls = count_generic_gcds(monkeypatch)
        cancels = record(monkeypatch, "_cancel")
        sums = record(monkeypatch, "_fac_sum")
        for x in xs:
            for y in xs:
                x * y, x / y, x + y, x - y
        scalar_sum(xs)
        monkeypatch.undo()
        assert calls == [] and cancels == [] and sums == []


# dividends of the rational route: rationals, factored Macdonald weights
# and values over a generic den, one of them with an integer content
dividends = st.one_of(
    rationals.map(lambda r: generic(*r)),
    st.sampled_from([((3, 2, 1), (1, 1)), ((2, 1), (1, 2))]).map(
        lambda lc: macdonald_b(*lc)),
    st.sampled_from(["1/(1+q+t)", "(2 - q)/(3 + 3*q + 3*t)"]).map(
        parse_scalar))


class TestInterning:
    # a rational n/m is one object, whichever route builds it, and carries
    # its key (n, m) as _q

    def test_one_half_is_one_object(self):
        half = Scalar.fraction(1, 2)
        quarter, third = parse_scalar("1/4"), Scalar.fraction(1, 3)
        routes = [Scalar.fraction(2, 4), Scalar.fraction(-1, -2), ONE / 2,
                  Scalar.from_int(1) / Scalar.from_int(2), -(-half),
                  -Scalar.fraction(-1, 2), quarter + quarter,
                  scalar_sum([third, third / 2]), parse_scalar("1/2"),
                  parse_scalar("(2*q)/(4*q)"), Scalar(1, 2),
                  Scalar(IntPoly.const(3), IntPoly.const(6))]
        assert all(x is half for x in routes)
        assert _RATIONALS[1, 2] is half
        assert Scalar.from_int(0) is ZERO and ONE - ONE is ZERO
        assert parse_scalar("7") is Scalar.from_int(7) is 14 * half * ONE

    def test_copies_are_the_table_object(self):
        half = Scalar.fraction(1, 2)
        for x in (half, ZERO, parse_scalar("q/(1-q)")):
            for y in (copy.copy(x), copy.deepcopy(x),
                      pickle.loads(pickle.dumps(x))):
                assert triple(y) == triple(x)
                assert (y is x) == (x is half or x is ZERO)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12))
    def test_interned_value_is_the_generic_one(self, n, m):
        g = math.gcd(n, m)
        x = Scalar.fraction(n, m)
        assert x is _RATIONALS[n // g, m // g]
        assert x == Scalar(IntPoly.const(n), IntPoly.const(m))
        assert triple(x) == triple(generic(n, m))
        assert x.fac == (m // g, ())
        assert_canonical(x)

    def test_rationals_carry_their_pair(self):
        half, third = Scalar.fraction(1, 2), Scalar.fraction(1, 3)
        built = [
            (Scalar.from_int(-3), (-3, 1)), (ZERO, (0, 1)), (ONE, (1, 1)),
            (Scalar.fraction(4, -6), (-2, 3)),
            (scalars_module._rat(IntPoly.const(6), 4), (3, 2)),
            (scalars_module._rat(IntPoly.const(-5), 1), (-5, 1)),
            (parse_scalar("-5/10"), (-1, 2)),
            (parse_scalar("(2*q + 2)/(4 + 4*q)"), (1, 2)),
            (Scalar(3, 9), (1, 3)), (Scalar(IntPoly.const(-4), -6), (2, 3)),
            (-half, (-1, 2)), (-Scalar.fraction(-7, 5), (7, 5)),
            (half + third, (5, 6)), (half - half, (0, 1)),
            (scalar_sum([half, half, ONE]), (2, 1)),
            (half * Scalar.fraction(-2, 5), (-1, 5)), (half / third, (3, 2)),
            (7 / Scalar.fraction(-14, 3), (-3, 2)),
            (copy.deepcopy(Scalar.fraction(7, 3)), (7, 3)),
            (copy.copy(Scalar.fraction(-7, 3)), (-7, 3)),
            (pickle.loads(pickle.dumps(Scalar.fraction(9, 4))), (9, 4))]
        for x, pair in built:
            assert x._q == pair and x is _RATIONALS[pair], (x, pair)
            assert x.num == IntPoly.const(pair[0]) and x.fac == (pair[1], ())
        others = [Q, T, -Q, Q * 2, T / 3, macdonald_b((2, 1), (1, 1))] + [
            parse_scalar(text) for text in ("q/2", "(1+q)/6", "1/(1-q)",
                                            "1/(1+q+t)", "2/(1 + q + t)")]
        for x in others:
            for y in (x, -x, x * half, x / 3, x + half, copy.copy(x),
                      pickle.loads(pickle.dumps(x))):
                assert y._q is None, y

    @settings(max_examples=200, deadline=None)
    @given(dividends, rationals, rationals)
    def test_rational_route_returns_the_generic_object(self, x, a, b):
        # the generic path: the constructor on the multiplied-out pair
        (n1, m1), (n2, m2) = a, b
        r, s = generic(n1, m1), generic(n2, m2)
        assert r * s is generic(n1 * n2, m1 * m2)
        assert -r is generic(-n1, m1)
        assert scalar_sum([r, s, r]) is generic(2 * n1 * m2 + n2 * m1,
                                                m1 * m2)
        want = generic(x.num.mul_int(n1), x.den.mul_int(m1))
        for y in (x * r, r * x):
            assert triple(y) == triple(want)
            assert y is want or want._q is None
        if n1:
            want = generic(x.num.mul_int(m1), x.den.mul_int(n1))
            y = x / r
            assert triple(y) == triple(want)
            assert y is want or want._q is None
            assert_canonical(y)

    def test_division_by_a_zero_rational_raises(self):
        for x in (ZERO, ONE, Scalar.fraction(-3, 4), parse_scalar("q/2"),
                  macdonald_b((2, 1), (1, 1)), parse_scalar("1/(1+q+t)")):
            for z in (0, ZERO, Scalar.fraction(0, 3)):
                with pytest.raises(ZeroDivisionError):
                    x / z


@st.composite
def generic_values(draw):
    # a / b over a den that does not factor, a's and b's integer contents
    # drawn apart so that either may share a prime with the rational
    num = draw(intpolys()).mul_int(draw(st.integers(1, 12)))
    den = draw(intpolys().filter(lambda p: not p.is_zero))
    x = Scalar(num, den.mul_int(draw(st.integers(1, 12))))
    assume(x.fac is None)
    return x


class TestGenericTimesRational:
    # a rational n/m times or into a value over a generic den cancels
    # integers only: no polynomial gcd

    def test_takes_no_polynomial_gcd(self, monkeypatch):
        x, r = parse_scalar("1/(1+q+t)"), Scalar.fraction(2, 3)
        assert x.fac is None
        for op in (lambda: x * r, lambda: r * x, lambda: x / r):
            calls = count_generic_gcds(monkeypatch)
            op()
            monkeypatch.undo()
            assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(generic_values(), rationals)
    def test_matches_the_generic_constructor(self, x, r):
        n, m = r
        want = generic(x.num.mul_int(n), x.den.mul_int(m))
        for y in (x * generic(n, m), generic(n, m) * x):
            assert triple(y) == triple(want)
            assert_canonical(y)
        if n:
            y = x / generic(n, m)
            assert triple(y) == \
                triple(generic(x.num.mul_int(m), x.den.mul_int(n)))
            assert_canonical(y)


@st.composite
def rational_entries(draw):
    """(key, x, y, sign) entries for _vanishes: rational x rational,
    rational x factored, lone rationals and zeros.  Key 0 starts with a
    lone nonzero rational.  Most keys get minus their sum as one value, so
    that they sum to zero."""
    rat = rationals.map(lambda r: generic(*r))
    fac = st.sampled_from([((3, 2, 1), (1, 1)), ((2, 1), (1, 2)),
                           ((2, 2), (2, 1))]).map(lambda lc: macdonald_b(*lc))
    sign = st.sampled_from([1, -1])
    n = draw(st.integers(1, 6))
    entries = [(0, Scalar.fraction(n, draw(st.integers(1, 6))), None,
                draw(sign))]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["rr", "rf", "fr", "r", "zero"]))
        x, y = {"rr": (rat, rat), "rf": (rat, fac), "fr": (fac, rat),
                "r": (rat, st.none()),
                "zero": (st.just(ZERO), st.one_of(st.none(), rat, fac))}[kind]
        entries.append((draw(st.integers(0, 2)), draw(x), draw(y),
                        draw(sign)))
    for key in sorted({e[0] for e in entries}):
        if draw(st.integers(0, 3)):
            entries.append((key, -expanded_sums(entries)[key], None, 1))
    return entries


def expanded_sums(entries):
    # each key's sum of sign * x * y, by scalar_sum of the expanded terms
    groups = {}
    for k, x, y, s in entries:
        groups.setdefault(k, []).append((x if y is None else x * y) * s)
    return {k: scalar_sum(g) for k, g in groups.items()}


@settings(max_examples=150, deadline=None)
@given(rational_entries())
def test_vanishes_on_rational_entries(entries):
    verdict = _vanishes(entries)
    assert verdict == (not any(expanded_sums(entries).values()))
    # the lone rational of key 0, nudged by 1/7
    (k, x, y, s), rest = entries[0], entries[1:]
    nudged = [(k, x + Scalar.fraction(1, 7), y, s)] + rest
    assert _vanishes(nudged) == (not any(expanded_sums(nudged).values()))
    if verdict:
        assert not _vanishes(nudged)


# values of the one-pass route: integers and rationals (zeros and +-1 often)
# and polynomial numerators, over integer dens; and factored Macdonald
# weights, which leave it for _fac_sum
lane_values = st.one_of(
    rationals.map(lambda r: generic(*r)),
    st.tuples(intpolys(), st.integers(1, 60)).map(lambda r: generic(*r)))
macdonald_values = st.sampled_from(
    [((3, 2, 1), (1, 1)), ((2, 1), (1, 2)), ((3, 1), (1, 2)),
     ((2, 2), (1, 1))]).map(lambda lc: macdonald_b(*lc))


@st.composite
def keyed_values(draw):
    pairs = draw(st.lists(st.tuples(st.integers(0, 4), lane_values),
                          max_size=14))
    if draw(st.booleans()):
        pairs.insert(draw(st.integers(0, len(pairs))),
                     (draw(st.integers(0, 4)), draw(macdonald_values)))
    return pairs


@settings(max_examples=150, deadline=None)
@given(keyed_values())
def test_accumulate_matches_fold(pairs):
    # each key's sum is the fold by +, zero sums dropped; only a group with
    # the Macdonald value and another nonzero value goes to _fac_sum
    with pytest.MonkeyPatch.context() as mp:
        fac_sums = record(mp, "_fac_sum")
        got = accumulate(pairs)
    groups = {}
    for k, x in pairs:
        groups.setdefault(k, []).append(x)
    want = {k: functools.reduce(operator.add, xs) for k, xs in groups.items()}
    assert got == {k: x for k, x in want.items() if not x.is_zero}
    for k, x in got.items():
        assert triple(x) == triple(want[k]) == triple(generic_sum(groups[k]))
    assert len(fac_sums) == sum(
        any(x.fac[1] for x in xs) and sum(not x.is_zero for x in xs) > 1
        for xs in groups.values())
    for xs in groups.values():      # a zero sum builds no new value
        if scalar_sum(xs).is_zero and not any(x.fac[1] for x in xs):
            assert scalar_sum(xs) is ZERO


def test_generic_gcd_degree_bound():
    # x^g - 1 with g > 64 is outside the alphabet; at degree 100000 the
    # heuristic gcd would pack integers of millions of bits
    start = time.perf_counter()
    with pytest.raises(ValueError, match="total degree"):
        parse_scalar("1/(q^100000-1)+1/(1-q)")
    assert time.perf_counter() - start < 1
    assert parse_scalar("q^100000/(1-t)") * (ONE - T) == Q ** 100000


def test_generic_gcd_hashes_bounded_polynomials(monkeypatch):
    # the gcd memo is keyed by the pair with its monomials divided out,
    # whose degree the limit bounds: hashed by its probe value, a 20-Mbit
    # power, q^1000000 took 4 s to key
    probes = record(monkeypatch, "_probe")
    with pytest.raises(ValueError, match="total degree"):
        parse_scalar("1/(q^1000000-1)+1/(1-q)")
    x = parse_scalar("q^1000000*(1+q)/(1+q+t)")
    assert probes
    assert all(max(i + j for i, j in p.terms) <= 1024 for (p,), _ in probes)
    monkeypatch.undo()
    assert x * parse_scalar("1+q+t") == Q ** 1000000 * (ONE + Q)


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


def test_hash_past_the_probe_tables():
    # within the power tables a poly hashes by its probe value, past them by
    # its terms: by degree, so a cached _val does not change the hash
    for terms in ({(3, 1): 2, (0, 0): -1}, {(256, 256): 1, (1, 0): 5},
                  {(300, 0): 1, (0, 2): 3}, {(0, 100000): -7}):
        a, b = IntPoly(terms), IntPoly(terms)
        scalars_module._value(b)
        assert a._val is None and b._val is not None
        assert a == b and hash(a) == hash(b)
    assert hash(parse_scalar("(q^300 - 1)/(1 - t)")) == \
        hash(parse_scalar("(1 - q^300)/(t - 1)"))
    x = parse_scalar("q^1000000")
    start = time.perf_counter()
    hash(x)
    assert time.perf_counter() - start < 0.1
    assert len({x, parse_scalar("q^1000000"), Q ** 1000000}) == 1


# ---------------------------------------------------------------------------
# numerators known as factors: a binomial ratio, Q, T, and products,
# quotients and negations of them carry _nf = (n, ((fid, e), ...))

def cleared(x):
    # x without its _nf: the same (num, fac), on the routes without it
    return x if x._q is not None else Scalar._raw(x.num, x.fac, x._den)


binomial_lists = st.tuples(st.lists(binomials, max_size=2),
                           st.lists(binomials, max_size=2))


@st.composite
def factored_numerators(draw):
    """(x, y): each a binomial ratio, possibly negated, times or over
    another ratio or times a rational, or a rational alone (0 and +-1
    drawn often).  y often
    takes x's den binomials as its numerator and x's numerator binomials
    as its den, whole or in part, so that x * y empties a numerator, a den
    or both."""
    def value(ups, downs):
        kind = draw(st.sampled_from(["ratio", "ratio", "ratio", "rational"]))
        if kind == "rational":
            return generic(*draw(rationals))
        x = _binomial_ratio(ups, downs)
        for how in draw(st.lists(st.sampled_from(["-", "*", "/", "r"]),
                                 max_size=2)):
            if how == "-":
                x = -x
            elif how == "*":
                x = x * _binomial_ratio(*draw(binomial_lists))
            elif how == "/":
                x = x / _binomial_ratio(*draw(binomial_lists))
            else:
                x = x * generic(*draw(rationals))
        return x

    ups = draw(st.lists(binomials, max_size=3))
    downs = draw(st.lists(binomials, max_size=3))
    x = value(ups, downs)
    if draw(st.booleans()):
        back_up = draw(st.lists(st.sampled_from(downs), max_size=len(downs))) \
            if downs else []
        back_down = draw(st.lists(st.sampled_from(ups), max_size=len(ups))) \
            if ups else []
        if draw(st.booleans()):
            back_up, back_down = downs, ups
        y = value(back_up, back_down)
    else:
        y = value(draw(st.lists(binomials, max_size=3)),
                  draw(st.lists(binomials, max_size=3)))
    return x, y


def assert_nf(x):
    # _nf expands to num, shares no fid with fac, and its integer is
    # coprime to the den's; rationals carry none
    if x._nf is None:
        return
    n, ul = x._nf
    c, fl = x.fac
    assert x._q is None and n and math.gcd(n, c) == 1, x
    assert scalars_module._expand(x._nf) == x.num, (x, x._nf)
    assert not {f for f, _ in ul} & {f for f, _ in fl}, x
    assert list(ul) == sorted(ul) and all(e > 0 for _, e in ul), x


class TestFactoredNumerators:

    @settings(max_examples=150, deadline=None)
    @given(factored_numerators())
    def test_slot_expands_to_num(self, xy):
        x, y = xy
        outs = [x, y, -x, x * y, y * x]
        if y:
            outs.append(x / y)
        for v in outs:
            assert_nf(v)
            assert_canonical(v)

    @settings(max_examples=200, deadline=None)
    @given(factored_numerators())
    def test_ops_match_the_routes_without_it(self, xy):
        x, y = xy
        cx, cy = cleared(x), cleared(y)
        ops = [product, operator.mul, lambda a, b: -a]
        if y:
            ops.append(operator.truediv)
        for op in ops:
            got, want = op(x, y), op(cx, cy)
            assert (got.num, got.fac, got._q) == \
                (want.num, want.fac, want._q), (x, y)
            assert got.den == want.den

    def test_binomial_ratios_carry_it_and_sums_do_not(self):
        x = _binomial_ratio([(1, 1), (2, 0)], [(0, 1)])
        assert x._nf is not None and len(x._nf[1]) == 3
        assert_nf(x)
        assert macdonald_b((3, 1), (1, 1))._nf is not None
        # a ratio that is rational is the interned rational, with no _nf
        assert _binomial_ratio([(1, 2)], [(1, 2)]) is ONE
        assert _binomial_ratio([(1, 0), (0, 1)], [(1, 0), (0, 1)]) is ONE
        y = _binomial_ratio([(0, 1)], [(1, 0)])
        for s in (x + y, scalar_sum([x, y, Q]), x - ONE, x + x):
            assert s._nf is None
        assert accumulate([(0, x), (0, y)])[0]._nf is None

    def test_products_take_no_polynomial_division(self, monkeypatch):
        rep = macdonald_rep()
        lam = fockbridge.Partition([3, 2, 1])
        xs = [v for k in (1, 2) for v in rep.raw_U(k, lam).values()]
        xs += [v for k in (1, 2) for v in rep.raw_D(k, lam).values()]
        assert all(x._nf is not None or x._q is not None for x in xs)
        assert sum(x._nf is not None for x in xs) > 10
        r, d = Scalar.fraction(3, 4), next(x for x in xs if x._nf)
        calls = [count_generic_gcds(monkeypatch)] + [
            record(monkeypatch, name)
            for name in ("_cancel", "_probe", "_trial", "_factor", "_strip")]
        outs = [op(x, y) for x in xs for y in xs
                for op in (product, operator.truediv)]
        outs += [-x * r / d for x in xs]
        monkeypatch.undo()
        assert calls == [[]] * 6
        assert ONE in outs and all(v._nf is not None or v._q is not None
                                   for v in outs)


class TestZeroTestLeaves:
    # a factored numerator enters the zero test as negative exponents of
    # its leaf, cancelled against the den's: no term dict is packed for it

    def test_numerator_factors_equal_the_whole_den(self):
        ups, downs = [(1, 1), (2, 0), (0, 3)], [(1, 0), (2, 2)]
        x = _binomial_ratio(ups, downs)
        y = _binomial_ratio(downs, ups) * Scalar.fraction(3, 2)
        assert scalars_module._leaf((x, y), -1) == ((), -3, 2, {})
        assert _vanishes([(0, x, y, 1), (0, Scalar.fraction(-3, 2), None, 1)])
        assert not _vanishes([(0, x, y, 1),
                              (0, Scalar.fraction(3, 2), None, 1)])
        # half of them cancel: the other half stays a numerator factor
        z = _binomial_ratio(downs, ups[:1])
        ts, s, c, exps = scalars_module._leaf((x, z), 1)
        assert ts == () and c == 1 and exps and all(
            e < 0 for e in exps.values())
        assert _vanishes([(0, x, z, 1), (0, x * z, None, -1)])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bounds_cover_numerator_factors(self, data):
        leaves = data.draw(factored_leaves(signed=True))
        lc = math.lcm(*(c for *_, c, _ in leaves))
        top = {}
        for *_, exps in leaves:
            for f, e in exps.items():
                top[f] = max(top.get(f, 0), e)

        def naive_leaf(ts, s, c, exps):
            p = IntPoly.const(s * (lc // c))
            for t in ts:
                p = p * IntPoly(t)
            for f, e in top.items():
                p = p * _FACTORS[f] ** (e - max(exps.get(f, 0), 0))
            for f, e in exps.items():
                if e < 0:
                    p = p * _FACTORS[f] ** -e
            return p
        naive = functools.reduce(operator.add, map(
            lambda leaf: naive_leaf(*leaf), leaves))
        dq, dt, h = scalars_module._bounds(leaves)
        assert scalars_module._numerator(leaves) == naive
        assert all(i <= dq and j <= dt and abs(c) <= h
                   for (i, j), c in naive.terms.items())
        zbits = h.bit_length() + 2
        tbits = zbits * (dq + 1) + 2
        assert scalars_module._packed(leaves, zbits, tbits) == \
            _pack(naive.terms, zbits, tbits)


class Corrupted(type(macdonald_rep())):
    """The Macdonald module with its U_1 entry v_[1] -> v_[2] replaced by
    change(entry)."""

    def __init__(self, change):
        super().__init__()
        self.change = change

    def raw_U(self, k, lam):
        col = super().raw_U(k, lam)
        if (k, lam) == (1, fockbridge.Partition([1])):
            col = dict(col)
            two = fockbridge.Partition([2])
            col[two] = self.change(col[two])
        return col


class TestMacdonaldDuCorrupted:
    # the du suite at (3, 5) passes on the module, every U and D entry a
    # binomial ratio; one entry changed, it fails

    def test_module_passes_through_factored_numerators(self):
        rep, lam = macdonald_rep(), fockbridge.Partition([2, 1])
        assert all(x._nf is not None or x._q is not None for k in (1, 2, 3)
                   for x in rep.raw_U(k, lam).values())
        assert str(verify_du(rep, 3, 5)) == "du: pass (171 checked, 0 failed)"

    @pytest.mark.parametrize("change", [
        lambda x: x + Q * T,                            # no longer factored
        lambda x: _binomial_ratio([(1, 1)], [(2, 1)]),  # another ratio
        lambda x: x * _binomial_ratio([(1, 0)], [(0, 1)])])
    def test_one_changed_entry_fails(self, change):
        rep = Corrupted(change)
        entry = rep.raw_U(1, fockbridge.Partition([1]))[
            fockbridge.Partition([2])]
        assert entry != macdonald_rep().raw_U(1, fockbridge.Partition([1]))[
            fockbridge.Partition([2])]
        rpt = verify_du(rep, 3, 5)
        assert not rpt.passed and len(rpt.checked) == 171
