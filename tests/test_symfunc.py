"""Basis conversions, Hall pairing, products, tableaux, evaluation."""

import functools
import random
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
from fockbridge.heisenberg import _fg, bosonic_apply_B
from fockbridge.identities import h_multiplier
from fockbridge.reps import fermionic_rep, macdonald_rep
from fockbridge.scalars import (ONE, Q, Scalar, ZERO, accumulate,
                                parse_scalar, scalar_sum)
from fockbridge.symfunc import (
    _distinct_padded_perms,
    _from_m,
    _perp_entries,
    _perp_row,
    _pm_row,
    _reduce,
    _times_entries,
    _to_m,
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

    def test_h_rows_count_contingency_tables(self):
        # the m_mu coefficient of h_lam is the number of nonnegative
        # integer matrices with row sums lam and column sums mu
        @functools.cache
        def tables(rows, cols):
            if not rows:
                return int(not any(cols))
            return sum(tables(rows[1:], tuple(c - x for c, x in zip(cols, xs)))
                       for xs in fillings(rows[0], cols))

        def fillings(n, caps):
            # the tuples of len(caps) nonnegative ints summing to n, each
            # at most its cap
            if not caps:
                if n == 0:
                    yield ()
                return
            for x in range(min(n, caps[0]) + 1):
                for rest in fillings(n - x, caps[1:]):
                    yield (x,) + rest

        for d in range(9):
            rows = _to_m("h", d)
            for lam in partitions_of(d):
                want = {mu: n for mu in partitions_of(d)
                        if (n := tables(tuple(lam), tuple(mu)))}
                assert {mu: c.as_int() for mu, c in rows[lam].items()} == \
                    want, lam


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


class TestElimination:
    # entries of the random matrices, zeros among them so that pivots
    # are searched for
    POOL = ("0", "0", "1", "-2", "3/4", "q", "t", "q*t-1", "(1-q)/(1-t)",
            "(1+q)^2/(q-t)", "q^2-t", "1/(1-q*t)")

    def test_rank_matches_sympy(self):
        # the rank over Q(q,t) by sympy's exact field arithmetic (its
        # DomainMatrix, which Matrix.rank takes minutes to match on these)
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        q, t = sympy.symbols("q t")

        def sym(text):
            return sympy.sympify(text.replace("^", "**"),
                                 locals={"q": q, "t": t})

        rng = random.Random(11)
        seen = set()
        for _ in range(30):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
            free = rng.randint(1, nrows)
            texts = [[rng.choice(self.POOL) for _ in range(ncols)]
                     for _ in range(free)]
            # each planted row is a combination of the free rows, with
            # coefficients from the pool
            for _ in range(nrows - free):
                cs = [rng.choice(self.POOL) for _ in range(free)]
                texts.append(["+".join(f"({c})*({r[j]})"
                                       for c, r in zip(cs, texts[:free]))
                              for j in range(ncols)])
            rng.shuffle(texts)
            mat = [[parse_scalar(x) for x in row] for row in texts]
            want = DomainMatrix.from_Matrix(sympy.Matrix(
                [[sym(x) for x in row] for row in texts])).to_field().rank()
            # the row operations, tracked on an augmented identity, take
            # the matrix to its reduced form
            aug = [row + [ONE if i == j else ZERO for j in range(nrows)]
                   for i, row in enumerate(mat)]
            assert _reduce(aug, ncols) == want, texts
            assert all(x.is_zero for row in aug[want:] for x in row[:ncols])
            for row in aug:
                ops = row[ncols:]
                assert [scalar_sum([c * r[j] for c, r in zip(ops, mat)])
                        for j in range(ncols)] == row[:ncols]
            seen.add(want < nrows)
        assert seen == {False, True}

    @pytest.mark.parametrize("basis", ["p", "h", "s"])
    def test_inverse_transition_matrices(self, basis):
        for d in range(7):
            to_m, from_m = _to_m(basis, d), _from_m(basis, d)
            for mu in partitions_of(d):
                row = accumulate((nu, c * w) for lam, c in from_m[mu].items()
                                 for nu, w in to_m[lam].items())
                assert row == {mu: ONE}, (basis, d, mu)


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


def _scalars(row):
    return {lam: Scalar.from_int(n) for lam, n in row.items()}


class TestZeroTestRows:
    """The integer rows behind the Pieri and bf entries against the reduced
    route, and the entries' sums against multiply and perp_apply."""

    def test_pm_row(self):
        checked = 0
        for d in range(7):
            for mu in partitions_of(d):
                for n in range(1, 4):
                    for nu in partitions_of(n):
                        want = convert(multiply(sym_p(nu), sym_m(mu)), "m")
                        assert want.terms == _scalars(_pm_row(nu, mu))
                        checked += 1
        assert checked == 180

    def test_perp_rows(self):
        checked = 0
        for d in range(7):
            for mu in partitions_of(d):
                for r in range(1, 5):
                    for g, op in (("p", sym_p((r,))), ("h", sym_h(r))):
                        for basis, b in (("m", sym_m), ("p", sym_p)):
                            want = convert(perp_apply(op, b(mu)), basis)
                            assert want.terms == _scalars(
                                _perp_row(g, r, basis, mu)), (g, r, mu)
                            checked += 1
        assert checked == 480

    @pytest.mark.parametrize("make, fns, count", [
        (macdonald_rep, "FG", 288), (fermionic_rep, "F", 144)])
    def test_entries_sum_to_the_reduced_sides(self, make, fns, count):
        # Macdonald F and G are built in m, fermionic F in p
        rep = make()
        checked = 0
        for d in range(5):
            for s in rep.basis_of_degree(d):
                for fn in fns:
                    x = _fg(rep, fn, s, rep.highest)
                    xp = convert(x, "p")
                    for k in (1, 2, 3):
                        hk = h_multiplier(k, rep.params)
                        ak = SymFunc("p", {P((k,)): rep.params.value(k)})
                        for entries, want in (
                                (_times_entries(hk, x), multiply(hk, xp)),
                                (_times_entries(ak, x),
                                 bosonic_apply_B(xp, -k, rep.params)),
                                (_perp_entries("h", k, x),
                                 perp_apply(sym_h(k), xp)),
                                (_perp_entries("p", k, x),
                                 bosonic_apply_B(xp, k, rep.params))):
                            got = SymFunc(x.basis, accumulate(
                                (lam, (w if y is None else w * y) * -sign)
                                for lam, w, y, sign in entries))
                            assert convert(got, "p").terms == want.terms
                            checked += 1
        assert checked == count


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
