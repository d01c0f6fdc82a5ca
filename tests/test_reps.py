"""Concrete reps against closed forms and cross-oracles."""

import pytest

from fockbridge import heisenberg
from fockbridge.heisenberg import (
    HeisenbergParams,
    Rep,
    StateVec,
    _op_single,
    _ud_single,
    apply_B,
    apply_D,
    apply_U,
    compute_F,
    compute_G,
    graded_matrix,
    load_bundle,
    monomial_coeff,
    phi_map,
    rep_to_bundle,
    specialize_rep,
)
from fockbridge.identities import verify_pieri
from fockbridge.partitions import (
    EMPTY,
    Partition,
    SkewShape,
    arm_leg,
    core_quotient,
    dominates,
    horizontal_strips,
    horizontal_strips_below,
    partitions_of,
    z_of,
)
from fockbridge.reps import (
    deformed_inner,
    deformed_z,
    direct_sum,
    fermionic_rep,
    llt_q1_rep,
    macdonald_b,
    macdonald_p_oracle,
    macdonald_phi_psi,
    macdonald_rep,
    tensor,
)
from fockbridge import scalars
from fockbridge.scalars import (
    IntPoly,
    ONE,
    Q,
    Scalar,
    T,
    ZERO,
    _binomial_ratio,
    parse_scalar,
)
from fockbridge.symfunc import (
    SymFunc,
    convert,
    multiply,
    schur_tableaux,
    sym_m,
    sym_s,
    theta_apply,
)

P = Partition


def vec(lam):
    return StateVec.basis(P(lam))


class View(Rep):
    """A base rep's basis, degrees and parameters, with the actions a
    subclass exposes."""

    def __init__(self, base):
        super().__init__()
        self.base = base
        self.params = base.params
        self.degree_step = base.degree_step
        self.highest = base.highest

    def basis_of_degree(self, d):
        return self.base.basis_of_degree(d)

    def degree_of(self, index):
        return self.base.degree_of(index)


class NewtonB(View):
    """A base rep's B, derived by Newton's identities from its U/D actions,
    exposed as raw_B, so that compute_F/compute_G take B products."""

    def raw_B(self, k, index):
        return apply_B(self.base, k, StateVec.basis(index)).terms


class BOnly(View):
    """A base rep's raw_B alone, so that U and D are derived from it by
    Newton's identities: the counterpart of NewtonB."""

    def raw_B(self, k, index):
        return self.base.raw_B(k, index)


class Rescaled(View):
    """A base rep on partitions with v_[2,1] rescaled by 1 + q: each U and
    D entry times the scale of its source over that of its target."""

    @staticmethod
    def scale(lam):
        return ONE + Q if lam == P((2, 1)) else ONE

    def rescaled(self, block, source):
        return {j: c * self.scale(source) / self.scale(j)
                for j, c in block.items()}

    def raw_U(self, k, index):
        return self.rescaled(self.base.raw_U(k, index), index)

    def raw_D(self, k, index):
        return self.rescaled(self.base.raw_D(k, index), index)


def duality_failures(rep, omega, dmax):
    """The lam with |lam| <= dmax at which omega G_lam(q,t) is not
    F_lam'(t,q): Macdonald VI §5, omega_{q,t} P_lam(q,t) = Q_lam'(t,q)."""
    return [lam for d in range(dmax + 1) for lam in partitions_of(d)
            if theta_apply(compute_G(rep, lam, EMPTY), omega) !=
            compute_F(rep, lam.conjugate(), EMPTY).map_coefficients(
                lambda c: c.specialize({"q": T, "t": Q}))]


# omega_{q,t}: p_r -> (-1)^(r-1) (1 - q^r)/(1 - t^r) p_r, and plain omega
OMEGA_QT = HeisenbergParams(
    lambda r: (-1) ** (r - 1) * _binomial_ratio([(r, 0)], [(0, r)]))
OMEGA = HeisenbergParams(lambda r: (-1) ** (r - 1))


class TestFermionicAction:
    def test_lowering_kills_vacuum(self):
        rep = fermionic_rep()
        for k in (1, 2, 3):
            assert apply_B(rep, k, vec(())).is_zero

    def test_single_raises(self):
        rep = fermionic_rep()
        assert apply_B(rep, -1, vec(())) == vec((1,))
        assert apply_B(rep, -1, vec((1,))) == vec((2,)) + vec((1, 1))

    def test_sign_appears(self):
        rep = fermionic_rep()
        got = apply_B(rep, -2, vec(()))
        assert got == vec((2,)) - vec((1, 1))

    def test_lowering_example(self):
        rep = fermionic_rep()
        assert apply_B(rep, 2, vec((2,))) == vec(())

    def test_u_collapses_signs(self):
        rep = fermionic_rep()
        assert apply_U(rep, 2, vec(())) == vec((2,))
        assert apply_U(rep, 2, vec((1,))) == vec((3,)) + vec((2, 1))

    def test_u_is_strip_sum(self):
        # fermionic_rep gives U_k and D_k by the Pieri rule; the Newton
        # route, sum over lam of B_{-+lam} / z_lam on the B action alone,
        # must give the same columns
        rep, newton = fermionic_rep(), BOnly(fermionic_rep())
        assert newton.raw_U is None and newton.raw_D is None
        checked = 0
        for d in range(8):
            for lam in partitions_of(d):
                for k in range(1, 5):
                    for op, strips in (("U", horizontal_strips),
                                       ("D", horizontal_strips_below)):
                        want = dict.fromkeys(strips(lam, k), ONE)
                        assert _op_single(rep, op, k, lam) == want
                        got = _ud_single(newton, op, k, lam)
                        assert got == want, (op, k, lam)
                        checked += 1
        assert checked == 360

    def test_ud_columns_take_no_chain(self, monkeypatch):
        # a fresh fermionic rep builds U_3 and D_3 from strips, not from
        # chains of B products
        calls = []
        chain = heisenberg._chain
        monkeypatch.setattr(heisenberg, "_chain",
                            lambda *args: calls.append(args) or chain(*args))
        rep = type(fermionic_rep())()
        for lam in partitions_of(5):
            assert apply_U(rep, 3, vec(lam)) == StateVec(
                dict.fromkeys(horizontal_strips(lam, 3), ONE))
            assert apply_D(rep, 3, vec(lam)) == StateVec(
                dict.fromkeys(horizontal_strips_below(lam, 3), ONE))
        assert calls == []

    def test_commutation_relations(self):
        rep = fermionic_rep()
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                for d in range(5):
                    for lam in partitions_of(d):
                        v = vec(lam)
                        got = apply_B(rep, k, apply_B(rep, -l, v)) \
                            - apply_B(rep, -l, apply_B(rep, k, v))
                        want = v.scaled(k) if k == l else StateVec.zero()
                        assert got == want, (k, l, lam)


class TestFermionicMatrixElements:
    def test_f_equals_g(self):
        rep = fermionic_rep()
        for ds in range(5):
            for s in partitions_of(ds):
                for dt in range(ds + 1):
                    for t in partitions_of(dt):
                        assert compute_F(rep, s, t) == compute_G(rep, s, t)

    def test_phi_is_schur(self):
        rep = fermionic_rep()
        for d in range(6):
            for lam in partitions_of(d):
                f = convert(phi_map(rep, vec(lam)), "m")
                assert f == schur_tableaux(lam), lam

    def test_skew_example(self):
        rep = fermionic_rep()
        f = convert(compute_F(rep, P((2, 1)), P((1,))), "s")
        assert f.terms == {P((2,)): ONE, P((1, 1)): ONE}

    def test_f_is_skew_schur(self):
        rep = fermionic_rep()
        for s in partitions_of(4):
            for t in [P(()), P((1,)), P((2,)), P((1, 1))]:
                if not s.contains(t):
                    # no chain climbs from t to s unless t fits inside
                    assert compute_F(rep, s, t).is_zero, (s, t)
                    continue
                got = convert(compute_F(rep, s, t), "m")
                assert got == schur_tableaux(SkewShape(s, t)), (s, t)

    def test_monomial_coeff_examples(self):
        rep = fermionic_rep()
        assert monomial_coeff(rep, P((2, 1)), EMPTY, (2, 1)) == ONE
        assert monomial_coeff(rep, P((2, 1)), EMPTY, (1, 1, 1)) \
            == Scalar.from_int(2)


class TestMacdonaldWeights:
    def test_b_inside(self):
        assert macdonald_b(P((1,)), (1, 1)) == (ONE - T) / (ONE - Q)
        assert macdonald_b(P((2,)), (1, 1)) == (ONE - Q * T) / (ONE - Q * Q)

    def test_b_outside(self):
        assert macdonald_b(P((1,)), (3, 3)) == ONE

    def test_phi_psi_first_cell(self):
        phi, psi = macdonald_phi_psi(SkewShape(P((1,)), EMPTY))
        assert phi == (ONE - T) / (ONE - Q)
        assert psi == ONE

    def test_psi_row_strip(self):
        _, psi = macdonald_phi_psi(SkewShape(P((2,)), P((1,))))
        want = (ONE - T) * (ONE + Q) / (ONE - Q * T)
        assert psi == want

    def test_empty_strip(self):
        assert macdonald_phi_psi(SkewShape(P((2, 1)), P((2, 1)))) == (ONE, ONE)

    def test_rejects_vertical(self):
        with pytest.raises(ValueError, match="horizontal"):
            macdonald_phi_psi(SkewShape(P((1, 1)), EMPTY))


def b_by_division(lam, cell):
    # the arm/leg weight by Scalar arithmetic: trial division at every step
    i, j = cell
    if not (1 <= i <= len(lam) and 1 <= j <= lam.part(i)):
        return ONE
    a, l = arm_leg(lam, cell)
    return (ONE - Q ** a * T ** (l + 1)) / (ONE - Q ** (a + 1) * T ** l)


def phi_psi_by_division(shape):
    cols = {c.col for c in shape.cells()}
    rows = {c.row for c in shape.cells()}
    phi = psi = ONE
    for s in shape.outer.cells():
        if s.col in cols:
            phi = phi * b_by_division(shape.outer, s) \
                / b_by_division(shape.inner, s)
        elif s.row in rows:
            psi = psi * b_by_division(shape.inner, s) \
                / b_by_division(shape.outer, s)
    return phi, psi


def strips(inner_max=7, k_max=3):
    for d in range(inner_max + 1):
        for lam in partitions_of(d):
            for k in range(1, k_max + 1):
                for mu in horizontal_strips(lam, k):
                    yield SkewShape(mu, lam)


def same(x, y):
    return (x.num, x.den, x.fac) == (y.num, y.den, y.fac)


class TestExponentSpace:
    # the Macdonald coefficients are built from their binomial factors;
    # Scalar division by the same binomials is the independent route

    def test_strips_match_division(self):
        count = 0
        for shape in strips():
            got = macdonald_phi_psi(shape)
            want = phi_psi_by_division(shape)
            assert all(map(same, got, want)), shape
            count += 1
        assert count == 521

    def test_raw_columns_are_phi_psi_halves(self):
        # raw_U builds phi alone and raw_D psi alone: every strip to
        # degree 6, once from each side
        rep, ups, downs = type(macdonald_rep())(), 0, 0
        for d in range(7):
            for lam in partitions_of(d):
                for k in range(1, 7 - d):
                    for mu, x in rep.raw_U(k, lam).items():
                        phi, _ = macdonald_phi_psi(SkewShape(mu, lam))
                        assert same(x, phi), (mu, lam)
                        ups += 1
                for k in range(1, d + 1):
                    for mu, x in rep.raw_D(k, lam).items():
                        _, psi = macdonald_phi_psi(SkewShape(lam, mu))
                        assert same(x, psi), (lam, mu)
                        downs += 1
        assert ups == downs == sum(s.outer.size <= 6 for s in strips(5, 6))

    def test_weights_params_and_z_match_division(self):
        a = macdonald_rep().params
        for k in range(1, 9):
            assert same(a.value(k), (ONE - T ** k) / (ONE - Q ** k)), k
        for d in range(7):
            for lam in partitions_of(d):
                want = z_of(lam)
                for part in lam:
                    want = want * (ONE - Q ** part) / (ONE - T ** part)
                assert same(deformed_z(lam), want), lam
                for cell in lam.cells() + [(1, lam.part(1) + 1)]:
                    assert same(macdonald_b(lam, cell),
                                b_by_division(lam, cell)), (lam, cell)

    def test_operator_entries_divide_nothing(self, monkeypatch):
        # U_k and D_k entries up to degree 5 take no trial division, probe
        # or generic gcd; the first build registers the factors (a probe
        # each), so it runs before the count
        def build():
            rep = type(macdonald_rep())()
            for d in range(6):
                for lam in partitions_of(d):
                    for k in range(1, d + 2):
                        rep.raw_U(k, lam)
                        rep.raw_D(k, lam)
            for k in range(1, 6):
                type(rep).params._gen(k)
                deformed_z(P((k,)))
        build()
        calls = []
        for name in ("_strip", "_trial", "_probe"):
            real = getattr(scalars, name)

            def counting(*args, name=name, real=real):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(scalars, name, counting)
        cofactors = IntPoly.cofactors
        monkeypatch.setattr(IntPoly, "cofactors", lambda *args: (
            calls.append("cofactors"), cofactors(*args))[1])
        build()
        assert calls == []


class TestMacdonaldRep:
    def test_d_example(self):
        rep = macdonald_rep()
        assert apply_D(rep, 1, vec((1,))) == vec(())

    def test_g_and_f_at_one_cell(self):
        rep = macdonald_rep()
        g = compute_G(rep, P((1,)), EMPTY)
        assert g.terms == {P((1,)): ONE}
        f = compute_F(rep, P((1,)), EMPTY)
        assert f.terms == {P((1,)): (ONE - T) / (ONE - Q)}

    def test_commutation_relations(self):
        rep = macdonald_rep()
        a = rep.params
        for k in (1, 2):
            for l in (1, 2):
                for d in range(4):
                    for lam in partitions_of(d):
                        v = vec(lam)
                        got = apply_B(rep, k, apply_B(rep, -l, v)) \
                            - apply_B(rep, -l, apply_B(rep, k, v))
                        want = v.scaled(a.value(k) * k) if k == l \
                            else StateVec.zero()
                        assert got == want, (k, l, lam)

    def test_updown_families_commute(self):
        rep = macdonald_rep()
        for d in range(5):
            for lam in partitions_of(d):
                v = vec(lam)
                assert apply_U(rep, 1, apply_U(rep, 2, v)) \
                    == apply_U(rep, 2, apply_U(rep, 1, v))
                assert apply_D(rep, 1, apply_D(rep, 2, v)) \
                    == apply_D(rep, 2, apply_D(rep, 1, v))

    def test_g_matches_gram_schmidt_oracle(self):
        rep = macdonald_rep()
        for d in range(4):
            oracle = macdonald_p_oracle(d)
            for lam in partitions_of(d):
                assert compute_G(rep, lam, EMPTY) == oracle[lam], lam

    def test_oracle_matches_plain_gram_schmidt(self):
        # one z and one <P_mu, P_mu> per call change no value: Gram-Schmidt
        # by the public deformed_inner, to degree 5
        for d in range(6):
            want = {}
            for lam in reversed(partitions_of(d)):
                f = convert(sym_m(lam), "p")
                for p_mu in want.values():
                    coef = deformed_inner(f, p_mu) / deformed_inner(p_mu, p_mu)
                    if not coef.is_zero:
                        f = f - p_mu.scaled(coef)
                want[lam] = f
            got = macdonald_p_oracle(d)
            assert list(got) == list(want)
            assert all(got[lam] == want[lam] for lam in want), d

    def test_oracle_orthogonal(self):
        oracle = macdonald_p_oracle(3)
        lams = list(oracle)
        for i, a in enumerate(lams):
            for b in lams[i + 1:]:
                assert deformed_inner(oracle[a], oracle[b]).is_zero

    def test_oracle_at_the_cap(self):
        # G against the oracle to degree 7; at degree 6 the oracle is
        # pairwise orthogonal and unitriangular in m, the rest of m_mu
        # dominated by lam
        rep = macdonald_rep()
        for d in (5, 6, 7):
            oracle = macdonald_p_oracle(d)
            assert list(oracle) == list(reversed(partitions_of(d)))
            for lam in partitions_of(d):
                assert compute_G(rep, lam, EMPTY) == oracle[lam], lam
            if d != 6:
                continue
            lams = list(oracle)
            for i, a in enumerate(lams):
                for b in lams[i + 1:]:
                    assert deformed_inner(oracle[a], oracle[b]).is_zero
                m = convert(oracle[a], "m")
                assert m.coefficient(a) == ONE, a
                assert all(dominates(a, mu) for mu in m.terms), a

    def test_duality(self):
        # all 45 partitions with |lam| <= 7; plain omega fails at each but
        # the empty one
        rep = macdonald_rep()
        assert duality_failures(rep, OMEGA_QT, 7) == []
        failed = duality_failures(rep, OMEGA, 7)
        assert len(failed) == 44 and EMPTY not in failed

    def test_duality_fixes_the_scale(self):
        # v_[2,1] rescaled by 1 + q: the Pieri sweep still passes, the
        # duality fails first at [2,1]
        rep = Rescaled(macdonald_rep())
        assert verify_pieri(rep, 2, 4).passed
        assert duality_failures(rep, OMEGA_QT, 3)[0] == P((2, 1))

    def test_q_equals_t_gives_schur(self):
        rep = macdonald_rep()
        for d in range(4):
            for lam in partitions_of(d):
                g = compute_G(rep, lam, EMPTY)
                spec = g.map_coefficients(lambda c: c.specialize({"q": T}))
                assert convert(spec, "s") == sym_s(lam), lam

    def test_q_zero_unitriangular(self):
        # Hall-Littlewood limit: leading m_lam plus dominance-lower terms
        from fockbridge.partitions import dominates
        rep = macdonald_rep()
        for d in range(1, 4):
            for lam in partitions_of(d):
                g = compute_G(rep, lam, EMPTY)
                hl = convert(g.map_coefficients(
                    lambda c: c.specialize({"q": 0})), "m")
                assert hl.coefficient(lam) == ONE, lam
                for mu in hl.terms:
                    assert dominates(lam, mu), (lam, mu)

    @pytest.mark.parametrize("which", ["macdonald", "bundle", "q=0"])
    def test_chain_route_matches_b_products(self, which):
        # compute_F/compute_G read U/D chains on a rep without raw_B; the
        # same rep seen through NewtonB takes B products instead
        rep = macdonald_rep()
        if which == "bundle":
            rep = load_bundle(rep_to_bundle(rep, 5, 5))
        elif which == "q=0":
            rep = specialize_rep(rep, {"q": ZERO})
        oracle = NewtonB(rep)
        assert rep.raw_B is None and oracle.raw_B is not None
        checked = 0
        for ds in range(6):
            for s in rep.basis_of_degree(ds):
                for dt in range(ds + 1):
                    for t in rep.basis_of_degree(dt):
                        for fn in (compute_F, compute_G):
                            got = fn(rep, s, t)
                            want = fn(oracle, s, t)
                            assert got.basis == want.basis == "p"
                            assert got.terms == want.terms, (fn, s, t)
                            checked += not got.is_zero
        assert checked > 100

    def test_bundle_prints_each_den_once(self, monkeypatch):
        # the entries of a bundle share few dens; each is multiplied out
        # once per export, not once per entry
        rep, kmax, dmax = type(macdonald_rep())(), 3, 5
        for k in range(1, kmax + 1):
            rep.params.value(k)
            for d in range(dmax + 1):
                graded_matrix(rep, "D", k, d)
                if d + k <= dmax:
                    graded_matrix(rep, "U", k, d)
        expands = []
        real = scalars._expand
        monkeypatch.setattr(scalars, "_expand",
                            lambda fac: expands.append(fac) or real(fac))
        bundle = rep_to_bundle(rep, kmax, dmax)
        monkeypatch.undo()
        assert len(expands) > 10
        assert len(expands) == len(set(expands))
        assert bundle == rep_to_bundle(macdonald_rep(), kmax, dmax)

    def test_deformed_z_reduces(self):
        # q = t collapses the deformation to plain z
        v = deformed_z(P((2, 1))).specialize({"q": T})
        assert v == Scalar.from_int(2)


class TestSums:
    def test_cross_f_vanishes(self):
        rep = direct_sum(fermionic_rep(), fermionic_rep())
        s = (0, P((2,)))
        t = (1, P((1,)))
        assert compute_F(rep, s, t).is_zero
        assert compute_F(rep, t, s).is_zero

    def test_componentwise_matches(self):
        base = fermionic_rep()
        rep = direct_sum(base, base)
        for d in range(4):
            for lam in partitions_of(d):
                assert compute_F(rep, (1, lam), (1, EMPTY)) \
                    == compute_F(base, lam, EMPTY)

    def test_dimensions_add(self):
        rep = direct_sum(fermionic_rep(), fermionic_rep())
        assert len(rep.basis_of_degree(3)) == 2 * len(partitions_of(3))

    def test_parameter_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parameter"):
            direct_sum(fermionic_rep(), macdonald_rep())

    @pytest.mark.parametrize("combine, checked", [(direct_sum, 16),
                                                  (tensor, 12)])
    def test_distinct_bundles_under_kmax_8_combine(self, combine, checked):
        # a bundle's parameters stop at its kmax, so two bundles are
        # compared up to the smaller kmax, not at the 8 of a lazy family
        bundle = rep_to_bundle(fermionic_rep(), 2, 3)
        rpt = verify_pieri(combine(load_bundle(bundle), load_bundle(bundle)),
                           1, 1)
        assert rpt.passed and len(rpt.checked) == checked
        # a_1 still differs from the Macdonald bundle's
        other = load_bundle(rep_to_bundle(macdonald_rep(), 2, 3))
        with pytest.raises(ValueError, match="parameter"):
            combine(load_bundle(bundle), other)

    @pytest.mark.parametrize("combine", [direct_sum, tensor])
    def test_composites_of_small_bundles_combine(self, combine):
        # a composite's parameters stop at its parts' smallest kmax
        bundle = rep_to_bundle(fermionic_rep(), 2, 3)
        a = combine(load_bundle(bundle), load_bundle(bundle))
        b = combine(load_bundle(bundle), load_bundle(bundle))
        rpt = verify_pieri(combine(a, b), 1, 1)
        assert rpt.passed and rpt.checked
        ff = combine(fermionic_rep(), fermionic_rep())
        assert a.kmax == combine(a, ff).kmax == 2 and ff.kmax == 8
        mac = rep_to_bundle(macdonald_rep(), 2, 3)
        with pytest.raises(ValueError, match="parameter"):
            combine(a, combine(load_bundle(mac), load_bundle(mac)))


class TestTensor:
    def test_leibniz_on_vacuum(self):
        rep = tensor(fermionic_rep(), fermionic_rep())
        got = apply_B(rep, -1, StateVec.basis((EMPTY, EMPTY)))
        want = StateVec.basis((P((1,)), EMPTY)) \
            + StateVec.basis((EMPTY, P((1,))))
        assert got == want

    def test_basis_order_is_pinned(self):
        # the splits of the degree in lexicographic order, then each
        # factor's basis in its own order
        rep = tensor(fermionic_rep(), fermionic_rep())
        assert rep.basis_of_degree(2) == (
            (EMPTY, P((2,))), (EMPTY, P((1, 1))), (P((1,)), P((1,))),
            (P((2,)), EMPTY), (P((1, 1)), EMPTY))

    def test_bundle_basis_order_is_pinned(self):
        base = fermionic_rep()
        basis = rep_to_bundle(tensor(base, base, base), 1, 2)["basis"]
        assert basis == {str(d): [str(tuple(map(P, t))) for t in row]
                         for d, row in enumerate((
                             [((), (), ())],
                             [((), (), (1,)), ((), (1,), ()), ((1,), (), ())],
                             [((), (), (2,)), ((), (), (1, 1)),
                              ((), (1,), (1,)), ((), (2,), ()),
                              ((), (1, 1), ()), ((1,), (), (1,)),
                              ((1,), (1,), ()), ((2,), (), ()),
                              ((1, 1), (), ())]))}

    def test_params_doubled(self):
        rep = tensor(fermionic_rep(), fermionic_rep())
        assert rep.params.value(3) == Scalar.from_int(2)

    def test_f_factorizes(self):
        base = fermionic_rep()
        rep = tensor(base, base)
        for s1 in partitions_of(2):
            for s2 in partitions_of(1):
                got = compute_F(rep, (s1, s2), (EMPTY, EMPTY))
                want = multiply(compute_F(base, s1, EMPTY),
                                compute_F(base, s2, EMPTY))
                assert got == want, (s1, s2)

    def test_f_square_example(self):
        rep = tensor(fermionic_rep(), fermionic_rep())
        f = convert(compute_F(rep, (P((1,)), P((1,))), (EMPTY, EMPTY)), "s")
        assert f.terms == {P((2,)): ONE, P((1, 1)): ONE}

    def test_relations_with_doubled_params(self):
        rep = tensor(fermionic_rep(), fermionic_rep())
        v = StateVec.basis((P((1,)), EMPTY))
        got = apply_B(rep, 2, apply_B(rep, -2, v)) \
            - apply_B(rep, -2, apply_B(rep, 2, v))
        assert got == v.scaled(4)


class TestLlt:
    def test_params_and_step(self):
        rep = llt_q1_rep(3)
        assert rep.degree_step == 3
        assert rep.params.value(2) == Scalar.from_int(3)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            llt_q1_rep(1)

    def test_single_box_quotient(self):
        rep = llt_q1_rep(2)
        f = convert(compute_F(rep, P((2,)), EMPTY), "s")
        assert f == sym_s((1,))

    def test_core_relative_identity(self):
        rep = llt_q1_rep(2)
        f = compute_F(rep, P((2, 1)), P((2, 1)))
        assert f == SymFunc.one("p")

    def test_product_formula(self):
        rep = llt_q1_rep(2)
        for d in range(0, 7, 2):
            for lam in partitions_of(d):
                core, quot = core_quotient(lam, 2)
                if core != EMPTY:
                    continue
                got = convert(compute_F(rep, lam, EMPTY), "s")
                want = convert(multiply(sym_s(quot[0]), sym_s(quot[1])), "s")
                assert got == want, lam

    def test_off_block_vanishes(self):
        rep = llt_q1_rep(2)
        # (1) is its own 2-core, so nothing connects it to the empty block
        assert compute_F(rep, P((1,)), EMPTY).is_zero
