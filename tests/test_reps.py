"""Concrete reps against closed forms and cross-oracles."""

import pytest

from fockbridge.heisenberg import (
    Rep,
    StateVec,
    apply_B,
    apply_D,
    apply_U,
    compute_F,
    compute_G,
    load_bundle,
    monomial_coeff,
    phi_map,
    rep_to_bundle,
    specialize_rep,
)
from fockbridge.partitions import (
    EMPTY,
    Partition,
    SkewShape,
    core_quotient,
    partitions_of,
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
from fockbridge.scalars import ONE, Q, Scalar, T, ZERO, parse_scalar
from fockbridge.symfunc import (
    SymFunc,
    convert,
    multiply,
    schur_tableaux,
    sym_s,
)

P = Partition


def vec(lam):
    return StateVec.basis(P(lam))


class NewtonB(Rep):
    """A base rep's B, derived by Newton's identities from its U/D actions,
    exposed as raw_B, so that compute_F/compute_G take B products."""

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

    def raw_B(self, k, index):
        return apply_B(self.base, k, StateVec.basis(index)).terms


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
        from fockbridge.partitions import horizontal_strips
        rep = fermionic_rep()
        for d in range(5):
            for lam in partitions_of(d):
                for k in (1, 2, 3):
                    got = apply_U(rep, k, vec(lam))
                    want = StateVec({mu: ONE
                                     for mu in horizontal_strips(lam, k)})
                    assert got == want, (lam, k)

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

    def test_oracle_orthogonal(self):
        oracle = macdonald_p_oracle(3)
        lams = list(oracle)
        for i, a in enumerate(lams):
            for b in lams[i + 1:]:
                assert deformed_inner(oracle[a], oracle[b]).is_zero

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


class TestTensor:
    def test_leibniz_on_vacuum(self):
        rep = tensor(fermionic_rep(), fermionic_rep())
        got = apply_B(rep, -1, StateVec.basis((EMPTY, EMPTY)))
        want = StateVec.basis((P((1,)), EMPTY)) \
            + StateVec.basis((EMPTY, P((1,))))
        assert got == want

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
