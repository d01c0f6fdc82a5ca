"""Operator calculus on a transparent polynomial-model representation.

The toy rep below has basis indexed by partitions, with B_{-k} adjoining a
part and B_k removing one against the weight k*a_k*mult.  Every framework
feature (Newton reconstruction, F/G, phi, adjoint, bundles) is checked
against closed forms computable by hand on this model.
"""

import json

import pytest

from fockbridge import heisenberg
from fockbridge.heisenberg import (
    BundleFormatError,
    BundleRangeError,
    HeisenbergParams,
    Rep,
    StateVec,
    _target,
    adjoint_rep,
    apply_B,
    apply_D,
    apply_U,
    bosonic_apply_B,
    compute_F,
    compute_G,
    load_bundle,
    monomial_coeff,
    params_equal,
    phi_map,
    rep_to_bundle,
    specialize_rep,
)
from fockbridge.partitions import EMPTY, Partition, partitions_of, z_of
from fockbridge.scalars import ONE, Q, Scalar, ZERO, parse_scalar
from fockbridge.reps import fermionic_rep, llt_q1_rep, macdonald_rep, tensor
from fockbridge.symfunc import SymFunc, convert, sym_p, theta_apply

P = Partition


class PolyModel(Rep):
    """K[B_{-1}, B_{-2}, ...] acting on itself; basis <-> partitions."""

    def __init__(self, params):
        super().__init__()
        self.params = params
        self.highest = EMPTY

    def basis_of_degree(self, d):
        return partitions_of(d) if d >= 0 else ()

    def degree_of(self, index):
        return index.size

    def raw_B(self, k, lam):
        if k < 0:
            return {P(sorted(lam + (-k,), reverse=True)): ONE}
        m = lam.multiplicity(k)
        if not m:
            return {}
        rest = list(lam)
        rest.remove(k)
        return {P(rest): self.params.value(k) * (k * m)}


class UDOnly(Rep):
    """Same module, but exposing only the U/D actions of a base model."""

    def __init__(self, base):
        super().__init__()
        self.base = base
        self.params = base.params
        self.highest = base.highest

    def basis_of_degree(self, d):
        return self.base.basis_of_degree(d)

    def degree_of(self, index):
        return self.base.degree_of(index)

    def raw_U(self, k, index):
        return apply_U(self.base, k, StateVec.basis(index)).terms

    def raw_D(self, k, index):
        return apply_D(self.base, k, StateVec.basis(index)).terms


UNIT = HeisenbergParams.constant(1)
QPAR = HeisenbergParams(lambda k: Scalar.from_int(k) + Q)


def vec(lam):
    return StateVec.basis(P(lam))


class TestParams:
    def test_lazy_and_cached(self):
        calls = []

        def gen(k):
            calls.append(k)
            return Scalar.from_int(k)

        p = HeisenbergParams(gen)
        assert p.value(3) == Scalar.from_int(3)
        assert p.value(3) == Scalar.from_int(3)
        assert calls == [3]

    def test_zero_rejected(self):
        p = HeisenbergParams(lambda k: ZERO)
        with pytest.raises(ValueError, match="vanishes"):
            p.value(1)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            UNIT.value(0)

    def test_params_equal_sampled(self):
        assert params_equal(UNIT, HeisenbergParams.constant(1))
        assert not params_equal(UNIT, QPAR)


class TestStateVec:
    def test_zero_cleanup(self):
        v = StateVec({P((1,)): ONE, P((2,)): ZERO})
        assert list(v.terms) == [P((1,))]

    def test_arith(self):
        v = vec((1,)) + vec((2,)).scaled(2)
        w = v - vec((1,))
        assert w == vec((2,)).scaled(2)
        assert (v - v).is_zero


class TestCommutators:
    def test_mixed(self):
        rep = PolyModel(QPAR)
        for k in range(1, 4):
            for l in range(1, 4):
                for d in range(4):
                    for lam in partitions_of(d):
                        v = vec(lam)
                        lhs = apply_B(rep, k, apply_B(rep, -l, v)) \
                            - apply_B(rep, -l, apply_B(rep, k, v))
                        want = v.scaled(QPAR.value(k) * k) if k == l \
                            else StateVec.zero()
                        assert lhs == want, (k, l, lam)

    def test_part_adjoining_commutes(self):
        rep = PolyModel(UNIT)
        v = vec((2, 1))
        ab = apply_B(rep, -2, apply_B(rep, -3, v))
        ba = apply_B(rep, -3, apply_B(rep, -2, v))
        assert ab == ba

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError):
            apply_B(PolyModel(UNIT), 0, vec(()))


class TestNewtonReconstruction:
    def test_b_from_ud_matches_raw(self):
        base = PolyModel(QPAR)
        ud = UDOnly(base)
        for k in [-3, -2, -1, 1, 2, 3]:
            for d in range(4):
                for lam in partitions_of(d):
                    got = apply_B(ud, k, vec(lam))
                    want = apply_B(base, k, vec(lam))
                    assert got == want, (k, lam)

    def test_u_from_b(self):
        # U_k v_empty = sum over lam of z_lam^{-1} v_lam in this model
        rep = PolyModel(UNIT)
        got = apply_U(rep, 3, vec(()))
        want = StateVec({lam: ONE / z_of(lam) for lam in partitions_of(3)})
        assert got == want

    def test_u_zero_is_identity(self):
        rep = PolyModel(UNIT)
        assert apply_U(rep, 0, vec((2, 1))) == vec((2, 1))
        assert apply_D(rep, 0, vec((2, 1))) == vec((2, 1))

    def test_d_kills_vacuum(self):
        rep = PolyModel(QPAR)
        assert apply_D(rep, 2, vec(())).is_zero


class TestMatrixElements:
    def test_f_at_vacuum_base(self):
        rep = PolyModel(UNIT)
        for lam in partitions_of(3):
            f = compute_F(rep, lam, EMPTY)
            assert f.terms == {lam: ONE / z_of(lam)}

    def test_f_off_lattice_is_zero(self):
        rep = PolyModel(UNIT)
        assert compute_F(rep, EMPTY, P((1,))).is_zero
        assert compute_G(rep, EMPTY, P((1,))).is_zero

    def test_f_empty_degree(self):
        rep = PolyModel(UNIT)
        assert compute_F(rep, EMPTY, EMPTY) == sym_p(())

    def test_g_single_row(self):
        rep = PolyModel(QPAR)
        for k in (1, 2, 3):
            g = compute_G(rep, P((k,)), EMPTY)
            assert g.terms == {P((k,)): QPAR.value(k)}

    def test_phi_is_theta(self):
        # phi(v_lam) rescales p_lam by the product of the a parts
        rep = PolyModel(QPAR)
        for d in range(5):
            for lam in partitions_of(d):
                assert phi_map(rep, vec(lam)) == theta_apply(sym_p(lam), QPAR)

    def test_phi_linear(self):
        rep = PolyModel(UNIT)
        v = vec((2,)).scaled(3) + vec((1, 1))
        assert phi_map(rep, v) == sym_p((2,)).scaled(3) + sym_p((1, 1))

    def test_monomial_coeff_cross_check(self):
        rep = PolyModel(QPAR)
        for s in partitions_of(3):
            f = convert(compute_F(rep, s, EMPTY), "m")
            for alpha in [(3,), (2, 1), (1, 2), (1, 1, 1)]:
                got = monomial_coeff(rep, s, EMPTY, alpha)
                want = f.coefficient(tuple(sorted(alpha, reverse=True)))
                assert got == want, (s, alpha)

    def test_monomial_coeff_empty(self):
        rep = PolyModel(UNIT)
        assert monomial_coeff(rep, EMPTY, EMPTY, ()) == ONE

    def test_monomial_coeff_bad_weight(self):
        with pytest.raises(ValueError):
            monomial_coeff(PolyModel(UNIT), EMPTY, EMPTY, (1, 0))


class TestPartProductOrdering:
    def test_commute_past_annihilators(self):
        # B_lam B_{-k} = B_{-k} B_lam + k a_k mult_k(lam) B_{lam minus k}
        rep = PolyModel(QPAR)
        lam = P((2, 2, 1))
        k = 2
        for d in range(4):
            for mu in partitions_of(d):
                v = vec(mu)

                def b_word(word, w):
                    for i in reversed(word):
                        w = apply_B(rep, i, w)
                    return w

                lhs = b_word(lam, apply_B(rep, -k, v))
                rhs = apply_B(rep, -k, b_word(lam, v)) \
                    + b_word((2, 1), v).scaled(QPAR.value(k) * (k * 2))
                assert lhs == rhs, mu


class TestBosonicAction:
    def test_creation(self):
        f = bosonic_apply_B(sym_p((1,)), -2, QPAR)
        assert f.terms == {P((2, 1)): QPAR.value(2)}

    def test_annihilation_is_scaled_derivative(self):
        f = bosonic_apply_B(sym_p((2, 2)), 2, QPAR)
        assert f.terms == {P((2,)): Scalar.from_int(4)}

    def test_commutator_on_ring(self):
        f = sym_p((3, 1))
        for k in (1, 2):
            lhs = bosonic_apply_B(bosonic_apply_B(f, -k, QPAR), k, QPAR) \
                - bosonic_apply_B(bosonic_apply_B(f, k, QPAR), -k, QPAR)
            assert lhs == f.scaled(QPAR.value(k) * k)


class TestAdjoint:
    def test_swaps_f_and_g(self):
        rep = PolyModel(QPAR)
        adj = adjoint_rep(rep)
        for d in range(4):
            for s in partitions_of(d):
                assert compute_F(adj, s, EMPTY) == compute_G(rep, s, EMPTY)
                assert compute_G(adj, s, EMPTY) == compute_F(rep, s, EMPTY)

    def test_adjoint_relations(self):
        adj = adjoint_rep(PolyModel(QPAR))
        v = vec((2,))
        lhs = apply_B(adj, 2, apply_B(adj, -2, v)) \
            - apply_B(adj, -2, apply_B(adj, 2, v))
        assert lhs == v.scaled(QPAR.value(2) * 2)


class TestSpecialize:
    def test_params_and_action(self):
        rep = PolyModel(QPAR)
        sp = specialize_rep(rep, {"q": 0})
        assert sp.params.value(2) == Scalar.from_int(2)
        got = apply_B(sp, 2, vec((2,)))
        assert got == vec(()).scaled(4)

    def test_f_specializes(self):
        rep = PolyModel(QPAR)
        sp = specialize_rep(rep, {"q": 1})
        g = compute_G(sp, P((1,)), EMPTY)
        assert g.terms == {P((1,)): Scalar.from_int(2)}


class TestBundles:
    def test_round_trip_ops(self):
        rep = PolyModel(QPAR)
        b = load_bundle(rep_to_bundle(rep, kmax=3, dmax=4))
        assert b.degree_step == 1
        for d in range(3):
            for i, lam in enumerate(rep.basis_of_degree(d)):
                got = apply_U(b, 2, StateVec.basis((d, i))).terms if d + 2 <= 4 \
                    else None
                if got is None:
                    continue
                want = apply_U(rep, 2, vec(lam)).terms
                relabeled = {rep.basis_of_degree(d + 2)[j]: c
                             for (_, j), c in got.items()}
                assert relabeled == want, (d, lam)

    def test_round_trip_matrix_elements(self):
        rep = PolyModel(QPAR)
        b = load_bundle(rep_to_bundle(rep, kmax=4, dmax=4))
        for d in range(5):
            for i, lam in enumerate(rep.basis_of_degree(d)):
                assert compute_F(b, (d, i), (0, 0)) == compute_F(rep, lam, EMPTY)
                assert compute_G(b, (d, i), (0, 0)) == compute_G(rep, lam, EMPTY)

    def test_one_parse_per_distinct_string(self, monkeypatch):
        # the loaded columns are those of a parse of every entry, and each
        # distinct string is parsed once
        bundle = rep_to_bundle(macdonald_rep(), 3, 4)
        texts = list(bundle["params"].values())
        want = {}
        for side in ("U", "D"):
            for k, block in bundle[side].items():
                for d, mat in block.items():
                    target = _target(1, side, int(k), int(d))
                    for r, row in enumerate(mat):
                        texts += row
                        for i, x in enumerate(row):
                            col = want.setdefault((side, int(k), (int(d), i)),
                                                  {})
                            if parse_scalar(x):
                                col[(target, r)] = parse_scalar(x)
        calls = []
        monkeypatch.setattr(heisenberg, "parse_scalar",
                            lambda x: calls.append(x) or parse_scalar(x))
        b = load_bundle(bundle)
        assert sorted(calls) == sorted(set(texts)) and len(calls) < len(texts)
        assert {key: col for key, col in b.columns.items() if col} == \
            {key: col for key, col in want.items() if col}
        assert all(b.params.value(k) == parse_scalar(bundle["params"][str(k)])
                   for k in (1, 2, 3))

    def test_json_serializable(self):
        bundle = rep_to_bundle(PolyModel(UNIT), kmax=2, dmax=3)
        again = json.loads(json.dumps(bundle))
        assert again == bundle
        load_bundle(again)

    def test_labels(self):
        b = load_bundle(rep_to_bundle(PolyModel(UNIT), kmax=2, dmax=3))
        assert b.label_of((2, 0)) == "[2]"
        assert b.index_of_label("[1,1]") == (2, 1)
        with pytest.raises(KeyError):
            b.index_of_label("[9]")

    def test_missing_field(self):
        bundle = rep_to_bundle(PolyModel(UNIT), kmax=2, dmax=3)
        del bundle["params"]
        with pytest.raises(BundleFormatError, match="params"):
            load_bundle(bundle)

    def test_bad_matrix_shape(self):
        bundle = rep_to_bundle(PolyModel(UNIT), kmax=2, dmax=3)
        bundle["U"]["1"]["1"] = [["1"]]
        with pytest.raises(BundleFormatError):
            load_bundle(bundle)

    def test_bad_scalar(self):
        bundle = rep_to_bundle(PolyModel(UNIT), kmax=1, dmax=2)
        bundle["params"]["1"] = "q +* 1"
        with pytest.raises(BundleFormatError):
            load_bundle(bundle)

    def test_range_errors(self):
        b = load_bundle(rep_to_bundle(PolyModel(UNIT), kmax=2, dmax=3))
        with pytest.raises(BundleRangeError):
            apply_U(b, 3, StateVec.basis((0, 0)))
        with pytest.raises(BundleRangeError):
            apply_U(b, 2, StateVec.basis((2, 0)))
        with pytest.raises(BundleRangeError):
            b.basis_of_degree(4)
        with pytest.raises(BundleRangeError):
            b.params.value(3)

    def test_d_below_zero_is_zero(self):
        b = load_bundle(rep_to_bundle(PolyModel(UNIT), kmax=2, dmax=3))
        assert apply_D(b, 2, StateVec.basis((1, 0))).is_zero


def g_by_definition(rep, s, t):
    """G_{s/t} twice from its definition, by repeated apply_B and apply_D:
    <B_lam v_s, v_t> / z_lam in the p basis, and <D_lam v_s, v_t> in the m
    basis, converted to p."""
    d, r = divmod(rep.degree_of(s) - rep.degree_of(t), rep.degree_step)
    by_b, by_d = {}, {}
    for lam in partitions_of(d) if not r else ():
        vb = vd = StateVec.basis(s)
        for k in lam:
            vb, vd = apply_B(rep, k, vb), apply_D(rep, k, vd)
        by_b[lam] = vb.coefficient(t) / z_of(lam)
        by_d[lam] = vd.coefficient(t)
    return SymFunc("p", by_b), convert(SymFunc("m", by_d), "p")


class TestGDefinition:
    """compute_G builds G_{s/t} from the G one lowering step below s; it
    must equal the definition for every pair s, t, skew t included."""

    REPS = {
        "fermionic": (fermionic_rep, 5),
        "macdonald": (macdonald_rep, 5),
        "llt1:2": (lambda: llt_q1_rep(2), 6),
        "tensor:fermionic^2": (lambda: tensor(fermionic_rep(),
                                              fermionic_rep()), 4),
        "bundle": (lambda: load_bundle(rep_to_bundle(macdonald_rep(), 5, 5)),
                   5),
        "adjoint": (lambda: adjoint_rep(macdonald_rep()), 4),
    }

    @pytest.mark.parametrize("which", sorted(REPS))
    def test_matches_definition(self, which):
        make, dmax = self.REPS[which]
        rep, ref = make(), make()
        checked = skew = 0
        for ds in range(dmax + 1):
            for s in rep.basis_of_degree(ds):
                for dt in range(ds + 1):
                    for t in rep.basis_of_degree(dt):
                        got = compute_G(rep, s, t)
                        by_b, by_d = g_by_definition(ref, s, t)
                        assert got == by_b == by_d, (s, t)
                        checked += not got.is_zero
                        skew += dt > 0 and not got.is_zero
        assert checked > 20 and skew > 10
