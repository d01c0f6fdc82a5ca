"""Verifier suite: positive runs on the built-in reps, mutation
sensitivity through corrupted bundles, and the converse diagnostic."""

import collections
import hashlib
import json

import pytest

from fockbridge import heisenberg, identities, scalars, symfunc
from fockbridge.heisenberg import (
    BundleRep,
    HeisenbergParams,
    StateVec,
    apply_B,
    apply_D,
    apply_U,
    bosonic_apply_B,
    compute_F,
    compute_G,
    load_bundle,
    phi_map,
    rep_to_bundle,
)
from fockbridge.identities import (
    diagnose_converse,
    h_kernel,
    h_multiplier,
    verify_bf,
    verify_cauchy,
    verify_du,
    verify_heisenberg,
    verify_pieri,
)
from fockbridge.partitions import EMPTY, Partition, partitions_of
from fockbridge.reps import (
    direct_sum,
    fermionic_rep,
    llt_q1_rep,
    macdonald_rep,
    tensor,
)
from fockbridge.scalars import ONE, Scalar
from fockbridge.symfunc import SymFunc, multiply, perp_apply, sym_h, sym_p

P = Partition


def fermionic_bundle(kmax=4, dmax=4):
    return rep_to_bundle(fermionic_rep(), kmax, dmax)


class TestKernelCoefficients:
    def test_trivial_params_kernel_is_one(self):
        one = HeisenbergParams.constant(ONE)
        for k in range(5):
            assert h_kernel(k, one) == ONE

    def test_multiplier_trivial_params(self):
        one = HeisenbergParams.constant(ONE)
        assert h_multiplier(3, one) == sym_h(3)

    def test_multiplier_scales_each_power_sum(self):
        two = HeisenbergParams.constant(Scalar.from_int(2))
        got = h_multiplier(2, two)
        # h_2 = p_2/2 + p_11/2; p_2 -> 2 p_2 and p_11 -> 4 p_11
        want = sym_p((2,)) + sym_p((1, 1)).scaled(Scalar.from_int(2))
        assert got == want

    def test_kernel_counts_with_z_weights(self):
        two = HeisenbergParams.constant(Scalar.from_int(2))
        # h_2<a> = a_2/2 + a_1^2/2
        assert h_kernel(2, two) == Scalar.from_int(3)


class TestHeisenbergVerifier:
    def test_fermionic_passes(self):
        r = verify_heisenberg(fermionic_rep(), 2, 3)
        assert r.passed
        assert r.identity == "heisenberg"
        assert len(r.checked) > 0

    def test_macdonald_passes(self):
        assert verify_heisenberg(macdonald_rep(), 2, 2).passed

    def test_wrong_params_fail(self):
        bundle = fermionic_bundle()
        bundle["params"] = {k: "2" for k in bundle["params"]}
        r = verify_heisenberg(load_bundle(bundle), 2, 1)
        assert not r.passed
        inst, lhs, rhs = r.failures[0]
        assert "[B_" in inst


class TestPieriVerifier:
    def test_fermionic_passes(self):
        r = verify_pieri(fermionic_rep(), 2, 4)
        assert r.passed
        # 4 identities per (k, index)
        assert len(r.checked) % 4 == 0

    def test_macdonald_passes(self):
        assert verify_pieri(macdonald_rep(), 2, 3).passed

    def test_transposes_once_per_degree(self, monkeypatch):
        # the raise-F and lower-F sides read <D_k t, s> and <U_k t, s> over
        # the basis t one degree away: each (k, d) reads the blocks of U_k
        # and D_k at d and at its neighbours once, not once per source s
        reads = collections.Counter()
        real = identities._block

        def counting(rep, op, k, d):
            reads[(op, k, d)] += 1
            return real(rep, op, k, d)
        monkeypatch.setattr(identities, "_block", counting)
        assert verify_pieri(fermionic_rep(), 2, 4).passed
        assert reads == collections.Counter(
            (op, k, e) for k in (1, 2) for d in range(5)
            for op, e in (("U", d), ("D", d), ("D", d + k), ("U", d - k)))

    def test_tensor_passes(self):
        assert verify_pieri(tensor(fermionic_rep(), fermionic_rep()), 2, 2).passed

    def test_llt_passes(self):
        assert verify_pieri(llt_q1_rep(2), 1, 4).passed

    def test_direct_sum_passes(self):
        two = direct_sum(fermionic_rep(), fermionic_rep())
        assert verify_pieri(two, 1, 2).passed

    def test_corrupt_raising_matrix_fails(self):
        bundle = fermionic_bundle()
        bundle["U"]["2"]["1"][2][0] = "1"  # (1) -> (1,1,1) is not a strip
        r = verify_pieri(load_bundle(bundle), 2, 2)
        assert not r.passed


class TestRationalSweeps:
    # the fermionic module has rational coefficients only: its sweeps stay
    # on the rational route of Scalar arithmetic, and never
    # reach the factored sum, trial division or a polynomial product
    @pytest.mark.parametrize("verify", [verify_pieri, verify_heisenberg])
    def test_skip_the_polynomial_layer(self, monkeypatch, verify):
        calls = {"_fac_sum": 0, "_cancel": 0, "IntPoly.__mul__": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper
        for name in ("_fac_sum", "_cancel"):
            monkeypatch.setattr(scalars, name,
                                counting(name, getattr(scalars, name)))
        monkeypatch.setattr(scalars.IntPoly, "__mul__", counting(
            "IntPoly.__mul__", scalars.IntPoly.__mul__))
        fresh = type(fermionic_rep())()     # an empty operator cache
        assert verify(fresh, 2, 4).passed
        assert calls == {"_fac_sum": 0, "_cancel": 0, "IntPoly.__mul__": 0}

    @pytest.mark.parametrize("verify", [verify_pieri, verify_heisenberg])
    def test_cached_checks_build_no_scalar(self, monkeypatch, verify):
        # with the columns cached, each lhs - rhs sum is one fraction of
        # ints: inside record_zero neither product nor scalar_sum runs
        rep = type(fermionic_rep())()
        assert verify(rep, 2, 4).passed
        inside, calls = [False], []

        def counting(name, real):
            def wrapper(*args):
                if inside[0]:
                    calls.append(name)
                return real(*args)
            return wrapper
        for name in ("product", "scalar_sum"):
            monkeypatch.setattr(scalars, name,
                                counting(name, getattr(scalars, name)))
        record_zero = identities.VerifyReport.record_zero

        def recording(self, *args):
            inside[0] = True
            try:
                return record_zero(self, *args)
            finally:
                inside[0] = False
        monkeypatch.setattr(identities.VerifyReport, "record_zero", recording)
        rpt = verify(rep, 2, 4)
        assert rpt.passed and rpt.checked and calls == []


def _summed(entries, basis):
    # the sum of sign * x * y over entries (key, x, y, sign), in p
    return symfunc.convert(SymFunc(basis, scalars.accumulate(
        (key, (x if y is None else x * y) * sign)
        for key, x, y, sign in entries)), "p")


class TestLowerPieriInBuildBasis:
    # verify_pieri takes h_k-perp of F and G as entries in the basis they
    # are built in (m on a U/D module, p otherwise): their sum must agree
    # with perp_apply
    @pytest.mark.parametrize("make", [macdonald_rep, fermionic_rep,
                                      lambda: llt_q1_rep(2)])
    def test_matches_perp_apply(self, make):
        rep = make()
        checked = 0
        for d in range(6):
            for s in rep.basis_of_degree(d):
                for fn in ("F", "G"):
                    x = heisenberg._fg(rep, fn, s, rep.highest)
                    for k in (1, 2, 3):
                        got = _summed(symfunc._perp_entries("h", k, x),
                                      x.basis)
                        assert (-got).terms == perp_apply(
                            sym_h(k), symfunc.convert(x, "p")).terms
                        checked += 1
        assert checked == 114


class TestDUVerifier:
    def test_fermionic_passes(self):
        assert verify_du(fermionic_rep(), 2, 4).passed

    def test_macdonald_passes(self):
        assert verify_du(macdonald_rep(), 2, 3).passed

    def test_llt_passes(self):
        assert verify_du(llt_q1_rep(2), 2, 4).passed

    def test_wrong_params_fail(self):
        bundle = fermionic_bundle()
        bundle["params"] = {k: "2" for k in bundle["params"]}
        r = verify_du(load_bundle(bundle), 2, 2)
        assert not r.passed


class TestCauchyVerifier:
    def test_fermionic_straight(self):
        assert verify_cauchy(fermionic_rep(), 2, 2, 3).passed

    def test_fermionic_skew(self):
        r = verify_cauchy(fermionic_rep(), 2, 2, 3, t=P((1,)), r=EMPTY)
        assert r.passed

    def test_fermionic_exchange(self):
        # swapping variable counts mirrors the grading but must still pass
        assert verify_cauchy(fermionic_rep(), 1, 3, 3).passed

    def test_macdonald_straight(self):
        assert verify_cauchy(macdonald_rep(), 2, 2, 3).passed

    def test_wrong_params_fail(self):
        bundle = fermionic_bundle()
        bundle["params"] = {k: "2" for k in bundle["params"]}
        r = verify_cauchy(load_bundle(bundle), 2, 2, 2)
        assert not r.passed

    def test_corrupt_entry_fails_whatever_the_counts(self):
        # U_1 from degree 1 sends v_[1] to 2 v_[2]: in one x and one y
        # variable p_[2] and p_[1,1] agree, and the truncation misses it
        bundle = rep_to_bundle(fermionic_rep(), 3, 4)
        bundle["U"]["1"]["1"][0][0] = "2"
        rep = load_bundle(bundle)
        one, two = verify_cauchy(rep, 1, 1, 4), verify_cauchy(rep, 2, 2, 4)
        assert not one.passed and not two.passed
        assert one.failures[0][1:] == two.failures[0][1:]

    def test_failure_prints_one_line_per_side(self):
        bundle = fermionic_bundle()
        bundle["params"] = {k: "2" for k in bundle["params"]}
        r = verify_cauchy(load_bundle(bundle), 2, 2, 2)
        assert r.failures == [("x=2 y=2 dmax=2 t=(0, 0) r=(0, 0)",
                               "p[1]|p[1]*(1) + p[]|p[]*(1)",
                               "p[1]|p[1]*(2) + p[]|p[]*(1)")]

    def test_macdonald_skew_at_higher_degree(self):
        rep = macdonald_rep()
        assert verify_cauchy(rep, 1, 1, 5, t=P((2,)), r=P((1, 1))).passed
        assert verify_cauchy(rep, 1, 1, 4, t=P((2, 1)), r=P((2, 1))).passed


class TestBFVerifier:
    def test_fermionic_passes(self):
        assert verify_bf(fermionic_rep(), 3, (-2, -1, 1, 2)).passed

    def test_macdonald_passes(self):
        assert verify_bf(macdonald_rep(), 2, (-1, 1, 2)).passed

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            verify_bf(fermionic_rep(), 1, (0,))

    def test_wrong_params_fail(self):
        bundle = fermionic_bundle()
        bundle["params"] = {k: "2" for k in bundle["params"]}
        r = verify_bf(load_bundle(bundle), 2, (-1, 1))
        assert not r.passed


class TestFusedChecksFail:
    """heisenberg, du, bf and pieri sum lhs - rhs once per instance (bf and
    pieri in the basis the rep builds F and G in); on a corrupted bundle
    they must still fail, and each failure must carry the two sides as the
    public calls build them, in p."""

    @staticmethod
    def corrupted():
        bundle = fermionic_bundle()
        bundle["D"]["1"]["2"][0][1] = "-1"  # flip D_1 on the column shape
        return load_bundle(bundle)

    def assert_failures(self, rpt, sides):
        # sides: instance -> (lhs, rhs), over every instance rpt checked
        assert len(rpt.checked) == len(sides)
        bad = {i for i, (l, r) in sides.items() if l != r}
        assert bad and not rpt.passed
        assert {i for i, _, _ in rpt.failures} == bad
        for inst, lhs, rhs in rpt.failures:
            assert (lhs, rhs) == tuple(map(str, sides[inst]))
        for f in rpt.to_json_dict()["failures"]:
            assert set(f) == {"instance", "lhs", "rhs"}
            assert all(isinstance(v, str) for v in f.values())

    def test_du(self):
        rep = self.corrupted()
        sides = {}
        for a in (1, 2):
            for b in (1, 2):
                for d in range(3):
                    for s in rep.basis_of_degree(d):
                        v = StateVec.basis(s)
                        rhs = StateVec()
                        for j in range(min(a, b) + 1):
                            rhs = rhs + apply_U(
                                rep, a - j, apply_D(rep, b - j, v)).scaled(
                                h_kernel(j, rep.params))
                        sides[f"a={a} b={b} s={s}"] = (
                            apply_D(rep, b, apply_U(rep, a, v)), rhs)
        self.assert_failures(verify_du(rep, 2, 2), sides)

    def test_bf(self):
        rep = self.corrupted()
        sides = {}
        for l in (-1, 1):
            for d in range(3):
                for s in rep.basis_of_degree(d):
                    v = StateVec.basis(s)
                    sides[f"l={l} s={s}"] = (
                        phi_map(rep, apply_B(rep, l, v)),
                        bosonic_apply_B(phi_map(rep, v), l, rep.params))
        self.assert_failures(verify_bf(rep, 2, (-1, 1)), sides)

    def test_pieri(self):
        # a Macdonald bundle (a U/D rep: F and G built in m) with one U_1
        # entry nudged
        bundle = rep_to_bundle(macdonald_rep(), 4, 4)
        bundle["U"]["1"]["1"][0][0] = f"({bundle['U']['1']['1'][0][0]})+1"
        rep = load_bundle(bundle)
        hi = rep.highest

        def column_sum(col, fn):
            out = SymFunc("p")
            for t, c in col.items():
                out = out + fn(rep, t, hi).scaled(c)
            return out

        def entries(op, k, src):
            return apply_U(rep, k, StateVec.basis(src)).terms if op == "U" \
                else apply_D(rep, k, StateVec.basis(src)).terms

        def transposed(op, k, d, s):
            # <op_k t, v_s> over the basis t of degree d
            return {t: entries(op, k, t)[s] for t in rep.basis_of_degree(d)
                    if s in entries(op, k, t)}

        sides = {}
        for k in (1, 2):
            hk = h_multiplier(k, rep.params)
            for d in range(3):
                for s in rep.basis_of_degree(d):
                    g, f = compute_G(rep, s, hi), compute_F(rep, s, hi)
                    sides[f"k={k} s={s} raise-G"] = (
                        multiply(hk, g),
                        column_sum(entries("U", k, s), compute_G))
                    sides[f"k={k} s={s} raise-F"] = (
                        multiply(hk, f),
                        column_sum(transposed("D", k, d + k, s), compute_F))
                    sides[f"k={k} s={s} lower-G"] = (
                        perp_apply(sym_h(k), g),
                        column_sum(entries("D", k, s), compute_G))
                    sides[f"k={k} s={s} lower-F"] = (
                        perp_apply(sym_h(k), f),
                        column_sum(transposed("U", k, d - k, s), compute_F))
        self.assert_failures(verify_pieri(rep, 2, 2), sides)

    def test_heisenberg(self):
        rep = self.corrupted()
        sides = {}
        for k in (1, 2):
            for l in (1, 2):
                for d in range(2):
                    for s in rep.basis_of_degree(d):
                        v = StateVec.basis(s)
                        got = apply_B(rep, k, apply_B(rep, -l, v)) \
                            - apply_B(rep, -l, apply_B(rep, k, v))
                        want = v.scaled(rep.params.value(k) * k) \
                            if k == l else StateVec()
                        sides[f"[B_{k}, B_-{l}] at {s}"] = (got, want)
                        if l > k:
                            for a, b in ((-k, -l), (k, l)):
                                sides[f"[B_{a}, B_{b}] at {s}"] = (
                                    apply_B(rep, a, apply_B(rep, b, v))
                                    - apply_B(rep, b, apply_B(rep, a, v)),
                                    StateVec())
        self.assert_failures(verify_heisenberg(rep, 2, 1), sides)


class TestBuildBasis:
    """On a U/D rep F and G are built in m, and both sides of the Pieri and
    bf checks are entries there: a passing check converts nothing from m
    to p and calls neither multiply nor perp_apply."""

    @pytest.mark.parametrize("which", ["macdonald", "bundle"])
    def test_no_conversion_above_the_sources(self, monkeypatch, which):
        rep = type(macdonald_rep())() if which == "macdonald" \
            else load_bundle(rep_to_bundle(macdonald_rep(), 5, 5))
        seen = collections.Counter()

        def counting(name, real):
            def call(*args):
                if name != "convert" or (args[0].basis, args[1]) == ("m", "p"):
                    seen[name] += 1
                return real(*args)
            return call
        real = {name: getattr(symfunc, name)
                for name in ("convert", "multiply", "perp_apply")}
        for mod in (symfunc, heisenberg, identities):
            for name in real:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counting(name, real[name]))
        assert verify_pieri(rep, 2, 3).passed
        assert verify_bf(rep, 3, (-2, -1, 1, 2)).passed
        assert not seen


class TestFailureReports:
    """A failing Pieri or bf check prints its sides in p, built by multiply,
    perp_apply and bosonic_apply_B: the reports below are pinned by the
    sha256 of their JSON (its first 32 hex digits)."""

    PINNED = {
        ("macdonald", "nudge"): (
            (11, "f86e92dcd290c8ea2c3b36cca8700bd8"),
            (3, "c3b6721afced0013b2eaea5c65ba83a5")),
        ("macdonald", "params"): (
            (28, "28f95af94d428f152161228879b59e60"),
            (14, "d6789576737bea0d4b3e061ca032d4c8")),
        ("fermionic", "nudge"): (
            (11, "2c0e1f084556b835d532f8082bd8f371"),
            (3, "d1e4c3c9e64a3ab32f29248bab2f88b5")),
        ("fermionic", "params"): (
            (28, "e35f46c7df936aa8731c68818ab82698"),
            (14, "e50881e01c0c55cfc6e5b26cd3af41d1")),
    }

    @staticmethod
    def corrupted(which, how):
        make = macdonald_rep if which == "macdonald" else fermionic_rep
        bundle = rep_to_bundle(make(), 5, 5)
        if how == "nudge":
            u = bundle["U"]["1"]["2"][0]
            u[0] = str(scalars.parse_scalar(u[0]) + 1)
        else:
            bundle["params"] = {k: "2" for k in bundle["params"]}
        return load_bundle(bundle)

    @pytest.mark.parametrize("which, how", sorted(PINNED))
    def test_reports_are_pinned(self, which, how):
        rep = self.corrupted(which, how)
        for rpt, total, (failed, digest) in zip(
                (verify_pieri(rep, 2, 3), verify_bf(rep, 3, [-2, -1, 1, 2])),
                (56, 28), self.PINNED[which, how]):
            assert (len(rpt.checked), len(rpt.failures)) == (total, failed)
            text = json.dumps(rpt.to_json_dict(), sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest()[:32] == digest

    def test_lower_failure_text(self):
        rpt = verify_pieri(self.corrupted("fermionic", "nudge"), 2, 3)
        assert ("k=1 s=(3, 0) lower-F", "p[1,1]*(1)",
                "p[2]*(1) + p[1,1]*(1)") in rpt.failures


class TestReportShape:
    def test_json_dict(self):
        r = verify_du(fermionic_rep(), 1, 2)
        d = r.to_json_dict()
        assert d["identity"] == "du"
        assert d["passed"] is True
        assert d["checked"] == len(r.checked)
        assert d["failures"] == []
        json.dumps(d)  # serializable

    def test_failure_entries_are_strings(self):
        bundle = fermionic_bundle()
        bundle["params"] = {k: "2" for k in bundle["params"]}
        r = verify_du(load_bundle(bundle), 1, 1)
        d = r.to_json_dict()
        assert not d["passed"]
        f = d["failures"][0]
        assert set(f) == {"instance", "lhs", "rhs"}
        assert all(isinstance(v, str) for v in f.values())
        json.dumps(d)

    def test_str_summary(self):
        r = verify_du(fermionic_rep(), 1, 1)
        assert str(r).startswith("du: pass")


class TestConverse:
    def test_genuine_bundle_passes(self):
        rpt = diagnose_converse(fermionic_bundle(), k_max=2)
        assert rpt.precondition_ok
        assert rpt.commutation.passed
        assert rpt.du.passed
        assert rpt.pieri.passed
        assert rpt.equivalence_observed
        assert rpt.passed
        assert rpt.d_max == 4 and rpt.k_max == 2

    def test_genuine_full_order(self):
        # k_max = kmax leaves no headroom; trio still agrees
        rpt = diagnose_converse(fermionic_bundle())
        assert rpt.passed and rpt.equivalence_observed

    def test_perturbed_raising_entry(self):
        bundle = fermionic_bundle()
        bundle["U"]["2"]["1"][2][0] = "1"
        rpt = diagnose_converse(bundle, k_max=2)
        assert rpt.precondition_ok  # G side untouched
        assert not rpt.commutation.passed
        assert not rpt.du.passed
        assert not rpt.pieri.passed
        assert rpt.equivalence_observed  # all three agree: all broken
        assert not rpt.passed

    def test_wrong_params(self):
        bundle = fermionic_bundle()
        bundle["params"] = {k: "2" for k in bundle["params"]}
        rpt = diagnose_converse(bundle, k_max=2)
        assert rpt.precondition_ok
        assert rpt.commutation.passed  # commutation never sees the params
        assert not rpt.du.passed
        assert not rpt.pieri.passed
        assert not rpt.equivalence_observed
        assert not rpt.passed

    def test_params_override_restores(self):
        bundle = fermionic_bundle()
        bundle["params"] = {k: "2" for k in bundle["params"]}
        rpt = diagnose_converse(bundle, params=HeisenbergParams.constant(ONE),
                                k_max=2)
        assert rpt.passed

    def test_broken_lowering_commutation(self):
        bundle = fermionic_bundle()
        bundle["D"]["1"]["2"][0][1] = "-1"  # flip D_1 on the column shape
        rpt = diagnose_converse(bundle)
        assert not rpt.commutation.passed
        assert not rpt.du.passed  # low-order instances fit under the window
        assert not rpt.passed

    def test_dependent_family_flagged(self):
        bundle = fermionic_bundle(2, 2)
        # pretend D_2 also sees the column shape: then G_(1,1) == G_(2)
        bundle["D"]["2"]["2"][0][1] = "1"
        rpt = diagnose_converse(bundle)
        assert not rpt.precondition_ok
        assert rpt.independence_by_degree[2] is False
        assert not rpt.passed

    def test_json_shape(self):
        rpt = diagnose_converse(fermionic_bundle(2, 2))
        d = rpt.to_json_dict()
        assert d["passed"] is True
        assert set(d["conditions"]) == {"commutation", "du", "pieri"}
        assert d["conditions"]["du"]["identity"] == "du"
        json.dumps(d)

    def test_stored_columns_need_no_raw_action(self, monkeypatch):
        # load_bundle caches every stored column, so inside the stored
        # range no suite asks the bundle's raw_U or raw_D
        calls = []
        for name in ("raw_U", "raw_D"):
            def counting(self, k, index, name=name,
                         real=getattr(BundleRep, name)):
                calls.append((name, k, index))
                return real(self, k, index)
            monkeypatch.setattr(BundleRep, name, counting)
        rep = load_bundle(fermionic_bundle())
        assert verify_pieri(rep, 4, 4, window=4).passed
        assert diagnose_converse(rep).passed
        assert calls == []

    def test_accepts_loaded_rep_and_path(self, tmp_path):
        bundle = fermionic_bundle(2, 2)
        p = tmp_path / "b.json"
        p.write_text(json.dumps(bundle))
        assert diagnose_converse(str(p)).passed
        assert diagnose_converse(load_bundle(bundle)).passed
