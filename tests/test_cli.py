"""CLI surface: golden outputs, exit codes, JSON round-trips."""

import contextlib
import copy
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fockbridge
from fockbridge.cli import _SUITES, main
from fockbridge.heisenberg import (BundleFormatError, compute_F, compute_G,
                                   load_bundle, rep_to_bundle)
from fockbridge.partitions import Partition
from fockbridge.reps import fermionic_rep, macdonald_rep
from fockbridge.scalars import ONE, Q, T, ZERO
from fockbridge.symfunc import convert


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestExpand:
    def test_schur_from_fermionic(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "--rep", "fermionic",
                             "--shape", "[2,1]", "--base", "[]",
                             "--fn", "F", "--basis", "s")
        assert rc == 0
        assert out.strip() == "s[2,1] 1"

    def test_macdonald_g_monomial(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "--rep", "macdonald",
                             "--shape", "[1]", "--fn", "G", "--basis", "m")
        assert rc == 0
        assert out.strip() == "m[1] 1"

    def test_macdonald_f_has_parameter_coeff(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "--rep", "macdonald",
                             "--shape", "[1]", "--fn", "F", "--basis", "p")
        assert rc == 0
        want = (ONE - T) / (ONE - Q)
        assert out.strip() == f"p[1] {want}"

    def test_off_lattice_is_zero(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "--rep", "fermionic",
                             "--shape", "[1]", "--base", "[2]", "--fn", "F")
        assert rc == 0
        assert out.strip() == "0"

    def test_spec_applied_to_output(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "--rep", "macdonald",
                             "--shape", "[1]", "--fn", "F", "--spec", "q=0")
        assert rc == 0
        assert out.strip() == f"p[1] {ONE - T}"

    def test_spec_pole_exits_one(self, capsys):
        rc, _, err = run_cli(capsys, "expand", "--rep", "macdonald",
                             "--shape", "[1]", "--fn", "F", "--spec", "q=1")
        assert rc == 1
        assert "error" in err

    def test_json_round_trip(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "--rep", "fermionic",
                             "--shape", "[2]", "--basis", "s", "--out", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["fn"] == "F"
        assert data["terms"] == [{"index": "[2]", "coeff": "1"}]

    def test_tensor_shape_syntax(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "--rep", "tensor:fermionic^2",
                             "--shape", "[1];[1]", "--basis", "s")
        assert rc == 0
        assert "s[2]" in out and "s[1,1]" in out

    def test_tensor_cube(self, capsys):
        rc, out, _ = run_cli(capsys, "expand", "--rep", "tensor:fermionic^3",
                             "--shape", "[1];[1];[1]", "--basis", "s")
        assert rc == 0
        assert "s[2,1] 2" in out

    @pytest.mark.parametrize("which", ["macdonald", "bundle", "q=0"])
    def test_text_is_the_p_form_converted(self, capsys, tmp_path, which):
        # expand reads F and G in the basis the rep builds them in (m on a
        # U/D rep); its text must be that of the public p forms converted
        rep, name, extra = macdonald_rep(), "macdonald", ()
        if which == "bundle":
            path = tmp_path / "mac.json"
            path.write_text(json.dumps(rep_to_bundle(rep, 4, 4)))
            rep, name = load_bundle(str(path)), f"bundle:{path}"
        elif which == "q=0":
            extra = ("--spec", "q=0")
        s, b = (rep.index_of_label("[3,1]"), rep.highest) \
            if which == "bundle" else (Partition((3, 1)), Partition(()))
        for fn, compute in (("F", compute_F), ("G", compute_G)):
            for basis in "phms":
                want = convert(compute(rep, s, b), basis)
                if extra:
                    want = want.map_coefficients(
                        lambda c: c.specialize({"q": ZERO}))
                rc, out, _ = run_cli(capsys, "expand", "--rep", name,
                                     "--shape", "[3,1]", "--fn", fn,
                                     "--basis", basis, *extra)
                assert rc == 0
                assert out == "".join(f"{basis}{lam} {c}\n"
                                      for lam, c in want.sorted_terms())

    def test_degree_cap_blocks(self, capsys):
        rc, _, err = run_cli(capsys, "expand", "--rep", "fermionic",
                             "--shape", "[2,1]", "--degree-cap", "2")
        assert rc == 2
        assert "cap" in err

    def test_env_degree_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("FOCKBRIDGE_DEGREE_CAP", "2")
        rc, _, _ = run_cli(capsys, "expand", "--rep", "fermionic",
                           "--shape", "[2,1]")
        assert rc == 2

    def test_unknown_rep(self, capsys):
        rc, _, err = run_cli(capsys, "expand", "--rep", "bosonic",
                             "--shape", "[1]")
        assert rc == 2
        assert "unknown rep" in err

    @pytest.mark.parametrize("rep, cap", [
        ("tensor:fermionic^40", "8"), ("tensor:tensor:fermionic^8^8", "8"),
        ("tensor:tensor:fermionic^3^3", "8"), ("tensor:fermionic^3", "2")])
    def test_tensor_power_over_cap_exits_two(self, capsys, rep, cap):
        # the basis of a tensor power counts tuples of partitions: at 40
        # factors this suite ran for minutes inside the degree cap
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, "verify", "pieri", "--rep", rep,
                               "--kmax", "1", "--dmax", "6",
                               "--degree-cap", cap)
        assert time.perf_counter() - start < 1
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "tensor power" in err

    def test_nested_tensor_power_at_cap(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "pieri", "--rep",
                             "tensor:tensor:fermionic^2^2", "--kmax", "1",
                             "--dmax", "2", "--degree-cap", "4")
        assert rc == 0
        assert out.startswith("pieri: pass")

    @pytest.mark.parametrize("shape, rc, want", [
        ("[1];[];[];[1]", 0, "s[2] 1\ns[1,1] 1\n"),
        ("[1];[1]", 2, "expected 4 components")])
    def test_nested_tensor_shapes(self, capsys, shape, rc, want):
        # a nested power's index nests like its factors: one shape per
        # untensored factor (a nested index once raised AttributeError)
        got, out, err = run_cli(capsys, "expand", "--rep",
                                "tensor:tensor:fermionic^2^2", "--shape",
                                shape, "--basis", "s", "--degree-cap", "4")
        assert got == rc
        assert want == out if rc == 0 else want in err

    def test_nested_tensor_labelled_like_its_shape(self, capsys):
        # nested powers make one tensor: its index is labelled factor by
        # factor, the way --shape writes it
        rc, out, _ = run_cli(capsys, "expand", "--rep",
                             "tensor:tensor:fermionic^2^2", "--shape",
                             "[1];[];[];[1]", "--out", "json",
                             "--degree-cap", "4")
        assert rc == 0
        data = json.loads(out)
        assert data["shape"] == "([1];[];[];[1])"
        assert data["base"] == "([];[];[];[])"

    @pytest.mark.parametrize("rep, cap, rc", [
        ("llt1:100000000", "8", 2), ("llt1:9", "8", 2), ("llt1:8", "8", 0)])
    def test_llt1_level_over_cap_exits_two(self, capsys, rep, cap, rc):
        # a step at level n moves n cells, so over the cap no step is
        # nonzero; the level's n-fold tensor once took seconds to build
        start = time.perf_counter()
        got, out, err = run_cli(capsys, "verify", "pieri", "--rep", rep,
                                "--kmax", "1", "--dmax", "0",
                                "--degree-cap", cap)
        assert time.perf_counter() - start < 1
        assert got == rc
        if rc:
            assert out == ""
            assert err == f"error: llt1 level {rep[5:]} exceeds the " \
                          f"degree cap {cap}\n"
        else:
            assert out.startswith("pieri: pass")

    @pytest.mark.parametrize("value", ["q^", "2^", "(1+q)^", "1/0"])
    def test_dangling_exponent_spec_exits_two(self, capsys, value):
        rc, out, err = run_cli(capsys, "expand", "--rep", "macdonald",
                               "--shape", "[1]", "--spec", f"q={value}")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [
        "(1+q+t)^250", "((1+q)^80)^80", "1/(q^100000-1)+1/(1-q)",
        "*".join(["(1+q+t+2*q*t)^40"] * 4)])
    def test_oversized_power_spec_exits_two(self, capsys, value):
        rc, out, err = run_cli(capsys, "expand", "--rep", "macdonald",
                               "--shape", "[1]", "--spec", f"q={value}")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [
        "(" * 200 + "q" + ")" * 200, "-" * 1000 + "q"])
    def test_deeply_nested_spec_exits_two(self, capsys, value):
        rc, out, err = run_cli(capsys, "expand", "--rep", "macdonald",
                               "--shape", "[1]", "--spec", f"q={value}")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "nests deeper than 100 levels" in err


class TestVerify:
    def test_pieri_macdonald(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "pieri", "--rep", "macdonald",
                             "--kmax", "2", "--dmax", "3")
        assert rc == 0
        assert out.startswith("pieri: pass")

    def test_du_fermionic_json(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "du", "--rep", "fermionic",
                             "--abmax", "2", "--dmax", "3", "--out", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["identity"] == "du"
        assert data["passed"] is True
        assert data["failures"] == []

    def test_cauchy_fermionic(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "cauchy", "--rep", "fermionic",
                             "--xvars", "2", "--yvars", "2", "--dmax", "3")
        assert rc == 0

    def test_cauchy_skew_anchors(self, capsys):
        rc, _, _ = run_cli(capsys, "verify", "cauchy", "--rep", "fermionic",
                           "--xvars", "2", "--yvars", "2", "--dmax", "3",
                           "--t", "[1]", "--r", "[]")
        assert rc == 0

    def test_bf_with_spec(self, capsys):
        rc, _, _ = run_cli(capsys, "verify", "bf", "--rep", "macdonald",
                           "--dmax", "2", "--lmax", "1", "--spec", "q=0")
        assert rc == 0

    def test_heisenberg_llt(self, capsys):
        rc, _, _ = run_cli(capsys, "verify", "heisenberg", "--rep", "llt1:2",
                           "--kmax", "1", "--dmax", "4")
        assert rc == 0

    @pytest.mark.parametrize("suite, bounds", [
        ("pieri", ("--dmax", "-1")),
        ("heisenberg", ("--kmax", "0")),
        ("du", ("--abmax", "0")),
        ("bf", ("--lmax", "0")),
        ("cauchy", ("--dmax", "-1")),
    ])
    def test_nothing_to_check_exits_two(self, capsys, suite, bounds):
        rc, out, err = run_cli(capsys, "verify", suite, "--rep", "fermionic",
                               *bounds)
        assert rc == 2
        assert "pass" not in out
        assert err.startswith("error:") and err.count("\n") == 1

    def test_converse_nothing_to_check_exits_two(self, capsys, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps(rep_to_bundle(fermionic_rep(), 2, 2)))
        rc, out, err = run_cli(capsys, "verify", "converse",
                               "--rep", f"bundle:{p}", "--kmax", "0")
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize("counts", [
        ("--xvars", "-2", "--yvars", "-2"),
        ("--xvars", "0"),
        ("--yvars", "0"),
        ("--xvars", "9"),
        ("--yvars", "4", "--degree-cap", "3"),
    ])
    def test_cauchy_variable_counts_bounded(self, capsys, counts):
        rc, out, err = run_cli(capsys, "verify", "cauchy", "--rep",
                               "fermionic", "--dmax", "2", *counts)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("bounds", [
        ("--dmax", "0", "--t", "[1]", "--r", "[]"),
        ("--dmax", "1", "--t", "[2]", "--r", "[1,1]"),
    ])
    def test_cauchy_without_terms_exits_two(self, capsys, bounds):
        # neither side has a term inside the truncation, so nothing is
        # checked and nothing may pass
        rc, out, err = run_cli(capsys, "verify", "cauchy", "--rep",
                               "fermionic", *bounds)
        assert rc == 2
        assert out == ""
        assert err == "error: these bounds leave the suite nothing to check\n"

    @pytest.mark.parametrize("rep", ["macdonald", "fermionic"])
    def test_cauchy_at_the_variable_cap(self, capsys, rep):
        # the counts do not change the check, so the cap costs what 2+2 does
        rc, out, _ = run_cli(capsys, "verify", "cauchy", "--rep", rep,
                             "--xvars", "8", "--yvars", "8", "--dmax", "8")
        assert rc == 0
        assert out == "cauchy: pass (1 checked, 0 failed)\n"

    def test_cauchy_variable_counts_at_cap(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "cauchy", "--rep", "fermionic",
                             "--dmax", "2", "--degree-cap", "3",
                             "--xvars", "3", "--yvars", "1")
        assert rc == 0
        assert "pass" in out

    def test_dmax_over_cap(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "du", "--rep", "fermionic",
                             "--dmax", "40")
        assert rc == 2
        assert "cap" in err

    @pytest.mark.parametrize("suite, bounds", [
        ("heisenberg", ("--kmax", "30")),
        ("pieri", ("--kmax", "9")),
        ("du", ("--abmax", "30")),
        ("bf", ("--lmax", "30")),
        ("heisenberg", ("--kmax", "4", "--degree-cap", "3")),
    ])
    def test_orders_over_cap_exit_two(self, capsys, suite, bounds):
        # heisenberg --kmax 30 --dmax 2 ran for minutes: the suite climbs
        # to degree dmax + (2*kmax - 1)*step
        rc, out, err = run_cli(capsys, "verify", suite, "--rep", "fermionic",
                               "--dmax", "2", *bounds)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cap" in err

    def test_orders_at_cap(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "du", "--rep", "fermionic",
                             "--dmax", "0", "--abmax", "3", "--degree-cap", "3")
        assert rc == 0
        assert "pass" in out

    # (suite, rep, flags, the degree the flags reach): pieri reaches
    # dmax + kmax*step, du dmax + abmax*step, bf dmax + lmax*step and
    # heisenberg dmax + (2*kmax - 1)*step; llt1:2 has step 2
    REACH = [
        ("pieri", "fermionic", ("--kmax", "2", "--dmax", "2"), 4),
        ("pieri", "llt1:2", ("--kmax", "1", "--dmax", "2"), 4),
        ("du", "fermionic", ("--abmax", "3", "--dmax", "1"), 4),
        ("du", "llt1:2", ("--abmax", "1", "--dmax", "2"), 4),
        ("bf", "fermionic", ("--lmax", "2", "--dmax", "2"), 4),
        ("bf", "llt1:2", ("--lmax", "1", "--dmax", "2"), 4),
        ("heisenberg", "fermionic", ("--kmax", "2", "--dmax", "1"), 4),
        ("heisenberg", "llt1:2", ("--kmax", "2", "--dmax", "1"), 7),
    ]

    @pytest.mark.parametrize("suite, rep, flags, reach", REACH)
    def test_suite_reach_at_cap(self, capsys, suite, rep, flags, reach):
        rc, out, _ = run_cli(capsys, "verify", suite, "--rep", rep, *flags,
                             "--degree-cap", str(reach))
        assert rc == 0
        assert "pass" in out

    # the heisenberg rows of REACH go last, so the other cases keep their ids
    @pytest.mark.parametrize("suite, rep, flags, reach, cap", [
        r + (r[3] - 1,) for r in REACH[:6]] + [
        # it ran for 15 s at the default cap 8, reaching degree 16
        ("pieri", "fermionic", ("--kmax", "8", "--dmax", "8"), 16, 8)] + [
        r + (r[3] - 1,) for r in REACH[6:]])
    def test_suite_reach_past_cap_exits_two(self, capsys, suite, rep, flags,
                                            reach, cap):
        rc, out, err = run_cli(capsys, "verify", suite, "--rep", rep, *flags,
                               "--degree-cap", str(cap))
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"reaches degree {reach}, over the degree cap {cap}" in err

    @pytest.mark.parametrize("bounds", [
        ("--kmax", "8", "--dmax", "0"),
        ("--kmax", "2", "--dmax", "2", "--degree-cap", "4"),
        ("--dmax", "8"),
    ])
    def test_heisenberg_degree_over_cap_exits_two(self, capsys, bounds):
        # --kmax 8 --dmax 0 passes the order bound but climbs to degree 15:
        # it was still running after 20 s
        rc, out, err = run_cli(capsys, "verify", "heisenberg", "--rep",
                               "macdonald", *bounds)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cap" in err

    def test_heisenberg_degree_at_cap(self, capsys):
        # dmax + 2*kmax - 1 == 4
        rc, out, _ = run_cli(capsys, "verify", "heisenberg", "--rep",
                             "macdonald", "--kmax", "2", "--dmax", "1",
                             "--degree-cap", "4")
        assert rc == 0
        assert "pass" in out


class TestDegreesInsideCap:
    # every degree a command touches lies inside the cap; past it these
    # ran to "0" or "pass", and a 14-part tableaux weight or a cauchy anchor
    # of degree 50 took most of a minute and 700 MB at the default cap
    @pytest.mark.parametrize("argv", [
        ("expand", "--rep", "fermionic", "--shape", "[2]", "--base", "[3,2]"),
        ("tableaux", "--rep", "fermionic", "--shape", "[2,2]",
         "--base", "[1]", "--weight", "1,1,1,1"),
        ("tableaux", "--rep", "llt1:2", "--shape", "[2,2]",
         "--weight", "1,1,1"),
        ("verify", "cauchy", "--rep", "fermionic", "--dmax", "2",
         "--t", "[3,2]", "--r", "[1]"),
        ("verify", "cauchy", "--rep", "fermionic", "--dmax", "2",
         "--t", "[1]", "--r", "[1,1,1,1,1]"),
    ])
    def test_past_cap_exits_two(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv, "--degree-cap", "4")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cap" in err

    @pytest.mark.parametrize("argv, want", [
        (("expand", "--rep", "fermionic", "--shape", "[2,2]",
          "--base", "[2,2]"), "p[] 1"),
        (("tableaux", "--rep", "fermionic", "--shape", "[2,2]",
          "--base", "[1]", "--weight", "1,1,1"), "total: 2"),
        (("tableaux", "--rep", "llt1:2", "--shape", "[2,2]",
          "--weight", "1,1"), "total: 2"),
        (("verify", "cauchy", "--rep", "fermionic", "--dmax", "2",
          "--t", "[2,2]", "--r", "[2,1,1]"), "cauchy: pass"),
    ])
    def test_at_cap(self, capsys, argv, want):
        rc, out, _ = run_cli(capsys, *argv, "--degree-cap", "4")
        assert rc == 0
        assert out.startswith(want)


class TestBundleHandling:
    @pytest.fixture
    def bundle_path(self, tmp_path):
        def write(mutate=None, text=None):
            p = tmp_path / "b.json"
            if text is not None:
                p.write_text(text)
                return str(p)
            bundle = rep_to_bundle(fermionic_rep(), 3, 3)
            if mutate:
                mutate(bundle)
            p.write_text(json.dumps(bundle))
            return str(p)
        return write

    def test_genuine_bundle_verifies(self, capsys, bundle_path):
        path = bundle_path()
        rc, _, _ = run_cli(capsys, "verify", "du", "--rep", f"bundle:{path}",
                           "--abmax", "2", "--dmax", "1")
        assert rc == 0

    def test_corrupt_matrices_fail_with_one(self, capsys, bundle_path):
        def mutate(b):
            b["params"] = {k: "2" for k in b["params"]}
        path = bundle_path(mutate)
        rc, out, _ = run_cli(capsys, "verify", "du", "--rep", f"bundle:{path}",
                             "--abmax", "2", "--dmax", "1")
        assert rc == 1
        assert "FAIL" in out
        assert "lhs:" in out

    def test_unparseable_bundle_exits_two(self, capsys, bundle_path):
        path = bundle_path(text="{not json")
        rc, _, err = run_cli(capsys, "verify", "du", "--rep", f"bundle:{path}")
        assert rc == 2

    def test_schema_violation_exits_two(self, capsys, bundle_path):
        path = bundle_path(text=json.dumps({"kmax": 1}))
        rc, _, err = run_cli(capsys, "verify", "du", "--rep", f"bundle:{path}")
        assert rc == 2
        assert "missing field" in err

    @pytest.mark.parametrize("mutate", [
        lambda b: b.update(basis=[]),
        lambda b: b.update(params=["1"]),
        lambda b: b.update(U=[]),
        lambda b: b.update(D="x"),
        lambda b: b["U"].update({"1": []}),
        lambda b: b["U"]["1"].update({"0": "1"}),
        lambda b: b["U"]["1"]["0"].__setitem__(0, "1"),
        lambda b: b["U"]["1"]["0"][0].__setitem__(0, 1),
        lambda b: b["D"]["1"]["1"][0].__setitem__(0, None),
        lambda b: b["params"].update({"1": "q^"}),
        lambda b: b["params"].update({"2": "1/0"}),
        lambda b: b["U"]["1"]["0"][0].__setitem__(0, "(1+q)^"),
        lambda b: b["U"]["1"]["0"][0].__setitem__(0, "(1+q+t)^250"),
        lambda b: b["params"].update({"1": "((1+q)^80)^80"}),
    ])
    def test_wrong_types_exit_two(self, capsys, bundle_path, mutate):
        bundle = rep_to_bundle(fermionic_rep(), 3, 3)
        mutate(bundle)
        with pytest.raises(BundleFormatError):
            load_bundle(bundle)
        path = bundle_path(mutate)
        rc, out, err = run_cli(capsys, "verify", "converse",
                               "--rep", f"bundle:{path}")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("what", ["scalar", "json"])
    def test_deep_nesting_exits_two(self, capsys, bundle_path, what):
        # a parameter nested 400 deep, or a file of 100,000 nested arrays
        if what == "scalar":
            path = bundle_path(lambda b: b["params"].update(
                {"1": "(" * 400 + "q" + ")" * 400}))
        else:
            path = bundle_path(text="[" * 100000)
        with pytest.raises(BundleFormatError):
            load_bundle(path)
        rc, out, err = run_cli(capsys, "verify", "converse",
                               "--rep", f"bundle:{path}")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_object_bundle_exits_two(self, capsys, bundle_path):
        path = bundle_path(text="[]")
        rc, _, err = run_cli(capsys, "verify", "du", "--rep", f"bundle:{path}")
        assert rc == 2
        assert err.startswith("error:")

    def test_non_utf8_bundle_exits_two(self, capsys, tmp_path):
        # bytes ff fe 7b are no UTF-8: an unreadable bundle, not a crash
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        rc, out, err = run_cli(capsys, "verify", "converse",
                               "--rep", f"bundle:{path}")
        assert rc == 2
        assert out == ""
        assert err.startswith("error: cannot read bundle")
        assert err.count("\n") == 1

    def test_missing_file_exits_two(self, capsys):
        rc, _, _ = run_cli(capsys, "verify", "du", "--rep", "bundle:/no/such.json")
        assert rc == 2

    def test_bundle_power_under_kmax_8(self, capsys, tmp_path):
        # a power's factor is not compared with itself, so a bundle with
        # fewer than the 8 parameters params_equal reads still tensors
        path = tmp_path / "k2.json"
        path.write_text(json.dumps(rep_to_bundle(fermionic_rep(), 2, 3)))
        for rep, checked in ((f"bundle:{path}", 8),
                             (f"tensor:bundle:{path}^2", 12)):
            rc, out, _ = run_cli(capsys, "verify", "pieri", "--rep", rep,
                                 "--kmax", "1", "--dmax", "1")
            assert rc == 0
            assert out == f"pieri: pass ({checked} checked, 0 failed)\n"

    @pytest.mark.parametrize("shape, weight", [
        ("[1];[1]", "1,1"), ("[2];[1]", "2,1")])
    def test_tensor_of_bundles_prints_their_labels(self, capsys, bundle_path,
                                                   shape, weight):
        path = bundle_path()
        texts = [run_cli(capsys, "tableaux", "--rep", rep, "--shape", shape,
                         "--weight", weight)
                 for rep in (f"tensor:bundle:{path}^2", "tensor:fermionic^2")]
        assert texts[0] == texts[1]
        assert texts[0][0] == 0 and texts[0][1].startswith("total: ")

    def test_expand_by_label(self, capsys, bundle_path):
        path = bundle_path()
        rc, out, _ = run_cli(capsys, "expand", "--rep", f"bundle:{path}",
                             "--shape", "[2,1]", "--basis", "s")
        assert rc == 0
        assert out.strip() == "s[2,1] 1"

    def test_unknown_label_exits_two(self, capsys, bundle_path):
        # the message of the KeyError, not its repr in quotes
        path = bundle_path()
        rc, out, err = run_cli(capsys, "expand", "--rep", f"bundle:{path}",
                               "--shape", "[9]")
        assert rc == 2
        assert out == ""
        assert err == "error: label '[9]' not in bundle basis\n"

    def test_converse_pass(self, capsys, bundle_path):
        path = bundle_path()
        rc, out, _ = run_cli(capsys, "verify", "converse",
                             "--rep", f"bundle:{path}", "--kmax", "1")
        assert rc == 0
        assert "precondition" in out

    def test_converse_detects_corruption(self, capsys, bundle_path):
        def mutate(b):
            b["U"]["2"]["1"][2][0] = "1"
        path = bundle_path(mutate)
        rc, out, _ = run_cli(capsys, "verify", "converse",
                             "--rep", f"bundle:{path}", "--kmax", "1",
                             "--out", "json")
        assert rc == 1
        data = json.loads(out)
        assert data["passed"] is False

    def test_converse_needs_bundle(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "converse", "--rep", "fermionic")
        assert rc == 2
        assert "bundle" in err


class TestTableaux:
    def test_chain_count(self, capsys):
        rc, out, _ = run_cli(capsys, "tableaux", "--rep", "fermionic",
                             "--shape", "[2,1]", "--base", "[]",
                             "--weight", "1,1,1")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "total: 2"
        assert "[] -> [1] -> [2] -> [2,1]" in out
        assert "[] -> [1] -> [1,1] -> [2,1]" in out

    def test_empty_weight_identity(self, capsys):
        rc, out, _ = run_cli(capsys, "tableaux", "--rep", "fermionic",
                             "--shape", "[2,1]", "--base", "[2,1]",
                             "--weight", "")
        assert rc == 0
        assert out.strip().splitlines()[0] == "total: 1"

    def test_macdonald_scalar_total(self, capsys):
        rc, out, _ = run_cli(capsys, "tableaux", "--rep", "macdonald",
                             "--shape", "[2]", "--base", "[]",
                             "--weight", "1,1", "--out", "json")
        assert rc == 0
        data = json.loads(out)
        # phi-weighted count: a genuine (q,t) rational, not an integer
        assert "q" in data["total"] or "t" in data["total"]
        assert len(data["chains"]) == 1

    def test_paths_grow_only_toward_shape(self, capsys):
        # 720 chains end at the shape; the paths that cannot reach it are
        # never grown (before, this took seconds and about 190 MB)
        start = time.perf_counter()
        rc, out, _ = run_cli(capsys, "tableaux", "--rep", "tensor:fermionic^8",
                             "--shape", "[1];[1];[1];[1];[1];[1];[];[]",
                             "--weight", "1,1,1,1,1,1")
        assert time.perf_counter() - start < 1
        lines = out.strip().splitlines()
        assert rc == 0 and lines[0] == "total: 720" and len(lines) == 721

    def test_each_index_labelled_once(self, capsys, monkeypatch):
        # every chain of a tensor power visits the factors in some order;
        # the text is the sorted labels of those chains, and each index is
        # formatted once however many chains pass through it
        from fockbridge import cli
        calls = []
        label = cli._label
        monkeypatch.setattr(cli, "_label",
                            lambda rep, i: calls.append(i) or label(rep, i))
        rc, out, _ = run_cli(capsys, "tableaux", "--rep", "tensor:fermionic^4",
                             "--shape", "[1];[1];[1];[1]",
                             "--weight", "1,1,1,1")
        assert rc == 0 and len(calls) == len(set(calls)) == 16
        chains = []
        for order in itertools.permutations(range(4)):
            state, path = ["[]"] * 4, ["([];[];[];[])"]
            for pos in order:
                state[pos] = "[1]"
                path.append("(" + ";".join(state) + ")")
            chains.append(path)
        assert out == "total: 24\n" + "".join(
            "  " + " -> ".join(p) + "\n" for p in sorted(chains))

    def test_closed_stdout_exits_1_without_traceback(self):
        # the reader keeps one line of about 440 kB and closes the pipe
        code = "from fockbridge.cli import run; run()"
        root = os.path.dirname(os.path.dirname(fockbridge.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "tableaux", "--rep",
             "tensor:fermionic^4", "--shape", "[2];[2];[2];[2]",
             "--weight", "1,1,1,1,1,1,1,1"],
            env=dict(os.environ, PYTHONPATH=root), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "total: 2520\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == ""

    def test_unreachable_shape(self, capsys):
        rc, out, _ = run_cli(capsys, "tableaux", "--rep", "fermionic",
                             "--shape", "[3]", "--base", "[1,1]",
                             "--weight", "1")
        assert rc == 0 and out.strip() == "total: 0"

    def test_bad_weight(self, capsys):
        rc, _, _ = run_cli(capsys, "tableaux", "--rep", "fermionic",
                           "--shape", "[1]", "--weight", "1,x")
        assert rc == 2
        rc, _, _ = run_cli(capsys, "tableaux", "--rep", "fermionic",
                           "--shape", "[1]", "--weight", "0,1")
        assert rc == 2


class TestArgErrors:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_bad_suite(self, capsys):
        assert run_cli(capsys, "verify", "nope", "--rep", "fermionic")[0] == 2

    def test_bad_spec_syntax(self, capsys):
        rc, _, err = run_cli(capsys, "expand", "--rep", "fermionic",
                             "--shape", "[1]", "--spec", "q0")
        assert rc == 2

    def test_bad_spec_value(self, capsys):
        rc, _, _ = run_cli(capsys, "expand", "--rep", "fermionic",
                           "--shape", "[1]", "--spec", "q=))")
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["expand", "--rep", "macdonald", "--shape", "[2]", "--spec", "x=1"],
        ["verify", "pieri", "--rep", "macdonald", "--kmax", "1", "--dmax",
         "1", "--spec", "x=1"],
        ["tableaux", "--rep", "macdonald", "--shape", "[1]", "--weight",
         "1", "--spec", "y=2"]])
    def test_unknown_spec_name_exits_two(self, capsys, argv):
        # only q and t can be specialized: another name is bad usage
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: unknown --spec variable")
        assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# fuzzing: any argument vector and any bundle either works or fails with
# exit code 1 or 2, never with a traceback

def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def assert_handled(rc, err):
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if rc and err.startswith("error:"):
        assert err.count("\n") == 1, err


HOSTILE = ["", " ", "-1", "99", "10**9", "1e3", "nan", "[-1]", "[1,2]",
           "[];[1]", ";", "q=0", "q=1", "t=1", "q=t", "q=q^", "q=1/0",
           "q=(1+q)^", "x=2", "q=", "=", "2,-1", "0,1", "llt1:1", "llt1:x",
           "bosonic", "tensor:fermionic^0", "tensor:fermionic",
           "tensor:fermionic^99", "tensor:fermionic^-2", "tensor:^2",
           "bundle:", "bundle:/no/such.json"]
# words of the CLI's own grammars, small integers, and anything at all
GRAMMAR = "qt0123456789[],;:^*/+-()= "
VALUES = st.one_of(st.integers(-1, 4).map(str), st.sampled_from(HOSTILE),
                   st.text(GRAMMAR, max_size=8), st.text(max_size=4))
# well-formed values of each flag; a hostile example draws from VALUES
GOOD = {"--rep": ["fermionic", "macdonald", "llt1:2", "llt1:3",
                  "tensor:fermionic^2", "tensor:macdonald^3",
                  "tensor:llt1:2^2", "tensor:tensor:fermionic^2^2"],
        "--shape": ["[]", "[1]", "[2,1]", "[1,1,1]", "[1];[1]", "[];[2]",
                    "[1];[];[1]"],
        "--base": ["[]", "[1]", "[];[]"], "--fn": ["F", "G"],
        "--basis": ["p", "h", "m", "s"], "--out": ["text", "json"],
        "--spec": ["q=0", "t=2", "q=1/2", "q=t", "q=1"],
        "--t": ["[1]", "[2]"], "--r": ["[]", "[1]"],
        "--weight": ["1", "1,1", "2,1"]}
INT_FLAGS = ["--kmax", "--dmax", "--abmax", "--xvars", "--yvars", "--lmax"]
FLAGS = {"expand": ["--base", "--fn", "--basis"],
         "tableaux": ["--base", "--weight"],
         "verify": INT_FLAGS + ["--t", "--r"]}


@st.composite
def argument_vectors(draw):
    hostile = draw(st.booleans())

    def value(flag):
        if hostile:
            return draw(VALUES)
        if flag in INT_FLAGS:
            return str(draw(st.integers(0, 3)))
        return draw(st.sampled_from(GOOD[flag]))
    cmd = draw(st.sampled_from(["expand", "verify", "tableaux"] +
                               ["nope"] * hostile))
    argv = [cmd, draw(st.sampled_from(_SUITES + ("nope",) * hostile))] \
        if cmd == "verify" else [cmd, "--shape", value("--shape")]
    argv += ["--rep", value("--rep")]
    flags = FLAGS.get(cmd, []) + ["--spec", "--out"] + ["--bogus"] * hostile
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4)):
        argv += [flag, value(flag)]
    if cmd == "verify":
        argv += ["--dmax", value("--dmax")]
    # a small degree cap keeps every example cheap
    return argv + ["--degree-cap", str(draw(st.integers(-1, 4)))]


SCALARS = st.sampled_from(["0", "1", "-1", "q", "1/(1-q)", "(1-t)/(1-q)",
                           "q^", "1/0", "(1+q+t)^250", "1/(1+q+t)", "x"])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | SCALARS
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "2", "x"]) | st.text(
        max_size=3), kids, max_size=3),
    max_leaves=6)


@st.composite
def bundle_texts(draw):
    bundle = copy.deepcopy(rep_to_bundle(fermionic_rep(), 2, 2))
    for _ in range(draw(st.integers(1, 3))):
        # a path down to a leaf, cut at a random depth (mostly deep, since
        # hypothesis favours small draws): that node is replaced or dropped
        path, node = [], bundle
        while isinstance(node, (dict, list)) and node:
            keys = sorted(node) if isinstance(node, dict) else \
                list(range(len(node)))
            path.append((node, draw(st.sampled_from(keys))))
            node = node[path[-1][1]]
        depth = len(path) - draw(st.integers(0, len(path)))
        if depth == 0:
            bundle = draw(JSON)
            continue
        parent, key = path[depth - 1]
        if isinstance(parent[key], str):    # a label, a_k or an entry
            parent[key] = draw(st.one_of(SCALARS, SCALARS, JSON))
        elif isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JSON)
    return json.dumps(bundle)


class TestFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argument_vectors())
    def test_arguments(self, argv):
        rc, _, err = run_quiet(argv)
        assert_handled(rc, err)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(bundle_texts(), st.sampled_from([
        ["verify", "converse"], ["verify", "du", "--abmax", "1"],
        ["verify", "pieri", "--kmax", "1"], ["expand", "--shape", "[1]"],
        ["tableaux", "--shape", "[1,1]", "--weight", "1,1"]]))
    def test_bundles(self, text, argv):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "b.json")
            with open(path, "w") as fh:
                fh.write(text)
            rc, _, err = run_quiet(argv + ["--rep", f"bundle:{path}"])
        assert_handled(rc, err)


def test_import_leaves_out_dataclasses_and_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: milliseconds that
    # every command pays at start-up
    code = ("import sys, fockbridge.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    root = os.path.dirname(os.path.dirname(fockbridge.__file__))
    res = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=root),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0 and res.stdout == "[]\n", res.stderr
