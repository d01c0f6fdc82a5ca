"""CLI surface: golden outputs, exit codes, JSON round-trips."""

import json

import pytest

from fockbridge.cli import main
from fockbridge.heisenberg import BundleFormatError, load_bundle, rep_to_bundle
from fockbridge.reps import fermionic_rep
from fockbridge.scalars import ONE, Q, T


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

    @pytest.mark.parametrize("value", ["q^", "2^", "(1+q)^", "1/0"])
    def test_dangling_exponent_spec_exits_two(self, capsys, value):
        rc, out, err = run_cli(capsys, "expand", "--rep", "macdonald",
                               "--shape", "[1]", "--spec", f"q={value}")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["(1+q+t)^250", "((1+q)^80)^80",
                                       "1/(q^100000-1)+1/(1-q)"])
    def test_oversized_power_spec_exits_two(self, capsys, value):
        rc, out, err = run_cli(capsys, "expand", "--rep", "macdonald",
                               "--shape", "[1]", "--spec", f"q={value}")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


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
        # to degree dmax + 2*kmax - 1
        rc, out, err = run_cli(capsys, "verify", suite, "--rep", "fermionic",
                               "--dmax", "2", *bounds)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cap" in err

    def test_orders_at_cap(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "du", "--rep", "fermionic",
                             "--dmax", "1", "--abmax", "3", "--degree-cap", "3")
        assert rc == 0
        assert "pass" in out


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

    def test_non_object_bundle_exits_two(self, capsys, bundle_path):
        path = bundle_path(text="[]")
        rc, _, err = run_cli(capsys, "verify", "du", "--rep", f"bundle:{path}")
        assert rc == 2
        assert err.startswith("error:")

    def test_missing_file_exits_two(self, capsys):
        rc, _, _ = run_cli(capsys, "verify", "du", "--rep", "bundle:/no/such.json")
        assert rc == 2

    def test_expand_by_label(self, capsys, bundle_path):
        path = bundle_path()
        rc, out, _ = run_cli(capsys, "expand", "--rep", f"bundle:{path}",
                             "--shape", "[2,1]", "--basis", "s")
        assert rc == 0
        assert out.strip() == "s[2,1] 1"

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
