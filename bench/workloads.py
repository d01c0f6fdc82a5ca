"""Workload definitions: the sweep grids and the cli-mix command plan.

A sweep is a list of steps run in one fresh process; each step calls one
verifier (or one oracle comparison) and reports (passed, checked).  The
expected verdict of every step is "pass" with a checked count computed
here from partition counts, not from the package.

cli-mix is a list of fockbridge commands, each run as its own process.
The seed draws the expand shapes and the corrupted bundle entries; the
command names and their order do not depend on it.
"""

from __future__ import annotations

import random

import oracle

# a fockbridge command as users start it, behind the host-speed sampler
CLI_SNIPPET = ("import speed; speed.start(); "
               "from fockbridge.cli import run; run()")
DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# sweeps

def _n(d):
    return oracle.count_up_to(d)


def _pairs(d):
    # basis of tensor(f, f) in degree <= d: pairs of partitions
    return oracle.count_up_to(d, lambda k: oracle.multipartitions(k, 2))


def _heis(k, d, n=_n):
    return (k * k + k * (k - 1)) * n(d)


class Step:
    def __init__(self, name, suite, run, checked):
        self.name = name          # unique within the sweep
        self.suite = suite        # heisenberg, pieri, du, cauchy, bf, oracle
        self.run = run            # (fb, reps) -> (passed, checked)
        self.checked = checked    # known checked count


def _suite(name, suite, call, checked):
    def run(fb, reps):
        rpt = call(fb, reps)
        return rpt.passed, len(rpt.checked)
    return Step(name, suite, run, checked)


def _oracle_macdonald(dmax):
    def run(fb, reps):
        ok, n = True, 0
        for d in range(dmax + 1):
            want = fb.macdonald_p_oracle(d)
            for lam in fb.partitions_of(d):
                ok &= fb.compute_G(reps["mac"], lam, fb.EMPTY) == want[lam]
                n += 1
        return ok, n
    return Step("oracle-macdonald-G", "oracle", run, _n(dmax))


def _oracle_phi(dmax):
    def run(fb, reps):
        ok, n = True, 0
        for d in range(dmax + 1):
            for lam in fb.partitions_of(d):
                got = fb.convert(fb.phi_map(reps["f"], fb.StateVec.basis(lam)),
                                 "m")
                ok &= got.terms == fb.schur_tableaux(lam).terms
                n += 1
        return ok, n
    return Step("oracle-phi-schur", "oracle", run, _n(dmax))


def _oracle_llt(n_levels, dmax):
    def run(fb, reps):
        rep = reps[f"llt{n_levels}"]
        ok, n = True, 0
        for d in range(dmax + 1):
            for lam in fb.partitions_of(d):
                core, quot = fb.core_quotient(lam, n_levels)
                if core.size:
                    continue
                want = fb.sym_s(quot[0])
                for q in quot[1:]:
                    want = fb.multiply(want, fb.sym_s(q))
                ok &= fb.compute_F(rep, lam, fb.EMPTY) == want
                n += 1
        return ok, n
    count = sum(oracle.multipartitions(k, n_levels)
                for k in range(dmax // n_levels + 1))
    return Step(f"oracle-llt{n_levels}-factor", "oracle", run, count)


def _oracle_tensor(dmax):
    def run(fb, reps):
        f, tr = reps["f"], reps["ff"]
        ok, n = True, 0
        for dl in range(dmax + 1):
            for lam in fb.partitions_of(dl):
                for dm in range(dmax + 1 - dl):
                    for mu in fb.partitions_of(dm):
                        got = fb.compute_F(tr, (lam, mu), (fb.EMPTY, fb.EMPTY))
                        want = fb.multiply(fb.compute_F(f, lam, fb.EMPTY),
                                           fb.compute_F(f, mu, fb.EMPTY))
                        ok &= got == want
                        n += 1
        return ok, n
    return Step("oracle-tensor-factor", "oracle", run, _pairs(dmax))


def _cauchy(tag, key, x, dmax, skew=False):
    def call(fb, reps):
        if skew:
            return fb.verify_cauchy(reps[key], x, x, dmax,
                                    t=fb.Partition((1,)), r=fb.EMPTY)
        return fb.verify_cauchy(reps[key], x, x, dmax)
    return _suite(f"cauchy-{tag}{'-skew' if skew else ''}", "cauchy", call, 1)


def _bf(tag, key, lmax, dmax, n=_n):
    ls = [l for l in range(-lmax, lmax + 1) if l]
    return _suite(f"bf-{tag}", "bf",
                  lambda fb, reps: fb.verify_bf(reps[key], dmax, ls),
                  len(ls) * n(dmax))


def macdonald_sweep(small=False):
    c, h, p, du, bf, o = ((3, (1, 3), (1, 3), (2, 3), (1, 3), 3) if small else
                          (4, (2, 5), (2, 5), (3, 5), (2, 5), 5))
    return [
        _cauchy("mac", "mac", 2, c),
        _cauchy("mac", "mac", 2, c, skew=True),
        _suite("heisenberg-mac", "heisenberg",
               lambda fb, reps: fb.verify_heisenberg(reps["mac"], *h),
               _heis(*h)),
        _suite("pieri-mac", "pieri",
               lambda fb, reps: fb.verify_pieri(reps["mac"], *p),
               4 * p[0] * _n(p[1])),
        _suite("du-mac", "du",
               lambda fb, reps: fb.verify_du(reps["mac"], *du),
               du[0] ** 2 * _n(du[1])),
        _bf("mac", "mac", *bf),
        _oracle_macdonald(o),
    ]


def classical_sweep(small=False):
    if small:
        c, h, p, du, bf, phi, llt, ten = \
            4, (2, 4), (2, 4), (2, 4), (2, 4), 5, 6, 3
    else:
        c, h, p, du, bf, phi, llt, ten = \
            6, (5, 8), (4, 7), (4, 7), (3, 7), 8, 10, 6
    return [
        _cauchy("fermionic", "f", 3, c),
        _cauchy("fermionic", "f", 3, c, skew=True),
        _cauchy("tensor", "ff", 3, c),
        _cauchy("llt2", "llt2", 3, c),
        _cauchy("llt3", "llt3", 3, c),
        _suite("heisenberg-fermionic", "heisenberg",
               lambda fb, reps: fb.verify_heisenberg(reps["f"], *h),
               _heis(*h)),
        _suite("pieri-fermionic", "pieri",
               lambda fb, reps: fb.verify_pieri(reps["f"], *p),
               4 * p[0] * _n(p[1])),
        _suite("du-fermionic", "du",
               lambda fb, reps: fb.verify_du(reps["f"], *du),
               du[0] ** 2 * _n(du[1])),
        _bf("fermionic", "f", *bf),
        _bf("llt2", "llt2", *bf),
        _bf("llt3", "llt3", *bf),
        _oracle_phi(phi),
        _oracle_llt(2, llt),
        _oracle_llt(3, llt),
        _oracle_tensor(ten),
    ]


SWEEPS = {"macdonald-sweep": macdonald_sweep, "classical-sweep": classical_sweep}


def sweep_inputs(fb, workload):
    """The reps a sweep uses, built at set-up."""
    if workload == "macdonald-sweep":
        return {"mac": fb.macdonald_rep()}
    f = fb.fermionic_rep()
    return {"f": f, "ff": fb.tensor(f, f),
            "llt2": fb.llt_q1_rep(2), "llt3": fb.llt_q1_rep(3)}


# ---------------------------------------------------------------------------
# cli-mix

# expand shape pools: shapes of one degree whose commands cost about the
# same, so the seed changes what is computed but not how much
POOL_G_M = ((8,), (7, 1), (5, 3), (5, 1, 1, 1), (4, 2, 2), (3, 2, 2, 1))
POOL_G_S = ((6, 1), (5, 2), (5, 1, 1), (4, 3), (3, 3, 1), (3, 2, 2))
POOL_F_Q0 = ((5, 1), (4, 2), (4, 1, 1), (3, 3), (2, 2, 1, 1), (3, 2, 1))
SMALL_POOL = ((3, 1), (2, 2), (2, 1, 1))

BUNDLES = ("fermionic", "fermionic-u", "fermionic-a", "fermionic-d",
           "macdonald", "macdonald-x", "basis-list")


def _skew_pair(rng, degree):
    lam = rng.choice(oracle.partitions(degree))
    inner = [p for d in (2, 3) for p in oracle.partitions(d)
             if len(p) <= len(lam) and all(a <= b for a, b in zip(p, lam))]
    return lam, rng.choice(inner)


def _fmt(lam):
    return oracle.fmt_partition(lam)


def cli_plan(seed, bundle_dir, small=False):
    """The cli-mix commands: dicts with name, kind, argv, exit, check.

    kind is expand, tableaux, verify, converse or hostile; exit is the
    documented exit code; check names an oracle check and its arguments.
    A hostile command may also name its known_defect (see oracle.judge).
    """
    rng = random.Random(seed)
    pick = (lambda pool: rng.choice(SMALL_POOL)) if small else rng.choice
    g_m, g_s, f_q0 = pick(POOL_G_M), pick(POOL_G_S), pick(POOL_F_Q0)
    outer, inner = _skew_pair(rng, 5 if small else 8)
    factors = [rng.choice(oracle.partitions(d))
               for d in ((2, 1, 1) if small else rng.choice(((3, 2, 2), (3, 3, 1), (2, 2, 2))))]
    llt = rng.choice([lam for lam in oracle.partitions(6)
                      if oracle.core_and_quotient(lam, 3)[0] == 0])
    tab = rng.choice(oracle.partitions(4 if small else 7))
    weight = []
    while sum(weight) < sum(tab):
        weight.append(min(rng.choice((1, 2, 3)), sum(tab) - sum(weight)))

    def bundle(name):
        return f"bundle:{bundle_dir}/{name}.json"

    def expand(name, rep, shape, fn, basis, check, *extra):
        return {"name": name, "kind": "expand", "exit": 0, "check": check,
                "argv": ["expand", "--rep", rep, "--shape", shape, "--fn", fn,
                         "--basis", basis, *extra]}

    def verify(name, kind, argv, check, code=0):
        return {"name": name, "kind": kind, "exit": code, "check": check,
                "argv": ["verify", *argv]}

    def hostile(name, argv, code, known_defect=None):
        return {"name": name, "kind": "hostile", "exit": code, "check": None,
                "argv": argv, "known_defect": known_defect}

    llt_quot = oracle.core_and_quotient(llt, 3)[1]
    fail = {"commutation": None, "du": None, "pieri": None}
    return [
        expand("expand-mac-G-m", "macdonald", _fmt(g_m), "G", "m",
               ("unitriangular", "m", g_m)),
        expand("expand-mac-G-s", "macdonald", _fmt(g_s), "G", "s",
               ("unitriangular", "s", g_s)),
        expand("expand-mac-F-q0", "macdonald", _fmt(f_q0), "F", "m",
               ("hall_littlewood", f_q0), "--spec", "q=0"),
        expand("expand-fermionic-skew", "fermionic", _fmt(outer), "F", "s",
               ("schur_positive", sum(outer) - sum(inner),
                oracle.skew_syt_count(outer, inner)),
               "--base", _fmt(inner)),
        expand("expand-tensor3", "tensor:fermionic^3",
               ";".join(_fmt(p) for p in factors), "F", "s",
               ("schur_positive", sum(map(sum, factors)),
                oracle.product_syt_total(factors))),
        expand("expand-llt3", "llt1:3", _fmt(llt), "F", "s",
               ("schur_positive", 2, oracle.product_syt_total(llt_quot))),
        {"name": "tableaux-fermionic", "kind": "tableaux", "exit": 0,
         "check": ("tableaux", tab, tuple(weight)),
         "argv": ["tableaux", "--rep", "fermionic", "--shape", _fmt(tab),
                  "--weight", ",".join(map(str, weight))]},
        verify("verify-pieri-fermionic", "verify",
               ["pieri", "--rep", "fermionic", "--kmax", "2", "--dmax", "4"],
               ("verify", "pieri", 4 * 2 * _n(4))),
        verify("verify-du-macdonald", "verify",
               ["du", "--rep", "macdonald", "--abmax", "2", "--dmax", "3"],
               ("verify", "du", 4 * _n(3))),
        verify("verify-cauchy-llt2", "verify",
               ["cauchy", "--rep", "llt1:2", "--dmax", "4"],
               ("verify", "cauchy", 1)),
        verify("converse-fermionic", "converse",
               ["converse", "--rep", bundle("fermionic")],
               ("converse", {"commutation": True, "du": True, "pieri": True})),
        verify("converse-fermionic-u", "converse",
               ["converse", "--rep", bundle("fermionic-u"), "--kmax", "2"],
               ("converse", fail), code=1),
        verify("converse-fermionic-a", "converse",
               ["converse", "--rep", bundle("fermionic-a"), "--kmax", "2"],
               ("converse", {"commutation": True, "du": False,
                             "pieri": False}), code=1),
        verify("converse-fermionic-d", "converse",
               ["converse", "--rep", bundle("fermionic-d")],
               ("converse", fail), code=1),
        verify("converse-macdonald", "converse",
               ["converse", "--rep", bundle("macdonald")],
               ("converse", {"commutation": True, "du": True, "pieri": True})),
        verify("converse-macdonald-x", "converse",
               ["converse", "--rep", bundle("macdonald-x")],
               ("converse", fail), code=1),
        # known defect: parse_scalar("q^") raises IndexError
        hostile("hostile-spec-caret",
                ["expand", "--rep", "macdonald", "--shape", "[2]",
                 "--spec", "q=q^"], 2, known_defect=(1, "IndexError")),
        # known defect: a list-valued "basis" raises AttributeError
        hostile("hostile-basis-list",
                ["verify", "converse", "--rep", bundle("basis-list")], 2,
                known_defect=(1, "AttributeError")),
        hostile("hostile-degree-cap",
                ["expand", "--rep", "macdonald", "--shape", "[5,4]"], 2),
        hostile("hostile-pole",
                ["expand", "--rep", "macdonald", "--shape", "[2]", "--fn", "G",
                 "--basis", "m", "--spec", "q=1", "--spec", "t=1"], 1),
    ]


def write_bundles(fb, seed, bundle_dir):
    """Write the cli-mix bundles: genuine fermionic (4,4) and Macdonald
    (3,5) bundles, the criterion-10 corruptions with seeded entries, and a
    bundle whose basis is a list.  Returns what was corrupted.

    Corrupted entries lie inside the window diagnose_converse checks
    (degrees <= min(dmax, kmax * degree_step)), where a wrong entry must
    break at least one of the three conditions."""
    import copy
    import json
    import os

    rng = random.Random(seed * 7919 + 1)
    fer = fb.rep_to_bundle(fb.fermionic_rep(), 4, 4)
    mac = fb.rep_to_bundle(fb.macdonald_rep(), 3, 5)

    def window_entries(b, side, ks, nonzero):
        top = min(b["dmax"], b["kmax"] * b["degree_step"])
        out = []
        for k in ks:
            for d, mat in sorted(b[side][str(k)].items()):
                reach = int(d) + k * b["degree_step"] if side == "U" else int(d)
                if reach > top:
                    continue
                for i, row in enumerate(mat):
                    for j, x in enumerate(row):
                        if x != "0" or not nonzero:
                            out.append((side, str(k), d, i, j))
        return out

    def corrupt(b, entry, how):
        side, k, d, i, j = entry
        b = copy.deepcopy(b)
        x = b[side][k][d][i][j]
        b[side][k][d][i][j] = f"-({x})" if how == "flip" else f"({x})+1"
        return b, f"{side}[{k}][{d}][{i}][{j}] {how}"

    made = {}
    u_entry = rng.choice(window_entries(fer, "U", (1, 2), False))
    made["fermionic-u"] = corrupt(fer, u_entry, "nudge")
    wrong = copy.deepcopy(fer)
    a = rng.choice((2, 3, 5))
    wrong["params"] = {k: str(a) for k in wrong["params"]}
    made["fermionic-a"] = (wrong, f"params all {a}")
    d_entry = rng.choice(window_entries(fer, "D", (1,), True))
    made["fermionic-d"] = corrupt(fer, d_entry, "flip")
    how = rng.choice(("flip", "nudge"))
    side = rng.choice(("U", "D"))
    x_entry = rng.choice(window_entries(mac, side, (1, 2), how == "flip"))
    made["macdonald-x"] = corrupt(mac, x_entry, how)
    made["fermionic"] = (fer, "genuine")
    made["macdonald"] = (mac, "genuine")
    bad = copy.deepcopy(fer)
    bad["basis"] = []
    made["basis-list"] = (bad, "basis is a list")

    os.makedirs(bundle_dir, exist_ok=True)
    for name in BUNDLES:
        with open(os.path.join(bundle_dir, f"{name}.json"), "w") as fh:
            json.dump(made[name][0], fh)
    return {name: made[name][1] for name in BUNDLES}
