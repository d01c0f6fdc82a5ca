"""fockbridge benchmark: three cold-process workloads.

  python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 bench/run.py --self-check

Run it from anywhere; it finds the package at <repo>/src.  Workloads:

  macdonald-sweep  identity suites and the Gram-Schmidt oracle on the
                   Macdonald module, in one fresh process per repetition
  classical-sweep  identity suites and factorization oracles on the
                   fermionic, tensor and LLT modules, same process model
  cli-mix          about twenty real fockbridge commands, one process each

With --trace 0 it repeats the workload until --seconds are used (at least
once) and reports the end-to-end metrics, each the median over the
repetitions.  With --trace 1 it runs the workload once untraced and once
traced and reports the per-layer metrics.  Every operation's output is
checked against a known answer (see oracle.py).  The last line of stdout
is the JSON result; each run is also appended to
bench/records/BENCH_<tag>.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden"
RECORDS = BENCH / "records"

WORKLOADS = ("macdonald-sweep", "classical-sweep", "cli-mix")
SETUP_PROBES = 8        # extra set-up-only processes per run
RUN_LIMIT_S = 170.0     # no child may outlive this much of a run
CMD_TIMEOUT_S = 60.0
# per-repetition figures kept in the record: proc_s is the time the
# workload's processes ran (spawn to exit, summed), cpu_s their CPU time;
# raw_* are wall seconds, the rest of the times reference seconds
REP_FIELDS = ("wall_s", "raw_wall_s", "setup_s", "proc_s", "raw_proc_s",
              "cpu_s", "peak_rss_mb", "max_rss_mb", "instances")

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "instances_per_s": "1/s", "cmd_p50_s": "s",
}

SUITES = ("heisenberg", "pieri", "du", "cauchy", "bf", "oracle", "converse")
CLI_KINDS = ("expand", "verify", "converse", "tableaux", "hostile")

# per-layer metric -> callables (tracer names) whose counts or times it sums
GROUPS = {
    "scalars.add": ("scalars.Scalar.__add__", "scalars.Scalar.__sub__",
                    "scalars.Scalar.__rsub__"),
    "scalars.mul": ("scalars.Scalar.__mul__",),
    "scalars.div": ("scalars.Scalar.__truediv__", "scalars.Scalar.__rtruediv__",
                    "scalars.Scalar.inverse"),
    "scalars.gcd": ("scalars.IntPoly.gcd",),
    "scalars.divexact": ("scalars.IntPoly.divexact",),
    "scalars.parse": ("scalars.parse_scalar",),
    "reps.raw": ("reps.raw_B", "reps.raw_U", "reps.raw_D"),
    "heisenberg.apply": ("heisenberg.apply_B", "heisenberg.apply_U",
                         "heisenberg.apply_D"),
    "heisenberg.fg": ("heisenberg.compute_F", "heisenberg.compute_G"),
    "heisenberg.bundle_load": ("heisenberg.load_bundle",),
    "symfunc.convert": ("symfunc.convert",),
    "symfunc.multiply": ("symfunc.multiply",),
    "symfunc.perp": ("symfunc.perp_apply",),
    "symfunc.vars": ("symfunc.evaluate_vars", "symfunc.VarPoly.mul"),
}
SUITE_ENTRY = {s: f"identities.verify_{s}" for s in SUITES[:5]}
SUITE_ENTRY["converse"] = "identities.diagnose_converse"


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for group in ("scalars.add", "scalars.mul", "scalars.div"):
        units[f"{group}.calls"] = "count"
        units[f"{group}.self_s"] = "s"
    units["scalars.self_s"] = "s"
    units.update({"scalars.gcd.calls": "count", "scalars.gcd.self_s": "s",
                  "scalars.gcd.nontrivial_share": "ratio",
                  "scalars.gcd.poly_calls": "count",
                  "scalars.divexact.calls": "count",
                  "scalars.divexact.self_s": "s",
                  "scalars.gcd_memo.entries": "count",
                  "scalars.parse.calls": "count", "scalars.parse.self_s": "s",
                  "partitions.calls": "count", "partitions.self_s": "s",
                  "reps.raw.calls": "count", "reps.raw.self_s": "s"})
    for group in ("heisenberg.apply", "heisenberg.fg"):
        units[f"{group}.calls"] = "count"
        units[f"{group}.self_s"] = "s"
    units.update({"heisenberg.cache.entries": "count",
                  "heisenberg.bundle_load.self_s": "s",
                  "heisenberg.self_s": "s"})
    for group in ("convert", "multiply", "perp", "vars"):
        units[f"symfunc.{group}.calls"] = "count"
        units[f"symfunc.{group}.self_s"] = "s"
    units.update({"symfunc.self_s": "s", "identities.instances": "count",
                  "identities.self_s": "s"})
    for suite in SUITES:
        units[f"identities.{suite}.wall_s"] = "s"
    units["cli.startup_s"] = "s"
    for kind in CLI_KINDS:
        units[f"cli.cmd.{kind}.wall_s"] = "s"
    units.update({"trace.overhead_ratio": "ratio", "trace.coverage": "ratio"})
    return units


# ---------------------------------------------------------------------------
# processes

class Clock:
    """The run's deadline for child processes."""

    def __init__(self):
        self.start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.start

    def timeout(self, cap=RUN_LIMIT_S):
        return max(1.0, min(cap, RUN_LIMIT_S - self.elapsed()))


def _env(speed_path):
    env = dict(os.environ)
    # the package, and the benchmark's own modules for the sampler
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(BENCH)))
    env[speed.SPEED_FILE] = str(speed_path)
    env.pop("FOCKBRIDGE_DEGREE_CAP", None)
    return env


@dataclass
class Done:
    """A finished child: exit code (None if killed), output, monotonic
    start and end, its peak RSS and CPU time from wait4, and the speed
    factor its sampler wrote (None if it wrote none)."""
    code: int | None
    out: str
    err: str
    t0: float
    t1: float
    rss_mb: float
    cpu_s: float
    factor: float | None

    @property
    def ref_s(self):
        """Spawn to exit in reference seconds (wall seconds if the child
        wrote no speed factor)."""
        return (self.t1 - self.t0) * (self.factor or 1.0)


def spawn(argv, name, timeout):
    """Run one child to completion; a child that outlives timeout is
    killed."""
    out_path, err_path = WORK / f"{name}.out", WORK / f"{name}.err"
    speed_path = WORK / f"{name}.speed"
    speed_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=_env(speed_path), cwd=ROOT,
                                stdin=subprocess.DEVNULL)
        killed = []

        def on_alarm(signum, frame):
            killed.append(True)
            proc.kill()

        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        factor = json.loads(speed_path.read_text())["factor"]
    except (OSError, ValueError, KeyError):
        factor = None
    return Done(None if killed else proc.returncode,
                out_path.read_text(errors="replace"),
                err_path.read_text(errors="replace"), t0, t1,
                usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                factor)


def _child(*args):
    return [sys.executable, str(BENCH / "child.py"), *map(str, args)]


def _last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class ChildFailed(RuntimeError):
    pass


def setup_probe(workload, seed, clock, tag="probe"):
    """One set-up-only process; returns (setup_s, info)."""
    done = spawn(_child("setup", workload, seed, WORK), f"setup-{tag}",
                 clock.timeout())
    if done.code != 0:
        raise ChildFailed(f"set-up of {workload} failed (exit {done.code}): "
                          f"{done.err.strip()[-300:]}")
    info = _last_json(done.out)
    return (info["ready"] - done.t0) * info["speed"], info


# ---------------------------------------------------------------------------
# one repetition

def judge_steps(steps, results, failure):
    """Judge a sweep's step results against steps (name -> Step).  results
    is None when the sweep process failed; failure then says how, and every
    step fails.  A sweep has no known defects."""
    if results is None:
        return [{"name": name, "reason": failure, "known": False}
                for name in steps]
    ops = []
    for r in results:
        want = steps[r["name"]].checked
        if r["error"]:
            reason = r["error"].strip().splitlines()[-1]
        elif not r["passed"] or r["checked"] != want:
            reason = (f"verdict passed={r['passed']} checked={r['checked']}, "
                      f"want pass with {want}")
        else:
            reason = None
        ops.append({"name": r["name"], "reason": reason, "known": False})
    done = {r["name"] for r in results}
    ops += [{"name": name, "reason": "step did not run", "known": False}
            for name in steps if name not in done]
    return ops


def sweep_rep(workload, trace, small, clock):
    """One sweep process.  Each step is one operation; its known answer is
    a pass with the step's precomputed checked count."""
    steps = {s.name: s for s in workloads.SWEEPS[workload](small)}
    done = spawn(_child("sweep", workload, int(trace), int(small)),
                 f"sweep-{workload}", clock.timeout())
    proc = {"peak_rss_mb": done.rss_mb, "proc_s": done.ref_s,
            "raw_proc_s": done.t1 - done.t0, "cpu_s": done.cpu_s,
            "span_s": done.t1 - done.t0}
    res = None
    if done.code == 0:
        try:
            res = _last_json(done.out)
        except ValueError:
            res = None
    if res is None:
        failure = (f"sweep process failed (exit {done.code}): "
                   f"{done.err.strip()[-200:]}")
        return {"ops": judge_steps(steps, None, failure),
                "wall_s": done.ref_s, "raw_wall_s": done.t1 - done.t0,
                "setup_s": None,
                "instances": 0, "steps": [], "trace": None, **proc}
    ops = judge_steps(steps, res["steps"], None)
    instances = sum(r["checked"] for r in res["steps"]
                    if r["suite"] != "oracle")
    return {"ops": ops, "wall_s": res["wall_ref_s"],
            "raw_wall_s": res["wall_s"],
            "setup_s": (res["ready"] - done.t0) * res["speed"],
            "instances": instances,
            "startup_s": res["startup_s"], "steps": res["steps"],
            "trace": res["trace"], **proc}


def _golden(cmd, seed, small):
    if small or seed != workloads.DEFAULT_SEED \
            or cmd["kind"] not in ("expand", "tableaux"):
        return None
    path = GOLDEN / f"{cmd['name']}.txt"
    return path.read_text() if path.exists() else ""


def cli_rep(seed, trace, small, clock, rep_no):
    """Set up the bundles, then run each cli-mix command as its own process.
    Each command is one operation, judged by oracle.judge."""
    begin = time.monotonic()
    setup_s, _ = setup_probe("cli-mix", seed, clock, tag=f"rep{rep_no}")
    plan = workloads.cli_plan(seed, WORK / "bundles", small)
    ops, cmds, snaps = [], [], []
    instances, cpu = 0, 0.0
    for cmd in plan:
        if trace:
            stats = WORK / f"stats-{cmd['name']}.json"
            argv = _child("cli", stats, *cmd["argv"])
        else:
            argv = [sys.executable, "-c", workloads.CLI_SNIPPET, *cmd["argv"]]
        done = spawn(argv, f"cmd-{cmd['name']}", clock.timeout(CMD_TIMEOUT_S))
        cpu += done.cpu_s
        if done.code is None:
            reason, known = "timed out", False
        else:
            reason, known = oracle.judge(cmd, done.code, done.out, done.err,
                                         _golden(cmd, seed, small))
        ops.append({"name": cmd["name"], "reason": reason, "known": known})
        cmds.append({"name": cmd["name"], "kind": cmd["kind"],
                     "wall_s": done.ref_s, "raw_wall_s": done.t1 - done.t0,
                     "rss_mb": done.rss_mb, "exit": done.code})
        if cmd["kind"] in ("verify", "converse"):
            instances += sum(v[1] for v in
                             oracle.parse_verdicts(done.out).values())
        if trace:
            try:
                snaps.append(json.loads(stats.read_text()))
            except (OSError, ValueError):
                pass
    # wall_s is the commands' time alone, not the benchmark's judging
    # between them
    wall = sum(c["wall_s"] for c in cmds)
    raw = sum(c["raw_wall_s"] for c in cmds)
    # the typical command's memory: the largest one is whichever shape
    # the seed drew for the biggest expansion
    rss = [c["rss_mb"] for c in cmds]
    return {"ops": ops, "wall_s": wall, "raw_wall_s": raw,
            "setup_s": setup_s, "peak_rss_mb": statistics.median(rss),
            "max_rss_mb": max(rss), "cpu_s": cpu,
            "proc_s": wall, "raw_proc_s": raw,
            "span_s": time.monotonic() - begin,
            "instances": instances, "commands": cmds, "snaps": snaps}


def run_rep(workload, seed, trace, small, clock, rep_no):
    if workload == "cli-mix":
        return cli_rep(seed, trace, small, clock, rep_no)
    return sweep_rep(workload, trace, small, clock)


# ---------------------------------------------------------------------------
# metrics

def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of the samples."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def end_to_end(reps, setups):
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "instances_per_s": [r["instances"] / r["wall_s"] for r in reps],
        # latency of each process the workload starts, spawn to exit: the
        # commands of cli-mix, the one process of a sweep repetition
        "cmd_p50_s": [c["wall_s"] for r in reps for c in r["commands"]]
                     if "commands" in reps[0] else [r["proc_s"] for r in reps],
    }
    return samples


def per_layer(untraced, traced):
    """Per-layer metrics from one traced repetition; cli.cmd.* and the
    overhead base come from the untraced one."""
    snaps = traced["snaps"] if "snaps" in traced else [traced["trace"]]
    snaps = [s for s in snaps if s]
    calls, self_s, incl, layer_self = {}, {}, {}, {}
    for snap in snaps:
        for name, _parent, n, s, i in snap["stats"]:
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
            incl[name] = incl.get(name, 0.0) + i
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + s

    def total(table, group):
        return sum(table.get(n, 0) for n in GROUPS[group])

    m = {}
    for group in GROUPS:
        m[f"{group}.calls"] = total(calls, group)
        m[f"{group}.self_s"] = total(self_s, group)
    for layer in ("scalars", "partitions", "heisenberg", "symfunc",
                  "identities"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    m["partitions.calls"] = sum(n for name, n in calls.items()
                                if name.startswith("partitions."))
    gcd_calls = m["scalars.gcd.calls"]
    nontrivial = sum(s["nontrivial_gcd"] for s in snaps)
    m["scalars.gcd.nontrivial_share"] = nontrivial / gcd_calls if gcd_calls else 0.0
    m["scalars.gcd.poly_calls"] = sum(s["poly_gcd"] for s in snaps)
    # per-process sizes read at exit: the largest process for cli-mix
    m["scalars.gcd_memo.entries"] = max((s["gcd_memo_entries"] for s in snaps),
                                        default=0)
    m["heisenberg.cache.entries"] = max((s["cache_entries"] for s in snaps),
                                        default=0)
    m["identities.instances"] = sum(s["instances"] for s in snaps)
    for suite in SUITES:
        m[f"identities.{suite}.wall_s"] = incl.get(SUITE_ENTRY.get(suite), 0.0)
    m["identities.oracle.wall_s"] = sum(
        st["wall_s"] for st in traced.get("steps", ()) if st["suite"] == "oracle")
    if "commands" in traced:
        startups = [s["startup_s"] for s in snaps]
        for kind in CLI_KINDS:
            m[f"cli.cmd.{kind}.wall_s"] = sum(
                c["wall_s"] for c in untraced["commands"] if c["kind"] == kind)
    else:
        startups = [traced["startup_s"]]
        for kind in CLI_KINDS:
            m[f"cli.cmd.{kind}.wall_s"] = 0.0
    m["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    m["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    # layer self times are wall seconds, so the base is too
    m["trace.coverage"] = sum(layer_self.values()) / traced["raw_wall_s"]
    units = per_layer_units()
    return {name: m[name] for name in units}, [s["spans"] for s in snaps]


# ---------------------------------------------------------------------------
# records

def machine_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "platform": platform.platform()}


def write_record(tag, entry):
    """Append one run to bench/records/BENCH_<tag>.json."""
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"BENCH_{tag}.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = {"machine": machine_info(), "runs": []}
    record["runs"].append(entry)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# one run

def tally(ops):
    """(failed operations, correct): every failed operation counts, and the
    run is correct only if each failure is a listed known defect."""
    failed = [op for op in ops if op["reason"]]
    return failed, all(op["known"] for op in failed)


def run(workload, seed, seconds, trace, small=False, tag="latest"):
    WORK.mkdir(exist_ok=True)
    clock = Clock()
    setups, reps = [], []
    if not trace:
        for i in range(SETUP_PROBES):
            setups.append(setup_probe(workload, seed, clock, tag=str(i))[0])
    while True:
        rep = run_rep(workload, seed, trace and len(reps) == 1, small, clock,
                      len(reps))
        reps.append(rep)
        if rep["setup_s"] is not None:
            setups.append(rep["setup_s"])
        if trace:
            if len(reps) == 2:
                break
            continue
        if clock.elapsed() + max(r["span_s"] for r in reps) > seconds:
            break

    ops = [op for r in reps for op in r["ops"]]
    failed, correct = tally(ops)
    failures = {}
    for op in failed:
        key = (op["name"], op["reason"], op["known"])
        failures[key] = failures.get(key, 0) + 1
    if trace:
        values, spans = per_layer(reps[0], reps[1])
        units = per_layer_units()
        (WORK / f"spans-{workload}.json").write_text(json.dumps(spans))
        metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        detail = {n: {"value": v} for n, v in values.items()}
    else:
        samples = end_to_end(reps, setups)
        metrics, detail = {}, {}
        for name, vals in samples.items():
            med, q1, q3, spr = spread(vals)
            metrics[name] = {"value": med, "unit": END_TO_END[name]}
            detail[name] = {"value": med, "q1": q1, "q3": q3, "spread": spr,
                            "n": len(vals), "samples": vals}
    entry = {"workload": workload, "seed": seed, "seconds": seconds,
             "trace": int(trace), "small": small, "time": time.time(),
             "reps": len(reps), "attempted": len(ops), "failed": len(failed),
             "rep_samples": [{k: r.get(k) for k in REP_FIELDS} for r in reps],
             "correct": correct, "metrics": detail,
             "failures": [{"name": n, "reason": r, "known": c, "count": k}
                          for (n, r, c), k in failures.items()]}
    if tag:
        write_record(tag, entry)
    result = {"correct": correct, "attempted": len(ops),
              "failed": len(failed), "metrics": metrics}
    return result, entry


def print_result(workload, result, entry, json_line=True):
    print(f"# {workload}: {entry['reps']} repetition(s), seed {entry['seed']}, "
          f"trace {entry['trace']}")
    for name, m in result["metrics"].items():
        d = entry["metrics"][name]
        extra = (f"  (n={d['n']}, IQR/median={d['spread']:.3f})"
                 if "n" in d else "")
        print(f"#   {name} = {m['value']:.6g} {m['unit']}{extra}")
    share = result["failed"] / result["attempted"]
    print(f"#   fail_share = {share:.4f} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for f in entry["failures"]:
        kind = "known defect" if f["known"] else "FAIL"
        print(f"#   {kind} x{f['count']}: {f['name']}: {f['reason']}")
    if json_line:
        print(json.dumps(result))


# ---------------------------------------------------------------------------
# self-check

def _oracle_rejects():
    """The oracle must accept known-good text and reject a wrong answer
    and a traceback."""
    problems = []
    lam = (2, 1)
    good = "m[2,1] 1\nm[1,1,1] (2*q*t - q - t)/(q*t^2 - 1)"
    if oracle.check_unitriangular(good, "m", lam):
        problems.append("unitriangular rejects a good answer")
    if not oracle.check_unitriangular(good.replace("] 1", "] 2", 1), "m", lam):
        problems.append("unitriangular accepts a wrong leading coefficient")
    if not oracle.check_unitriangular("m[3] 1", "m", lam):
        problems.append("unitriangular accepts a wrong leading index")
    hl = "m[2,1] t^2 - 2*t + 1\nm[1,1,1] -t^3 + 3*t - 2"
    if oracle.check_hall_littlewood(hl, lam):
        problems.append("hall_littlewood rejects a good answer")
    if not oracle.check_hall_littlewood(hl.replace("+ 1", "+ 2", 1), lam):
        problems.append("hall_littlewood accepts a wrong b_lam(t)")
    if not oracle.check_schur_positive("s[2] -1", 2, 1):
        problems.append("schur_positive accepts a negative coefficient")
    if oracle.check_schur_positive("s[2] 1\ns[1,1] 1", 2, 2):
        problems.append("schur_positive rejects s1*s1")
    if not oracle.check_verify("pieri: FAIL (96 checked, 1 failed)", "pieri", 96):
        problems.append("verify accepts a FAIL verdict")
    if not oracle.check_verify("pieri: pass (0 checked, 0 failed)", "pieri", 96):
        problems.append("verify accepts a vacuous pass")
    tb = f"{oracle.TRACEBACK}:\n  File \"x\"\nIndexError: list index out of range"
    defect = {"kind": "hostile", "exit": 2, "check": None,
              "known_defect": (1, "IndexError")}
    cmd = {"kind": "hostile", "exit": 2, "check": None}

    def tally_one(judged):
        reason, known = judged
        return tally([{"name": "x", "reason": reason, "known": known}])

    if tally_one(oracle.judge(cmd, 1, "", tb))[1]:
        problems.append("a traceback on a command without a known defect "
                        "leaves the run correct")
    failed, correct = tally_one(oracle.judge(defect, 1, "", tb))
    if not correct:
        problems.append("a listed known defect makes the run incorrect")
    if not failed:
        problems.append("a listed known defect is not counted as failed")
    if tally_one(oracle.judge(defect, 1, "", tb.replace("IndexError",
                                                          "KeyError")))[1]:
        problems.append("a known-defect command that raises another "
                        "exception leaves the run correct")
    if oracle.judge(cmd, 2, "", "error: bad --spec value")[0]:
        problems.append("judge rejects a documented usage error")
    steps = {"s1": workloads.Step("s1", "pieri", None, 4),
             "s2": workloads.Step("s2", "du", None, 2)}
    good_step = {"name": "s1", "suite": "pieri", "passed": True, "checked": 4,
                 "wall_s": 0.1, "error": None}
    raised = {"name": "s2", "suite": "du", "passed": False, "checked": 0,
              "wall_s": 0.1, "error": tb}
    if tally(judge_steps(steps, [good_step], None))[1]:
        problems.append("a sweep step that did not run leaves the run correct")
    if tally(judge_steps(steps, [good_step, raised], None))[1]:
        problems.append("a sweep step that raises leaves the run correct")
    if tally(judge_steps(steps, None, "sweep process failed (exit -9)"))[1]:
        problems.append("a failed sweep process leaves the run correct")
    if not tally(judge_steps(steps, [good_step, dict(
            raised, passed=True, checked=2, error=None)], None))[1]:
        problems.append("a passing sweep is judged incorrect")
    cmd = {"kind": "expand", "exit": 0, "check": ("unitriangular", "m", lam)}
    if not oracle.judge(cmd, 0, good, "", golden=good + "\n")[0]:
        problems.append("judge accepts text that differs from the golden")
    return problems


def self_check():
    problems = _oracle_rejects()
    print(f"# oracle rejection checks: {len(problems)} problem(s)")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, entry = run(workload, workloads.DEFAULT_SEED, 1, trace,
                                small=True, tag=None)
            print_result(workload, result, entry, json_line=False)
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: a failure that is "
                                "not a listed known defect")
            want = set(per_layer_units() if trace else END_TO_END)
            if set(result["metrics"]) != want:
                problems.append(f"{workload} trace {trace}: metric set differs")
            if trace and result["metrics"]["trace.coverage"]["value"] <= 0:
                problems.append(f"{workload}: trace recorded nothing")
    for p in problems:
        print(f"self-check problem: {p}")
    print("self-check:", "ok" if not problems else "FAILED")
    return 0 if not problems else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tag", default="latest",
                    help="append the run to bench/records/BENCH_<tag>.json")
    ap.add_argument("--self-check", action="store_true",
                    help="oracle rejection checks and a reduced-size run "
                         "of every workload")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fockbridge" / "__init__.py").is_file():
        print(f"error: no fockbridge package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        result, entry = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), tag=args.tag)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print_result(args.workload, result, entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
