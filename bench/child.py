"""One benchmark process.  run.py starts it; it is not meant to be run by hand.

  child.py setup <workload> <seed> <work_dir>
      import fockbridge and build the workload's inputs, then exit
  child.py sweep <workload> <trace 0|1> <small 0|1>
      set up, then run every step of the sweep
  child.py cli <stats_path> <fockbridge arguments...>
      one traced fockbridge command; the stats go to stats_path

The last line of stdout (setup, sweep) is one JSON object.  Times that
run.py compares with its own clock are time.monotonic() readings.  Every
mode runs the host-speed sampler (speed.py) from its first line on, and
reports reference seconds next to wall seconds.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

import speed


def _import_cli():
    t0 = time.monotonic()
    import fockbridge.cli  # noqa: F401  (the package and its front end)
    return time.monotonic() - t0


def _setup(workload, seed, work_dir):
    startup = _import_cli()
    import fockbridge as fb
    import workloads
    info = {}
    if workload == "cli-mix":
        info = workloads.write_bundles(fb, seed, f"{work_dir}/bundles")
    else:
        workloads.sweep_inputs(fb, workload)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "startup_s": startup,
                      "speed": speed.factor(t1=ready), "bundles": info}))


def _sweep(workload, trace, small):
    startup = _import_cli()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import fockbridge as fb
    import workloads
    reps = workloads.sweep_inputs(fb, workload)
    steps = workloads.SWEEPS[workload](small)
    ready = time.monotonic()
    if tracer:
        tracer.reset()

    results = []
    first = time.monotonic()
    for step in steps:
        sid = tracer.begin_step(step.name) if tracer else None
        t0 = time.perf_counter()
        try:
            passed, checked = step.run(fb, reps)
            error = None
        except Exception:
            passed, checked = False, 0
            error = traceback.format_exc()
        t1 = time.perf_counter()
        if tracer:
            tracer.end_step(sid)
        results.append({"name": step.name, "suite": step.suite,
                        "passed": bool(passed), "checked": checked,
                        "wall_s": t1 - t0, "error": error})
    last = time.monotonic()
    print(json.dumps({"ready": ready, "startup_s": startup,
                      "speed": speed.factor(t1=ready), "wall_s": last - first,
                      "wall_ref_s": speed.ref_time(first, last),
                      "steps": results,
                      "trace": tracer.snapshot() if tracer else None}))


def _cli(stats_path, argv):
    startup = _import_cli()
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    import fockbridge.cli as cli
    try:
        code = cli.main(argv)
    finally:
        snap = tracer.snapshot()
        snap["startup_s"] = startup
        with open(stats_path, "w") as fh:
            json.dump(snap, fh)
    sys.exit(code)


def main(argv):
    speed.start()
    mode = argv[0]
    if mode == "setup":
        _setup(argv[1], int(argv[2]), argv[3])
    elif mode == "sweep":
        _sweep(argv[1], argv[2] == "1", argv[3] == "1")
    elif mode == "cli":
        _cli(argv[1], argv[2:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
