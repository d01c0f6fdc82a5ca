"""Layer tracer for the benchmark.

It works from outside the package: it replaces the public callables of
each fockbridge module (the names in its ``__all__``) with timing wrappers
in every module namespace that bound them, and wraps the arithmetic
methods of the value classes (Scalar, IntPoly, SymFunc, VarPoly, StateVec,
Partition) and the raw_B/raw_U/raw_D actions of every Rep subclass on
their classes.

Each wrapped call adds to a per-(callable, calling layer) accumulator:
call count, self time and inclusive time.  Self time is a call's duration
minus the time spent in wrapped calls it made, so work done by private
helpers is charged to the innermost wrapped public callable above it.
Only the identities and cli entry points, and the benchmark's own steps,
record a span each (name, start, end, parent span), so trace memory stays
bounded however many scalar operations a run makes.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import time
from functools import _lru_cache_wrapper

LAYERS = ("scalars", "partitions", "reps", "heisenberg", "symfunc",
          "identities", "cli")

# layers whose calls also record a span
SPAN_LAYERS = ("identities", "cli")

# arithmetic and action methods wrapped on their classes: (module, class,
# method names); an alias such as __radd__ = __add__ is wrapped once and
# rebound under both names
CLASS_METHODS = (
    ("scalars", "Scalar", ("__add__", "__radd__", "__sub__", "__rsub__",
                           "__neg__", "__mul__", "__rmul__", "__truediv__",
                           "__rtruediv__", "__pow__", "inverse", "specialize",
                           "__eq__")),
    ("scalars", "IntPoly", ("__add__", "__sub__", "__neg__", "__mul__",
                            "mul_int", "__pow__", "gcd", "divexact")),
    ("partitions", "Partition", ("conjugate", "contains", "cells", "part",
                                 "multiplicity")),
    ("partitions", "SkewShape", ("cells",)),
    ("symfunc", "SymFunc", ("__add__", "__sub__", "__neg__", "scaled",
                            "map_coefficients", "__eq__")),
    ("symfunc", "VarPoly", ("__add__", "__sub__", "scaled", "mul",
                            "truncate", "embed", "__eq__")),
    ("heisenberg", "StateVec", ("__add__", "__sub__", "scaled", "__eq__")),
)

RAW_ACTIONS = ("raw_B", "raw_U", "raw_D")


def _is_plain_callable(obj):
    return inspect.isfunction(obj) or isinstance(obj, _lru_cache_wrapper)


class Tracer:
    """Install once per process, after importing fockbridge and before the
    workload binds any fockbridge name."""

    def __init__(self):
        self.stats = {}        # (callable, parent layer) -> [calls, self, incl]
        self.spans = []        # [name, start, end, parent span index]
        self.nontrivial_gcd = 0
        self.poly_gcd = 0
        self.instances = 0
        self._stack = [["bench", 0.0]]
        self._span_stack = []
        self._installed = False

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, layer, on_result=None):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter
        spans = self.spans if layer in SPAN_LAYERS else None
        span_stack = self._span_stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            if spans is not None:
                sid = len(spans)
                spans.append([name, 0.0, 0.0,
                              span_stack[-1] if span_stack else None])
                span_stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                key = (name, parent[0])
                acc = stats.get(key)
                if acc is None:
                    acc = stats[key] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dt - frame[1]
                acc[2] += dt
                if spans is not None:
                    span_stack.pop()
                    spans[sid][1] = t0
                    spans[sid][2] = t0 + dt
            if on_result is not None:
                on_result(result, args)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_gcd(self, g, args):
        if not g.is_one:
            self.nontrivial_gcd += 1
        # only a gcd of two non-constant polynomials can reach the
        # bivariate (heuristic or PRS) path; integer gcds never do
        if not (args[0].is_constant or args[1].is_constant):
            self.poly_gcd += 1

    def _count_instances(self, report, args):
        checked = getattr(report, "checked", None)
        if checked is not None:
            self.instances += len(checked)
            return
        # a ConverseReport: its du and pieri parts came from wrapped
        # verify_du / verify_pieri calls and are already counted
        sub = getattr(report, "commutation", None)
        if sub is not None:
            self.instances += len(sub.checked)

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        modules = {layer: importlib.import_module(f"fockbridge.{layer}")
                   for layer in LAYERS}
        namespaces = list(modules.values()) \
            + [importlib.import_module("fockbridge")]

        # module-level public callables, rebound wherever they were imported
        replaced = {}
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if not _is_plain_callable(obj) or id(obj) in replaced:
                    continue
                hook = self._count_instances if layer == "identities" else None
                replaced[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer,
                                               hook)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                w = replaced.get(id(obj))
                if w is not None:
                    setattr(ns, attr, w)

        for layer, cls_name, methods in CLASS_METHODS:
            cls = getattr(modules[layer], cls_name)
            done = {}
            for meth in methods:
                fn = cls.__dict__.get(meth)
                if not inspect.isfunction(fn):
                    continue
                if id(fn) not in done:
                    hook = self._count_gcd \
                        if (cls_name, meth) == ("IntPoly", "gcd") else None
                    done[id(fn)] = self._wrap(
                        fn, f"{layer}.{cls_name}.{fn.__name__}", layer, hook)
                setattr(cls, meth, done[id(fn)])

        rep_base = modules["heisenberg"].Rep
        for mod in modules.values():
            for cls in vars(mod).values():
                if not (inspect.isclass(cls) and issubclass(cls, rep_base)
                        and cls.__module__ == mod.__name__):
                    continue
                for meth in RAW_ACTIONS:
                    fn = cls.__dict__.get(meth)
                    if inspect.isfunction(fn):
                        setattr(cls, meth,
                                self._wrap(fn, f"reps.{meth}", "reps"))

    # -- benchmark steps ---------------------------------------------------

    def begin_step(self, name):
        """Open a span for one benchmark step; returns a token for end_step.

        Steps are spans only: time the step spends outside wrapped calls is
        the benchmark's own and counts toward no layer."""
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._span_stack[-1] if self._span_stack else None])
        self._span_stack.append(sid)
        return sid

    def end_step(self, sid):
        self._span_stack.pop()
        self.spans[sid][2] = time.perf_counter()

    def reset(self):
        """Forget everything recorded so far (the workload's set-up)."""
        self.stats.clear()
        self.spans.clear()
        self.nontrivial_gcd = 0
        self.poly_gcd = 0
        self.instances = 0

    # -- read-out ----------------------------------------------------------

    def snapshot(self):
        """Accumulators and spans as JSON-able data, plus cache sizes read
        now (call it when the traced work has ended)."""
        import fockbridge.heisenberg as heis
        import fockbridge.scalars as sc
        cache_entries = sum(len(o._cache) for o in gc.get_objects()
                            if isinstance(o, heis.Rep))
        return {
            "stats": [[n, p, a[0], a[1], a[2]]
                      for (n, p), a in sorted(self.stats.items())],
            "spans": self.spans,
            "nontrivial_gcd": self.nontrivial_gcd,
            "poly_gcd": self.poly_gcd,
            "instances": self.instances,
            "gcd_memo_entries": len(sc._GCD_MEMO),
            "cache_entries": cache_entries,
        }
