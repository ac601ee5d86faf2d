"""The measuring part of a benchmark run.

The timed part repeats the workload's operations in passes, with tracing
off.  Each operation keeps its median time at reference speed (see
reference.py) and its best measured time.  The traced part runs one more
pass under cProfile, which gives the exact call count and the per-layer
numbers.  Then every output is checked.
"""

from __future__ import annotations

import cProfile
import gc
import importlib
import json
import os
import pstats
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import List, Set

import awhile.cli
import checks
import reference
import workloads

MIN_PASSES = 3
REFERENCE_EVERY_S = 0.1
MODULES = ("cli", "fixtures", "seccheck", "spec_sem", "ideal_sem", "seq_sem",
           "harden", "flow_ifc", "ifc_static", "lang", "state")


@dataclass
class Timing:
    norm: List[List[float]]  # per operation, its times at reference speed
    best: List[float]  # per operation, its best measured time
    pass_s: List[float] = field(default_factory=list)  # measured, per pass
    slowdowns: List[float] = field(default_factory=list)
    first: list = field(default_factory=list)  # the first pass's results
    differ: Set[int] = field(default_factory=set)  # outputs that changed
    failed: int = 0
    passes: int = 0


def timed_passes(ops, seconds: float) -> Timing:
    """Passes over all operations until the time is used up (at least
    MIN_PASSES; no pass starts that would end well past the time).

    After each operation, or each run of short operations lasting
    REFERENCE_EVERY_S, the reference loop measures the host's slowdown;
    those operations' times are divided by it."""
    tm = Timing([[] for _ in ops], [float("inf")] * len(ops))
    reference.run()  # warm up
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results, pending, since, raw = [], [], 0.0, 0.0
        for k, op in enumerate(ops):
            t = time.perf_counter()
            res = checks.run_cli(op.argv)
            dt = time.perf_counter() - t
            tm.best[k] = min(tm.best[k], dt)
            results.append(res)
            pending.append((k, dt))
            since += dt
            raw += dt
            if since >= REFERENCE_EVERY_S or k == len(ops) - 1:
                f = reference.slowdown()
                tm.slowdowns.append(f)
                for j, dj in pending:
                    tm.norm[j].append(dj / f)
                pending, since = [], 0.0
        tm.pass_s.append(raw)
        tm.passes += 1
        tm.failed += sum(r.failed for r in results)
        if not tm.first:
            tm.first = results
        else:
            tm.differ.update(k for k, r in enumerate(results) if r != tm.first[k])
        now = time.perf_counter()
        if tm.passes >= MIN_PASSES and now - start + (now - pass_start) / 2 > seconds:
            return tm


def traced_pass(ops):
    """One pass under the profiler.  The cyclic collector is off during it:
    finalizers it runs (abandoned generators) are profiled calls, and when
    it runs depends on the allocations of the passes before."""
    prof = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        t = time.perf_counter()
        prof.enable()
        results = [checks.run_cli(op.argv) for op in ops]
        prof.disable()
        traced_s = time.perf_counter() - t
    finally:
        gc.enable()
    return traced_s, results, pstats.Stats(prof).stats


# (metric, module, function, field): "calls" counts every call, "steps"
# only calls not made by the function itself, "s" is cumulative seconds
FUNCTIONS = (
    ("spec_sem.step_ex.calls", "spec_sem", "step_ex", "steps"),
    ("seccheck.check_spec_obs_equiv.calls", "seccheck", "check_spec_obs_equiv", "calls"),
    ("seccheck.check_seq_obs_equiv.calls", "seccheck", "check_seq_obs_equiv", "calls"),
    ("state.pub_equiv.calls", "state", "pub_equiv", "calls"),
    ("seq_sem.seq_run.s", "seq_sem", "seq_run", "s"),
    ("ideal_sem.ideal_step_ex.calls", "ideal_sem", "ideal_step_ex", "calls"),
    ("ideal_sem.ideal_run.s", "ideal_sem", "ideal_run", "s"),
    ("lang.parse_com.s", "lang", "parse_com", "s"),
    ("harden.harden.s", "harden", "harden", "s"),
    ("flow_ifc.flow_track.s", "flow_ifc", "flow_track", "s"),
    ("lang.eval_aexp.calls", "lang", "eval_aexp", "calls"),
)


def _function_stats(stats, module: str, name: str) -> dict:
    """A module-level function's profile; zeros when a later version of
    the program no longer has it."""
    fn = getattr(importlib.import_module(f"awhile.{module}"), name, None)
    code = getattr(fn, "__code__", None)
    key = code and (code.co_filename, code.co_firstlineno, code.co_name)
    cc, nc, _, ct, _ = stats.get(key, (0, 0, 0.0, 0.0, None))
    return {"steps": cc, "calls": nc, "s": ct}


def layer_metrics(stats, traced_s: float, untraced_s: float) -> dict:
    """Per-module self time and calls, a few functions' counts and
    cumulative times, and the tracing overhead."""
    src = os.path.dirname(awhile.cli.__file__)
    layers = MODULES + ("builtins",)
    out = {f"{m}.{k}": 0 for m in layers for k in ("self_s", "calls")}
    for (filename, _, _), (_, nc, tt, _, _) in stats.items():
        if filename == "~":
            mod = "builtins"
        elif os.path.dirname(filename) == src:
            mod = os.path.splitext(os.path.basename(filename))[0]
        else:
            continue
        if mod in layers:
            out[f"{mod}.self_s"] += tt
            out[f"{mod}.calls"] += nc
    for metric, module, name, field in FUNCTIONS:
        out[metric] = _function_stats(stats, module, name)[field]
    step = _function_stats(stats, "spec_sem", "step_ex")
    out["spec_sem.step_ex.recursion"] = step["calls"] / step["steps"] if step["steps"] else 0.0
    out["trace.overhead"] = traced_s / untraced_s
    return out


def _peak_rss_mb() -> float:
    """This process's peak RSS.  VmHWM starts afresh at exec; ru_maxrss,
    the fallback, also keeps the parent's peak from before the exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _unit(metric: str) -> str:
    if metric.endswith(("self_s", ".s", "_raw_s")):
        return "s"
    return "count" if metric.endswith(".calls") else "ratio"


def run(wl: workloads.Workload, seconds: float) -> int:
    """Measure and check the workload in the current directory; print the
    result as JSON on the last line."""
    ops = wl.ops

    tm = timed_passes(ops, seconds)
    peak_rss_mb = _peak_rss_mb()
    traced_s, traced, stats = traced_pass(ops)
    failed = tm.failed + sum(r.failed for r in traced)
    differ = tm.differ | {k for k, r in enumerate(traced) if r != tm.first[k]}

    problems = [f"{' '.join(ops[k].argv)}: output differs between passes" for k in sorted(differ)]
    t_checks = time.perf_counter()
    ctx = checks.Context(wl)
    for op, res in zip(ops, tm.first):
        if res.failed:
            problems.append(f"{' '.join(op.argv)}: failed with exit {res.rc}: {res.err.strip()[-300:]}")
        else:
            problems += checks.check(ctx, op, res)

    per_op = [statistics.median(times) for times in tm.norm]
    pass_s = statistics.median(tm.pass_s)
    print(f"passes {tm.passes}, pass {pass_s:.3f} s measured, {sum(per_op):.3f} s at reference "
          f"speed (host slowdown {statistics.median(tm.slowdowns):.2f}), traced {traced_s:.3f} s, "
          f"checks {time.perf_counter() - t_checks:.3f} s", file=sys.stderr)
    e2e = {
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "py_calls": (sum(nc for _, nc, _, _, _ in stats.values()), "calls"),
    }
    layers = layer_metrics(stats, traced_s, pass_s)
    layers["wall_raw_s"] = sum(tm.best)
    layers["host.slowdown"] = statistics.median(tm.slowdowns)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops) * (tm.passes + 1),
        "failed": failed,
        "problems": problems[:20],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()},
    }))
    return 0
