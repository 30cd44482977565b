"""rclab benchmark runner.

Runs one model-checking workload through rclab's public API for a fixed
time, checks every output against pinned values, and prints a report
whose last line is one JSON object:

    python3 perfbench/run.py --workload explore-memo --seed 1 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics with no instrumentation, in
reference seconds (see reference.py).  `--trace 1` instead spends half
the run on untraced iterations and the rest on traced ones (see
tracer.py), and reports the per-layer metrics.  `--workload all`
runs every workload in its own process, one after another.  The library
is imported from `src/` next to this directory; nothing is installed.
See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

from reference import Reference
from tracer import SPAN_NAMES, GcMeter, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAYERS = ("config", "core", "objects", "programs", "experiment", "checker", "simulator", "valency")
# Set-ups per run, each in a fresh interpreter; set-up time is their median.
SETUPS = 11
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")


def setup_times(cfgs):
    """(raw seconds, reference scale) of each cold set-up."""
    out = []
    for _ in range(SETUPS):
        proc = subprocess.run([sys.executable, SETUP_PROBE, SRC, json.dumps(cfgs)],
                              stdout=subprocess.PIPE, text=True, check=True)
        took, scale = map(float, proc.stdout.split())
        out.append((took, scale))
    return out


def build(lib, cfgs, make=None):
    make = make or lib.experiment.Experiment
    return [make(lib.config.ExperimentConfig.from_dict(c)) for c in cfgs]


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(xs, q):
    """Nearest-rank quantile."""
    xs = sorted(xs)
    return xs[max(0, min(len(xs) - 1, math.ceil(q * len(xs)) - 1))]


def tail(xs):
    """(label, value) of the highest percentile with at least ten samples
    beyond it, or None when there are too few samples."""
    for q in (0.999, 0.99, 0.9):
        if len(xs) * (1 - q) >= 10:
            return "p%g" % (q * 100), quantile(xs, q)
    return None


def show(name, value, unit, note=""):
    print("%-34s %14.6g %-6s %s" % (name, value, unit, note))


def more(start, seconds, times):
    """Whether another pass, as long as the median one so far, still ends
    within `seconds` of `start`.  The first pass always runs."""
    return not times or time.perf_counter() - start + statistics.median(times) <= seconds


def measure(wl, lib, exps, rng, seconds):
    """Untraced passes for `seconds`, with reference units run by the
    timer throughout, and the peak RSS after the first pass: later passes
    reuse a heap the first one fragmented, so the peak after them depends
    on how many fit in the run.  Each pass starts after a full
    collection, so it pays for the garbage it makes and not for its
    predecessor's."""
    passes, walls, spans = [], [], []  # spans: pass times with the units
    start = time.perf_counter()
    with Reference() as ref:
        while more(start, seconds, spans):
            gc.collect()
            t0, s0 = ref.clock(), time.perf_counter()
            passes.append(wl.run(lib, exps, rng, ref.clock))
            walls.append(ref.clock() - t0)
            spans.append(time.perf_counter() - s0)
            if len(passes) == 1:
                peak = maxrss_mb()
    return passes, walls, ref, peak


def end_to_end(setups, rss_setup, passes, walls, ref, peak):
    """Times are in reference seconds (see reference.py): the mean pass
    over the mean reference unit, both taken over the whole run."""
    n = len(walls)
    scale = ref.scale()
    wall = sum(walls) / n * scale
    metrics = {
        "setup_s": (statistics.median(took * s for took, s in setups), "s"),
        "wall_s": (wall, "s"),
        "states_per_s": (sum(p.states for p in passes) / n / wall, "1/s"),
        "edges_per_s": (sum(p.edges for p in passes) / n / wall, "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    for name, (value, unit) in metrics.items():
        show(name, value, unit)
    print("  times in reference seconds: raw x %.6g, from %d reference units (median %.6g ms raw)" % (
        scale, len(ref.times), statistics.median(ref.times) * 1e3))
    print("  setup_s: median of %d set-ups (import, from_dict, Experiment), each in a fresh"
          " interpreter; raw median %.6g s" % (len(setups), statistics.median(t for t, _ in setups)))
    t = tail(walls)
    print("  wall_s: mean of %d passes; raw median %.6g s, max %.6g s%s" % (
        n, statistics.median(walls), max(walls),
        "; %s %.6g s" % t if t else "; too few passes for a tail percentile"))
    unit_ms = [ms for p in passes for ms in p.unit_ms]
    if unit_ms:
        show("trace_steps_per_s", metrics["states_per_s"][0], "1/s", "(= states_per_s on replay)")
        show("trace_ms.p50", quantile(unit_ms, 0.5), "ms", "n=%d round trips" % len(unit_ms))
        show("trace_ms.p99", quantile(unit_ms, 0.99), "ms",
             "" if len(unit_ms) >= 1000 else "(fewer than 1000 round trips: not supported)")
    retained = passes[0].retained
    if retained:
        show("bytes_per_state", (peak - rss_setup) * 2**20 / retained, "B",
             "(peak RSS - RSS after set-up) / %d retained states" % retained)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(wl, lib, cfgs, rng, seconds):
    """Untraced iterations for half of `seconds` (at least one), then
    traced iterations for the rest (at least one); an iteration is a
    set-up without the import, plus one pass.  The per-layer metrics are
    per iteration: the collector's from the untraced ones, the spans'
    from the traced ones."""
    start = time.perf_counter()
    base, untraced = [], []
    with GcMeter() as gcm:
        while more(start, seconds / 2, untraced):
            t0 = time.perf_counter()
            base.append(wl.run(lib, build(lib, cfgs), rng))
            untraced.append(time.perf_counter() - t0)

    tracer = Tracer()
    tracer.install(lib)
    iters, times = [], []
    try:
        while more(start, seconds, times):
            t0 = time.perf_counter()
            iters.append(wl.run(lib, build(lib, cfgs, tracer.experiment), rng))
            times.append(time.perf_counter() - t0)
    finally:
        tracer.uninstall()

    n = len(iters)
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = tracer.totals(name)
        metrics[name + ".calls"] = (calls / n, "count")
        metrics[name + ".self_s"] = (self_s / n, "s")
    metrics["checker.memo_hit_ratio"] = (base[0].hits / base[0].edges, "ratio")
    metrics["checker.memo_hit_base"] = (base[0].edges, "count")
    m = len(untraced)
    metrics["gc.pause_s"] = (gcm.pause_s / m, "s")
    for gen in range(3):
        metrics["gc.collections.gen%d" % gen] = (gcm.collections[gen] / m, "count")
    wall = sum(times) / n
    plain = sum(untraced) / m
    self_sum = tracer.self_sum() / n
    metrics["trace.untraced_wall_s"] = (plain, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - plain, "s")
    metrics["trace.self_sum_s"] = (self_sum, "s")
    metrics["trace.unattributed_s"] = (wall - self_sum, "s")

    print("per (function, caller), per traced iteration (%d traced, %d untraced):" % (n, m))
    print("  %-30s %-24s %12s %10s %10s" % ("function", "caller", "calls", "total_s", "self_s"))
    for name, caller, calls, total, self_s in tracer.rows():
        print("  %-30s %-24s %12.10g %10.4f %10.4f" % (name, caller, calls / n, total / n, self_s / n))
    for name, (value, unit) in metrics.items():
        show(name, value, unit)
    print("  self times sum to %.4f s of %.4f s traced; unattributed %.4f s %s overhead %.4f s" % (
        self_sum, wall, wall - self_sum,
        "within" if abs(wall - self_sum) <= wall - plain else "NOT within", wall - plain))
    passes = base + iters
    return passes, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_one(args):
    if not os.path.isdir(os.path.join(SRC, "rclab")):
        print("perfbench: no rclab sources under %s" % SRC, file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    cfgs = wl.configs(rng)
    setups = setup_times(cfgs)

    sys.path.insert(0, SRC)
    lib = SimpleNamespace(**{name: importlib.import_module("rclab." + name) for name in LAYERS})
    exps = build(lib, cfgs)
    rss_setup = maxrss_mb()
    wl.prepare(lib, exps, ROOT)

    print("workload %s, seed %d, %g s%s" % (wl.name, args.seed, args.seconds,
                                           ", traced" if args.trace else ""))
    if args.trace:
        passes, metrics = traced(wl, lib, cfgs, rng, args.seconds)
    else:
        passes, walls, ref, peak = measure(wl, lib, exps, rng, args.seconds)
        metrics = end_to_end(setups, rss_setup, passes, walls, ref, peak)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print("wrong_outputs %d of %d attempted" % (failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in a fresh process, so each reports its own peak RSS."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    total = sum(r["failed"] for r in results.values())
    print("wrong_outputs across workloads: %d of %d attempted" % (
        total, sum(r["attempted"] for r in results.values())))
    print(json.dumps(results))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
