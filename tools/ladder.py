#!/usr/bin/env python3
"""Frontier ladder: end-to-end numbers on configs of growing size.

Each run executes in its own process, so each reports its own peak RSS:
`explore` on four fig2 configs up to the current frontier, the
criterion-4 overload config (fig2 n=2 f=1, budget 2) through
`shortest_failure`, the valency graph of perfbench's `valency` config
and of fig2 n=2 f=3 `cons=tas` budget 3 (ROADMAP item 3's target), the
trace path (seeded `random_run` -> `run` -> `dump_trace` -> `replay`
round trips on fig2 n=3 f=1), and the tier-1 test suite.  For every run
it records wall seconds, states/s, edges/s, peak RSS and bytes per state
((peak RSS - RSS before the run) / states).  On the trace path, states
are trace steps and edges are steps applied, three per trace step.  Times are raw seconds on the machine named in the
output, not perfbench's reference seconds.

The results go into one named column of a JSON file, so that two
checkouts measured with this same script sit side by side:

    python3 tools/ladder.py --out BENCH_6.json --column change
    python3 tools/ladder.py --root ../parent --out BENCH_6.json --column parent

`--root` is the checkout whose `src/` and `tests/` are measured (default:
the one holding this script).  Existing columns of `--out` are kept.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))


def _fig2(n, f, budget, cons="atomic"):
    return dict(program="fig2", n=n, f=f, proposals=[10 * (i + 1) for i in range(n)],
                failure="independent", budget=budget, cons=cons, monitor=True)


# name -> (what is run, config)
RUNS = {
    "fig2 n=3 f=1": ("explore", _fig2(3, 1, 1)),
    "fig2 n=4 f=1": ("explore", _fig2(4, 1, 1)),
    "fig2 n=3 f=2 budget 2": ("explore", _fig2(3, 2, 2)),
    "fig2 n=2 f=3 cons=tas budget 3": ("explore", _fig2(2, 3, 3, "tas")),
    "criterion 4: fig2 n=2 f=1 budget 2": ("shortest_failure", _fig2(2, 1, 2)),
    "valency: fig2 n=2 f=2 cons=tas budget 2": ("valency", _fig2(2, 2, 2, "tas")),
    "valency: fig2 n=2 f=3 cons=tas budget 3": ("valency", _fig2(2, 3, 3, "tas")),
    "trace path: fig2 n=3 f=1": ("trace", _fig2(3, 1, 1)),
    "tier-1": ("pytest", None),
}


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _explore(lib, exp):
    v = lib.checker.explore(exp, memo=True, minimize=False)
    return v.stats["states"], v.stats["edges"], {"result": v.result}


def _shortest_failure(lib, exp):
    """BFS to the shallowest violation; states are the states it expanded
    and edges the transitions it took, counted around the instance.  An
    older checkout steps through `successor`, which there does not call
    `apply_step`, so both are counted when the instance has both."""
    counts = [0, 0]
    enabled = exp.enabled_steps

    def counted_enabled(state):
        counts[0] += 1
        return enabled(state)

    def counted(step):
        def wrapper(state, label):
            counts[1] += 1
            return step(state, label)
        return wrapper

    exp.enabled_steps = counted_enabled
    for name in ("apply_step", "successor"):
        if hasattr(exp, name):
            setattr(exp, name, counted(getattr(exp, name)))
    found = lib.checker.shortest_failure(exp)
    return counts[0], counts[1], {"property": found[1] if found else None,
                                  "length": len(found[0]) if found else None}


def _valency(lib, exp):
    g = lib.valency.build_graph(exp)
    s = lib.valency.summary(g, lib.valency.classify(g))
    return s["nodes"], sum(len(succ) for succ in g.adj.values()), {
        k: s[k] for k in ("terminals", "bivalent_count", "critical_states",
                          "crash_decision_edges")}


TRACES = 1000


def _trace(lib, exp):
    """`TRACES` seeded round trips; every replay must match its header."""
    sim = lib.simulator
    rng = random.Random(1)
    steps = failed = 0
    for _ in range(TRACES):
        labels, final = sim.random_run(exp, rng)
        trace, _ = sim.run(exp, labels)
        res = sim.replay(sim.dump_trace(trace, final_hash=lib.core.digest(final)))
        failed += not res.matches_header or len(res.digests) != len(labels) + 1
        steps += len(labels)
    return steps, 3 * steps, {"traces": TRACES, "failed": failed}


def run_one(name, root):
    """Run one ladder entry in this process; returns its result dict."""
    what, cfg = RUNS[name]
    if what == "pytest":
        return _pytest(root)
    sys.path.insert(0, os.path.join(root, "src"))
    lib = SimpleNamespace(**{m: importlib.import_module("rclab." + m)
                             for m in ("checker", "config", "core", "experiment",
                                       "simulator", "valency")})
    exp = lib.experiment.Experiment(lib.config.ExperimentConfig.from_dict(dict(cfg)))
    before = maxrss_mb()
    start = time.perf_counter()
    states, edges, outputs = {"explore": _explore, "shortest_failure": _shortest_failure,
                              "valency": _valency, "trace": _trace}[what](lib, exp)
    wall = time.perf_counter() - start
    peak = maxrss_mb()
    return dict(outputs, wall_s=round(wall, 3), states=states, edges=edges,
                states_per_s=round(states / wall), edges_per_s=round(edges / wall),
                peak_rss_mb=round(peak, 1),
                bytes_per_state=round((peak - before) * 2**20 / states))


def _pytest(root):
    import pytest

    class Outcomes:
        def __init__(self):
            self.counts = {}

        def pytest_runtest_logreport(self, report):
            if report.when == "call" or report.outcome != "passed":
                key = report.outcome if report.when == "call" else "error"
                self.counts[key] = self.counts.get(key, 0) + 1

    sys.path.insert(0, os.path.join(root, "src"))
    os.chdir(root)
    outcomes = Outcomes()
    start = time.perf_counter()
    pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"],
                plugins=[outcomes])
    wall = time.perf_counter() - start
    return dict(wall_s=round(wall, 1), peak_rss_mb=round(maxrss_mb(), 1),
                **{k: outcomes.counts[k] for k in sorted(outcomes.counts)})


def machine():
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return "%s, %d CPUs, %.0f GB RAM, Python %s" % (
        platform.machine(), os.cpu_count(), mem / 2**30, platform.python_version())


def commit(root):
    proc = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.dirname(HERE))
    ap.add_argument("--out", required=True)
    ap.add_argument("--column", required=True)
    ap.add_argument("--one", choices=sorted(RUNS), help=argparse.SUPPRESS)
    ap.add_argument("--result", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    if args.one:
        # a child: run one entry, write its result where the parent reads it
        result = run_one(args.one, root)
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    doc = {"columns": {}, "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["columns"][args.column] = {"commit": commit(root), "machine": machine(),
                                   "date": time.strftime("%Y-%m-%d")}
    for name, (what, cfg) in RUNS.items():
        with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--root", root, "--out", args.out,
                 "--column", args.column, "--one", name, "--result", tmp.name],
                stdout=subprocess.DEVNULL)
            result = json.load(tmp) if proc.returncode == 0 else {"exit": proc.returncode}
        run = doc["runs"].setdefault(name, {"run": what, "config": cfg})
        run[args.column] = result
        print("%-42s %s" % (name, json.dumps(result)), file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
