#!/usr/bin/env python3
"""Frontier ladder: end-to-end numbers on configs of growing size, for a
change against its parent.

Each run executes in its own process, so each reports its own peak RSS:
`explore` on five fig2 configs up to the current frontier (fig2 n=2 f=4
`cons=tas` budget 4, 12.9 M states) and on fig1 `cons=tas` under
simultaneous crashes (budget 5, 1.07 M states), and, with
`memo=False`, on perfbench's `explore-nomemo` config, the
criterion-4 overload config (fig2 n=2 f=1, budget 2) through
`shortest_failure`, the valency graph of perfbench's `valency` config
and of fig2 n=2 f=3 `cons=tas` budget 3 (ROADMAP item 2's target), the
trace path (seeded `random_run` -> `run` -> `dump_trace` -> `replay`
round trips on fig2 n=3 f=1), the tier-1 test suite, and a cold start:
the import of every rclab layer plus one `Experiment` of fig2 n=3 f=1,
which reports only wall seconds, CPU seconds and peak RSS.  For every
other run it records wall seconds, CPU seconds of the process, states/s,
edges/s, peak RSS, bytes per state ((peak RSS - RSS before the run) /
states, null when the run raised the peak by less than 1 MiB, a step too
small to tell from allocator noise), and how many frame, objects and
others ids the run's experiment minted (`frame_ids`, `objects_ids`,
`others_ids`), which shows how far the frame and objects ids stay below
their fields' fixed caps (2^16 and 2^24 ids), and how many rows and
second-level rows it holds (`rows`, `others_rows`, null for a checkout
without that store).  CPU seconds leave out
the time the process waited for a core on a shared host, so a change in
wall time that CPU time does not show is the host's, not the code's.  On the trace path,
states are trace steps and edges are steps applied, three per trace
step, and set-up digests the initial state once, so that hashlib's
one-time library map lands before the run, not in its bytes per state.
Times are raw seconds on the machine named in the output, not
perfbench's reference seconds.

The host may be shared, and its speed drifts by more than a change
moves, so the two checkouts are measured in pairs: each entry runs
parent and change in turn, `--pairs` times, the side that goes first
alternating from pair to pair.  The report gives each side's median and
the number of pairs in which the change took less wall time:

    python3 tools/ladder.py --parent ../parent --out BENCH_12.json
    python3 tools/ladder.py --parent ../parent --out BENCH_12.json --only "fig2 n=4 f=1"

`--root` is the change's checkout (default: the one holding this
script) and `--parent` the parent's; each is measured from its own
`src/` and `tests/`.  Without `--parent` only the change runs.  Entries
of `--out` that this run does not measure are kept.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
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
    "fig2 n=2 f=4 cons=tas budget 4": ("explore", _fig2(2, 4, 4, "tas")),
    "fig1 cons=tas simultaneous budget 5": (
        "explore", dict(program="fig1", n=2, proposals=[10, 20], cons="tas",
                        failure="simultaneous", budget=5, monitor=True)),
    "fig1 simultaneous budget 1, memo=False": (
        "explore-nomemo", dict(program="fig1", n=2, proposals=[10, 20], cons="atomic",
                               failure="simultaneous", budget=1, monitor=True)),
    "criterion 4: fig2 n=2 f=1 budget 2": ("shortest_failure", _fig2(2, 1, 2)),
    "valency: fig2 n=2 f=2 cons=tas budget 2": ("valency", _fig2(2, 2, 2, "tas")),
    "valency: fig2 n=2 f=3 cons=tas budget 3": ("valency", _fig2(2, 3, 3, "tas")),
    "trace path: fig2 n=3 f=1": ("trace", _fig2(3, 1, 1)),
    "tier-1": ("pytest", None),
    "cold start": ("cold start", _fig2(3, 1, 1)),
}


def maxrss_mb():
    """Peak RSS of this process in MB: Linux's VmHWM, the high-water mark of
    its own memory.  `ru_maxrss` also counts the peak of the process that
    started it, which Linux carries across `exec`."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _explore(lib, exp, memo=True):
    v = lib.checker.explore(exp, memo=memo)
    return v.stats["states"], v.stats["edges"], {"result": v.result}


def _shortest_failure(lib, exp):
    """BFS to the shallowest violation; states are the states it expanded
    and edges the edges it stepped: the calls of `moves`, which the BFS
    makes once per state it expands, and the moves they gave that the BFS
    took, counted around the instance.  An edge is a row lookup, not a
    call, so it is counted as the BFS draws its move.  A checkout whose
    experiment has no `moves` steps each edge by a call of `successor`,
    and is counted by its calls of `enabled_ids` and `successor`."""
    counts = [0, 0]

    def counted(fn, i):
        def wrapper(*args):
            counts[i] += 1
            return fn(*args)
        return wrapper

    def drawn(moves):
        def wrapper(s):
            counts[0] += 1
            for move in moves(s):
                counts[1] += 1
                yield move
        return wrapper

    if hasattr(exp, "moves"):
        exp.moves = drawn(exp.moves)
    else:
        exp.enabled_ids = counted(exp.enabled_ids, 0)
        exp.successor = counted(exp.successor, 1)
    found = lib.checker.shortest_failure(exp)
    return counts[0], counts[1], {"property": found[1] if found else None,
                                  "length": len(found[0]) if found else None}


def _valency(lib, exp):
    g = lib.valency.build_graph(exp)
    s = lib.valency.summary(g, lib.valency.classify(g))
    return s["nodes"], len(g.adj.codes), {
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


def id_counts(exp):
    """How many frame, objects and others ids `exp` minted."""
    return dict(frame_ids=len(exp.frames_by_id), objects_ids=len(exp.objects_by_id),
                others_ids=len(exp.others_by_id))


def row_counts(exp):
    """How many rows and second-level rows `exp` holds, over every process;
    None for a store its checkout does not have."""
    return {name: sum(map(len, getattr(exp, name))) if hasattr(exp, name) else None
            for name in ("rows", "others_rows")}


def run_one(name, root):
    """Run one ladder entry in this process; returns its result dict."""
    what, cfg = RUNS[name]
    if what == "pytest":
        return _pytest(root)
    sys.path.insert(0, os.path.join(root, "src"))
    cpu = time.process_time()
    start = time.perf_counter()
    lib = SimpleNamespace(**{m: importlib.import_module("rclab." + m)
                             for m in ("checker", "config", "core", "experiment",
                                       "simulator", "valency")})
    exp = lib.experiment.Experiment(lib.config.ExperimentConfig.from_dict(dict(cfg)))
    if what == "cold start":
        return dict(wall_s=round(time.perf_counter() - start, 4),
                    cpu_s=round(time.process_time() - cpu, 4), peak_rss_mb=round(maxrss_mb(), 1))
    if what == "trace":
        # the first digest maps hashlib's library, a one-time cost that
        # `bytes_per_state` would otherwise spread over the states
        lib.core.digest(exp.initial_state())
    before = maxrss_mb()
    cpu = time.process_time()
    start = time.perf_counter()
    states, edges, outputs = {"explore": _explore,
                              "explore-nomemo": lambda lib, exp: _explore(lib, exp, memo=False),
                              "shortest_failure": _shortest_failure,
                              "valency": _valency, "trace": _trace}[what](lib, exp)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    peak = maxrss_mb()
    grown = peak - before
    return dict(outputs, **id_counts(exp), **row_counts(exp), wall_s=round(wall, 3), cpu_s=round(cpu, 3),
                states=states,
                edges=edges, states_per_s=round(states / wall), edges_per_s=round(edges / wall),
                peak_rss_mb=round(peak, 1),
                bytes_per_state=round(grown * 2**20 / states) if grown >= 1 else None)


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
    cpu = time.process_time()
    start = time.perf_counter()
    pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"],
                plugins=[outcomes])
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    return dict(wall_s=round(wall, 1), cpu_s=round(cpu, 1), peak_rss_mb=round(maxrss_mb(), 1),
                **{k: outcomes.counts[k] for k in sorted(outcomes.counts)})


def machine():
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return "%s, %d CPUs, %.0f GB RAM, Python %s" % (
        platform.machine(), os.cpu_count(), mem / 2**30, platform.python_version())


def commit(root):
    """The commit `root` has checked out, as `git describe --always --dirty`
    writes it (`<sha>-dirty` for a tree with uncommitted changes); None
    unless `root` is the top level of its own git work tree, so that a copy
    inside another checkout does not report that checkout's commit."""
    def git(*args):
        proc = subprocess.run(["git", "-C", root] + list(args), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(root):
        return None
    return git("describe", "--always", "--dirty") or None


def run_child(name, root):
    """One entry measured in a fresh process; its result dict, or the
    child's exit status when it failed."""
    with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--root", root, "--one", name,
             "--result", tmp.name],
            stdout=subprocess.DEVNULL)
        return json.load(tmp) if proc.returncode == 0 else {"exit": proc.returncode}


MEDIAN_KEYS = ("wall_s", "cpu_s", "states_per_s", "edges_per_s", "peak_rss_mb", "bytes_per_state")


def summarize(results):
    """The median of each of `MEDIAN_KEYS` over one side's runs."""
    out = {}
    for key in MEDIAN_KEYS:
        vals = [r[key] for r in results if r.get(key) is not None]
        if vals:
            out[key] = statistics.median(vals)
    return out


def measure(name, roots, pairs):
    """`pairs` pairs of runs of entry `name`, one per side in `roots` (side
    -> checkout), the first side alternating; the entry's report."""
    sides = list(roots)
    runs = {side: [] for side in sides}
    wins = 0
    for k in range(pairs):
        order = sides if k % 2 == 0 else sides[::-1]
        for side in order:
            runs[side].append(run_child(name, roots[side]))
        if len(sides) == 2:
            parent, change = runs["parent"][-1], runs["change"][-1]
            wins += change.get("wall_s", float("inf")) < parent.get("wall_s", float("inf"))
        print("%-42s pair %d: %s" % (name, k + 1, "  ".join(
            "%s %s s" % (side, runs[side][-1].get("wall_s")) for side in sides)),
            file=sys.stderr)
    report = {side: {"median": summarize(runs[side]), "runs": runs[side]} for side in sides}
    if len(sides) == 2:
        report["change_wins"] = wins
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.dirname(HERE), help="the change's checkout")
    ap.add_argument("--parent", help="the parent's checkout")
    ap.add_argument("--out", help="JSON file the report is merged into")
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--only", action="append", choices=sorted(RUNS),
                    help="measure this entry only (repeatable)")
    ap.add_argument("--one", choices=sorted(RUNS), help=argparse.SUPPRESS)
    ap.add_argument("--result", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        # a child: run one entry, write its result where the parent reads it
        result = run_one(args.one, os.path.abspath(args.root))
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0
    if not args.out:
        ap.error("--out is required")

    roots = {"change": os.path.abspath(args.root)}
    if args.parent:
        roots = {"parent": os.path.abspath(args.parent), **roots}
    doc = {"sides": {}, "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["pairs"] = args.pairs
    doc["sides"] = {side: {"commit": commit(root), "machine": machine(),
                           "date": time.strftime("%Y-%m-%d")}
                    for side, root in roots.items()}
    for name in args.only or RUNS:
        what, cfg = RUNS[name]
        doc["runs"][name] = dict(run=what, config=cfg, **measure(name, roots, args.pairs))
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
