#!/usr/bin/env python3
"""Regenerate the golden trace corpus and golden statistics.

Each golden trace is built from a high-level directed schedule (run_plan)
so the scenario it exercises is readable here, then frozen as a JSON-lines
trace with the final state hash in the header.  Tests replay the frozen
traces bit-for-bit and assert each scenario's conclusion.

Run from the repository root:  python3 tools/make_golden.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rclab import checker, simulator  # noqa: E402
from rclab.config import ExperimentConfig  # noqa: E402
from rclab.core import digest  # noqa: E402
from rclab.experiment import Experiment  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "..", "tests", "golden")
CASES = os.path.join(GOLDEN, "cases")


FIG1 = dict(
    program="fig1", n=2, proposals=[10, 20], failure="simultaneous",
    budget=1, monitor=True,
)
FIG2 = dict(
    program="fig2", n=2, f=1, proposals=[10, 20], failure="independent",
    budget=1, monitor=True,
)
FIG1_TAS = dict(FIG1, cons="tas")
FIG2_TAS = dict(FIG2, cons="tas")

# name -> (config dict, plan)
TRACES = {
    # fig1 agreement, decision recorded in D: one trace per return line.
    "fig1_ret_retd": (FIG1, [
        ("step", 1, 2), ("step", 2, 2),
        ("until_done", 1), ("until_done", 2),
    ]),
    "fig1_ret_recD": (FIG1, [
        ("until_done", 1), ("crash_all",),
        ("until_done", 2), ("until_done", 1),
    ]),
    "fig1_ret_inbotObot": (FIG1, [
        ("until_pc", 1, "x:C"), ("crash_all",),
        ("until_done", 1), ("until_done", 2),
    ]),
    "fig1_ret_ibotOnbot": (FIG1, [
        ("until_pc", 2, "x:C"), ("crash_all",),
        ("until_done", 1), ("until_done", 2),
    ]),
    "fig1_ret_inbotOnbot": (FIG1, [
        ("step", 1, 2), ("step", 2, 2), ("step", 1, 1), ("step", 2, 1),
        ("crash_all",),
        ("until_done", 1), ("until_done", 2),
    ]),
    # fig1 agreement, D never written: zero / one / two announcements.
    "fig1_noD_nowrites": (FIG1, [
        ("step", 1, 2), ("step", 2, 2),
    ]),
    "fig1_noD_onewrite": (FIG1, [
        ("until_pc", 2, "x:C"), ("crash_all",),
        ("until_done", 1), ("until_done", 2),
    ]),
    "fig1_noD_twowrites": (FIG1, [
        ("step", 1, 2), ("step", 2, 2), ("step", 1, 1), ("step", 2, 1),
        ("crash_all",),
        ("until_done", 1), ("until_done", 2),
    ]),
    # fig2 agreement: both terminate in iteration 0 / distinct iterations.
    "fig2_same_iter": (FIG2, [
        ("until_done", 1), ("until_done", 2),
    ]),
    "fig2_distinct_iters": (FIG2, [
        ("until_pc", 2, "xn:C"), ("crash", 2),
        ("until_done", 1), ("until_done", 2),
    ]),
    # fig2 wait-freedom: recovery after a crash past xn:inc, and the
    # forget-and-advance path when a faster process is observed.
    "fig2_recover_after_inc": (FIG2, [
        ("until_pc", 2, "xn:C"), ("crash", 2),
        ("until_done", 2),
    ]),
    "fig2_forget_decision": (FIG2, [
        ("until_pc", 1, "xn:ifp"),
        ("until_pc", 2, "xn:C"), ("crash", 2),
        ("until_pc", 2, "xn:forado"),
        ("until_done", 1), ("until_done", 2),
    ]),
    # The announce/TAS inner consensus (cons=tas): the TAS loser adopts
    # the winner's announcement, and a crash after announcing leaves the
    # instance to the other process.
    "fig1_tas_loser_reads": (FIG1_TAS, [
        ("step", 1, 2), ("step", 2, 2),
        ("until_pc", 1, "x:C.tas"), ("until_pc", 2, "x:C.tas"),
        ("step", 2, 1), ("step", 1, 1),
        ("until_done", 1), ("until_done", 2),
    ]),
    "fig1_tas_crash_after_wA": (FIG1_TAS, [
        ("until_pc", 1, "x:C.tas"), ("crash_all",),
        ("until_done", 2), ("until_done", 1),
    ]),
    "fig2_tas_loser_reads": (FIG2_TAS, [
        ("until_pc", 1, "xn:C.tas"), ("until_pc", 2, "xn:C.tas"),
        ("step", 1, 1), ("step", 2, 1),
        ("until_done", 2), ("until_done", 1),
    ]),
    "fig2_tas_crash_after_wA": (FIG2_TAS, [
        ("until_pc", 2, "xn:C.tas"), ("crash", 2),
        ("until_done", 1), ("until_done", 2),
    ]),
}


def make_traces(out_dir=CASES):
    """Write one `<name>.jsonl` per entry of TRACES into `out_dir`."""
    os.makedirs(out_dir, exist_ok=True)
    for name, (cfg_dict, plan) in sorted(TRACES.items()):
        exp = Experiment(ExperimentConfig.from_dict(dict(cfg_dict)))
        labels = simulator.run_plan(exp, plan)
        trace, final = simulator.run(exp, labels)
        path = os.path.join(out_dir, name + ".jsonl")
        simulator.write_trace(trace, path, final_hash=digest(final))
        print("wrote %s (%d steps, returns=%s)"
              % (path, len(labels), final.returns))


FIG2_GRID = [
    (n, f, cons, order)
    for (n, f) in ((2, 0), (2, 1), (2, 2), (3, 1))
    for cons in ("atomic", "tas")
    if not (cons == "tas" and n != 2)
    for order in ("asc", "desc")
]


def make_stats():
    stats = {"fig2": {}, "bounds": {}}
    for n, f, cons, order in FIG2_GRID:
        cfg = ExperimentConfig(
            program="fig2", n=n, f=f,
            proposals=list(range(10, 10 + 10 * n, 10)),
            failure="independent", budget=f, cons=cons, scan_order=order,
            monitor=True,
        )
        verdict = checker.explore(cfg)
        assert verdict.passed, (cfg, verdict)
        key = "n=%d,f=%d,cons=%s,scan=%s" % (n, f, cons, order)
        stats["fig2"][key] = {
            "states": verdict.stats["states"],
            "edges": verdict.stats["edges"],
            "terminal_executions": verdict.stats["terminal_executions"],
            "max_attempt_steps": verdict.stats["max_attempt_steps"],
        }
        print(key, stats["fig2"][key])

    # Certify static per-attempt bounds: the exhaustive maximum must equal
    # the closed-form bound for every built-in machine.
    oracle = [
        ("fig1", dict(program="fig1", n=2, proposals=[10, 20],
                      failure="simultaneous", budget=2)),
        ("fig1-tas", dict(program="fig1", n=2, proposals=[10, 20],
                          failure="simultaneous", budget=2, cons="tas")),
        ("fig2-2-1", dict(program="fig2", n=2, f=1, proposals=[10, 20],
                          failure="independent", budget=1)),
        ("fig3", dict(program="fig3", n=2, proposals=[10, 20],
                      failure="independent", budget=2)),
        ("cas-rc", dict(program="cas-rc", n=2, proposals=[10, 20],
                        failure="independent", budget=2)),
        ("tas-cons2", dict(program="tas-cons2", n=2, proposals=[10, 20])),
    ]
    for name, cfg_dict in oracle:
        exp = Experiment(ExperimentConfig.from_dict(dict(cfg_dict)))
        verdict = checker.explore(exp)
        stats["bounds"][name] = {
            "static": exp.machine.bound(),
            "observed_max": verdict.stats["max_attempt_steps"],
        }
        print(name, stats["bounds"][name])

    os.makedirs(GOLDEN, exist_ok=True)
    with open(os.path.join(GOLDEN, "stats.json"), "w") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    make_traces()
    make_stats()
