"""The four benchmark workloads and the pinned outputs each pass is checked
against.

Every workload is a batch job for one caller: a pass runs one fixed model-
checking job through rclab's public API and returns how much work it did
and how many of its outputs differ from the pinned values.  The seed only
permutes which process proposes which value (and, for `replay`, draws the
schedules).  Proposals are distinct and no built-in machine orders them,
so a permutation is a relabelling of values: it maps the state graph onto
itself and leaves every pinned count unchanged.
"""

from __future__ import annotations

import json
import os
import time
from typing import List, NamedTuple

GOLDEN_STATS = os.path.join("tests", "golden", "stats.json")


class Pass(NamedTuple):
    states: int  # states produced: explored states, graph nodes, trace steps
    edges: int  # transitions: explored edges, adjacency edges, steps applied
    attempted: int  # outputs checked
    failed: int  # outputs that differ from the pinned values
    retained: int  # states alive at the end of the pass (0: none kept)
    hits: int  # edges that reached an already-seen state
    unit_ms: List[float]  # per-trace round-trip latency (replay only)


def _golden(root, key):
    with open(os.path.join(root, GOLDEN_STATS)) as fh:
        return json.load(fh)["fig2"][key]


def _fig2(n, f, cons, budget):
    return dict(program="fig2", n=n, f=f, cons=cons, failure="independent",
                budget=budget, scan_order="asc", monitor=True)


class Workload:
    name = ""
    templates: list = []  # config dicts without proposals

    def configs(self, rng):
        """Config dicts for this seed: the templates with the proposals
        10, 20[, 30] in a seed-chosen order."""
        out = []
        for tpl in self.templates:
            props = [10 * (i + 1) for i in range(tpl["n"])]
            rng.shuffle(props)
            out.append(dict(tpl, proposals=props))
        return out

    def prepare(self, lib, exps, root):
        """Untimed work done once per process before the passes."""

    def run(self, lib, exps, rng, clock=time.perf_counter) -> Pass:
        """One pass; `clock` times whatever the pass times itself."""
        raise NotImplementedError


class ExploreMemo(Workload):
    name = "explore-memo"
    templates = [_fig2(3, 1, "atomic", 1)]

    def prepare(self, lib, exps, root):
        self.expected = _golden(root, "n=3,f=1,cons=atomic,scan=asc")

    def run(self, lib, exps, rng, clock=time.perf_counter):
        v = lib.checker.explore(exps[0], memo=True)
        ok = v.result == "pass" and v.stats == self.expected
        st = v.stats
        return Pass(st["states"], st["edges"], 1, int(not ok), st["states"],
                    st["edges"] - st["states"] + 1, [])


class ExploreNoMemo(Workload):
    name = "explore-nomemo"
    templates = [dict(program="fig1", n=2, cons="atomic", failure="simultaneous",
                      budget=1, monitor=True)]
    expected = {"states": 586824, "edges": 586823, "terminal_executions": 163070}

    def prepare(self, lib, exps, root):
        # memo and no-memo exploration must count the same executions
        v = lib.checker.explore(exps[0], memo=True)
        self.memo_terminals = v.stats["terminal_executions"] if v.passed else None

    def run(self, lib, exps, rng, clock=time.perf_counter):
        v = lib.checker.explore(exps[0], memo=False)
        got = {k: v.stats[k] for k in self.expected}
        ok = (v.result == "pass" and got == self.expected
              and got["terminal_executions"] == self.memo_terminals)
        return Pass(v.stats["states"], v.stats["edges"], 1, int(not ok), 0, 0, [])


class Valency(Workload):
    name = "valency"
    templates = [_fig2(2, 2, "tas", 2)]
    expected = {"nodes": 50050, "terminals": 1424, "bivalent_count": 2588,
                "critical_states": 44, "crash_decision_edges": 220, "model": "extended"}

    def prepare(self, lib, exps, root):
        self.explore_states = _golden(root, "n=2,f=2,cons=tas,scan=asc")["states"]

    def run(self, lib, exps, rng, clock=time.perf_counter):
        g = lib.valency.build_graph(exps[0])
        s = lib.valency.summary(g, lib.valency.classify(g))
        ok = s == self.expected and s["nodes"] == self.explore_states
        edges = sum(len(succ) for succ in g.adj.values())
        return Pass(s["nodes"], edges, 1, int(not ok), s["nodes"], edges - s["nodes"] + 1, [])


class Replay(Workload):
    name = "replay"
    # the four configs of acceptance criterion 9
    templates = [
        dict(program="fig1", n=2, failure="simultaneous", budget=2, monitor=True),
        _fig2(2, 1, "atomic", 1),
        dict(program="fig3", n=2, failure="independent", budget=1, monitor=True),
        dict(program="cas-rc", n=2, failure="independent", budget=3, monitor=True),
    ]
    traces_per_config = 50

    def run(self, lib, exps, rng, clock=time.perf_counter):
        sim, digest = lib.simulator, lib.core.digest
        steps = failed = 0
        unit_ms = []
        for exp in exps:
            for _ in range(self.traces_per_config):
                start = clock()
                labels, final = sim.random_run(exp, rng)
                trace, _ = sim.run(exp, labels)
                res = sim.replay(sim.dump_trace(trace, final_hash=digest(final)))
                # independent re-digest of every intermediate state
                state = exp.initial_state()
                digests = [digest(state)]
                for lab in labels:
                    state, _ = exp.apply_step(state, lab)
                    digests.append(digest(state))
                ok = res.header_hash is not None and res.matches_header and res.digests == tuple(digests)
                unit_ms.append((clock() - start) * 1e3)
                steps += len(labels)
                failed += not ok
        # every trace step is applied four times: random_run, run, replay
        # and the re-digest
        return Pass(steps, 4 * steps, len(unit_ms), failed, 0, 0, unit_ms)


WORKLOADS = {w.name: w for w in (ExploreMemo(), ExploreNoMemo(), Valency(), Replay())}
