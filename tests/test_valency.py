"""Execution graphs, valency classification, critical states."""

import gc
import hashlib
import itertools
import os
import re
from collections import deque

import pytest

from rclab import valency
from rclab.checker import explore
from rclab.config import ExperimentConfig
from rclab.core import ORDINARY, RcError, crash, ordinary
from rclab.programs import Fig3Machine
from rclab.valency import (
    ValencyLabel,
    build_graph,
    classify,
    crash_decision_edges,
    find_critical,
    summary,
    to_dot,
)

from conftest import DIFFERENTIAL_CONFIGS, fig3_never_yields, make_config

# fig2 n=2 `cons=tas` with budget f = 1 is DIFFERENTIAL_CONFIGS' fig2-2-1-tas;
# f = 2 is perfbench's `valency` workload
GRAPH_CONFIGS = dict(
    DIFFERENTIAL_CONFIGS,
    **{"fig2-2-%d-tas-monitor" % f: dict(program="fig2", f=f, cons="tas",
                                         failure="independent", budget=f, monitor=True)
       for f in (0, 2)},
    **{"fig1-tas-a1": dict(cons="tas", failure="independent", adversary="assumption1")},
)

# nodes, terminals, bivalent, critical, crash-decision edges
PINNED_SUMMARIES = {
    "cas-rc-b3": (1464, 260, 10, 4, 0),
    "fig1-tas-a1": (197, 19, 31, 0, 0),
    "fig1-tas-b1": (1364, 98, 39, 2, 13),
    "fig2-2-0-tas-monitor": (66, 4, 16, 1, 0),
    "fig2-2-1-atomic": (1487, 68, 109, 6, 12),
    "fig2-2-1-tas": (2218, 88, 236, 6, 16),
    "fig2-2-2-tas-monitor": (50050, 1424, 2588, 44, 220),
    "fig3-b1": (648, 52, 48, 4, 2),
}


# sum(len(edges) for edges in g.adj.values()): the edges perfbench and
# tools/ladder.py count
PINNED_EDGE_COUNTS = {
    "cas-rc-b3": 2334,
    "fig1-tas-a1": 298,
    "fig1-tas-b1": 2215,
    "fig2-2-0-tas-monitor": 106,
    "fig2-2-1-atomic": 2620,
    "fig2-2-1-tas": 3952,
    "fig2-2-2-tas-monitor": 92500,
    "fig3-b1": 1110,
}


# sha256 of `to_dot`'s text; fig3-b1 is configs/fig3-valency.json
PINNED_DOT_SHA256 = {
    "cas-rc-b3": "5c911332e6e2eee3b8887645bcf99b8d2a9c2b576691cda5ec10aa975148a38c",
    "fig1-tas-a1": "5540fa4b5509886e5bef39fe2447678c12d282d8752cae7a38342dc09ecc0317",
    "fig1-tas-b1": "3ae4a2649531c92f188c12850502e7329f46ad31f35e34662dd58741070401dc",
    "fig2-2-0-tas-monitor": "b961b9210d9c3722a9635a4ceed3297bb6c691102a3b4b6df57faa5677669118",
    "fig2-2-1-atomic": "4524120b52a51c6f5e81b639a929052d3741ae2f73ec0730d61eb5b6023b3ac0",
    "fig2-2-1-tas": "5d4a78a8755e8276e7d9bc0520750db900d6db81092a9859f9da353dab47ced2",
    "fig2-2-2-tas-monitor": "57165a95e6552bfcc1481ed9310ce8acc3f662551122301879a705d9b2043950",
    "fig3-b1": "31777236a54b0c8bef4d2a324db8a7f502a50807132a6e0fccdef60f171405d4",
}


@pytest.fixture(scope="module", params=sorted(GRAPH_CONFIGS))
def named_graph(request):
    return request.param, build_graph(make_config(**GRAPH_CONFIGS[request.param]))


def reference_labels(g):
    """The valency label of every node, by node id, folded from the
    terminals up over whole states, with the class rule written out again."""
    potent = {}
    stack = [0]
    while stack:
        nid = stack[-1]
        pending = [child for _lab, child in g.edges(nid) if child not in potent]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        vals = {v for _p, _a, v in g.exp.materialize(g.nodes[nid]).returns}
        for _lab, child in g.edges(nid):
            vals |= potent[child]
        potent[nid] = frozenset(vals)
    cfg = g.exp.config
    two_way = cfg.n == 2 and len(set(cfg.proposals)) == 2

    def klass(p):
        if len(p) <= 1:
            return ("undecided", "univalent")[len(p)]
        return "bivalent" if two_way else "multivalent"

    return [ValencyLabel(potent[nid], klass(potent[nid])) for nid in range(len(g.nodes))]


def test_summary_is_pinned(named_graph):
    name, g = named_graph
    info = summary(g, classify(g))
    got = tuple(info[k] for k in ("nodes", "terminals", "bivalent_count",
                                  "critical_states", "crash_decision_edges"))
    assert got == PINNED_SUMMARIES[name]
    assert info["model"] == ("assumption1" if g.exp.a1 else "extended")


def test_every_child_is_its_nodes_key_object(named_graph):
    # a node id names one id state, and every edge ends at a node id
    _name, g = named_graph
    assert len(set(g.nodes)) == len(g.nodes)
    assert list(g.adj) == list(range(len(g.nodes)))
    for nid in g.adj:
        for _lab, child in g.edges(nid):
            assert 0 <= child < len(g.nodes)
    assert all(0 <= nid < len(g.nodes) for nid in g.terminals)


def test_node_ids_are_breadth_first(named_graph):
    _name, g = named_graph
    order = [0]
    seen = {0}
    queue = deque([0])
    while queue:
        for _lab, child in g.edges(queue.popleft()):
            if child not in seen:
                seen.add(child)
                order.append(child)
                queue.append(child)
    assert order == list(range(len(g.nodes)))


def test_edge_count_is_pinned(named_graph):
    name, g = named_graph
    assert sum(len(edges) for edges in g.adj.values()) == PINNED_EDGE_COUNTS[name]


def test_edges_decode_to_the_enabled_steps(named_graph):
    # every enabled step of every node, in `enabled_ids` order, to the node
    # of its successor
    _name, g = named_graph
    exp = g.exp
    ids = {state: nid for nid, state in enumerate(g.nodes)}
    for nid, state in enumerate(g.nodes):
        assert g.edges(nid) == [(lab, ids[exp.successor(state, lab)])
                                for lab in exp.enabled_ids(state)]


def test_collector_tracks_no_edge_tuple(named_graph):
    _name, g = named_graph
    gc.collect()
    assert not any(gc.is_tracked(edges) for edges in g.adj.values())


def test_dot_bytes_are_pinned(named_graph):
    name, g = named_graph
    dot = to_dot(g, classify(g))
    assert hashlib.sha256(dot.encode()).hexdigest() == PINNED_DOT_SHA256[name]


def test_classify_equals_reference_fold(named_graph):
    _name, g = named_graph
    assert classify(g) == reference_labels(g)


def test_fig3_crash_free_graph():
    g = build_graph(make_config(program="fig3"))
    labels = classify(g)
    assert not g.capped
    decided = set()
    for vals in g.terminals.values():
        decided |= vals
    assert decided == {10, 20}
    assert labels[0].klass == "bivalent"


def test_cas_rc_single_process_graph_is_linear():
    g = build_graph(make_config(program="cas-rc", n=1, proposals=[10]))
    assert len(g.terminals) == 1
    assert all(len(succ) <= 1 for succ in g.adj.values())
    labels = classify(g)
    assert all(lab.potent == frozenset({10}) for lab in labels)


def test_fig1_graph_node_count_matches_checker():
    from rclab import checker
    cfg = make_config(failure="simultaneous", budget=1)
    g = build_graph(cfg)
    verdict = checker.explore(cfg)
    assert len(g.nodes) == verdict.stats["states"]


def test_potency_shrinks_along_edges():
    g = build_graph(make_config(program="fig3", failure="independent",
                                budget=1))
    labels = classify(g)
    for nid in g.adj:
        for _step, child in g.edges(nid):
            assert labels[child].potent <= labels[nid].potent


def test_terminal_potency_is_what_was_decided():
    g = build_graph(make_config(program="tas-cons2"))
    labels = classify(g)
    for state, decided in g.terminals.items():
        assert labels[state].potent == decided


def test_classification_is_deterministic():
    cfg = make_config(program="fig3", failure="independent", budget=1)
    g = build_graph(cfg)
    assert classify(g) == classify(build_graph(cfg))


def test_single_proposal_has_no_bivalent_states():
    g = build_graph(make_config(program="tas-cons2", proposals=[10, 10]))
    labels = classify(g)
    assert all(lab.klass != "bivalent" for lab in labels)


def test_tas_cons2_critical_state_sits_on_the_tas_object():
    g = build_graph(make_config(program="tas-cons2"))
    labels = classify(g)
    crit = find_critical(g, labels)
    assert crit
    found = False
    for nid, succs in crit:
        if all(fr.pc == "t:tas" for fr in g.exp.materialize(g.nodes[nid]).frames):
            found = True
            # the two decision steps reach distinct decisions
            assert {val for _step, val in succs} == {10, 20}
    assert found


def test_crash_step_can_be_a_decision_step():
    cfg = make_config(program="fig3", failure="independent", budget=1)
    g = build_graph(cfg)
    labels = classify(g)
    edges = crash_decision_edges(g, labels)
    assert edges
    assert all(step.kind != ORDINARY for _s, step, _c in edges)


def test_node_cap_blocks_classification():
    g = build_graph(make_config(failure="simultaneous", budget=1, cap=10))
    assert g.capped and len(g.nodes) == 10
    assert all(child < len(g.nodes) for nid in g.adj for _lab, child in g.edges(nid))
    # the edges to held nodes, and only those, remain
    exp = g.exp
    ids = {state: nid for nid, state in enumerate(g.nodes)}
    dropped = 0
    for nid, state in enumerate(g.nodes):
        posts = [(lab, exp.successor(state, lab)) for lab in exp.enabled_ids(state)]
        assert g.edges(nid) == [(lab, ids[post]) for lab, post in posts if post in ids]
        dropped += sum(post not in ids for _lab, post in posts)
    assert dropped
    with pytest.raises(RcError):
        classify(g)


def test_summary_and_dot_output():
    cfg = make_config(program="tas-cons2")
    g = build_graph(cfg)
    labels = classify(g)
    info = summary(g, labels)
    assert info["nodes"] == len(g.nodes)
    assert info["model"] == "extended"
    dot = to_dot(g, labels)
    assert dot.startswith("digraph")
    lines = list(valency.dot_lines(g, labels))
    assert "".join(lines) == dot
    assert all(ln.count("\n") == 1 and ln.endswith("\n") for ln in lines)
    edge_lines = [ln for ln in dot.splitlines() if " -> " in ln]
    assert len(edge_lines) == sum(len(s) for s in g.adj.values())


def test_dot_labels_escape_quotes_and_backslashes():
    proposals = ['say "hi"', "a\\b"]
    g = build_graph(make_config(program="fig3", failure="independent", budget=1,
                                proposals=proposals))
    label = re.compile(r'\[label="((?:[^"\\]|\\.)*)"[,\]]')
    decided = set()
    for line in to_dot(g, classify(g)).splitlines():
        if "[label=" in line:
            m = label.search(line)
            assert m, line
            text = m.group(1)
            if "\\n-> " in text:
                decided.add(re.sub(r"\\(.)", r"\1", text.split("\\n-> ", 1)[1]))
    assert decided == {repr(p) for p in proposals}


def test_fig3_valency_narrative_states():
    # both processes poised to announce: bivalent; after p1 announces the
    # state stays bivalent; p1's CAS and p2's crash both settle on p1's
    # value; p1's crash and p2's announcement keep both outcomes open
    cfg = make_config(program="fig3", failure="independent", budget=1)
    g = build_graph(cfg)
    labels = classify(g)
    s = None
    for nid, state in enumerate(g.nodes):
        whole = g.exp.materialize(state)
        pcs = [fr.pc for fr in whole.frames]
        if pcs == ["ex:wP", "ex:wP"] and whole.failures == 0:
            s = nid
    assert s is not None and labels[s].klass == "bivalent"
    succ = dict(g.edges(s))
    s2 = succ[ordinary(1)]
    assert labels[s2].klass == "bivalent"
    outcomes = {step: labels[child] for step, child in g.edges(s2)}
    assert outcomes[ordinary(1)].klass == "univalent"
    assert outcomes[ordinary(1)].potent == frozenset({10})
    assert outcomes[crash(2)].klass == "univalent"
    assert outcomes[crash(2)].potent == frozenset({10})
    assert outcomes[ordinary(2)].klass == "bivalent"
    assert outcomes[crash(1)].klass == "bivalent"


def test_fig3_mutant_that_never_yields_is_caught_by_the_valency_pass_alone(monkeypatch):
    # the mutant decides safely, so every safety search passes; but a
    # crash no longer settles the race, which the valency summary shows
    monkeypatch.setattr(Fig3Machine, "step", fig3_never_yields(Fig3Machine.step))
    for failure, budget, mode in itertools.product(
            ("independent", "simultaneous"), (1, 2), ("rerun-after-crash", "halt-after-return")):
        assert explore(make_config(program="fig3", failure=failure, budget=budget,
                                   mode=mode)).passed
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "fig3-valency.json")
    g = build_graph(ExperimentConfig.from_file(path))
    got = summary(g, classify(g))
    # the correct fig3 has 648 nodes, 4 critical states and 2 crash-decision
    # edges (PINNED_SUMMARIES["fig3-b1"])
    assert (got["nodes"], got["critical_states"], got["crash_decision_edges"]) == (898, 10, 0)
