"""Execution-graph construction and valency classification.

A state is v-potent when some extension of the execution decides v; the
potent set of a state is therefore the union of decided values over all
reachable terminals plus anything already decided on the way in.  States
whose potent set is a singleton are univalent; with two processes and
two proposals a state with both values still reachable is bivalent, and
a bivalent state all of whose successors are univalent is critical."""

from __future__ import annotations

from collections import deque
from typing import Dict, List, NamedTuple, Tuple

from .core import ORDINARY, RcError, StepLabel, SystemState
from .experiment import Experiment, as_experiment


class ExecGraph(NamedTuple):
    exp: Experiment
    init: SystemState
    nodes: Dict[SystemState, int]  # state -> dense node id
    adj: Dict[SystemState, List[Tuple[StepLabel, SystemState]]]
    terminals: Dict[SystemState, frozenset]  # terminal -> decided values
    capped: bool


class ValencyLabel(NamedTuple):
    potent: frozenset
    klass: str  # "univalent" | "bivalent" | "multivalent" | "undecided"


def build_graph(x) -> ExecGraph:
    """Breadth-first graph of every reachable state, holding at most the
    config's `cap` nodes when it sets one."""
    exp = as_experiment(x)
    cap = exp.config.cap
    init = exp.initial_state()
    nodes = {init: 0}
    adj = {}
    terminals = {}
    capped = False
    queue = deque([init])
    while queue:
        state = queue.popleft()
        labels = exp.enabled_steps(state)
        if not labels:
            adj[state] = []
            terminals[state] = frozenset(v for _p, _a, v in state.returns)
            continue
        succ = []
        for lab in labels:
            post = exp.successor(state, lab)
            if post not in nodes:
                if cap is not None and len(nodes) >= cap:
                    capped = True
                    continue
                nodes[post] = len(nodes)
                queue.append(post)
            succ.append((lab, post))
        adj[state] = succ
    return ExecGraph(exp, init, nodes, adj, terminals, capped)


def _classify_set(potent: frozenset, exp: Experiment) -> str:
    if len(potent) == 0:
        return "undecided"
    if len(potent) == 1:
        return "univalent"
    if exp.config.n == 2 and len(set(exp.config.proposals)) == 2:
        return "bivalent"
    return "multivalent"


def classify(g: ExecGraph) -> Dict[SystemState, ValencyLabel]:
    """Backward propagation of decided values over the (acyclic) graph."""
    if g.capped:
        raise RcError("graph was truncated by the node cap; refusing to classify")
    potent: Dict[SystemState, frozenset] = {}

    # iterative post-order; every step strictly increases progress, so the
    # graph is a DAG and a plain visited set suffices
    stack = [(g.init, False)]
    seen = set()
    while stack:
        state, expanded = stack.pop()
        if expanded:
            vals = frozenset(v for _p, _a, v in state.returns)
            for _lab, child in g.adj[state]:
                vals |= potent[child]
            potent[state] = vals
            continue
        if state in seen:
            continue
        seen.add(state)
        stack.append((state, True))
        for _lab, child in g.adj[state]:
            if child not in seen:
                stack.append((child, False))
    return {s: ValencyLabel(p, _classify_set(p, g.exp)) for s, p in potent.items()}


def find_critical(g: ExecGraph, labels: Dict[SystemState, ValencyLabel]):
    """Bivalent states all of whose successors are univalent, with the
    per-successor decided value for each outgoing edge."""
    out = []
    for state, lab in labels.items():
        if lab.klass not in ("bivalent", "multivalent") or not g.adj[state]:
            continue
        succs = [(step, labels[child]) for step, child in g.adj[state]]
        if all(sl.klass == "univalent" for _s, sl in succs):
            out.append((state, [(step, next(iter(sl.potent))) for step, sl in succs]))
    return out


def crash_decision_edges(g: ExecGraph, labels: Dict[SystemState, ValencyLabel]):
    """Edges where a crash step moves the system from bivalent to univalent."""
    out = []
    for state, succ in g.adj.items():
        if labels[state].klass != "bivalent":
            continue
        for step, child in succ:
            if step.kind != ORDINARY and labels[child].klass == "univalent":
                out.append((state, step, child))
    return out


def summary(g: ExecGraph, labels: Dict[SystemState, ValencyLabel]) -> dict:
    crit = find_critical(g, labels)
    return {
        "nodes": len(g.nodes),
        "terminals": len(g.terminals),
        "bivalent_count": sum(1 for l in labels.values() if l.klass == "bivalent"),
        "critical_states": len(crit),
        "crash_decision_edges": len(crash_decision_edges(g, labels)),
        "model": "assumption1" if g.exp.a1 else "extended",
    }


def _node_desc(state: SystemState) -> str:
    return " / ".join(
        "p%d@%s#%d" % (fr.pid, fr.pc, fr.attempt) for fr in state.frames
    )


def to_dot(g: ExecGraph, labels: Dict[SystemState, ValencyLabel]) -> str:
    colors = {
        "univalent": "lightblue",
        "bivalent": "orange",
        "multivalent": "gold",
        "undecided": "gray",
    }
    lines = ["digraph executions {", "  rankdir=TB;", "  node [style=filled];"]
    for state, nid in g.nodes.items():
        lab = labels[state]
        text = _node_desc(state)
        if lab.klass == "univalent":
            text += "\\n-> %r" % (next(iter(lab.potent)),)
        shape = "doublecircle" if state in g.terminals else "box"
        lines.append(
            '  n%d [label="%s", fillcolor=%s, shape=%s];'
            % (nid, text, colors[lab.klass], shape)
        )
    for state, succ in g.adj.items():
        for step, child in succ:
            lines.append(
                '  n%d -> n%d [label="%s"];' % (g.nodes[state], g.nodes[child], step)
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
