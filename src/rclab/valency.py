"""Execution-graph construction and valency classification.

A state is v-potent when some extension of the execution decides v; the
potent set of a state is therefore the union of decided values over all
reachable terminals plus anything already decided on the way in.  States
whose potent set is a singleton are univalent; with two processes and
two proposals a state with both values still reachable is bivalent, and
a bivalent state all of whose successors are univalent is critical.

The graph's nodes are dense ints in breadth-first order, node 0 the
initial state.  `g.nodes[i]` is node i's id state (see `experiment`) and
`g.exp.materialize` the `SystemState` it stands for; every pass after the
build indexes lists and dicts by node id.  The `labels` they take are
`classify`'s list for that same graph."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .core import ORDINARY, RcError, StepLabel
from .experiment import Experiment, as_experiment


IdState = Tuple[int, ...]


class ExecGraph(NamedTuple):
    """The reachable graph of `exp`: `nodes` maps a node id to its id
    state, `adj` every node id to its (step, child node id) edges, and
    `terminals` a terminal's node id to the values decided there."""

    exp: Experiment
    nodes: List[IdState]
    adj: Dict[int, List[Tuple[StepLabel, int]]]
    terminals: Dict[int, frozenset]
    capped: bool


class ValencyLabel(NamedTuple):
    potent: frozenset
    klass: str  # "univalent" | "bivalent" | "multivalent" | "undecided"


def _decided(exp: Experiment, state: IdState) -> frozenset:
    """The values returned in id state `state`."""
    return frozenset(v for _p, _a, v in exp.others_by_id[state[exp.n + 1]][1])


def build_graph(x) -> ExecGraph:
    """Breadth-first graph of every reachable state, holding at most the
    config's `cap` nodes when it sets one."""
    exp = as_experiment(x)
    cap = exp.config.cap
    nodes = [exp.intern(exp.initial_state())]
    ids = {nodes[0]: 0}  # id state -> node id, only while building
    adj = {}
    terminals = {}
    capped = False
    # `nodes` grows while it is walked: it is the breadth-first queue
    for nid, state in enumerate(nodes):
        labels = exp.enabled_ids(state)
        if not labels:
            adj[nid] = []
            terminals[nid] = _decided(exp, state)
            continue
        succ = []
        for lab in labels:
            post = exp.successor(state, lab)
            fresh = len(nodes)
            child = ids.setdefault(post, fresh)
            if child == fresh:
                if cap is not None and fresh >= cap:
                    del ids[post]
                    capped = True
                    continue
                nodes.append(post)
            succ.append((lab, child))
        adj[nid] = succ
    return ExecGraph(exp, nodes, adj, terminals, capped)


def _classify_set(potent: frozenset, exp: Experiment) -> str:
    if len(potent) == 0:
        return "undecided"
    if len(potent) == 1:
        return "univalent"
    if exp.config.n == 2 and len(set(exp.config.proposals)) == 2:
        return "bivalent"
    return "multivalent"


def classify(g: ExecGraph) -> List[ValencyLabel]:
    """The label of every node, by node id, from a backward propagation
    of decided values over the (acyclic) graph; nodes with equal potent
    sets share one `ValencyLabel`."""
    if g.capped:
        raise RcError("graph was truncated by the node cap; refusing to classify")
    adj = g.adj
    nodes = g.nodes
    exp = g.exp
    done = [None] * len(nodes)
    shared = {}  # potent set -> its label

    # iterative post-order, children last to first; every step strictly
    # increases progress, so the graph is a DAG and a child met again is done
    stack = [(0, reversed(adj[0]))]
    while stack:
        nid, todo = stack[-1]
        for _lab, child in todo:
            if done[child] is None:
                stack.append((child, reversed(adj[child])))
                break
        else:
            stack.pop()
            potent = _decided(exp, nodes[nid]).union(
                *[done[child].potent for _lab, child in adj[nid]])
            lab = shared.get(potent)
            if lab is None:
                lab = shared[potent] = ValencyLabel(potent, _classify_set(potent, exp))
            done[nid] = lab
    return done


def find_critical(g: ExecGraph, labels: List[ValencyLabel]):
    """Bivalent nodes all of whose successors are univalent, with the
    per-successor decided value for each outgoing edge."""
    out = []
    for nid, lab in enumerate(labels):
        if lab.klass not in ("bivalent", "multivalent"):
            continue
        succs = [(step, labels[child]) for step, child in g.adj[nid]]
        if succs and all(sl.klass == "univalent" for _s, sl in succs):
            out.append((nid, [(step, next(iter(sl.potent))) for step, sl in succs]))
    return out


def crash_decision_edges(g: ExecGraph, labels: List[ValencyLabel]):
    """Edges, as (node id, step, child node id), where a crash step moves
    the system from bivalent to univalent."""
    out = []
    for nid, succ in g.adj.items():
        if labels[nid].klass != "bivalent":
            continue
        for step, child in succ:
            if step.kind != ORDINARY and labels[child].klass == "univalent":
                out.append((nid, step, child))
    return out


def summary(g: ExecGraph, labels: List[ValencyLabel]) -> dict:
    crit = find_critical(g, labels)
    return {
        "nodes": len(g.nodes),
        "terminals": len(g.terminals),
        "bivalent_count": sum(1 for l in labels if l.klass == "bivalent"),
        "critical_states": len(crit),
        "crash_decision_edges": len(crash_decision_edges(g, labels)),
        "model": "assumption1" if g.exp.a1 else "extended",
    }


def _node_desc(exp: Experiment, state: IdState) -> str:
    frames = exp.frames_by_id
    return " / ".join("p%d@%s#%d" % (fr.pid, fr.pc, fr.attempt)
                      for fr in (frames[f] for f in state[:exp.n]))


def to_dot(g: ExecGraph, labels: List[ValencyLabel]) -> str:
    return "".join(dot_lines(g, labels))


def dot_lines(g: ExecGraph, labels: List[ValencyLabel]):
    """The lines of `to_dot`'s text, each ending in a newline, made one at
    a time, so that a caller can write them out without holding them."""
    colors = {
        "univalent": "lightblue",
        "bivalent": "orange",
        "multivalent": "gold",
        "undecided": "gray",
    }
    yield "digraph executions {\n"
    yield "  rankdir=TB;\n"
    yield "  node [style=filled];\n"
    for nid, state in enumerate(g.nodes):
        lab = labels[nid]
        text = _node_desc(g.exp, state)
        if lab.klass == "univalent":
            # a string proposal's repr may hold `"` or `\`, special in DOT
            value = repr(next(iter(lab.potent)))
            text += "\\n-> " + value.replace("\\", "\\\\").replace('"', '\\"')
        shape = "doublecircle" if nid in g.terminals else "box"
        yield ('  n%d [label="%s", fillcolor=%s, shape=%s];\n'
               % (nid, text, colors[lab.klass], shape))
    for nid, succ in g.adj.items():
        for step, child in succ:
            yield '  n%d -> n%d [label="%s"];\n' % (nid, child, step)
    yield "}\n"
