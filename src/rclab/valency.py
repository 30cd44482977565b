"""Execution-graph construction and valency classification.

A state is v-potent when some extension of the execution decides v; the
potent set of a state is therefore the union of decided values over all
reachable terminals plus anything already decided on the way in.  States
whose potent set is a singleton are univalent; with two processes and
two proposals a state with both values still reachable is bivalent, and
a bivalent state all of whose successors are univalent is critical.

The graph's nodes are id states (see `experiment`): tuples of a few ints,
each standing for one full state, which hash cheaply, so the passes over
the graph key their dicts by the states themselves.  The `labels` they
take are `classify`'s mapping for that same graph; `g.exp.materialize`
gives the `SystemState` a node stands for."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .core import ORDINARY, RcError, StepLabel
from .experiment import Experiment, as_experiment


IdState = Tuple[int, ...]


class ExecGraph(NamedTuple):
    """The reachable graph over id states of `exp`.  Every id state in
    `adj`, as a key or a child, is its node's key object in `nodes`; node
    ids are dense, in breadth-first order."""

    exp: Experiment
    init: IdState
    nodes: Dict[IdState, int]  # state -> dense node id
    adj: Dict[IdState, List[Tuple[StepLabel, IdState]]]
    terminals: Dict[IdState, frozenset]  # terminal -> decided values
    capped: bool


class ValencyLabel(NamedTuple):
    potent: frozenset
    klass: str  # "univalent" | "bivalent" | "multivalent" | "undecided"


def build_graph(x) -> ExecGraph:
    """Breadth-first graph of every reachable state, holding at most the
    config's `cap` nodes when it sets one."""
    exp = as_experiment(x)
    cap = exp.config.cap
    others = exp.others_by_id
    n = exp.n
    init = exp.intern(exp.initial_state())
    nodes = {init: 0}
    order = [init]  # node id -> the node's key object
    adj = {}
    terminals = {}
    capped = False
    # `order` grows while it is walked: it is the breadth-first queue
    for state in order:
        labels = exp.enabled_ids(state)
        if not labels:
            adj[state] = []
            terminals[state] = frozenset(v for _p, _a, v in others[state[n + 1]][1])
            continue
        succ = []
        for lab in labels:
            post = exp.successor(state, lab)
            fresh = len(order)
            nid = nodes.setdefault(post, fresh)
            if nid != fresh:
                post = order[nid]  # an equal duplicate is dropped here
            elif cap is not None and fresh >= cap:
                del nodes[post]
                capped = True
                continue
            else:
                order.append(post)
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


def classify(g: ExecGraph) -> Dict[IdState, ValencyLabel]:
    """Backward propagation of decided values over the (acyclic) graph;
    states with equal potent sets share one `ValencyLabel`.  The labels
    are in post-order."""
    if g.capped:
        raise RcError("graph was truncated by the node cap; refusing to classify")
    adj = g.adj
    others = g.exp.others_by_id
    n = g.exp.n
    done = {}  # state -> its label, in post-order
    shared = {}  # potent set -> its label

    # iterative post-order, children last to first; every step strictly
    # increases progress, so the graph is a DAG and a child met again is done
    stack = [(g.init, reversed(adj[g.init]))]
    while stack:
        state, todo = stack[-1]
        for _lab, child in todo:
            if child not in done:
                stack.append((child, reversed(adj[child])))
                break
        else:
            stack.pop()
            potent = frozenset(v for _p, _a, v in others[state[n + 1]][1]).union(
                *[done[child].potent for _lab, child in adj[state]])
            lab = shared.get(potent)
            if lab is None:
                lab = shared[potent] = ValencyLabel(potent, _classify_set(potent, g.exp))
            done[state] = lab
    return done


def find_critical(g: ExecGraph, labels: Dict[IdState, ValencyLabel]):
    """Bivalent states all of whose successors are univalent, with the
    per-successor decided value for each outgoing edge."""
    out = []
    for state, lab in labels.items():
        if lab.klass not in ("bivalent", "multivalent"):
            continue
        succs = [(step, labels[child]) for step, child in g.adj[state]]
        if succs and all(sl.klass == "univalent" for _s, sl in succs):
            out.append((state, [(step, next(iter(sl.potent))) for step, sl in succs]))
    return out


def crash_decision_edges(g: ExecGraph, labels: Dict[IdState, ValencyLabel]):
    """Edges where a crash step moves the system from bivalent to univalent."""
    out = []
    for state, succ in g.adj.items():
        if labels[state].klass != "bivalent":
            continue
        for step, child in succ:
            if step.kind != ORDINARY and labels[child].klass == "univalent":
                out.append((state, step, child))
    return out


def summary(g: ExecGraph, labels: Dict[IdState, ValencyLabel]) -> dict:
    crit = find_critical(g, labels)
    return {
        "nodes": len(g.nodes),
        "terminals": len(g.terminals),
        "bivalent_count": sum(1 for l in labels.values() if l.klass == "bivalent"),
        "critical_states": len(crit),
        "crash_decision_edges": len(crash_decision_edges(g, labels)),
        "model": "assumption1" if g.exp.a1 else "extended",
    }


def _node_desc(exp: Experiment, state: IdState) -> str:
    frames = exp.frames_by_id
    return " / ".join("p%d@%s#%d" % (fr.pid, fr.pc, fr.attempt)
                      for fr in (frames[f] for f in state[:exp.n]))


def to_dot(g: ExecGraph, labels: Dict[IdState, ValencyLabel]) -> str:
    return "".join(dot_lines(g, labels))


def dot_lines(g: ExecGraph, labels: Dict[IdState, ValencyLabel]):
    """The lines of `to_dot`'s text, each ending in a newline, made one at
    a time, so that a caller can write them out without holding them."""
    colors = {
        "univalent": "lightblue",
        "bivalent": "orange",
        "multivalent": "gold",
        "undecided": "gray",
    }
    nodes = g.nodes
    yield "digraph executions {\n"
    yield "  rankdir=TB;\n"
    yield "  node [style=filled];\n"
    for state, nid in nodes.items():
        lab = labels[state]
        text = _node_desc(g.exp, state)
        if lab.klass == "univalent":
            text += "\\n-> %r" % (next(iter(lab.potent)),)
        shape = "doublecircle" if state in g.terminals else "box"
        yield ('  n%d [label="%s", fillcolor=%s, shape=%s];\n'
               % (nid, text, colors[lab.klass], shape))
    for state, succ in g.adj.items():
        for step, child in succ:
            yield '  n%d -> n%d [label="%s"];\n' % (nodes[state], nodes[child], step)
    yield "}\n"
