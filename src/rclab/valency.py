"""Execution-graph construction and valency classification.

A state is v-potent when some extension of the execution decides v; the
potent set of a state is therefore the union of decided values over all
reachable terminals plus anything already decided on the way in.  States
whose potent set is a singleton are univalent; with two processes and
two proposals a state with both values still reachable is bivalent, and
a bivalent state all of whose successors are univalent is critical.

The graph holds each state once (see `ExecGraph`), so the passes over it
find a child's node id and label by object identity, in dicts keyed by
`id(state)` that hash no state: the `labels` they take are `classify`'s
mapping for that same graph."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .core import ORDINARY, RcError, StepLabel, SystemState
from .experiment import Experiment, as_experiment


class ExecGraph(NamedTuple):
    """Every state object in `adj`, as a key or a child, is its node's key
    object in `nodes`; node ids are dense, in breadth-first order."""

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
    order = [init]  # node id -> the node's key object
    adj = {}
    terminals = {}
    capped = False
    # `order` grows while it is walked: it is the breadth-first queue
    for state in order:
        labels = exp.enabled_steps(state)
        if not labels:
            adj[state] = []
            terminals[state] = frozenset(v for _p, _a, v in state.returns)
            continue
        succ = []
        for lab in labels:
            post = exp.apply_step(state, lab)[0]
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


def classify(g: ExecGraph) -> Dict[SystemState, ValencyLabel]:
    """Backward propagation of decided values over the (acyclic) graph;
    states with equal potent sets share one `ValencyLabel`."""
    if g.capped:
        raise RcError("graph was truncated by the node cap; refusing to classify")
    adj = {id(s): succ for s, succ in g.adj.items()}
    done = {}  # id(state) -> its label
    shared = {}  # potent set -> its label
    out = {}  # state -> its label, in post-order

    # iterative post-order, children last to first; every step strictly
    # increases progress, so the graph is a DAG and a child met again is done
    stack = [(g.init, reversed(adj[id(g.init)]))]
    while stack:
        state, todo = stack[-1]
        for _lab, child in todo:
            if id(child) not in done:
                stack.append((child, reversed(adj[id(child)])))
                break
        else:
            stack.pop()
            potent = frozenset(v for _p, _a, v in state.returns).union(
                *[done[id(child)].potent for _lab, child in adj[id(state)]])
            lab = shared.get(potent)
            if lab is None:
                lab = shared[potent] = ValencyLabel(potent, _classify_set(potent, g.exp))
            done[id(state)] = out[state] = lab
    return out


def find_critical(g: ExecGraph, labels: Dict[SystemState, ValencyLabel]):
    """Bivalent states all of whose successors are univalent, with the
    per-successor decided value for each outgoing edge."""
    by_id = {id(s): lab for s, lab in labels.items()}
    out = []
    for state, lab in labels.items():
        if lab.klass not in ("bivalent", "multivalent"):
            continue
        succs = [(step, by_id[id(child)]) for step, child in g.adj[state]]
        if succs and all(sl.klass == "univalent" for _s, sl in succs):
            out.append((state, [(step, next(iter(sl.potent))) for step, sl in succs]))
    return out


def crash_decision_edges(g: ExecGraph, labels: Dict[SystemState, ValencyLabel]):
    """Edges where a crash step moves the system from bivalent to univalent."""
    by_id = {id(s): lab for s, lab in labels.items()}
    out = []
    for state, succ in g.adj.items():
        if by_id[id(state)].klass != "bivalent":
            continue
        for step, child in succ:
            if step.kind != ORDINARY and by_id[id(child)].klass == "univalent":
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
    return "".join(dot_lines(g, labels))


def dot_lines(g: ExecGraph, labels: Dict[SystemState, ValencyLabel]):
    """The lines of `to_dot`'s text, each ending in a newline, made one at
    a time, so that a caller can write them out without holding them."""
    colors = {
        "univalent": "lightblue",
        "bivalent": "orange",
        "multivalent": "gold",
        "undecided": "gray",
    }
    ids = {id(s): nid for s, nid in g.nodes.items()}
    by_id = {id(s): lab for s, lab in labels.items()}
    terminal = {id(s) for s in g.terminals}
    yield "digraph executions {\n"
    yield "  rankdir=TB;\n"
    yield "  node [style=filled];\n"
    for state, nid in g.nodes.items():
        lab = by_id[id(state)]
        text = _node_desc(state)
        if lab.klass == "univalent":
            text += "\\n-> %r" % (next(iter(lab.potent)),)
        shape = "doublecircle" if id(state) in terminal else "box"
        yield ('  n%d [label="%s", fillcolor=%s, shape=%s];\n'
               % (nid, text, colors[lab.klass], shape))
    for state, succ in g.adj.items():
        for step, child in succ:
            yield '  n%d -> n%d [label="%s"];\n' % (ids[id(state)], ids[id(child)], step)
    yield "}\n"
