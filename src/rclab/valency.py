"""Execution-graph construction and valency classification.

A state is v-potent when some extension of the execution decides v; the
potent set of a state is therefore the union of decided values over all
reachable terminals plus anything already decided on the way in.  States
whose potent set is a singleton are univalent; with two processes and
two proposals a state with both values still reachable is bivalent, and
a bivalent state all of whose successors are univalent is critical.

The graph's nodes are dense ints in breadth-first order, node 0 the
initial state.  `g.nodes[i]` is node i's id state, one packed int (see
`experiment`), and `g.exp.materialize` the `SystemState` it stands for;
the experiment's layout never changes, so a later search on it leaves
the graph readable.  Every pass after the build indexes lists and dicts
by node id.  The `labels` they take are `classify`'s list for that same
graph.  The build steps by the experiment's rows, unchecked: an edge
whose row holds a failed check still leads to its post-state.

An edge is one int, `child * len(g.steps) + i` for the step `g.steps[i]`.
The edges of every node lie in one flat array, in node id order and each
node's in `enabled_ids` order, and a second array holds where each node's
run begins (compressed rows).  `g.adj` is a read-only mapping over the
two, so `g.adj[nid]` is the array of node nid's edges.  A graph of a
million nodes holds no Python object per edge, and none per node besides
its id state, an int, which the cyclic garbage collector does not track.
`g.edges(nid)` decodes them into (step, child) pairs."""

from __future__ import annotations

from itertools import pairwise, starmap
from typing import Dict, List, NamedTuple, Tuple

from .core import ORDINARY, Cache, RcError, StepLabel
from .experiment import Experiment, as_experiment


IdState = int


class Adjacency:
    """Node id -> the array of its edges, over two `array('q')`s: node
    nid's edges are `codes[start[nid]:start[nid + 1]]`.  Iterating gives
    the node ids in order, as iterating a dict of them would."""

    __slots__ = ("start", "codes")

    def __init__(self, start, codes):
        self.start = start
        self.codes = codes

    def __getitem__(self, nid: int):
        start = self.start
        return self.codes[start[nid]:start[nid + 1]]

    def __len__(self) -> int:
        return len(self.start) - 1

    def __iter__(self):
        return iter(range(len(self)))

    def values(self):
        """Every node's edges, by node id, sliced at C level."""
        return map(self.codes.__getitem__, starmap(slice, pairwise(self.start)))


class ExecGraph(NamedTuple):
    """The reachable graph of `exp`: `nodes` maps a node id to its id
    state, `adj` every node id to its edges, each the int
    `child * len(steps) + i` for the step `steps[i]` to the child node id
    `child`, and `terminals` a terminal's node id to the values decided
    there.  `len(adj[nid])` is node nid's out-degree; `adj.start` and
    `adj.codes` are the two arrays behind `adj`."""

    exp: Experiment
    nodes: List[IdState]
    steps: Tuple[StepLabel, ...]
    adj: Adjacency
    terminals: Dict[int, frozenset]
    capped: bool

    def edges(self, nid: int) -> List[Tuple[StepLabel, int]]:
        """Node nid's edges as (step, child node id) pairs."""
        steps = self.steps
        width = len(steps)
        return [(steps[e % width], e // width) for e in self.adj[nid]]


class ValencyLabel(NamedTuple):
    potent: frozenset
    klass: str  # "univalent" | "bivalent" | "multivalent" | "undecided"


def _decided(others) -> frozenset:
    """The values returned in the states of the other fields `others`."""
    return frozenset(v for _p, _a, v in others[0])


def build_graph(x) -> ExecGraph:
    """Breadth-first graph of every reachable state, holding at most the
    config's `cap` nodes when it sets one; an edge to a node not held is
    left out."""
    from array import array  # deferred: most runs build no graph

    exp = as_experiment(x)
    cap = exp.config.cap
    steps, code = exp.step_labels, exp.step_codes
    width = len(steps)
    # an others id -> its `_decided` set, shared by its terminals
    others_by_id = exp.others_by_id
    decided = Cache(lambda oid: _decided(others_by_id[oid]))
    nodes = [exp.intern(exp.initial_state())]
    ids = {nodes[0]: 0}  # id state -> node id, only while building
    start = array("q", (0,))
    codes = array("q")
    push, close = codes.append, start.append
    terminals = {}
    capped = False
    successor, moves_of = exp.successor, exp.moves
    by_key, kmask, xsh = exp.moves_by_key, exp.layout.kmask, exp.layout.xsh
    # `nodes` grows while it is walked: it is the breadth-first queue
    fresh = 1  # len(nodes), kept by hand: the loop reads it on every edge
    for nid, state in enumerate(nodes):
        moves = by_key.get(state & kmask)
        if moves is None:
            moves = moves_of(state)
        if not moves:
            # the others id is the top field
            terminals[nid] = decided[state >> xsh]
        for lab, store, mask, deep, marks in moves:
            d = store.get(state & mask)
            if d.__class__ is bool:
                d = deep.get(state ^ state & marks[d])
            if d.__class__ is int:
                post = state + d
            else:
                post = successor(state, lab)
            child = ids.setdefault(post, fresh)
            if child == fresh:
                if cap is not None and fresh >= cap:
                    del ids[post]
                    capped = True
                    continue
                nodes.append(post)
                fresh += 1
            push(child * width + code[lab])
        close(len(codes))
    return ExecGraph(exp, nodes, steps, Adjacency(start, codes), terminals, capped)


def _classify_set(potent: frozenset, config) -> str:
    if len(potent) == 0:
        return "undecided"
    if len(potent) == 1:
        return "univalent"
    if config.n == 2 and len(set(config.proposals)) == 2:
        return "bivalent"
    return "multivalent"


def classify(g: ExecGraph) -> List[ValencyLabel]:
    """The label of every node, by node id, from a backward propagation
    of decided values over the (acyclic) graph; nodes with equal potent
    sets share one `ValencyLabel`."""
    if g.capped:
        raise RcError("graph was truncated by the node cap; refusing to classify")
    start, codes = g.adj.start, g.adj.codes
    nodes = g.nodes
    exp = g.exp
    width = len(g.steps)
    xsh = exp.layout.xsh  # the others id is the top field
    config, others_by_id = exp.config, exp.others_by_id
    # a potent set -> its label; an others id -> the label of the values
    # decided there; a pair of labels -> the label of their union
    shared = Cache(lambda potent: ValencyLabel(potent, _classify_set(potent, config)))
    by_others = Cache(lambda oid: shared[_decided(others_by_id[oid])])
    joins = Cache(lambda pair: shared[pair[0].potent | pair[1].potent])
    done = [None] * len(nodes)

    # most edges lead to a higher node id, so a node met in descending id
    # order mostly finds its children done and is folded at once; the rest
    # go depth first on `todo`.  Every step strictly increases progress, so
    # the graph is a DAG.
    todo = []
    # (start[root + 1], start[root]) for each root in descending order
    bounds = pairwise(reversed(start))
    for root, (hi, lo) in zip(range(len(nodes) - 1, -1, -1), bounds):
        if done[root] is not None:
            continue
        nid = root
        while True:
            lab = by_others[nodes[nid] >> xsh]
            for e in codes[lo:hi]:
                kid = done[e // width]
                if kid is not lab:
                    if kid is None:
                        # fold the unlabelled children first, then nid again
                        todo.append(nid)
                        todo += [c // width for c in codes[lo:hi] if done[c // width] is None]
                        break
                    lab = joins[lab, kid]
            else:
                done[nid] = lab
                if not todo:
                    break
            nid = todo.pop()
            lo, hi = start[nid], start[nid + 1]
    return done


def find_critical(g: ExecGraph, labels: List[ValencyLabel]):
    """Bivalent nodes all of whose successors are univalent, with the
    per-successor decided value for each outgoing edge."""
    out = []
    for nid, lab in enumerate(labels):
        if lab.klass not in ("bivalent", "multivalent"):
            continue
        succs = [(step, labels[child]) for step, child in g.edges(nid)]
        if succs and all(sl.klass == "univalent" for _s, sl in succs):
            out.append((nid, [(step, next(iter(sl.potent))) for step, sl in succs]))
    return out


def crash_decision_edges(g: ExecGraph, labels: List[ValencyLabel]):
    """Edges, as (node id, step, child node id), where a crash step moves
    the system from bivalent to univalent."""
    out = []
    for nid, lab in enumerate(labels):
        if lab.klass != "bivalent":
            continue
        for step, child in g.edges(nid):
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
    return " / ".join("p%d@%s#%d" % (fr.pid, fr.pc, fr.attempt)
                      for fr in exp.materialize(state).frames)


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
    for nid in g.adj:
        for step, child in g.edges(nid):
            yield '  n%d -> n%d [label="%s"];\n' % (nid, child, step)
    yield "}\n"
