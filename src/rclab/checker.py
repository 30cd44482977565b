"""Exhaustive and randomized exploration of all executions under a
configuration, evaluating agreement, validity, and recoverable
wait-freedom, plus machine-specific invariants and the genericity
monitor.  `explore` sweeps the states in order of a rank that every edge
raises, and forgets each rank once it has passed it (see `explore`).
Failures come back as replayable counterexample schedules, minimized to
the shallowest violating prefix.

All four searches (`explore`, `shortest_failure`, `fuzz`,
`confirm_violation`) step on id states (see `experiment`): one packed int
per state, its own memo key.  A search builds one `SystemState`, the
initial state, which `checked_initial_state` checks whole and then
interns.  The searches return schedules, never states.

Every ordinary edge is checked by its row: a step of process i from
`s` is `s + d` for the row `d = store[s & mask]` of its move (see
`Experiment.moves`), and a row holds the edge's verdict
(`Experiment.verdict`), worked out once when the row is built: the
transition's own `TransitionError`s (genericity, read-before-write), the
edge rule `machine.check_edge` when the objects id changed, then the
state checks of what the edge changed: recoverable wait-freedom of the
moved frame, agreement and validity of the returns when they changed,
and the machine's invariants of the moved frame and of changed objects.
Each is a function of the fields the row is keyed by, and each is kept
per id in an experiment's `core.Cache`.  The pre-state of every edge
passed them, so an edge re-checks only the components it changed.  So
an int row is a clean edge, and anything else goes to
`Experiment.successor(s, label, True)`, which builds a missing row,
raises the violation of a failing one, and steps and checks a crash,
which has no row: it adds the differences of the frames it resets,
cached per frame id (`Experiment.reset_deltas`).  A crash resets frames
to a running entry with no steps and keeps the objects and the
returns, but it changes `failures`, which every invariant reads, so it
re-checks every frame's invariant and the objects'.

An ordinary edge is checked this way also into a state the search
already holds, where the checks find nothing; `explore`'s sweep checks a
crash edge only into a state it does not hold yet.  Both are sound
because a search never holds a state that failed a check, so every
state it holds has passed every state check.

A failed check raises `core.Violation(prop, detail)`, of which every
`TransitionError` is a subclass, so each search catches one type.  The
rules live in `core`; this module re-exports them.  `inspect_edge` runs
every check on whole states, its state part on every component of the
post-state, and caches nothing; it is the reference the tests hold the
rows to.
"""

from __future__ import annotations

import random
from typing import List, Optional

from .core import (
    AGREEMENT,
    CRASH_ALL_LABEL,
    INVARIANT,
    ORDINARY,
    RWF,
    VALIDITY,
    GenericityViolation,
    StepLabel,
    SystemState,
    UninitializedRead,
    Violation,
    check_agreement,
    check_returns,
    check_rwf,
    check_validity,
)
from .experiment import Experiment, as_experiment
from .simulator import require_enabled

GENERICITY = GenericityViolation.prop
READ_BEFORE_WRITE = UninitializedRead.prop

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_DEPTH = 3


class Verdict:
    """A search's outcome.  `result` is "pass", "fail" or "depth-limit";
    a fail names the property `prop`, says how in `detail` and gives the
    schedule `trace_labels` that reaches it, for `explore` the shortest
    (`shortest_failure`'s).  `crashes` is set on a fail of `explore`'s
    sweep: the fewest crashes any violation needs, kept out of `stats`,
    which the pinned counts compare whole."""

    __slots__ = ("result", "prop", "detail", "trace_labels", "stats", "crashes")

    def __init__(self, result: str, prop: Optional[str] = None, detail: Optional[str] = None,
                 trace_labels: Optional[List[StepLabel]] = None, stats: Optional[dict] = None,
                 crashes: Optional[int] = None):
        self.result = result
        self.prop = prop
        self.detail = detail
        self.trace_labels = trace_labels
        self.stats = {} if stats is None else stats
        self.crashes = crashes

    def __repr__(self):
        return "Verdict(%s)" % ", ".join(
            "%s=%r" % (key, getattr(self, key)) for key in self.__slots__)

    @property
    def passed(self):
        return self.result == "pass"

    @property
    def exit_code(self):
        return {"pass": EXIT_PASS, "fail": EXIT_FAIL, "depth-limit": EXIT_DEPTH}[
            self.result
        ]

    def to_json(self):
        out = {"result": self.result, "stats": self.stats}
        if self.prop:
            out["property"] = self.prop
        if self.detail:
            out["detail"] = self.detail
        if self.crashes is not None:
            out["crashes"] = self.crashes
        if self.trace_labels is not None:
            out["trace"] = [lab.to_json() for lab in self.trace_labels]
        return out


class _DepthLimit(Exception):
    pass


def inspect_edge(exp: Experiment, pre: SystemState, label, post: SystemState):
    """Every check of one edge between whole states; None if clean.
    `Experiment.verdict` runs the same checks on id states, and a row
    holds its outcome; this is their reference, which caches nothing.  Its
    state part checks every state property of `post` in full, so for a
    `pre` that passed the checks it finds what `verdict` finds."""
    machine = exp.machine
    if post.objects is not pre.objects:
        if label.kind != ORDINARY and post.objects != pre.objects:
            # crash isolation: shared objects survive every crash untouched
            return (INVARIANT, "crash step changed shared objects")
        err = machine.check_edge(pre.objects, post.objects)
        if err:
            return (INVARIANT, err)
    for fr in post.frames:
        bad = check_rwf(fr, exp.bound)
        if bad:
            return bad
    bad = check_returns(post.returns, exp.config)
    if bad:
        return bad
    err = machine.check_state(post)
    return (INVARIANT, err) if err else None


def checked_initial_state(exp: Experiment):
    """The id state of the initial state, after `check_state`; raises
    `Violation` if it fails.  `explore`, `shortest_failure`, `fuzz` and
    `confirm_violation` start here, and so every row holds its checks
    (`Experiment.check_rows`) before they step."""
    init = exp.initial_state()
    err = exp.machine.check_state(init)
    if err:
        raise Violation(INVARIANT, err)
    exp.check_rows()
    return exp.intern(init)


def explore(x, memo=True) -> Verdict:
    """Search every enabled schedule for a violation; returns a `Verdict`.

    With `memo`, a sweep-line search (Christensen, Kristensen & Mailund,
    TACAS 2001) over id states by `rank`: failures · W plus the frames'
    steps, W = n · bound + 1, a function of the id state.  Every edge
    raises it: an ordinary step adds 1, and a crash adds W and resets at
    most n · bound steps, as every state the sweep expands passed RWF.  So
    the sweep expands the pending ranks in increasing order, each state
    after all its predecessors, and drops each rank once expanded.  Each
    state carries its number of paths from the initial state and its longest
    path, a sum and a max over its incoming edges, whole by the time it is
    expanded.  Terminal executions, the distinct complete schedules, are
    the sum of the terminal states' paths.  Without `memo`, a depth-first
    walk of the execution tree with an explicit stack (no recursion
    limit), counting its leaves.  Both check every edge by its row (see
    the module docstring), taking labels in `enabled_ids` order.

    Depth limit: a search that meets no violation returns "depth-limit"
    exactly when some path reaches a non-terminal state at depth
    `depth_limit` or more: the sweep tests each state's longest path, the
    walk every path.  A search that meets both ends at the first it meets.

    Violations: the rank of a violation is its post-state's, r + 1 on an
    ordinary edge from rank r and often more on a crash edge.  The sweep
    holds the violation of lowest rank, then fewest crashes, until no
    later edge can beat it: at once on an ordinary edge, or when the sweep
    reaches the held rank.  An expanded state with j failures ranks below
    every state with j + 1, and a violating post-state, one step past a
    bound at most, can only tie, so `Verdict.crashes` is the fewest
    crashes any violation needs.  The walk stops at the first violation it
    meets, without `crashes`.  Either way the verdict's trace, property
    and detail are `shortest_failure`'s, which keeps the counterexample
    independent of the search.  It finds one: the violating edge leaves a
    state that the search expanded, so one with a path shorter than the
    depth limit.
    """
    exp = as_experiment(x)
    try:
        init = checked_initial_state(exp)
    except Violation as v:
        return Verdict("fail", v.prop, v.detail, [], _explore_stats(1, 0, 0, 0),
                       0 if memo else None)
    result, stats, crashes = (_sweep if memo else _walk)(exp, init)
    if result == "pass":
        return Verdict(result, stats=stats)
    stats["terminal_executions"] = 0
    if result == "depth-limit":
        return Verdict(result, detail="depth limit %d reached" % exp.depth_limit, stats=stats)
    trace, prop, detail = shortest_failure(exp, init)
    return Verdict(result, prop, detail, trace, stats, crashes)


def rank(exp: Experiment, s):
    """The rank of the id state `s`: its failures times n · bound + 1,
    plus the steps its frames took in their attempts (see `explore`)."""
    ids = exp.unpack(s)
    n = exp.n
    steps = sum(exp.steps_of[f] for f in ids[:n])
    return exp.others_by_id[ids[n + 1]][0] * (n * exp.bound + 1) + steps


def _sweep(exp: Experiment, init):
    """`explore` with `memo`: the sweep over ranks.  Returns (result,
    stats, crashes), `crashes` set on a fail."""
    successor, moves_of = exp.successor, exp.moves
    # a state a search holds passed RWF, so no frame's steps pass `bound`,
    # and once one reaches it `max_attempt_steps` is known
    steps_of, bound = exp.steps_of, exp.bound
    depth_limit = exp.depth_limit
    w = exp.n * bound + 1
    lay = exp.layout
    by_key, kmask, shifts, fmask = exp.moves_by_key, lay.kmask, lay.shifts, lay.fmask
    states, edges, executions, max_steps = 1, 0, 0, 0
    # rank -> (keys, slots) of each pending rank: `keys` maps each id state
    # of the rank to the index in `slots` of its three slots, its paths, its
    # longest path and its id state.  Flat lists, not a list per state, so
    # the cyclic collector tracks no object per state.
    layers = {rank(exp, init): ({init: 0}, [1, 0, init])}
    # the violation held: (rank, crashes)
    held = None
    while layers:
        r = min(layers)
        if held is not None and held[0] <= r:
            break
        slots = layers.pop(r)[1]
        # an ordinary edge lands on r + 1, and a state has one rank
        up = layers.get(r + 1)
        if up is None:
            up = layers[r + 1] = ({}, [])
        keys, into = up
        it = iter(slots)
        for count, depth, state in zip(it, it, it):
            moves = by_key.get(state & kmask)
            if moves is None:
                moves = moves_of(state)
            if not moves:
                # a terminal state ends `count` complete executions
                executions += count
                continue
            if depth >= depth_limit:
                return "depth-limit", _explore_stats(states, edges, executions, max_steps), None
            depth += 1
            edges += len(moves)
            for lab, store, mask, deep, marks in moves:
                d = store.get(state & mask)
                if d.__class__ is not int:
                    if lab.kind != ORDINARY:
                        post = successor(state, lab)
                        # a crash adds W and takes back the steps of the
                        # frames it resets, which start their attempt anew
                        pr = r + w
                        for sh in shifts:
                            if (post ^ state) >> sh & fmask:
                                pr -= steps_of[state >> sh & fmask]
                        layer = layers.get(pr)
                        if layer is None:
                            layer = layers[pr] = ({}, [])
                        ckeys, cinto = layer
                        i = ckeys.get(post)
                        if i is not None:
                            cinto[i] += count
                            if cinto[i + 1] < depth:
                                cinto[i + 1] = depth
                        elif exp.verdict(state, lab, post):
                            at = (pr, (state & lay.fail_mask) + 1)
                            if held is None or at < held:
                                held = at
                        else:
                            states += 1
                            ckeys[post] = len(cinto)
                            cinto += count, depth, post
                        continue
                    if d.__class__ is bool:
                        d = deep.get(state ^ state & marks[d])
                    if d.__class__ is not int:
                        try:
                            post = successor(state, lab, True)
                        except Violation:
                            at = (r + 1, state & lay.fail_mask)
                            if held is None or at < held:
                                held = at
                            # every later edge lands on r + 1 or higher, with
                            # at least as many crashes, and is not taken
                            edges -= len(moves) - 1 - [m[0] for m in moves].index(lab)
                            break
                        d = post - state
                post = state + d
                i = keys.get(post)
                if i is not None:
                    into[i] += count
                    if into[i + 1] < depth:
                        into[i + 1] = depth
                    continue
                if max_steps < bound:
                    steps = steps_of[(post >> shifts[lab.pid - 1]) & fmask]
                    if steps > max_steps:
                        max_steps = steps
                states += 1
                keys[post] = len(into)
                into += count, depth, post
            else:
                continue
            break
        if not keys:
            del layers[r + 1]
    stats = _explore_stats(states, edges, executions, max_steps)
    return ("pass", stats, None) if held is None else ("fail", stats, held[1])


def _walk(exp: Experiment, init):
    """`explore` without `memo`: the depth-first walk of the execution
    tree.  Returns (result, stats, None)."""
    successor, moves_of = exp.successor, exp.moves
    steps_of, bound = exp.steps_of, exp.bound
    depth_limit = exp.depth_limit
    lay = exp.layout
    by_key, kmask, shifts, fmask = exp.moves_by_key, lay.kmask, lay.shifts, lay.fmask
    edges, executions, max_steps = 0, 0, 0
    result = "pass"
    # The id state being expanded lives in locals: `state` and `todo` (an
    # iterator over its moves not yet taken).  Its ancestors wait on `stack`
    # as pairs of the same two values, so the depth of `state` is
    # len(stack).
    stack = []
    try:
        moves = moves_of(init)
        if not moves:
            executions = 1
        elif depth_limit <= 0:
            raise _DepthLimit()
        state, todo = init, iter(moves)
        while True:
            for lab, store, mask, deep, marks in todo:
                edges += 1
                d = store.get(state & mask)
                if d.__class__ is bool:
                    d = deep.get(state ^ state & marks[d])
                if d.__class__ is int:
                    post = state + d
                else:
                    post = successor(state, lab, True)
                if max_steps < bound and lab.kind == ORDINARY:
                    steps = steps_of[(post >> shifts[lab.pid - 1]) & fmask]
                    if steps > max_steps:
                        max_steps = steps
                moves = by_key.get(post & kmask)
                if moves is None:
                    moves = moves_of(post)
                if not moves:
                    # a terminal state is one complete execution
                    executions += 1
                    continue
                if len(stack) + 1 >= depth_limit:
                    raise _DepthLimit()
                stack.append((state, todo))
                state, todo = post, iter(moves)
                break
            else:
                if not stack:
                    break
                state, todo = stack.pop()
    except _DepthLimit:
        result = "depth-limit"
    except Violation:
        result = "fail"
    # a tree has one state more than edges, the post-state of a violating
    # edge left out
    states = edges + (result != "fail")
    return result, _explore_stats(states, edges, executions, max_steps), None


def _explore_stats(states, edges, executions, max_steps):
    return {"states": states, "edges": edges, "terminal_executions": executions,
            "max_attempt_steps": max_steps}


def shortest_failure(exp: Experiment, init=None):
    """BFS for a minimal-depth violating schedule: (labels, prop, detail),
    or None.  It starts from `init`, an id state that passed the state
    checks, by default `checked_initial_state`'s.  Of the violations at
    that depth it reports the first in BFS order, labels taken in
    `enabled_ids` order.

    Sound because every check evaluated per edge is a function of
    (pre-state, label, post-state) only, never of the path taken.  The
    search keeps each state's parent and label, not its path, and builds
    the schedule of the violating edge's pre-state once.
    """
    if init is None:
        try:
            init = checked_initial_state(exp)
        except Violation as v:
            return [], v.prop, v.detail
    successor, moves_of = exp.successor, exp.moves
    steps = exp.ordinary_labels + exp.crash_labels + (CRASH_ALL_LABEL,)
    width = len(steps)
    code = {lab: i for i, lab in enumerate(steps)}
    # id state -> its parent's id state * width + its label's code, -1 for
    # `init`: ints, which the cyclic collector does not track
    parents = {init: -1}
    level = [init]
    for _depth in range(exp.depth_limit):
        deeper = []
        for state in level:
            for lab, store, mask, deep, marks in moves_of(state):
                d = store.get(state & mask)
                if d.__class__ is bool:
                    d = deep.get(state ^ state & marks[d])
                if d.__class__ is int:
                    post = state + d
                else:
                    try:
                        post = successor(state, lab, True)
                    except Violation as v:
                        return _schedule(parents, steps, state) + [lab], v.prop, v.detail
                if post in parents:
                    continue
                parents[post] = state * width + code[lab]
                deeper.append(post)
        if not deeper:
            break
        level = deeper
    return None


def _schedule(parents, steps, state):
    """The labels of the path to `state` in the parent map of
    `shortest_failure`."""
    width = len(steps)
    out = []
    p = parents[state]
    while p >= 0:
        out.append(steps[p % width])
        p = parents[p // width]
    out.reverse()
    return out


def fuzz(x, episodes=1000) -> Verdict:
    """Randomized exploration: `episodes` uniformly scheduled executions,
    drawn from the config's `seed`; `episodes` must be at least 1, as a
    run of none would pass having checked nothing.

    Like `explore`, an execution takes at most `depth_limit` steps.  The
    first one still running at that depth ends the run with the verdict
    `depth-limit`, because fuzzing can then no longer tell a pass."""
    if episodes < 1:
        raise ValueError("episodes must be at least 1, got %r" % (episodes,))
    exp = as_experiment(x)
    seed = exp.config.seed
    rng = random.Random(seed)
    max_steps, ep, lay = 0, 0, exp.layout
    path: List[StepLabel] = []
    try:
        init = checked_initial_state(exp)
        for ep in range(episodes):
            state, path = init, []
            while True:
                labels = exp.enabled_ids(state)
                if not labels:
                    break
                if len(path) >= exp.depth_limit:
                    detail = "depth limit %d reached" % exp.depth_limit
                    stats = {"episodes": ep + 1, "seed": seed, "max_attempt_steps": max_steps}
                    return Verdict("depth-limit", detail=detail, stats=stats)
                lab = rng.choice(labels)
                path.append(lab)
                state = exp.successor(state, lab, True)
                if lab.kind == ORDINARY:
                    fid = state >> lay.shifts[lab.pid - 1] & lay.fmask
                    max_steps = max(max_steps, exp.steps_of[fid])
    except Violation as v:
        return Verdict("fail", v.prop, v.detail, path, {"episodes": ep + 1, "seed": seed})
    return Verdict("pass", stats={"episodes": episodes, "seed": seed,
                                  "max_attempt_steps": max_steps})


def confirm_violation(x, labels):
    """Independent replay of a counterexample schedule; returns the
    (property, detail) it demonstrates or None if the schedule is clean.
    Raises `simulator.ScheduleError` at the first step that is not enabled."""
    exp = as_experiment(x)
    try:
        state = checked_initial_state(exp)
        for i, lab in enumerate(labels):
            require_enabled(exp, state, lab, i)
            state = exp.successor(state, lab, True)
    except Violation as v:
        return v.prop, v.detail
    return None
