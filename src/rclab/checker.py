"""Exhaustive and randomized exploration of all executions under a
configuration, evaluating agreement, validity, and recoverable
wait-freedom, plus machine-specific invariants and the genericity
monitor.  `explore` sweeps the states in order of a rank that every edge
raises, and forgets each rank once it has passed it (see `explore`).
Failures come back as replayable counterexample schedules, minimized to
the shallowest violating prefix.

All four searches (`explore`, `shortest_failure`, `fuzz`,
`confirm_violation`) step on id states (see `experiment`): tuples of
interned frame, objects and other-field ids, which are their own memo
keys.  A search builds one `SystemState`, the initial state, which
`checked_initial_state` checks whole and then interns.  The searches
return schedules, never states.  Every edge is one `Experiment.successor`
call, the one step walk, followed by the checks in two parts:

- The edge checks: the transition's own `TransitionError`s (genericity,
  read-before-write), which `successor` raises, then `edge_rule`,
  `machine.check_edge`, on an edge that changed the objects id.  A crash
  edge never does: `successor` resets frames and keeps the objects id.
  `checked_edge` is the two together; `explore` makes the same two calls
  itself, which saves a Python call per edge.
- The state checks, `state_checks`: recoverable wait-freedom of the
  frames, agreement and validity of the returns, and the machine's state
  invariant.  They are facts about the post-state, so they run once per
  state, when the search first reaches it: `explore`'s sweep skips them
  on an edge into a key its rank already holds, and `shortest_failure`
  on a state already in `seen`.

A failed check raises `core.Violation(prop, detail)`, of which every
`TransitionError` is a subclass, so each search catches one type.

The skip is sound because a search never holds a state that failed a
check, so every state it holds has passed every state check.  A state
that only shares a memo key with it under `hash_ignores_attempt` differs
from it in `attempt` fields alone, and no state check reads one to
decide:

- RWF: no frame has fallen off the end or taken more than `bound` steps
  in its attempt.  It reads each frame's status and step count.
- Agreement: the returns' pids (for the `cross-process` scope) and
  values.  Their order is kept when the key zeroes their attempts.
- Validity: the returns' values.
- The machine's invariant: `Machine.check_state` reads no attempt.

Each state check is a pure function of one component of the post-state,
so each is kept per id in an experiment's `core.Cache`: RWF per frame id
(`Experiment.rwf_checks`), agreement and validity per others id
(`return_checks`), and the machine's invariants per frame id and
failures (`frame_checks`) and objects id and failures (`objects_checks`).
The rules live in `core`; this module re-exports them.  The pre-state
of every edge passed them, so an edge re-checks only the components it
changed.  An ordinary edge changes the moved frame, and perhaps the
others id and the objects id: it checks RWF and the invariant of that
frame, the returns when the others id changed, and the objects when the
objects id changed (see `programs.Machine`).  A crash resets frames to a
running entry with no steps and leaves the returns alone, but it changes
`failures`, which every invariant reads: it re-checks every frame's
invariant and the objects'.  The edge check is kept per pair of objects
ids (`edge_checks`), and `edge_rule` looks it up only when the objects id
changed: a write that leaves an equal objects tuple leaves its id, and by
the `Machine` contract such an edge has nothing to check.
`inspect_edge` runs both parts on whole states, its state part on every
component of the post-state, and caches nothing; it is the reference the
tests hold the id kernel to.
"""

from __future__ import annotations

import random
from collections import deque
from typing import List, Optional

from .core import (
    AGREEMENT,
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


def state_checks(exp: Experiment, pre, label, post):
    """The state checks of the id state `post`, reached from the id state
    `pre` by `label`; None if clean.  `pre` must have passed them: only
    the components the edge changed are checked (see the module
    docstring)."""
    n = exp.n
    if label.kind != ORDINARY:
        # a crash changes `failures`: every frame, then the objects
        failures = exp.others_by_id[post[n + 1]][0]
        for fid in post[:n]:
            err = exp.frame_checks[fid, failures]
            if err:
                return (INVARIANT, err)
        err = exp.objects_checks[post[n], failures]
        return (INVARIANT, err) if err else None
    fid = post[label.pid - 1]
    bad = exp.rwf_checks[fid]
    if bad:
        return bad
    xid = post[n + 1]
    if xid != pre[n + 1]:
        bad = exp.return_checks[xid]
        if bad:
            return bad
    failures = exp.others_by_id[xid][0]
    err = exp.frame_checks[fid, failures]
    if not err and post[n] != pre[n]:
        err = exp.objects_checks[post[n], failures]
    return (INVARIANT, err) if err else None


def inspect_edge(exp: Experiment, pre: SystemState, label, post: SystemState):
    """Both check parts for one edge between whole states; None if clean.
    `checked_edge` and `state_checks` run the same checks on id states;
    this is their reference, which caches nothing.  Its state part checks
    every state property of `post` in full, so for a `pre` that passed the
    state checks it finds what `state_checks` finds."""
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
    `confirm_violation` start here."""
    init = exp.initial_state()
    err = exp.machine.check_state(init)
    if err:
        raise Violation(INVARIANT, err)
    return exp.intern(init)


def edge_rule(exp: Experiment, pre_oid: int, oid: int):
    """The edge rule for an ordinary edge that took the objects id
    `pre_oid` to `oid`, applied only when the two differ: raises
    `Violation` if `machine.check_edge`, whose verdict is kept in
    `exp.edge_checks`, rejects it."""
    err = exp.edge_checks[pre_oid, oid]
    if err:
        raise Violation(INVARIANT, err)


def checked_edge(exp: Experiment, state, label: StepLabel):
    """The successor of the id state `state` under `label`, after the edge
    checks: `exp.successor`, which raises the transition's own
    `TransitionError`s, then `edge_rule`.  Raises `Violation` on the first
    failed check."""
    post = exp.successor(state, label)
    n = exp.n
    if post[n] != state[n]:
        edge_rule(exp, state[n], post[n])
    return post


def checked_step(exp: Experiment, state, label: StepLabel):
    """`checked_edge`, then `state_checks`; raises `Violation` on the first
    failed check.  For a search that keeps no record of the states it
    reached."""
    post = checked_edge(exp, state, label)
    bad = state_checks(exp, state, label, post)
    if bad:
        raise Violation(*bad)
    return post


def explore(x, memo=True) -> Verdict:
    """Search every enabled schedule for a violation; returns a `Verdict`.

    With `memo`, a sweep-line search (Christensen, Kristensen & Mailund,
    TACAS 2001) over state keys by `rank`: failures · W plus the frames'
    steps, W = n · bound + 1, which `state_key` keeps.  Every edge raises
    it: an ordinary step adds 1, and a crash adds W and resets at most
    n · bound steps, as every state the sweep expands passed RWF.  So the
    sweep expands the pending ranks in increasing order, each state after
    all its predecessors, and drops each rank once expanded.  Each key
    carries its number of paths from the initial state and its longest
    path, a sum and a max over its incoming edges, whole by the time it is
    expanded.  Terminal executions, the distinct complete schedules, are
    the sum of the terminal states' paths.  Without `memo`, a depth-first
    walk of the execution tree with an explicit stack (no recursion
    limit), counting its leaves.  Both run the edge checks on every edge
    and the state checks once per state they hold (see the module
    docstring), taking labels in `enabled_ids` order.

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


def rank(exp: Experiment, ids):
    """The rank of the id state `ids`: its failures times n · bound + 1,
    plus the steps its frames took in their attempts (see `explore`)."""
    n = exp.n
    frames = exp.frames_by_id
    steps = 0
    for f in ids[:n]:
        steps += frames[f].steps
    return exp.others_by_id[ids[n + 1]][0] * (n * exp.bound + 1) + steps


def _sweep(exp: Experiment, init):
    """`explore` with `memo`: the sweep over ranks.  Returns (result,
    stats, crashes), `crashes` set on a fail."""
    keyed = exp.config.hash_ignores_attempt
    state_key, enabled_ids = exp.state_key, exp.enabled_ids
    frames, others = exp.frames_by_id, exp.others_by_id
    successor, n = exp.successor, exp.n
    depth_limit = exp.depth_limit
    w = n * exp.bound + 1
    states, edges, executions, max_steps = 1, 0, 0, 0
    # rank -> (keys, slots) of each pending rank: `keys` maps each state key
    # of the rank to the index in `slots` of its three slots, its paths, its
    # longest path and its id state.  Flat lists, not a list per state, so
    # the cyclic collector tracks no object per state.
    layers = {rank(exp, init): ({state_key(init): 0}, [1, 0, init])}
    # the violation held: (rank, crashes)
    held = None
    while layers:
        r = min(layers)
        if held is not None and held[0] <= r:
            break
        slots = iter(layers.pop(r)[1])
        up = layers.get(r + 1)
        if up is None:
            up = layers[r + 1] = ({}, [])
        for count, depth, state in zip(slots, slots, slots):
            labels = enabled_ids(state)
            if not labels:
                # a terminal state ends `count` complete executions
                executions += count
                continue
            if depth >= depth_limit:
                return "depth-limit", _explore_stats(states, edges, executions, max_steps), None
            depth += 1
            for lab in labels:
                edges += 1
                try:
                    post = successor(state, lab)
                    # `checked_edge`'s second step, here to save a call per edge
                    if post[n] != state[n]:
                        edge_rule(exp, state[n], post[n])
                    post_key = state_key(post) if keyed else post
                    # an ordinary edge lands on r + 1, and a key has one rank
                    keys, into = up
                    i = keys.get(post_key)
                    if i is None and lab.kind != ORDINARY:
                        # a crash adds W and resets frames to no steps
                        pr = r + w
                        for j in range(n):
                            if post[j] != state[j]:
                                pr -= frames[state[j]].steps
                        layer = layers.get(pr)
                        if layer is None:
                            layer = layers[pr] = ({}, [])
                        keys, into = layer
                        i = keys.get(post_key)
                    if i is not None:
                        # `post` passed the state checks when its key first
                        # arrived
                        into[i] += count
                        if into[i + 1] < depth:
                            into[i + 1] = depth
                        continue
                    bad = state_checks(exp, state, lab, post)
                    if bad:
                        raise Violation(*bad)
                except Violation:
                    crashed = lab.kind != ORDINARY
                    # `successor` raises on ordinary edges alone
                    at = (rank(exp, post) if crashed else r + 1,
                          others[state[n + 1]][0] + crashed)
                    if held is None or at < held:
                        held = at
                    if crashed:
                        continue
                    # every later edge lands on r + 1 or higher, with at least
                    # as many crashes
                    break
                if lab.kind == ORDINARY:
                    steps = frames[post[lab.pid - 1]].steps
                    if steps > max_steps:
                        max_steps = steps
                states += 1
                keys[post_key] = len(into)
                into += count, depth, post
            else:
                continue
            break
        if not up[0]:
            del layers[r + 1]
    stats = _explore_stats(states, edges, executions, max_steps)
    return ("pass", stats, None) if held is None else ("fail", stats, held[1])


def _walk(exp: Experiment, init):
    """`explore` without `memo`: the depth-first walk of the execution
    tree.  Returns (result, stats, None)."""
    frames = exp.frames_by_id
    successor, n = exp.successor, exp.n
    depth_limit = exp.depth_limit
    states, edges, executions, max_steps = 1, 0, 0, 0
    result = "pass"
    # The id state being expanded lives in locals: `state` and `todo` (an
    # iterator over its enabled labels not yet taken).  Its ancestors wait
    # on `stack` as pairs of the same two values, so the depth of `state`
    # is len(stack).
    stack = []
    try:
        labels = exp.enabled_ids(init)
        if not labels:
            executions = 1
        elif depth_limit <= 0:
            raise _DepthLimit()
        state, todo = init, iter(labels)
        while True:
            for lab in todo:
                edges += 1
                # `checked_edge`'s two steps, here to save a call per edge
                post = successor(state, lab)
                if post[n] != state[n]:
                    edge_rule(exp, state[n], post[n])
                bad = state_checks(exp, state, lab, post)
                if bad:
                    raise Violation(*bad)
                if lab.kind == ORDINARY:
                    steps = frames[post[lab.pid - 1]].steps
                    if steps > max_steps:
                        max_steps = steps
                states += 1
                labels = exp.enabled_ids(post)
                if not labels:
                    # a terminal state is one complete execution
                    executions += 1
                    continue
                if len(stack) + 1 >= depth_limit:
                    raise _DepthLimit()
                stack.append((state, todo))
                state, todo = post, iter(labels)
                break
            else:
                if not stack:
                    break
                state, todo = stack.pop()
    except _DepthLimit:
        result = "depth-limit"
    except Violation:
        result = "fail"
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
    (pre-state, label, post-state) only, never of the path taken.  An
    edge into a state already in `seen` gets only the edge checks.
    """
    if init is None:
        try:
            init = checked_initial_state(exp)
        except Violation as v:
            return [], v.prop, v.detail
    seen = {exp.state_key(init)}
    queue = deque([(init, [])])
    while queue:
        state, path = queue.popleft()
        if len(path) >= exp.depth_limit:
            continue
        for lab in exp.enabled_ids(state):
            try:
                post = checked_edge(exp, state, lab)
                key = exp.state_key(post)
                if key in seen:
                    continue
                bad = state_checks(exp, state, lab, post)
                if bad:
                    raise Violation(*bad)
            except Violation as v:
                return path + [lab], v.prop, v.detail
            seen.add(key)
            queue.append((post, path + [lab]))
    return None


def fuzz(x, episodes=1000) -> Verdict:
    """Randomized exploration: `episodes` uniformly scheduled executions,
    drawn from the config's `seed`.

    Like `explore`, an execution takes at most `depth_limit` steps.  The
    first one still running at that depth ends the run with the verdict
    `depth-limit`, because fuzzing can then no longer tell a pass."""
    exp = as_experiment(x)
    seed = exp.config.seed
    rng = random.Random(seed)
    max_steps, ep = 0, 0
    path: List[StepLabel] = []
    frames = exp.frames_by_id
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
                state = checked_step(exp, state, lab)
                if lab.kind == ORDINARY:
                    max_steps = max(max_steps, frames[state[lab.pid - 1]].steps)
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
            state = checked_step(exp, state, lab)
    except Violation as v:
        return v.prop, v.detail
    return None
