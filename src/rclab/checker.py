"""Exhaustive (memoized DFS) and randomized exploration of all executions
under a configuration, evaluating agreement, validity, and recoverable
wait-freedom, plus machine-specific invariants and the genericity
monitor.  Failures come back as replayable counterexample schedules,
minimized to the shallowest violating prefix."""

from __future__ import annotations

import random
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional

from .config import ExperimentConfig
from .core import (
    FELL_OFF,
    ORDINARY,
    GenericityViolation,
    StepLabel,
    SystemState,
    UninitializedRead,
)
from .experiment import Experiment

AGREEMENT = "Agreement"
VALIDITY = "Validity"
RWF = "RecoverableWaitFreedom"
GENERICITY = "GenericityViolation"
READ_BEFORE_WRITE = "ReadBeforeWrite"
INVARIANT = "Invariant"

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_DEPTH = 3


@dataclass
class Verdict:
    result: str  # "pass" | "fail" | "depth-limit"
    prop: Optional[str] = None
    detail: Optional[str] = None
    trace_labels: Optional[List[StepLabel]] = None
    stats: dict = field(default_factory=dict)

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
        if self.trace_labels is not None:
            out["trace"] = [lab.to_json() for lab in self.trace_labels]
        return out


def check_agreement(returns, scope="all-returns") -> Optional[str]:
    """None if all decisions agree; otherwise a description of the clash."""
    if scope == "cross-process":
        # a process's first decision stands for it; its later ones are ignored
        by_pid = {}
        for pid, _att, v in returns:
            by_pid.setdefault(pid, v)
        vals = set(by_pid.values())
        if len(vals) > 1:
            return "distinct processes decided %s" % sorted(map(repr, vals))
        return None
    vals = {v for _pid, _att, v in returns}
    if len(vals) > 1:
        return "returns disagree: %s" % sorted(map(repr, vals))
    return None


def check_validity(returns, proposals) -> Optional[str]:
    for pid, att, v in returns:
        if v not in proposals:
            return "p%d (attempt %d) decided %r, not a proposal" % (pid, att, v)
    return None


class _Violation(Exception):
    def __init__(self, prop, detail, path):
        self.prop = prop
        self.detail = detail
        self.path = path
        super().__init__(detail)


class _DepthLimit(Exception):
    pass


def inspect_edge(exp: Experiment, pre: SystemState, label, post: SystemState):
    """Path-independent property checks for one edge; None if clean."""
    if label.kind != ORDINARY:
        # crash isolation: shared objects survive every crash untouched
        if post.objects != pre.objects:
            return (INVARIANT, "crash step changed shared objects")
    if post.objects is not pre.objects:
        err = exp.machine.check_edge(pre.objects, post.objects)
        if err:
            return (INVARIANT, err)
    if label.kind == ORDINARY:
        fr = post.frames[label.pid - 1]
        if fr.status == FELL_OFF:
            return (
                RWF,
                "p%d reached the end of the program without returning" % label.pid,
            )
        if fr.steps > exp.bound:
            return (
                RWF,
                "p%d took %d steps in one attempt, bound is %d"
                % (label.pid, fr.steps, exp.bound),
            )
        if len(post.returns) > len(pre.returns):
            err = check_agreement(post.returns, exp.config.agreement_scope)
            if err:
                return (AGREEMENT, err)
            err = check_validity(post.returns, exp.config.proposals)
            if err:
                return (VALIDITY, err)
    err = exp.machine.check_state(post)
    if err:
        return (INVARIANT, err)
    return None


def _classify(exc):
    if isinstance(exc, GenericityViolation):
        return GENERICITY
    return READ_BEFORE_WRITE


def as_experiment(x) -> Experiment:
    if isinstance(x, Experiment):
        return x
    if isinstance(x, ExperimentConfig):
        return Experiment(x)
    return Experiment(ExperimentConfig.from_dict(dict(x)))


def explore(x, memo=True, minimize=True) -> Verdict:
    """DFS over all enabled schedules with memoization on canonical states.

    Terminal executions are counted exactly (number of distinct complete
    schedules) by accumulating per-state path counts over the acyclic
    state graph.
    """
    exp = as_experiment(x)
    sys.setrecursionlimit(max(10000, exp.depth_limit * 4 + 100))
    stats = {"states": 1, "edges": 0, "terminal_executions": 0, "max_attempt_steps": 0}
    count_memo = {}
    path: List[StepLabel] = []
    successor = exp.successor
    depth_limit = exp.depth_limit

    def visit(state, depth):
        labels = exp.enabled_steps(state)
        if not labels:
            return 1
        if depth >= depth_limit:
            raise _DepthLimit()
        total = 0
        for lab in labels:
            stats["edges"] += 1
            try:
                post = successor(state, lab)
            except (GenericityViolation, UninitializedRead) as e:
                raise _Violation(_classify(e), str(e), path + [lab])
            path.append(lab)
            bad = inspect_edge(exp, state, lab, post)
            if bad:
                raise _Violation(bad[0], bad[1], list(path))
            if lab.kind == ORDINARY:
                steps = post.frames[lab.pid - 1].steps
                if steps > stats["max_attempt_steps"]:
                    stats["max_attempt_steps"] = steps
            if memo:
                key = exp.memo_key(post)
                c = count_memo.get(key)
                if c is None:
                    stats["states"] += 1
                    c = count_memo[key] = visit(post, depth + 1)
            else:
                stats["states"] += 1
                c = visit(post, depth + 1)
            total += c
            path.pop()
        return total

    init = exp.initial_state()
    err = exp.machine.check_state(init)
    if err:
        return Verdict("fail", INVARIANT, err, [], stats)
    try:
        stats["terminal_executions"] = visit(init, 0)
    except _DepthLimit:
        return Verdict("depth-limit", None, "depth limit %d reached" % exp.depth_limit,
                       None, stats)
    except _Violation as v:
        labels = v.path
        prop, detail = v.prop, v.detail
        if minimize:
            found = shortest_failure(exp)
            if found is not None:
                labels, prop, detail = found
        return Verdict("fail", prop, detail, labels, stats)
    return Verdict("pass", stats=stats)


def shortest_failure(exp: Experiment):
    """BFS for a minimal-depth violating schedule.

    Sound because every check evaluated per edge is a function of
    (pre-state, label, post-state) only, never of the path taken.
    """
    init = exp.initial_state()
    seen = {exp.memo_key(init)}
    queue = deque([(init, [])])
    while queue:
        state, path = queue.popleft()
        if len(path) >= exp.depth_limit:
            continue
        for lab in exp.enabled_steps(state):
            try:
                post = exp.successor(state, lab)
            except (GenericityViolation, UninitializedRead) as e:
                return path + [lab], _classify(e), str(e)
            bad = inspect_edge(exp, state, lab, post)
            if bad:
                return path + [lab], bad[0], bad[1]
            key = exp.memo_key(post)
            if key not in seen:
                seen.add(key)
                queue.append((post, path + [lab]))
    return None


def fuzz(x, seed=0, episodes=1000) -> Verdict:
    """Randomized exploration: `episodes` uniformly scheduled executions."""
    exp = as_experiment(x)
    rng = random.Random(seed)
    max_steps = 0
    for ep in range(episodes):
        state = exp.initial_state()
        path: List[StepLabel] = []
        while len(path) <= exp.depth_limit:
            labels = exp.enabled_steps(state)
            if not labels:
                break
            lab = rng.choice(labels)
            try:
                post = exp.successor(state, lab)
            except (GenericityViolation, UninitializedRead) as e:
                return Verdict("fail", _classify(e), str(e), path + [lab],
                               {"episodes": ep + 1, "seed": seed})
            path.append(lab)
            bad = inspect_edge(exp, state, lab, post)
            if bad:
                return Verdict("fail", bad[0], bad[1], list(path),
                               {"episodes": ep + 1, "seed": seed})
            if lab.kind == ORDINARY:
                max_steps = max(max_steps, post.frames[lab.pid - 1].steps)
            state = post
    return Verdict("pass", stats={"episodes": episodes, "seed": seed,
                                  "max_attempt_steps": max_steps})


def check_rwf(x, labels) -> Optional[str]:
    """Replay a schedule and report the recoverable wait-freedom violation
    it exhibits, if any: an attempt that falls off the end of the program
    or overruns the certified per-attempt step bound."""
    exp = as_experiment(x)
    state = exp.initial_state()
    for lab in labels:
        state = exp.successor(state, lab)
        if lab.kind == ORDINARY:
            fr = state.frames[lab.pid - 1]
            if fr.status == FELL_OFF:
                return "p%d fell off the end of the program" % lab.pid
            if fr.steps > exp.bound:
                return "p%d exceeded the step bound" % lab.pid
    return None


def confirm_violation(x, labels):
    """Independent replay of a counterexample schedule; returns the
    (property, detail) it demonstrates or None if the schedule is clean."""
    exp = as_experiment(x)
    state = exp.initial_state()
    for lab in labels:
        try:
            post = exp.successor(state, lab)
        except (GenericityViolation, UninitializedRead) as e:
            return _classify(e), str(e)
        bad = inspect_edge(exp, state, lab, post)
        if bad:
            return bad
        state = post
    return None
