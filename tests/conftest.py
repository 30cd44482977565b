import os
from collections import deque

import pytest

from rclab import objects
from rclab.config import ExperimentConfig
from rclab.core import (
    BOTTOM,
    CRASH,
    CRASH_ALL_LABEL,
    FELL_OFF,
    HALTED,
    ORDINARY,
    RETURNED,
    RUNNING,
    Frame,
    GenericityViolation,
    SystemState,
    UninitializedRead,
    locals_tuple,
    ordinary,
)
from rclab.experiment import Experiment
from rclab.programs import END, Next, Ret

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
CASES_DIR = os.path.join(GOLDEN_DIR, "cases")


def make_config(**kw):
    base = dict(program="fig1", n=2, proposals=[10, 20])
    base.update(kw)
    return ExperimentConfig.from_dict(base)


def make_experiment(**kw):
    return Experiment(make_config(**kw))


def get_value(exp, state, name):
    """The value of the shared object `name` in the whole state `state`."""
    return state.objects[exp.idx[name]]


# Small configurations whose whole state graphs the differential tests walk.
DIFFERENTIAL_CONFIGS = {
    "fig1-tas-b1": dict(cons="tas", failure="simultaneous", budget=1),
    "fig2-2-1-atomic": dict(program="fig2", f=1, failure="independent", budget=1),
    "fig2-2-1-tas": dict(program="fig2", f=1, cons="tas", failure="independent",
                         budget=1),
    "fig3-b1": dict(program="fig3", failure="independent", budget=1),
    "cas-rc-b3": dict(program="cas-rc", failure="independent", budget=3),
}


def direct_step(exp, frame, objs):
    """The machine's own step for `frame` on `objs`: (outcome, accesses),
    each access an (object, op, args, new value, response)."""
    calls = []

    def access(name, op, args=()):
        new, resp = objects.apply(objs[exp.idx[name]], op, args)
        calls.append((name, op, args, new, resp))
        return resp

    return exp.machine.step(frame, access), calls


def reference_step(exp, state, label):
    """The state after `label` from the whole state `state`, worked out
    from the machine's own step and the model's rules alone: no transition
    table, id state or cache of the experiment.  The transition is held to
    it.  Raises what the step raises, and `GenericityViolation` where the
    monitor sees a process begin an instance it accessed in an earlier
    attempt."""
    machine, config = exp.machine, exp.config
    frames, objs = state.frames, state.objects
    failures, returns, participants, tas_seen, cons_access = state[2:]
    if label.kind != ORDINARY:
        # a crash resets its frame, a simultaneous one every frame that has
        # not halted, to the top of the program in the next attempt
        def hit(fr):
            return fr.pid == label.pid if label.kind == CRASH else fr.status != HALTED

        frames = tuple(
            Frame(fr.pid, machine.entry, locals_tuple(machine.init_locals(fr.pid, fr.proposal)),
                  fr.proposal, fr.attempt + 1) if hit(fr) else fr
            for fr in frames)
        return state._replace(frames=frames, failures=failures + 1)
    pid = label.pid
    frame = frames[pid - 1]
    outcome, calls = direct_step(exp, frame, objs)
    a1 = config.adversary == "assumption1"
    if a1:
        participants = participants | {pid}
    armed = False
    if isinstance(outcome, Ret):
        status = RETURNED if config.mode == "rerun-after-crash" else HALTED
        new_frame = Frame(pid, "done", frame.locals, frame.proposal, frame.attempt, status,
                          outcome.value, frame.steps + 1)
        returns = returns + ((pid, frame.attempt, outcome.value),)
    else:
        (name, op, _args, new, _resp), = calls
        instance = outcome.instance
        if instance is not None and config.monitor:
            held = objs[exp.idx[instance]] if instance in exp.idx else None
            if isinstance(held, objects.Cons):
                # the instance is one `Cons` object, which keeps its accessors
                prior = [a for p, a in held.accessors if p == pid]
            else:
                prior = [a for inst, p, a in cons_access if inst == instance and p == pid]
                cons_access = cons_access | {(instance, pid, frame.attempt)}
            if prior:
                raise GenericityViolation(instance, pid, frame.attempt, prior[0])
        if a1 and op in ("tas", "rtas"):
            armed = (pid, name) not in tas_seen
            tas_seen = tas_seen | {(pid, name)}
        slot = exp.idx[name]
        if new is not objs[slot]:
            objs = objs[:slot] + (new,) + objs[slot + 1:]
        new_frame = Frame(pid, outcome.pc,
                          frame.with_locals(outcome.updates) if outcome.updates else frame.locals,
                          frame.proposal, frame.attempt,
                          FELL_OFF if outcome.pc == END else RUNNING, frame.retval,
                          frame.steps + 1, armed)
    frames = frames[:pid - 1] + (new_frame,) + frames[pid:]
    return SystemState(frames, objs, failures, returns, participants, tas_seen, cons_access)


def reachable_edges(exp):
    """Every edge (state, label, post) of the reachable state graph, found
    by breadth-first search over `reference_step`."""
    init = exp.initial_state()
    seen = {init}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        for lab in exp.enabled_steps(state):
            post = reference_step(exp, state, lab)
            yield state, lab, post
            if post not in seen:
                seen.add(post)
                queue.append(post)


# Seeded bugs.  Each takes a machine's method, its `step` or its `bound`, and
# returns a mutant to patch over it.  The first two fig1 bugs' last step
# raises in the transition.


def reenter_after_crash(step):
    """fig1 with a seeded bug: recovery runs the consensus instance C again."""
    def mutant(self, frame, access):
        out = step(self, frame, access)
        return out._replace(pc="x:C") if frame.pc == "x:recD" else out
    return mutant


def read_before_write(step):
    """fig1 with a seeded bug: a process returns its decision before setting it."""
    def mutant(self, frame, access):
        return Ret(frame.loc("d")) if frame.pc == "x:if" else step(self, frame, access)
    return mutant


def keep_raced_decision(step):
    """fig2 with a seeded bug: the R-scan after deciding never forgets the
    decision, so a process that raced with a faster one still returns it."""
    def mutant(self, frame, access):
        if frame.pc != "xn:forp":
            return step(self, frame, access)
        zs = self.others(frame.pid)
        zi = frame.loc("zi")
        access("R[%d]" % zs[zi], "read")
        if zi + 1 < len(zs):
            return Next("xn:forp", {"zi": zi + 1})
        return Next("xn:retd")
    return mutant


def skip_decision_write(step):
    """fig1 with a seeded bug: a process reads `D` where it should record its
    decision there, so a recovering process never learns it."""
    def mutant(self, frame, access):
        if frame.pc != "x:wD":
            return step(self, frame, access)
        access("D", "read")
        return Next("x:retd")
    return mutant


def scan_decisions_descending(step):
    """fig2 with a seeded bug: the scan of `D[0..k-1]` runs from the top
    down, so the decision of the smallest iteration wins, not the largest."""
    def mutant(self, frame, access):
        if frame.pc != "xn:forado":
            return step(self, frame, access)
        k = frame.loc("k")
        kp = frame.loc("kp")
        resp = access("D[%d]" % (k - 1 - kp), "read")
        upd = {} if resp is BOTTOM else {"v": resp}
        if kp + 1 <= k - 1:
            upd["kp"] = kp + 1
            return Next("xn:forado", upd)
        return Next(self.inner.entry, upd)
    return mutant


def trust_unset_decision(step):
    """fig1 with a seeded bug: recovery returns the `D` it read even when it
    is unset."""
    def mutant(self, frame, access):
        if frame.pc != "x:recD":
            return step(self, frame, access)
        return Next("x:recDret", {"d": access("D", "read")})
    return mutant


def fig3_never_yields(step):
    """fig3 with a seeded bug: a process that finds the other's `P` set
    still writes its own and races on `C`, where it should yield and
    return the other's proposal."""
    def mutant(self, frame, access):
        out = step(self, frame, access)
        return out._replace(pc="ex:wP") if frame.pc == "ex:if2" else out
    return mutant


def frame_breaks_after_a_crash(check_frame):
    """A seeded invariant a crash can break, through `check_frame`: once a
    crash has happened no frame may hold a step.  A simultaneous crash
    resets every frame that has not halted, so under halt-after-return it
    breaks the invariant exactly when some frame has halted, and any
    ordinary step after a crash breaks it too."""
    def mutant(self, frame, failures):
        if failures >= 1 and frame.steps >= 1:
            return "p%d holds %d steps after %d failures" % (frame.pid, frame.steps, failures)
        return check_frame(self, frame, failures)
    return mutant


def objects_break_after_a_crash(check_objects):
    """fig2 with a seeded invariant a crash can break, through
    `check_objects`: once a crash has happened no `R[i]` may be 1.  A crash
    of the process that set its `R[i]` to 1 keeps the objects and counts a
    failure, so the crash edge is the first to break it."""
    def mutant(self, objs, failures):
        if failures >= 1:
            for i, slot in self._r_slots:
                if objs[slot].value == 1:
                    return "R[%d]=1 after %d failures" % (i, failures)
        return check_objects(self, objs, failures)
    return mutant


def bound_off_by_one(bound):
    """fig2 with a seeded bug: the static bound on the steps of one attempt
    is one less than the longest attempt."""
    def mutant(self):
        return bound(self) - 1
    return mutant


# A schedule of fig1 under one simultaneous crash that ends in each seeded
# bug's violating step, by the property it violates.
SEEDED_SCHEDULES = {
    GenericityViolation.prop: [ordinary(1)] * 4 + [CRASH_ALL_LABEL] + [ordinary(1)] * 4,
    UninitializedRead.prop: [ordinary(1)],
}


@pytest.fixture
def fig1_sim1():
    return make_experiment(failure="simultaneous", budget=1)


@pytest.fixture
def golden_dir():
    return GOLDEN_DIR


@pytest.fixture
def cases_dir():
    return CASES_DIR
