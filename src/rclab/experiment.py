"""Binds a configuration to a machine and implements the step semantics:
initial state construction, step enabledness (including the assumption-1
crash filter), and the pure state transition.

Enabledness is decided only by `enabled_steps(state)`.  The transition
trusts its label, which must come from there: the search draws its labels
from it, and a schedule from outside the search passes each label through
`simulator.require_enabled` first.

The transition has one entry point, `apply_step(state, label)`.  It
returns the next state and the `StepRecord` a trace stores (op text with
the JSON-encoded access arguments, and the response); a caller that needs
only the state takes `[0]`.  A step that leaves every shared object
unchanged (a read, an `rtas`, a failed `cas`, a crash) returns a state
whose `objects` is the very tuple of the pre-state.

Every step goes through the experiment's transition table.  A machine's
`step(frame, access)` names at most one shared-object access, which the
experiment performs (`objects.apply`) and answers, and is a pure function
of the frame and of that response.  So the table runs it once per (frame,
value of the object accessed) and keeps the access, the successor frame
and the step's record; a later step from an equal frame on an equal value
takes them from the table.  A step that raises is never recorded, so it
raises again on every visit.  What depends on the whole state (the
genericity monitor's accesses, `participants`, assumption 1's `tas_seen`
and `armed_crash`) is worked out in `_ordinary` on every step, outside the
table.  Equal values must therefore be interchangeable, which is why
`ExperimentConfig.validate` rejects two proposals that compare equal but
are not the same value.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple, Optional

from . import objects
from .config import ExperimentConfig
from .core import (
    CRASH,
    CRASH_ALL_LABEL,
    FELL_OFF,
    HALTED,
    ORDINARY,
    RETURNED,
    RUNNING,
    Frame,
    GenericityViolation,
    StepLabel,
    StepRecord,
    SystemState,
    crash,
    locals_tuple,
    ordinary,
)
from .programs import END, Ret, build_machine


class Access(NamedTuple):
    """What the transition table keeps of a step's one access: the object,
    the operation, the object's new value, and the consensus instance the
    step begins, if any."""

    obj: str
    op: str
    new_value: Any
    instance: Optional[str]


class Experiment:
    def __init__(self, config: ExperimentConfig):
        config.validate()
        self.config = config
        self.machine = build_machine(
            config.program,
            config.n,
            f=config.f,
            cons=config.cons,
            choice=config.choice,
            scan_order=config.scan_order,
        )
        layout = self.machine.layout()
        self.names = [name for name, _ in layout]
        self.idx = {name: i for i, name in enumerate(self.names)}
        self.initial_objects = tuple(v for _, v in layout)
        self.bound = self.machine.bound()
        self.tas_names = frozenset(self.machine.tas_objects())
        self.a1 = config.adversary == "assumption1"
        self.rerun = config.mode == "rerun-after-crash"
        pids = range(1, config.n + 1)
        self.ordinary_labels = tuple(ordinary(pid) for pid in pids)
        self.crash_labels = tuple(crash(pid) for pid in pids)
        self._crash_records = {lab: StepRecord(lab, "crash", None)
                               for lab in self.crash_labels + (CRASH_ALL_LABEL,)}
        if config.depth is not None:
            self.depth_limit = config.depth
        else:
            # Assumption 1 bounds failures by the TAS object count instead
            # of the configured budget.
            fb = len(self.tas_names) if self.a1 else config.budget
            self.depth_limit = (fb + 1) * config.n * self.bound + fb
        # The transition table (see the module docstring), filled as steps
        # are taken: a frame maps to (slot accessed, {its value: (Access,
        # successor frame, slot written or None, record)}), or for a return
        # to (None, (Ret, returned frame, None, record)); (CRASH, frame)
        # maps to the frame a crash resets it to.
        self._table = {}

    # -- state construction -------------------------------------------------

    def _entry_frame(self, pid: int, proposal, attempt: int = 1) -> Frame:
        """The frame of `pid` at the top of the program, in `attempt`."""
        locs = locals_tuple(self.machine.init_locals(pid, proposal))
        return Frame(pid, self.machine.entry, locs, proposal, attempt)

    def initial_state(self) -> SystemState:
        frames = tuple(self._entry_frame(pid, prop)
                       for pid, prop in enumerate(self.config.proposals, start=1))
        return SystemState(frames=frames, objects=self.initial_objects)

    def get_value(self, state: SystemState, name: str):
        return state.objects[self.idx[name]]

    # -- enabledness --------------------------------------------------------

    def _crashable(self, frame: Frame) -> bool:
        if frame.status == HALTED:
            return False
        if frame.status == RETURNED:
            return self.rerun
        return True  # running or fell off the end

    def enabled_steps(self, state: SystemState):
        labels = [
            self.ordinary_labels[fr.pid - 1] for fr in state.frames if fr.status == RUNNING
        ]
        kind = self.config.failure
        if kind == "independent":
            if self.a1 or state.failures < self.config.budget:
                labels += [
                    self.crash_labels[fr.pid - 1] for fr in state.frames if self._crashable(fr)
                ]
        elif kind == "simultaneous":
            if state.failures < self.config.budget:
                labels.append(CRASH_ALL_LABEL)
        if self.a1:
            labels = self.assumption1_filter(state, labels)
        return labels

    def assumption1_filter(self, state: SystemState, pending):
        """Crash steps are forced, not optional: the lowest-numbered
        participating process crashes exactly when its previous step was
        its first access in the execution to some TAS object; no other
        crash ever occurs.  The crasher is the lowest participant of the
        whole execution, so once a process has crashed, processes with
        smaller ids must never participate (their steps are pruned, since
        any extension containing one would violate the failure pattern
        retroactively)."""
        crashed = [fr.pid for fr in state.frames if fr.attempt > 1]
        low_crashed = min(crashed) if crashed else None
        forced = None
        if state.participants:
            low = min(state.participants)
            if state.frames[low - 1].armed_crash:
                forced = low
        out = []
        for lab in pending:
            if lab.kind == ORDINARY:
                if lab.pid == forced:
                    continue
                if low_crashed is not None and lab.pid < low_crashed:
                    continue
                out.append(lab)
            elif lab.kind == CRASH:
                if lab.pid == forced:
                    out.append(lab)
        return out

    # -- transition ---------------------------------------------------------

    def _reset_frame(self, frame: Frame) -> Frame:
        key = (CRASH, frame)
        reset = self._table.get(key)
        if reset is None:
            reset = self._table[key] = self._entry_frame(frame.pid, frame.proposal,
                                                         frame.attempt + 1)
        return reset

    def _instance_accesses(self, state: SystemState, instance: str):
        i = self.idx.get(instance)
        if i is not None and isinstance(state.objects[i], objects.Cons):
            return state.objects[i].accessors
        return {(p, a) for inst, p, a in state.cons_access if inst == instance}

    def apply_step(self, state: SystemState, label: StepLabel):
        """The transition: (new state, the step's record).  `label` must be
        one of `enabled_steps(state)`."""
        if label.kind == ORDINARY:
            return self._ordinary(state, label.pid)
        return self._crash(state, label), self._crash_records[label]

    def _ordinary(self, state: SystemState, pid: int):
        """One ordinary step of `pid`: (new state, the step's record)."""
        frame = state.frames[pid - 1]
        objs = state.objects
        entry = self._table.get(frame)
        hit = None
        if entry is not None:
            slot, hit = entry
            if slot is not None:
                hit = hit.get(objs[slot])
        if hit is None:
            hit = self._fill(frame, objs)
        outcome, new_frame, written, record = hit
        participants = state.participants | {pid} if self.a1 else state.participants

        if isinstance(outcome, Ret):
            new_state = SystemState(
                _swap(state.frames, pid - 1, new_frame),
                objs,
                state.failures,
                state.returns + ((pid, frame.attempt, outcome.value),),
                participants,
                state.tas_seen,
                state.cons_access,
            )
            return new_state, record

        cons_access = state.cons_access
        if outcome.instance is not None and self.config.monitor:
            for p2, a2 in self._instance_accesses(state, outcome.instance):
                if p2 == pid:
                    raise GenericityViolation(outcome.instance, pid, frame.attempt, a2)
            if self.idx.get(outcome.instance) is None:
                cons_access = cons_access | {(outcome.instance, pid, frame.attempt)}

        tas_seen = state.tas_seen
        if self.a1 and outcome.op in ("tas", "rtas"):
            if (pid, outcome.obj) not in tas_seen:
                new_frame = new_frame._replace(armed_crash=True)
            tas_seen = tas_seen | {(pid, outcome.obj)}

        new_state = SystemState(
            _swap(state.frames, pid - 1, new_frame),
            objs if written is None else _swap(objs, written, outcome.new_value),
            state.failures,
            state.returns,
            participants,
            tas_seen,
            cons_access,
        )
        return new_state, record

    def _fill(self, frame: Frame, objs):
        """Run the machine's step for `frame` on the objects `objs`, enter it
        in the transition table, and return the entry's (outcome, successor
        frame, slot written, record): the outcome is the `Ret` or the
        step's `Access`, the slot is None when the step changed no object,
        and the record is the step's `StepRecord`.
        A `Ret` accesses no object and is entered under the frame alone; a
        `Next` is entered under the frame and the value of the one object
        it accessed."""
        calls = []
        idx = self.idx

        def access(name, op, args=()):
            slot = idx[name]
            new, resp = objects.apply(objs[slot], op, args)
            calls.append((name, op, args, slot, new, resp))
            return resp

        outcome = self.machine.step(frame, access)
        label = self.ordinary_labels[frame.pid - 1]
        if isinstance(outcome, Ret):
            if calls:
                raise AssertionError("%s returned at %s after accessing %s"
                                     % (self.machine.program_id, frame.pc, calls[0][0]))
            new_frame = Frame(
                frame.pid, "done", frame.locals, frame.proposal, frame.attempt,
                RETURNED if self.rerun else HALTED, outcome.value, frame.steps + 1, False,
            )
            record = StepRecord(label, "%s return" % frame.pc, outcome.value)
            hit = (outcome, new_frame, None, record)
            self._table[frame] = (None, hit)
            return hit
        if len(calls) != 1:
            raise AssertionError("%s at %s made %d accesses; a step makes exactly one"
                                 % (self.machine.program_id, frame.pc, len(calls)))
        (name, op, args, slot, new, resp), = calls
        value = objs[slot]
        new_frame = Frame(
            frame.pid,
            outcome.pc,
            frame.with_locals(outcome.updates) if outcome.updates else frame.locals,
            frame.proposal,
            frame.attempt,
            FELL_OFF if outcome.pc == END else RUNNING,
            frame.retval,
            frame.steps + 1,
            False,
        )
        text = "%s %s %s" % (frame.pc, op, name)
        if args:
            text += " " + json.dumps(list(args))
        record = StepRecord(label, text, resp)
        # reads, rtas and a failed cas return the object value itself; the
        # state then keeps its objects tuple, so callers can tell no object
        # changed
        hit = (Access(name, op, new, outcome.instance), new_frame,
               None if new is value else slot, record)
        entry = self._table.setdefault(frame, (slot, {}))
        if entry[0] != slot:
            raise AssertionError("%s at %s accessed slot %s, earlier slot %s"
                                 % (self.machine.program_id, frame.pc, slot, entry[0]))
        entry[1][value] = hit
        return hit

    def _crash(self, state: SystemState, label: StepLabel) -> SystemState:
        """Reset the crashed frame, or for a simultaneous crash every frame
        that has not halted, and count one failure."""
        if label.kind == CRASH:
            frame = state.frames[label.pid - 1]
            frames = _swap(state.frames, label.pid - 1, self._reset_frame(frame))
        else:
            frames = tuple(
                fr if fr.status == HALTED else self._reset_frame(fr)
                for fr in state.frames
            )
        return SystemState(
            frames,
            state.objects,
            state.failures + 1,
            state.returns,
            state.participants,
            state.tas_seen,
            state.cons_access,
        )

    # -- hashing ------------------------------------------------------------

    def memo_key(self, state: SystemState):
        if not self.config.hash_ignores_attempt:
            return state
        frames = tuple(fr._replace(attempt=0) for fr in state.frames)
        returns = tuple((p, 0, v) for p, _a, v in state.returns)
        return state._replace(frames=frames, returns=returns)


def as_experiment(x) -> Experiment:
    """An `Experiment` from an experiment, a config, or a config dict."""
    if isinstance(x, Experiment):
        return x
    if isinstance(x, ExperimentConfig):
        return Experiment(x)
    return Experiment(ExperimentConfig.from_dict(dict(x)))


def _swap(tup, i, value):
    return tup[:i] + (value,) + tup[i + 1 :]
