"""Binds a configuration to a machine and implements the step semantics:
initial state construction, step enabledness (including the assumption-1
crash filter), and the pure state transition on interned id states.

Enabledness is decided only by `_enabled`, through `enabled_steps(state)`
or `enabled_ids(ids)`.  `enabled_ids` caches its result per status key:
each frame's status and whether `failures < budget`, all that `_enabled`
reads outside assumption 1 (which also reads `participants`, attempts and
armed crashes, and so is never cached).  The transition trusts its label,
which must come from there: the search draws its labels from it, and a
schedule from outside the search passes each label through
`simulator.require_enabled` first.

Id states.  Each experiment interns the components of the states it meets
to dense integer ids: frames, objects tuples, and the tuple of the other
fields (`failures, returns, participants, tas_seen, cons_access`).  An id
state is the tuple `(frame id, ..., frame id, objects id, others id)`,
one frame id per process.  Two id states are equal exactly when the
states they stand for are, so an id state is its own memo key, and it
hashes as a handful of ints, not as nested tuples.  The searches in
`checker`, the valency graph and the simulator step on id states and
build a `SystemState` (`materialize`) only where a caller needs a whole
one.  Under `hash_ignores_attempt`, `state_key` maps each
frame id and the others id to an id of the same component with every
attempt zeroed, which is `memo_key`'s partition on id states.

`successor` is the one step walk, and it runs no check: the searches in
`checker` step through it and then apply their edge checks, and the
valency graph, the simulator and `apply_step` step through it alone.
`apply_step(state, label)` is a view of `successor` on whole states: it
interns `state`, steps, and materializes the result, returning it with
the `StepRecord` a trace stores (op text with the JSON-encoded access
arguments, and the response, from `record`).  A caller that needs only
the state takes `[0]`.  The components of a state it returns are the
interned ones, so after a step that leaves every shared object unchanged
(a read, an `rtas`, a failed `cas`, a crash), `objects` is the very
tuple of a pre-state that `apply_step` or `materialize` made.
`apply_step` keeps the id state of the state it last returned, so a
caller stepping along one path interns nothing.

The transition goes through the experiment's transition table.  A
machine's `step(frame, access)` names at most one shared-object access,
which the experiment performs (`objects.apply`) and answers, and is a
pure function of the frame and of that response.  So `_fill` runs it
once per (frame id, value of the object accessed) and keeps an `_Entry`:
the access, the successor frame, and the step's `StepRecord`.  A later
step from an equal frame on an equal value takes the entry from the
table.  A step that raises is never recorded, so it raises again on
every visit.  Equal values must therefore be interchangeable, which is
why `ExperimentConfig.validate` rejects two proposals that compare equal
but are not the same value.

The genericity monitor on a consensus instance held in a `Cons` object
reads that object's accessors, which are the value the step accessed, so
`_fill` decides it.  What else depends on the rest of the state (returns,
the monitor on an instance built from other objects, `participants`,
assumption 1's `tas_seen` and `armed_crash`) is worked out in
`step_others` and kept in the entry's others map, keyed by others id.

Rows.  `successor` steps through `rows`, not the table: one row per (frame
id, objects id) that an ordinary step has been taken from, in a list
with a dict for each frame id, keyed by objects id, so an ordinary step
takes one list index and one dict lookup on an int.  A row is the
transition alone, built by `make_row` from the table entry: (successor
frame id, objects id after the step or None when the step keeps it, the
entry's others map or None); a step that keeps the objects id has one
row tuple for all of them.  A row holds no verdict: the searches look
the edge check up in `edge_checks` when the objects id changed
(`checker.edge_rule`), and the valency graph runs none.  A row and an
others-map entry are made only for a step that did not raise, so a step
that raises raises again on every visit.

Every fact derived from an id has one of two homes.  A list the hot path
indexes by id (`rows`, the key parts of `enabled_ids`) is extended by the
interner as it mints the id (`_Interner`'s `born`).  Any other fact is a
`core.Cache` of a pure function, built in `__init__`: crash resets,
armed frames, `state_key`'s ids, the machine's invariants, the checker's
state checks and `digest_ids`' texts.  The function closes over
interners, the machine (whose methods it looks up on each call, so a
patch on the instance is seen) and config values, never over the
experiment, so an experiment holds no reference cycle and is freed as
soon as its last reference goes.
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
    Cache,
    Frame,
    GenericityViolation,
    StepLabel,
    StepRecord,
    SystemState,
    check_returns,
    check_rwf,
    crash,
    digest_texts,
    encode,
    locals_tuple,
    ordinary,
)
from .programs import END, Ret, build_machine

# a frame's status as two bits of the enabledness key (see `enabled_ids`)
_STATUS_CODES = {RUNNING: 0, FELL_OFF: 1, RETURNED: 2, HALTED: 3}


class Access(NamedTuple):
    """What the transition table keeps of a step's one access: the object,
    the operation, the object's new value, and the consensus instance the
    step begins, if any."""

    obj: str
    op: str
    new_value: Any
    instance: Optional[str]


class _Entry:
    """One transition-table entry: a step from one frame on one value of the
    object it accessed.

    `outcome` is the `Ret` or the step's `Access`; `frame` is the successor
    frame, and `fid` its id.  `slot` is the slot the step wrote, or None
    when it changed no object.  `others_after` is None when the step leaves
    the other fields alone, and otherwise the others map of the step's
    rows: it maps an others id to (successor frame id, others id after the
    step).  `row` is the step's row from every objects id it keeps, and
    `record` its `StepRecord`."""

    __slots__ = ("outcome", "frame", "fid", "slot", "others_after", "row", "record")

    def __init__(self, outcome, frame, fid, slot, touches_others, record):
        self.outcome = outcome
        self.frame = frame
        self.fid = fid
        self.slot = slot
        self.others_after = {} if touches_others else None
        self.row = (fid, None, self.others_after)
        self.record = record


class _Interner:
    """Dense integer ids for components: equal components share the id of
    the first one met, which is its index in `values`.  `born`, if given,
    is called with each new component as its id is minted."""

    __slots__ = ("ids", "values", "born")

    def __init__(self, born=None):
        self.ids = {}
        self.values = []
        self.born = born

    def id(self, x) -> int:
        # one hash: `setdefault` returns the next free id exactly when `x`
        # is new
        values = self.values
        i = self.ids.setdefault(x, len(values))
        if i == len(values):
            values.append(x)
            if self.born is not None:
                self.born(x)
        return i


class Experiment:
    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.machine = build_machine(config)
        layout = self.machine.layout()
        self.n = config.n
        self.names = [name for name, _ in layout]
        self.idx = {name: i for i, name in enumerate(self.names)}
        # consensus instances held in one `Cons` object each, by name
        self._cons_slots = {name: i for i, (name, v) in enumerate(layout)
                            if isinstance(v, objects.Cons)}
        self.initial_objects = tuple(v for _, v in layout)
        self.bound = self.machine.bound()
        self.tas_names = frozenset(name for name, v in layout if isinstance(v, objects.Tas))
        self.a1 = config.adversary == "assumption1"
        self.rerun = config.mode == "rerun-after-crash"
        # the statuses of a frame an independent crash may hit: a halted one
        # never, a returned one when it may run again
        self._crashable = {RUNNING, FELL_OFF, RETURNED} if self.rerun else {RUNNING, FELL_OFF}
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
        # Lists born with each id: `rows[fid][oid]` is the row of frame id
        # fid on objects id oid, and the key parts of `enabled_ids` are each
        # frame id's status code and each others id's budget bit.
        self.rows, self._status_codes, self._budget_bits = rows, codes, bits = [], [], []
        budget = config.budget

        def frame_born(fr):
            rows.append({})
            codes.append(_STATUS_CODES[fr.status] << 2 * fr.pid - 1)

        # Interned components; `frames_by_id[fid]` is the frame of id fid,
        # and so on.
        self._frames = frames = _Interner(born=frame_born)
        self._objects = _Interner()
        self._others = others = _Interner(born=lambda x: bits.append(int(x[0] < budget)))
        self.frames_by_id = frames_by_id = frames.values
        self.objects_by_id = objects_by_id = self._objects.values
        self.others_by_id = others_by_id = others.values
        # The transition table (see the module docstring), filled as steps
        # are taken: a frame id maps to (slot accessed, {its value: _Entry}),
        # or for a return to (None, _Entry).
        self._table = {}
        # the labels of each enabledness key (see `enabled_ids`)
        self._enabled_by_key = {}
        # Caches of pure functions of ids.  No cache function closes over
        # `self`: that would make a reference cycle, which only the cyclic
        # collector frees.
        machine, bound = self.machine, self.bound
        # interns the attempt-free frames and others tuples of `state_key`
        # (never equal to each other)
        attemptless = _Interner()

        def reset(fid):
            fr = frames_by_id[fid]
            return frames.id(_entry_frame(machine, fr.pid, fr.proposal, fr.attempt + 1))

        def crashed(xid):
            x = others_by_id[xid]
            return others.id((x[0] + 1,) + x[1:])

        def key_others(xid):
            x = others_by_id[xid]
            return attemptless.id((x[0], _attemptless_returns(x[1])) + x[2:])

        # the frame a crash resets a frame to, the frame with its crash
        # armed, and the others after a crash
        self._resets = Cache(reset)
        self._armed = Cache(lambda fid: frames.id(frames_by_id[fid]._replace(armed_crash=True)))
        self._crashed = Cache(crashed)
        # the attempt-free ids of `state_key`
        self._key_frames = Cache(lambda fid: attemptless.id(_attemptless(frames_by_id[fid])))
        self._key_others = Cache(key_others)
        # the machine's invariants, keyed by (frame id, failures), (objects
        # id, failures) and (pre objects id, post objects id)
        self.frame_checks = Cache(lambda k: machine.check_frame(frames_by_id[k[0]], k[1]))
        self.objects_checks = Cache(lambda k: machine.check_objects(objects_by_id[k[0]], k[1]))
        self.edge_checks = Cache(
            lambda k: machine.check_edge(objects_by_id[k[0]], objects_by_id[k[1]]))
        # the checker's state checks (see `checker.state_checks`): RWF of
        # each frame id, agreement and validity of each others id's returns
        self.rwf_checks = Cache(lambda fid: check_rwf(frames_by_id[fid], bound))
        self.return_checks = Cache(lambda xid: check_returns(others_by_id[xid][1], config))
        # the JSON text of each frame id, objects id and others id (see
        # `digest_ids`); the other fields are joined by commas, without the
        # brackets of their tuple
        self._frame_texts = Cache(lambda fid: encode(frames_by_id[fid]))
        self._objects_texts = Cache(lambda oid: encode(objects_by_id[oid]))
        self._others_texts = Cache(lambda xid: encode(others_by_id[xid])[1:-1])
        # the state `apply_step` last returned, and its id state
        self._last = (None, None)

    # -- state construction -------------------------------------------------

    def initial_state(self) -> SystemState:
        frames = tuple(_entry_frame(self.machine, pid, prop)
                       for pid, prop in enumerate(self.config.proposals, start=1))
        return SystemState(frames=frames, objects=self.initial_objects)

    # -- interning ----------------------------------------------------------

    def intern(self, state: SystemState):
        """The id state of `state`."""
        return tuple([self._frames.id(fr) for fr in state.frames]) + (
            self._objects.id(state.objects), self._others.id(state[2:]))

    def materialize(self, ids) -> SystemState:
        """The `SystemState` the id state `ids` stands for."""
        n = self.n
        frames = self.frames_by_id
        # a loop, not a comprehension, and `tuple.__new__` (what `_make`
        # calls), not the constructor: each saves a Python call, and
        # `apply_step` materializes every state it returns
        fs = []
        for f in ids[:n]:
            fs.append(frames[f])
        return tuple.__new__(SystemState, (tuple(fs), self.objects_by_id[ids[n]])
                             + self.others_by_id[ids[n + 1]])

    def digest_ids(self, ids) -> str:
        """`core.digest` of the state the id state `ids` stands for, joined
        from JSON text cached per frame id, objects id and others id.  Each
        text is encoded from the interned component, so the digest is that
        of `materialize(ids)` bit for bit, and no `SystemState` is built."""
        n = self.n
        texts = self._frame_texts
        return digest_texts(",".join([texts[f] for f in ids[:n]]),
                            self._objects_texts[ids[n]], self._others_texts[ids[n + 1]])

    # -- enabledness --------------------------------------------------------

    def enabled_steps(self, state: SystemState):
        return self._enabled(state.frames, state.failures, state.participants)

    def enabled_ids(self, ids):
        """`enabled_steps` of the state the id state `ids` stands for, cached
        per status key outside assumption 1.  The list is shared by every
        state of its key: callers must not mutate it."""
        if self.a1:
            return self._enabled_ids(ids)
        n = self.n
        codes = self._status_codes
        # the key: each frame's status code, shifted to its pid's position,
        # plus the failures bit
        key = self._budget_bits[ids[n + 1]]
        for f in ids[:n]:
            key += codes[f]
        labels = self._enabled_by_key.get(key)
        if labels is None:
            labels = self._enabled_by_key[key] = self._enabled_ids(ids)
        return labels

    def _enabled_ids(self, ids):
        """`_enabled` of the state the id state `ids` stands for."""
        n = self.n
        frames = self.frames_by_id
        others = self.others_by_id[ids[n + 1]]
        fs = []  # a loop, as in `materialize`
        for f in ids[:n]:
            fs.append(frames[f])
        return self._enabled(fs, others[0], others[2])

    def _enabled(self, frames, failures, participants):
        ordinary = self.ordinary_labels
        labels = [ordinary[fr.pid - 1] for fr in frames if fr.status == RUNNING]
        config = self.config
        kind = config.failure
        if kind == "independent":
            if self.a1 or failures < config.budget:
                crashes = self.crash_labels
                crashable = self._crashable
                labels += [crashes[fr.pid - 1] for fr in frames if fr.status in crashable]
        elif kind == "simultaneous":
            if failures < config.budget:
                labels.append(CRASH_ALL_LABEL)
        if self.a1:
            labels = self.assumption1_filter(frames, participants, labels)
        return labels

    def assumption1_filter(self, frames, participants, pending):
        """Crash steps are forced, not optional: the lowest-numbered
        participating process crashes exactly when its previous step was
        its first access in the execution to some TAS object; no other
        crash ever occurs.  The crasher is the lowest participant of the
        whole execution, so once a process has crashed, processes with
        smaller ids must never participate (their steps are pruned, since
        any extension containing one would violate the failure pattern
        retroactively)."""
        crashed = [fr.pid for fr in frames if fr.attempt > 1]
        low_crashed = min(crashed) if crashed else None
        forced = None
        if participants:
            low = min(participants)
            if frames[low - 1].armed_crash:
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

    def apply_step(self, state: SystemState, label: StepLabel):
        """The transition on whole states, a view of `successor`: (new
        state, the step's record).  `label` must be one of
        `enabled_steps(state)`."""
        last, ids = self._last
        if state is not last:
            ids = self.intern(state)
        post = self.successor(ids, label)
        new_state = self.materialize(post)
        self._last = (new_state, post)
        return new_state, self.record(ids, label)

    def record(self, ids, label: StepLabel) -> StepRecord:
        """The `StepRecord` of the step `label` from the id state `ids`,
        which `successor` has taken: it reads the table entry that step
        used."""
        if label.kind != ORDINARY:
            return self._crash_records[label]
        return self._entry(ids[label.pid - 1], self.objects_by_id[ids[self.n]]).record

    def successor(self, ids, label: StepLabel):
        """The id state after `label` from the id state `ids`; `label` must
        be one of `enabled_ids(ids)`.  Builds no `SystemState` and no
        record, and runs no check."""
        n = self.n
        if label.kind != ORDINARY:
            return self._crash_ids(ids, label)
        i = label.pid - 1
        pre_fid, pre_oid, xid = ids[i], ids[n], ids[n + 1]
        fid, oid, others = self.rows[pre_fid].get(pre_oid) or self.make_row(pre_fid, pre_oid)
        if others is not None:
            fid, xid = others.get(xid) or self.step_others(pre_fid, pre_oid, xid)
        post = list(ids)
        post[i] = fid
        if oid is not None:
            post[n] = oid
        post[n + 1] = xid
        return tuple(post)

    def make_row(self, fid: int, oid: int):
        """Build and keep the row of the step of frame `fid` on the objects
        `oid`, from the table entry, and return it."""
        objs = self.objects_by_id[oid]
        entry = self._entry(fid, objs)
        row = entry.row
        if entry.slot is not None:
            new_oid = self._objects.id(_swap(objs, entry.slot, entry.outcome.new_value))
            if new_oid != oid:
                row = (entry.fid, new_oid, entry.others_after)
        self.rows[fid][oid] = row
        return row

    def _entry(self, fid: int, objs) -> _Entry:
        """The table entry of the step of frame `fid` on the objects `objs`,
        made by `_fill` if there is none."""
        got = self._table.get(fid)
        if got is not None:
            slot, entry = got
            if slot is not None:
                entry = entry.get(objs[slot])
            if entry is not None:
                return entry
        return self._fill(fid, objs)

    def _fill(self, fid: int, objs) -> _Entry:
        """Run the machine's step for frame `fid` on the objects `objs`,
        intern the successor frame, enter the step in the transition table,
        and return the entry.
        A `Ret` accesses no object and is entered under the frame id alone;
        a `Next` is entered under the frame id and the value of the one
        object it accessed."""
        frame = self.frames_by_id[fid]
        label = self.ordinary_labels[frame.pid - 1]
        calls = []
        idx = self.idx

        def access(name, op, args=()):
            slot = idx[name]
            new, resp = objects.apply(objs[slot], op, args)
            calls.append((name, op, args, slot, new, resp))
            return resp

        outcome = self.machine.step(frame, access)
        if isinstance(outcome, Ret):
            if calls:
                raise AssertionError("%s returned at %s after accessing %s"
                                     % (self.machine.program_id, frame.pc, calls[0][0]))
            new_frame = Frame(
                frame.pid, "done", frame.locals, frame.proposal, frame.attempt,
                RETURNED if self.rerun else HALTED, outcome.value, frame.steps + 1, False,
            )
            entry = _Entry(outcome, new_frame, self._frames.id(new_frame), None, True,
                           StepRecord(label, "%s return" % frame.pc, outcome.value))
            self._table[fid] = (None, entry)
            return entry
        if len(calls) != 1:
            raise AssertionError("%s at %s made %d accesses; a step makes exactly one"
                                 % (self.machine.program_id, frame.pc, len(calls)))
        (name, op, args, slot, new, resp), = calls
        text = "%s %s %s" % (frame.pc, op, name)
        if args:
            text += " " + json.dumps(list(args))
        value = objs[slot]
        instance = outcome.instance
        watched = instance is not None and self.config.monitor
        if watched and instance in self._cons_slots:
            # the monitor reads the instance's accessors, the value accessed
            if self._cons_slots[instance] != slot:
                raise AssertionError("%s at %s begins %s but accesses %s"
                                     % (self.machine.program_id, frame.pc, instance, name))
            for p2, a2 in value.accessors:
                if p2 == frame.pid:
                    raise GenericityViolation(instance, frame.pid, frame.attempt, a2)
            watched = False
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
        # reads, rtas and a failed cas return the object value itself; the
        # state then keeps its objects id without a lookup
        entry = _Entry(Access(name, op, new, instance), new_frame, self._frames.id(new_frame),
                       None if new is value else slot, watched or self.a1,
                       StepRecord(label, text, resp))
        got = self._table.get(fid)
        if got is None:
            got = self._table[fid] = (slot, {})
        elif got[0] != slot:
            raise AssertionError("%s at %s accessed slot %s, earlier slot %s"
                                 % (self.machine.program_id, frame.pc, slot, got[0]))
        got[1][value] = entry
        return entry

    def step_others(self, fid: int, oid: int, xid: int):
        """(successor frame id, others id after the step) of the step of frame
        `fid` on the objects `oid` from the others `xid`, entered in the
        entry's others map.  Raises `GenericityViolation` when the step
        begins an instance its process accessed in an earlier attempt."""
        entry = self._entry(fid, self.objects_by_id[oid])
        failures, returns, participants, tas_seen, cons_access = self.others_by_id[xid]
        pid = entry.frame.pid
        attempt = entry.frame.attempt
        outcome = entry.outcome
        armed = False
        if self.a1:
            participants = participants | {pid}
        if isinstance(outcome, Ret):
            returns = returns + ((pid, attempt, outcome.value),)
        else:
            instance = outcome.instance
            # `_fill` watched an instance held in a `Cons` object
            if instance is not None and self.config.monitor and instance not in self._cons_slots:
                for inst, p2, a2 in cons_access:
                    if inst == instance and p2 == pid:
                        raise GenericityViolation(instance, pid, attempt, a2)
                cons_access = cons_access | {(instance, pid, attempt)}
            if self.a1 and outcome.op in ("tas", "rtas"):
                armed = (pid, outcome.obj) not in tas_seen
                tas_seen = tas_seen | {(pid, outcome.obj)}
        got = entry.others_after[xid] = (
            self._armed[entry.fid] if armed else entry.fid,
            self._others.id((failures, returns, participants, tas_seen, cons_access)))
        return got

    def _crash_ids(self, ids, label: StepLabel):
        """Reset the crashed frame, or for a simultaneous crash every frame
        that has not halted, and count one failure."""
        n = self.n
        resets = self._resets
        if label.kind == CRASH:
            i = label.pid - 1
            fids = ids[:i] + (resets[ids[i]],) + ids[i + 1:n]
        else:
            frames = self.frames_by_id
            fids = tuple([f if frames[f].status == HALTED else resets[f] for f in ids[:n]])
        return fids + (ids[n], self._crashed[ids[n + 1]])

    # -- hashing ------------------------------------------------------------

    def memo_key(self, state: SystemState):
        """The memo key of a whole state: the state itself, or under
        `hash_ignores_attempt` the state with the attempts of its frames
        and returns zeroed."""
        if not self.config.hash_ignores_attempt:
            return state
        return state._replace(frames=tuple([_attemptless(fr) for fr in state.frames]),
                              returns=_attemptless_returns(state.returns))

    def state_key(self, ids):
        """`memo_key` on id states: under `hash_ignores_attempt`, `ids` with
        each frame id and the others id mapped to the id of the same
        component with its attempts zeroed; otherwise `ids` itself."""
        if not self.config.hash_ignores_attempt:
            return ids
        n = self.n
        key_frames = self._key_frames
        return tuple([key_frames[f] for f in ids[:n]]) + (ids[n], self._key_others[ids[n + 1]])


def as_experiment(x) -> Experiment:
    """An `Experiment` from an experiment, a config, or a config dict."""
    if isinstance(x, Experiment):
        return x
    if isinstance(x, ExperimentConfig):
        return Experiment(x)
    return Experiment(ExperimentConfig.from_dict(dict(x)))


def _entry_frame(machine, pid: int, proposal, attempt: int = 1) -> Frame:
    """The frame of `pid` at the top of `machine`'s program, in `attempt`."""
    locs = locals_tuple(machine.init_locals(pid, proposal))
    return Frame(pid, machine.entry, locs, proposal, attempt)


def _attemptless(frame: Frame) -> Frame:
    return frame._replace(attempt=0)


def _attemptless_returns(returns):
    return tuple([(p, 0, v) for p, _a, v in returns])


def _swap(tup, i, value):
    return tup[:i] + (value,) + tup[i + 1 :]
