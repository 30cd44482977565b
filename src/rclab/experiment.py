"""Binds a configuration to a machine and implements the step semantics:
initial state construction, step enabledness (including the assumption-1
crash filter), and the state transition on packed id states.

Enabledness is decided only by `_enabled`, through `enabled_steps(state)`
or `enabled_ids(s)`.  `enabled_ids` caches its result per status key:
each frame's status and `failures`, all that `_enabled` reads outside
assumption 1 (which also reads `participants`, attempts and armed
crashes, and so is never cached).  The transition trusts its label,
which must come from there: the search draws its labels from it, and a
schedule from outside the search passes each label through
`simulator.require_enabled` first.

Id states.  Each experiment interns the components of the states it meets
to dense integer ids: frames, objects tuples, and the tuple of the other
fields (`failures, returns, participants, tas_seen, cons_access`).  An id
state is one int.  Its fields, from the low bits up, are `failures`, each
frame's 2-bit status code, each process's frame id, the objects id and,
at the top, the others id; `failures` and the status codes are derived
from the others id and the frame ids (see `Layout`).  `s &
layout.kmask` is the status key.  Two id states are equal exactly when
the states they stand for are, so an id state is its own memo key.  The
searches in `checker`, the valency graph and the simulator step on id
states and build a `SystemState` (`materialize`) only where a caller
needs a whole one.

Widths.  An experiment's `layout` is fixed when it is built: each frame
id gets `FRAME_BITS` bits, the objects id `OBJECTS_BITS`, and `failures`
as many as the experiment's failure bound needs; the others id, at the
top, needs no width.  So an id state, once packed, stays valid for the
experiment's life, and no holder of id states ever re-keys them.  An id
that would not fit is never minted: the frame and objects interners'
`born` callbacks raise `RcError` naming the field, before the id is
kept, so an id state never holds a field that spilled into its
neighbour.  `_pack` raises when `failures` does not fit its field, which
only a state from outside the search can do: a crash is enabled only
below the failure bound (the configured budget), and under assumption 1
every crash is the one process that crashes first taking its armed
crash, armed by its first access to a TAS object, so there are at most
as many crashes as TAS objects, the bound assumption 1 takes.

Rows.  An ordinary step of process i from `s` is `s + d`, where the row
`d = rows[i][s & layout.masks[i]]` is keyed by the fields the step reads
and the checks depend on: frame i, the objects id and `failures`.  `d`
is the difference of the two id states, status code included.  A row is
built by `_build`, from the transition table's entry (see below), on
the first step from its key, together with its checks (`verdict`): the
transition's own `TransitionError`s raise and leave no row, so they
raise again on every visit; any other failed check makes the row `(d,
(property, detail))`, so `d.__class__ is not int` sends an edge that
fails a check to `successor`, which raises the violation when `checked`
and else steps.  A step that runs no check (the valency graph, the
simulator) builds its row without them, and `check_rows` works them out
before the next checked search steps.  A step that reads the other
fields has the row True (a return) or False, and its second-level row
is in `others_rows[i]`, keyed by `s ^ s & layout.marks[i][d]`, which
keeps the others id.  A crash has no row, since its checks read every
frame and the objects: `successor` adds to `s` the difference each reset
frame's field and status code take, cached per frame id in
`reset_deltas`, and that of the others id (`_crash`), and checks every
crash edge it steps with `checked`.  Rows are ints and
bools, which the cyclic collector does not track, and a failing row's
tuple of an int and strings, which it untracks when it first meets it.
`moves(s)` gives, per label of `enabled_ids(s)`, the row store and mask
a search looks the step up with.

The transition table.  A machine's `step(frame, access)` names at most
one shared-object access, which the table performs (`objects.apply`)
and answers, and is a pure function of the frame and of that response.
So `_entry` runs it once per (frame id, value of the object
accessed) and keeps an `Entry`: the access, the successor frame, and
the step's `StepRecord`.  A later step from an equal frame on an equal
value takes the entry from the table.  A step that raises is never
recorded, so it raises again on every visit.  Equal values must
therefore be interchangeable, which is why `ExperimentConfig.validate`
rejects two proposals that compare equal but are not the same value.
The genericity monitor on a consensus instance held in a `Cons` object
reads that object's accessors, which are the value the step accessed,
so the table decides it as it runs the step.  What else depends on the
rest of the state (returns, the monitor on an instance built from other
objects, `participants`, assumption 1's `tas_seen` and `armed_crash`)
is worked out by `step_others`.

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

Every fact derived from an id has one of two homes.  A list the hot path
indexes by id (the status codes, each frame's steps in `steps_of`) is
extended by the interner as it mints the id (`Interner`'s `born`).  Any other fact is a `core.Cache` of a
pure function, built in `__init__`: crash differences, armed frames, the
machine's invariants, the checks `verdict` folds and `digest_ids`'
texts.  The function closes over interners, the machine (whose methods it
looks up on each call, so a patch on the instance is seen) and config
values, never over the experiment, so an experiment holds no reference
cycle and is freed as soon as its last reference goes.
"""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Any, NamedTuple, Optional

from . import objects
from .config import ExperimentConfig
from .core import (
    CRASH,
    CRASH_ALL_LABEL,
    FELL_OFF,
    HALTED,
    INVARIANT,
    ORDINARY,
    RETURNED,
    RUNNING,
    Cache,
    Frame,
    GenericityViolation,
    RcError,
    StepLabel,
    StepRecord,
    SystemState,
    Violation,
    check_returns,
    check_rwf,
    crash,
    digest_texts,
    encode,
    locals_tuple,
    ordinary,
)
from .programs import END, Ret, build_machine

# a frame's status as two bits of the status key (see `enabled_ids`)
_STATUS_CODES = {RUNNING: 0, FELL_OFF: 1, RETURNED: 2, HALTED: 3}

# the widths in bits of a frame id's field and of the objects id's (see
# "Widths"), with room to spare: fig2 n=2 f=4 `cons=tas` budget 4, 12.9 M
# states, mints 4,990 frame ids and 112,528 objects ids
FRAME_BITS = 16
OBJECTS_BITS = 24

# the row store of a crash's label in `moves`, which is empty: a crash
# steps by `reset_deltas` in `successor`, which checks it
_NO_ROWS = MappingProxyType({})


class Access(NamedTuple):
    """What the transition table keeps of a step's one access: the object,
    the operation, the object's new value, and the consensus instance the
    step begins, if any."""

    obj: str
    op: str
    new_value: Any
    instance: Optional[str]


class Entry:
    """One transition-table entry: a step from one frame on one value of the
    object it accessed.

    `outcome` is the `Ret` or the step's `Access`; `frame` is the successor
    frame, and `fid` its id.  `slot` is the slot the step wrote, or None
    when it changed no object.  `reads` is None when the step leaves the
    other fields alone, True for a return and False for another step
    that reads or changes them (see `Experiment.step_others`), and
    `record` is its `StepRecord`."""

    __slots__ = ("outcome", "frame", "fid", "slot", "reads", "record")

    def __init__(self, outcome, frame, fid, slot, reads, record):
        self.outcome = outcome
        self.frame = frame
        self.fid = fid
        self.slot = slot
        self.reads = reads
        self.record = record


class Interner:
    """Dense integer ids for components: equal components share the id of
    the first one met, which is its index in `values`.  `born`, if given,
    is called with each new component before its id is kept, so an id it
    refuses by raising is never minted."""

    __slots__ = ("ids", "values", "born")

    def __init__(self, born=None):
        self.ids = {}
        self.values = []
        self.born = born

    def id(self, x) -> int:
        i = self.ids.get(x)
        if i is None:
            if self.born is not None:
                self.born(x)
            i = self.ids[x] = len(self.values)
            self.values.append(x)
        return i


class Layout:
    """Where the fields of an id state of `n` processes lie, from the low
    bits up: `failures` (`cw` bits), each process's 2-bit status code
    (process i's at `cw + 2 * i`), each process's frame id (`fw` bits,
    process i's at `shifts[i]`), the objects id (`ow` bits, at `osh`), and
    at the top the others id (at `xsh`), which no field lies above, so it
    needs no width.  `s & kmask` is the status key: failures and status
    codes.

    `masks[i]` selects what an ordinary step of process i reads: frame i,
    the objects id and failures.  A key that holds the others id is `s ^ s
    & m`, `s` with the fields of `m` cleared: `marks[i][False]` clears the
    status codes and the other frames, `marks[i][True]` the objects id
    too, for a return, which reads no object."""

    __slots__ = ("widths", "fail_mask", "kmask", "fmask", "omask", "shifts", "osh", "xsh",
                 "masks", "marks")

    def __init__(self, n, fw, ow, cw):
        self.widths = (fw, ow, cw)
        self.fail_mask = (1 << cw) - 1
        self.kmask = (1 << cw + 2 * n) - 1
        self.fmask, self.omask = (1 << fw) - 1, (1 << ow) - 1
        base = cw + 2 * n
        self.shifts = [base + i * fw for i in range(n)]
        self.osh = base + n * fw
        self.xsh = self.osh + ow
        objs = self.omask << self.osh
        self.masks = [self.fail_mask | self.fmask << sh | objs for sh in self.shifts]
        frames = ((1 << n * fw) - 1) << base
        codes = self.kmask ^ self.fail_mask
        xmarks = [codes | frames ^ self.fmask << sh for sh in self.shifts]
        self.marks = [(m, m | objs) for m in xmarks]


class Experiment:
    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.machine = build_machine(config)
        layout = self.machine.layout()
        self.n = config.n
        self.names = [name for name, _ in layout]
        self.idx = {name: i for i, name in enumerate(self.names)}
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
        # Assumption 1 bounds failures by the TAS object count instead of
        # the configured budget.
        fb = len(self.tas_names) if self.a1 else config.budget
        if config.depth is not None:
            self.depth_limit = config.depth
        else:
            self.depth_limit = (fb + 1) * config.n * self.bound + fb
        # the one layout of every id state (see "Widths")
        self.layout = Layout(self.n, FRAME_BITS, OBJECTS_BITS, max(1, fb.bit_length()))
        # the rows and second-level rows of each process, process i's at i
        # (see "Rows")
        self.rows = [{} for _ in pids]
        self.others_rows = [{} for _ in pids]
        # one int object per distinct row: most rows repeat another's
        # difference
        self._deltas = {}
        # whether a row holds no verdict yet (see `check_rows`)
        self._unchecked = False
        # each frame id's status code, shifted to its process's two bits, and
        # the steps its frame took in its attempt
        self._status_codes = codes = []
        self.steps_of = steps_of = []

        def frame_born(fr):
            _check_room(len(codes), FRAME_BITS, "frame")
            codes.append(_STATUS_CODES[fr.status] << 2 * (fr.pid - 1))
            steps_of.append(fr.steps)

        def objects_born(_objs):
            _check_room(len(objects_by_id), OBJECTS_BITS, "objects")

        # Interned components; `frames_by_id[fid]` is the frame of id fid,
        # and so on.
        self._frames = frames = Interner(born=frame_born)
        self._objects = Interner(born=objects_born)
        self._others = others = Interner()
        self.frames_by_id = frames_by_id = frames.values
        self.objects_by_id = objects_by_id = self._objects.values
        self.others_by_id = others_by_id = others.values
        # the labels of each status key (see `enabled_ids`), and the moves
        # of each (see `moves`)
        self._enabled_by_key = {}
        self.moves_by_key = {}
        # Caches of pure functions of ids.  No cache function closes over
        # `self`: that would make a reference cycle, which only the cyclic
        # collector frees.
        machine, bound, lay = self.machine, self.bound, self.layout

        def reset_delta(fid):
            fr = frames_by_id[fid]
            if fr.status == HALTED:
                return 0
            g = frames.id(_entry_frame(machine, fr.pid, fr.proposal, fr.attempt + 1))
            return (g - fid << lay.shifts[fr.pid - 1]) + (codes[g] - codes[fid] << lay.widths[2])

        def crashed(xid):
            x = others_by_id[xid]
            return others.id((x[0] + 1,) + x[1:])

        # what a crash that resets a frame adds to its field and its status
        # code (0 for a halted frame, which no crash resets), the others
        # after a crash, and the frame with its crash armed
        self.reset_deltas = Cache(reset_delta)
        self._armed = Cache(lambda fid: frames.id(frames_by_id[fid]._replace(armed_crash=True)))
        self._crashed = Cache(crashed)
        # the transition table: a frame id maps to (slot accessed, {its
        # value: Entry}), or for a return to (None, Entry)
        self._entries = {}
        # consensus instances held in one `Cons` object each, by name
        self._cons_slots = {name: i for i, (name, v) in enumerate(layout)
                            if isinstance(v, objects.Cons)}
        # the machine's invariants, keyed by (frame id, failures), (objects
        # id, failures) and (pre objects id, post objects id)
        self.frame_checks = Cache(lambda k: machine.check_frame(frames_by_id[k[0]], k[1]))
        self.objects_checks = Cache(lambda k: machine.check_objects(objects_by_id[k[0]], k[1]))
        self.edge_checks = Cache(
            lambda k: machine.check_edge(objects_by_id[k[0]], objects_by_id[k[1]]))
        # the property checks `verdict` folds: RWF of each frame id,
        # agreement and validity of each others id's returns
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

    # -- packed id states ---------------------------------------------------

    def intern(self, state: SystemState) -> int:
        """The id state of `state`; raises `RcError` when one of its ids or
        its `failures` does not fit the layout (see "Widths")."""
        return self._pack([self._frames.id(fr) for fr in state.frames],
                          self._objects.id(state.objects), self._others.id(state[2:]))

    def unpack(self, s: int):
        """The component ids of the id state `s`: the tuple (frame id, ...,
        frame id, objects id, others id), one frame id per process."""
        lay = self.layout
        fmask = lay.fmask
        ids = [(s >> sh) & fmask for sh in lay.shifts]
        ids.append((s >> lay.osh) & lay.omask)
        ids.append(s >> lay.xsh)
        return tuple(ids)

    def frame(self, s: int, pid: int) -> Frame:
        """The frame of process `pid` in the id state `s`."""
        lay = self.layout
        return self.frames_by_id[(s >> lay.shifts[pid - 1]) & lay.fmask]

    def _pack(self, fids, oid: int, xid: int) -> int:
        """The id state of these component ids."""
        failures = self.others_by_id[xid][0]
        lay = self.layout
        if failures > lay.fail_mask:
            raise RcError("failures %d does not fit the %d-bit failures field"
                          % (failures, lay.widths[2]))
        codes = self._status_codes
        s, status = failures | oid << lay.osh | xid << lay.xsh, 0
        for f, sh in zip(fids, lay.shifts):
            s |= f << sh
            status += codes[f]
        return s | status << lay.widths[2]

    def materialize(self, s: int) -> SystemState:
        """The `SystemState` the id state `s` stands for."""
        lay = self.layout
        frames, fmask = self.frames_by_id, lay.fmask
        # a loop, not a comprehension, and `tuple.__new__` (what `_make`
        # calls), not the constructor: each saves a Python call, and
        # `apply_step` materializes every state it returns
        fs = []
        for sh in lay.shifts:
            fs.append(frames[s >> sh & fmask])
        return tuple.__new__(SystemState, (tuple(fs), self.objects_by_id[s >> lay.osh & lay.omask])
                             + self.others_by_id[s >> lay.xsh])

    def digest_ids(self, s: int) -> str:
        """`core.digest` of the state the id state `s` stands for, joined
        from JSON text cached per frame id, objects id and others id.  Each
        text is encoded from the interned component, so the digest is that
        of `materialize(s)` bit for bit, and no `SystemState` is built."""
        lay = self.layout
        texts, fmask = self._frame_texts, lay.fmask
        return digest_texts(",".join([texts[s >> sh & fmask] for sh in lay.shifts]),
                            self._objects_texts[s >> lay.osh & lay.omask],
                            self._others_texts[s >> lay.xsh])

    # -- enabledness --------------------------------------------------------

    def enabled_steps(self, state: SystemState):
        return self._enabled(state.frames, state.failures, state.participants)

    def enabled_ids(self, s: int):
        """`enabled_steps` of the state the id state `s` stands for, cached
        per status key `s & layout.kmask` outside assumption 1.  The list is
        shared by every state of its key: callers must not mutate it."""
        if self.a1:
            return self._enabled_ids(s)
        key = s & self.layout.kmask
        labels = self._enabled_by_key.get(key)
        if labels is None:
            labels = self._enabled_by_key[key] = self._enabled_ids(s)
        return labels

    def _enabled_ids(self, s: int):
        """`_enabled` of the state the id state `s` stands for, which it
        does not build."""
        ids = self.unpack(s)
        others = self.others_by_id[ids[-1]]
        return self._enabled([self.frames_by_id[f] for f in ids[:self.n]], others[0], others[2])

    def moves(self, s: int):
        """(label, row store, mask, second-level store, marks) for each label
        of `enabled_ids(s)`, in its order: the step is `s + d` for the row
        `d = store.get(s & mask)`, or for `d` a bool the second-level row
        `deep.get(s ^ s & marks[d])`, when that is an int, and else
        `successor`'s (see "Rows").  A crash's store is empty: a crash steps
        through `successor`.  Kept per status key in `moves_by_key` outside
        assumption 1; the list is shared, as `enabled_ids`' is."""
        lay = self.layout
        rows, deep, masks, marks = self.rows, self.others_rows, lay.masks, lay.marks
        out = []
        for lab in self.enabled_ids(s):
            if lab.kind == ORDINARY:
                i = lab.pid - 1
                out.append((lab, rows[i], masks[i], deep[i], marks[i]))
            else:
                out.append((lab, _NO_ROWS, 0, None, None))
        if not self.a1:
            self.moves_by_key[s & lay.kmask] = out
        return out

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
        last, s = self._last
        if state is not last:
            s = self.intern(state)
        rec = self.record(s, label)
        post = self.successor(s, label)
        new_state = self.materialize(post)
        self._last = (new_state, post)
        return new_state, rec

    def record(self, s: int, label: StepLabel) -> StepRecord:
        """The `StepRecord` of the step `label` from the id state `s`: it
        reads the table entry that step uses, and raises what the step
        raises in the table (see the module docstring)."""
        if label.kind != ORDINARY:
            return self._crash_records[label]
        lay = self.layout
        return self._entry(s >> lay.shifts[label.pid - 1] & lay.fmask,
                                 self.objects_by_id[s >> lay.osh & lay.omask]).record

    def successor(self, s: int, label: StepLabel, checked: bool = False) -> int:
        """The id state after `label` from the id state `s`; `label` must be
        one of `enabled_ids(s)`.  Raises the transition's own
        `TransitionError`s, and with `checked` a `Violation` for the first
        check of `verdict` the edge fails.  Builds no `SystemState` and no
        record."""
        if checked and self._unchecked:
            self.check_rows()
        if label.kind != ORDINARY:
            post = self._crash(s, label)
            if checked:
                bad = self.verdict(s, label, post)
                if bad:
                    raise Violation(*bad)
            return post
        lay = self.layout
        i = label.pid - 1
        d = self.rows[i].get(s & lay.masks[i])
        if d.__class__ is bool:
            d = self.others_rows[i].get(s ^ s & lay.marks[i][d])
        if d is None:
            return self._build(s, i, checked)
        return _through(s, d, checked)

    def check_rows(self):
        """Work out the checks of every row, once a step that runs no check
        has built one: `_build` leaves them out for such a step, so that
        the valency graph and the simulator run no check.  Every checked
        search starts here (`checker.checked_initial_state`)."""
        if not self._unchecked:
            return
        for i, label in enumerate(self.ordinary_labels):
            for store in (self.rows[i], self.others_rows[i]):
                for key, d in store.items():
                    # the key and the key plus its row hold every field
                    # `verdict` reads
                    if d.__class__ is int:
                        bad = self.verdict(key, label, key + d)
                        if bad:
                            store[key] = (d, bad)
        self._unchecked = False

    def _build(self, s: int, i: int, checked: bool) -> int:
        """Build and keep the row of process `i`'s step from the id state
        `s` and step by it (`_through`): the second-level row when the step
        reads the other fields."""
        lay = self.layout
        fid = (s >> lay.shifts[i]) & lay.fmask
        oid = (s >> lay.osh) & lay.omask
        xid = s >> lay.xsh
        failures = s & lay.fail_mask
        objs = self.objects_by_id[oid]
        entry = self._entry(fid, objs)
        key = failures | fid << lay.shifts[i] | oid << lay.osh
        store = self.rows[i]
        post_fid, post_xid = entry.fid, xid
        returns = entry.reads
        if returns is not None:
            # a return reads no object: its second-level rows leave out the
            # objects id, so the row may be there already
            store[key] = returns
            key |= xid << lay.xsh
            key ^= key & lay.marks[i][returns]
            store = self.others_rows[i]
            row = store.get(key)
            if row is not None:
                return _through(s, row, checked)
            post_fid, post_xid = self.step_others(entry, xid)
        post_oid = oid
        if entry.slot is not None:
            post_oid = self._objects.id(_swap(objs, entry.slot, entry.outcome.new_value))
        codes = self._status_codes
        d = (((post_fid - fid) << lay.shifts[i]) + ((post_oid - oid) << lay.osh)
             + ((post_xid - xid) << lay.xsh) + ((codes[post_fid] - codes[fid]) << lay.widths[2]))
        d = row = self._deltas.setdefault(d, d)
        if checked:
            bad = self.verdict(s, self.ordinary_labels[i], s + d)
            if bad:
                row = (d, bad)
        else:
            self._unchecked = True
        store[key] = row
        return _through(s, row, checked)

    def _crash(self, s: int, label: StepLabel) -> int:
        """The id state after the crash `label` from the id state `s`.  A
        crash of process i resets frame i, and a simultaneous crash every
        frame that has not halted, to a new attempt (`reset_deltas`), and
        counts one failure, which fits its field (see "Widths")."""
        lay = self.layout
        deltas, fmask, xid = self.reset_deltas, lay.fmask, s >> lay.xsh
        s += 1 + (self._crashed[xid] - xid << lay.xsh)
        if label.kind == CRASH:
            return s + deltas[s >> lay.shifts[label.pid - 1] & fmask]
        for sh in lay.shifts:
            s += deltas[s >> sh & fmask]
        return s

    def verdict(self, pre: int, label: StepLabel, post: int):
        """The checks of the edge `label` from the id state `pre` to `post`:
        (property, detail) of the first that fails, or None.  `pre` must
        have passed them, so only what the edge changed is checked, and
        only the fields it reads are read: of an ordinary edge, the
        objects, frame i, others and failures fields.

        An ordinary edge: the edge rule, `machine.check_edge`, when the
        objects id changed (a write that leaves an equal objects tuple
        leaves its id, and by the `Machine` contract such an edge has
        nothing to check); RWF of the moved frame; agreement and validity
        of the returns when the others id changed; the machine's invariant
        of the moved frame, then of the objects when their id changed.  A
        crash resets frames and keeps the objects id and the returns, but
        it changes `failures`, which every invariant reads: every frame's
        invariant, then the objects'.  Each check is kept per id in its
        `Cache`."""
        lay = self.layout
        failures = post & lay.fail_mask
        oid = (post >> lay.osh) & lay.omask
        if label.kind != ORDINARY:
            frame_checks, fmask = self.frame_checks, lay.fmask
            for sh in lay.shifts:
                err = frame_checks[(post >> sh) & fmask, failures]
                if err:
                    return (INVARIANT, err)
            err = self.objects_checks[oid, failures]
            return (INVARIANT, err) if err else None
        pre_oid = (pre >> lay.osh) & lay.omask
        fid = (post >> lay.shifts[label.pid - 1]) & lay.fmask
        xid = post >> lay.xsh
        if oid != pre_oid:
            err = self.edge_checks[pre_oid, oid]
            if err:
                return (INVARIANT, err)
        bad = self.rwf_checks[fid]
        if bad:
            return bad
        if xid != pre >> lay.xsh:
            bad = self.return_checks[xid]
            if bad:
                return bad
        err = self.frame_checks[fid, failures]
        if not err and oid != pre_oid:
            err = self.objects_checks[oid, failures]
        return (INVARIANT, err) if err else None

    def _entry(self, fid: int, objs) -> Entry:
        """The transition-table entry of the step of frame `fid` on the
        objects `objs`, made by `_fill` if there is none."""
        got = self._entries.get(fid)
        if got is not None:
            slot, entry = got
            if slot is not None:
                entry = entry.get(objs[slot])
            if entry is not None:
                return entry
        return self._fill(fid, objs)

    def _fill(self, fid: int, objs) -> Entry:
        """Run the machine's step for frame `fid` on the objects `objs`,
        intern the successor frame, enter the step in the table, and
        return the entry.
        A `Ret` accesses no object and is entered under the frame id alone;
        a `Next` is entered under the frame id and the value of the one
        object it accessed."""
        frame = self.frames_by_id[fid]
        label = ordinary(frame.pid)
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
            entry = Entry(outcome, new_frame, self._frames.id(new_frame), None, True,
                          StepRecord(label, "%s return" % frame.pc, outcome.value))
            self._entries[fid] = (None, entry)
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
        entry = Entry(Access(name, op, new, instance), new_frame, self._frames.id(new_frame),
                      None if new is value else slot, False if watched or self.a1 else None,
                      StepRecord(label, text, resp))
        got = self._entries.get(fid)
        if got is None:
            got = self._entries[fid] = (slot, {})
        elif got[0] != slot:
            raise AssertionError("%s at %s accessed slot %s, earlier slot %s"
                                 % (self.machine.program_id, frame.pc, slot, got[0]))
        got[1][value] = entry
        return entry

    def step_others(self, entry: Entry, xid: int):
        """(successor frame id, others id after the step) of the step of the
        entry `entry` from the others `xid`.  Raises `GenericityViolation`
        when the step begins an instance its process accessed in an
        earlier attempt."""
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
        return (self._armed[entry.fid] if armed else entry.fid,
                self._others.id((failures, returns, participants, tas_seen, cons_access)))

    # -- hashing ------------------------------------------------------------

    def memo_key(self, state: SystemState):
        """The memo key of a whole state: the state itself.  No search calls
        it, as every search keys a state by its id state; it stays because
        `perfbench/tracer.py` wraps it by name on every experiment."""
        return state


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


def _through(s: int, row, checked: bool) -> int:
    """The id state after the step by `row` from `s`; with `checked`, the
    violation a failing row holds is raised."""
    if row.__class__ is not int:
        if checked:
            raise Violation(*row[1])
        row = row[0]
    return s + row


def _check_room(count: int, bits: int, field: str) -> None:
    """Raise `RcError` unless the id `count` fits a field of `bits` bits."""
    if count >> bits:
        raise RcError("the %s id field is full: %d bits hold %d %s ids, and this config "
                      "needs more" % (field, bits, 1 << bits, field))


def _swap(tup, i, value):
    return tup[:i] + (value,) + tup[i + 1 :]
