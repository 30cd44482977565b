"""Drives executions: scripted/random schedules, trace emission, and
bit-exact replay.  Traces are JSON lines: one header object carrying the
full configuration, then one record per step with fixed field names
step/label/pid/op/resp.  A last step that raised a transition error (a
genericity or read-before-write violation) has no post-state and is
recorded as step/label/pid/error/detail.

Every execution here steps on id states (see `experiment`) with
`enabled_ids` and `successor`, unchecked; a `SystemState` is built only
for what is returned: `run`'s, `random_run`'s and `replay`'s last state.
`replay` digests each state from its ids (`Experiment.digest_ids`).  Every
execution starts from the experiment's one packed initial state.

`replay` re-executes on an experiment it keeps from earlier calls, so a
trace of a config already replayed steps through a warm transition
table.  This is sound because an experiment is a pure function of its
config and of its machine's `step`: the cache is keyed by both, by the
config's canonical JSON text (not by equality: `[1, 2]` and `[1.0, 2.0]`
are equal configs whose states digest differently) and by the `step`
function itself, so a machine whose `step` was patched or restored gets
an experiment of its own.  The config is validated on every call, and a
config that fails never reaches the cache.  It holds at most
`_EXPERIMENTS_MAX` experiments, dropping the least recently used."""

from __future__ import annotations

import json
import random
from json.scanner import make_scanner
from typing import List, NamedTuple, Optional, Tuple

from .config import ExperimentConfig
from .core import (
    CRASH_ALL_LABEL,
    ConfigError,
    RUNNING,
    RcError,
    StepLabel,
    StepRecord,
    SystemState,
    Trace,
    TransitionError,
    crash,
    digest,  # not called here; perfbench's tracer patches `simulator.digest`
    json_encoder,
    ordinary,
)
from .experiment import Experiment
from .programs import MACHINES


class ScheduleError(RcError):
    def __init__(self, index, label, why="not enabled"):
        self.index = index
        self.label = label
        super().__init__("schedule step %d (%s): %s" % (index, label, why))


def require_enabled(exp: Experiment, ids, label, index) -> None:
    """Raise ScheduleError unless `label` is enabled in the id state `ids`.
    The transition trusts its label, so every schedule from outside the
    search passes each step through here first."""
    if label not in exp.enabled_ids(ids):
        raise ScheduleError(index, label)


def run(exp: Experiment, labels) -> Tuple[Trace, SystemState]:
    """The trace of a scripted schedule from the initial state (see
    `_steps`), and its last state: for a step that raised, the state
    before it."""
    ids = exp.intern(exp.initial_state())
    records = []
    for ids, rec in _steps(exp, ids, labels):
        records.append(rec)
    return Trace(exp.config.to_dict(), tuple(records)), exp.materialize(ids)


def _steps(exp: Experiment, ids, labels):
    """Take a scripted schedule from the id state `ids`, yielding (id state,
    record) after each step; every label must be enabled in turn.  A step
    that raises a `TransitionError` has no post-state: it yields the state
    before it with a record of the error, and it must be the schedule's
    last."""
    failed = None
    for i, lab in enumerate(labels):
        if failed is not None:
            raise ScheduleError(i, lab, "follows step %d, which raised %s"
                                % (i - 1, failed.error))
        require_enabled(exp, ids, lab, i)
        try:
            rec = exp.record(ids, lab)
            ids = exp.successor(ids, lab)
        except TransitionError as e:
            rec = failed = StepRecord(lab, None, None, e.prop, str(e))
        yield ids, rec


def random_run(exp: Experiment, rng: random.Random):
    """One execution choosing uniformly among enabled steps, cut after
    `depth_limit` steps."""
    ids = exp.intern(exp.initial_state())
    labels: List[StepLabel] = []
    while len(labels) < exp.depth_limit:
        enabled = exp.enabled_ids(ids)
        if not enabled:
            break
        lab = rng.choice(enabled)
        ids = exp.successor(ids, lab)
        labels.append(lab)
    return labels, exp.materialize(ids)


# -- serialization ----------------------------------------------------------

# The text of `json.dumps(x, sort_keys=True)` from one encoder built once,
# not one per call: every line of a trace, and replay's cache key
dumps = json_encoder(sort_keys=True)


def dump_trace(trace: Trace, final_hash: Optional[str] = None) -> str:
    header = {"config": trace.config}
    if final_hash is not None:
        header["final_hash"] = final_hash
    lines = [dumps(header)]
    lines += [dumps(r.to_json(i)) for i, r in enumerate(trace.records)]
    return "\n".join(lines) + "\n"


def write_trace(trace: Trace, path, final_hash: Optional[str] = None) -> None:
    with open(path, "w") as fh:
        fh.write(dump_trace(trace, final_hash))


_scan = make_scanner(json.JSONDecoder())  # `json.loads`' scanner, C when present


def _load(line: str):
    """`json.loads(line)`, by one scanner call when the line is one value."""
    text = line.strip(" \t\n\r")  # JSON whitespace
    try:
        value, end = _scan(text, 0)
    except (StopIteration, ValueError):
        end = -1
    return value if end == len(text) else json.loads(line)


def parse_trace(text: str):
    """(header, records) of a serialized trace; ConfigError if it is not
    a header object with a `config`, and a string `final_hash` if any,
    followed by step records, each numbered by its position and with a
    well-formed label.  A line ends only at LF, CR LF or CR, which JSON
    never holds raw inside a string; blank lines are skipped."""
    lines = [ln for ln in text.replace("\r\n", "\n").replace("\r", "\n").split("\n") if ln.strip()]
    if not lines:
        raise ConfigError("empty trace")
    try:
        header = _load(lines[0])
        records = tuple(StepRecord.from_json(_load(ln), i) for i, ln in enumerate(lines[1:]))
    except (ValueError, KeyError, TypeError) as e:
        raise ConfigError("malformed trace: %s: %s" % (type(e).__name__, e))
    if not isinstance(header, dict) or "config" not in header:
        raise ConfigError("trace header carries no config")
    if "final_hash" in header and not isinstance(header["final_hash"], str):
        raise ConfigError("trace header's final_hash %s is not a string"
                          % json.dumps(header["final_hash"]))
    return header, records


class ReplayResult(NamedTuple):
    final_hash: str
    header_hash: Optional[str]
    digests: Tuple[str, ...]  # one per intermediate state, initial included
    state: SystemState
    failed_step: Optional[StepRecord] = None  # the last step, if it raised

    @property
    def matches_header(self):
        return self.header_hash is None or self.final_hash == self.header_hash


def replay(text: str) -> ReplayResult:
    """Re-execute a serialized trace and verify it bit-for-bit.

    A trace may end in a step recorded with a transition error; replay
    requires the same error from it and returns that record as
    `failed_step`.  Raises ConfigError if the trace or its header's config
    is malformed, and ScheduleError if a recorded step is not enabled, its
    regenerated record differs from the recorded one, or a step follows
    one that raised.

    The header's config is validated on every call; the experiment is
    then taken from the cache of the module docstring, since it is a pure
    function of that config and of its machine's `step`.
    """
    header, records = parse_trace(text)
    exp = _experiment(ExperimentConfig.from_dict(header["config"]))
    ids = exp.intern(exp.initial_state())
    digests = [exp.digest_ids(ids)]
    steps = _steps(exp, ids, [rec.label for rec in records])
    for i, (rec, (ids, fresh)) in enumerate(zip(records, steps)):
        if fresh != rec:
            raise ScheduleError(i, rec.label, "replayed %r, recorded %r" % (fresh, rec))
        if fresh.error is None:
            digests.append(exp.digest_ids(ids))
    failed = records[-1] if records and records[-1].error is not None else None
    return ReplayResult(digests[-1], header.get("final_hash"), tuple(digests),
                        exp.materialize(ids), failed)


# replay's experiments by (config text, machine `step`), least recently
# used first (see the module docstring)
_experiments = {}
_EXPERIMENTS_MAX = 8


def _experiment(config: ExperimentConfig) -> Experiment:
    """The cached experiment of a validated `config`, built on a miss."""
    key = (dumps(config.to_dict()), MACHINES[config.program].step)
    exp = _experiments.pop(key, None)
    if exp is None:
        exp = Experiment(config)
        if len(_experiments) >= _EXPERIMENTS_MAX:
            del _experiments[next(iter(_experiments))]
    _experiments[key] = exp
    return exp


def replay_file(path) -> ReplayResult:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ConfigError("malformed trace %s: %s" % (path, e))
    return replay(text)


# -- directed-schedule construction -----------------------------------------


def run_plan(exp: Experiment, plan) -> List[StepLabel]:
    """Build a schedule from a high-level plan.

    Plan items:
      ("until_pc", pid, pc)   step pid until its frame sits at pc
      ("until_done", pid)     step pid until it is no longer running
      ("step", pid, count)    exactly count ordinary steps by pid
      ("crash", pid)          one independent crash of pid
      ("crash_all",)          one simultaneous crash
    """
    ids = exp.intern(exp.initial_state())
    labels: List[StepLabel] = []

    def take(lab):
        nonlocal ids
        require_enabled(exp, ids, lab, len(labels))
        ids = exp.successor(ids, lab)
        labels.append(lab)

    for item in plan:
        kind = item[0]
        if kind == "until_pc":
            _, pid, pc = item
            guard = 0
            while exp.frame(ids, pid).pc != pc:
                if exp.frame(ids, pid).status != RUNNING or guard > exp.depth_limit:
                    raise RcError("plan: p%d never reached %s" % (pid, pc))
                take(ordinary(pid))
                guard += 1
        elif kind == "until_done":
            _, pid = item
            guard = 0
            while exp.frame(ids, pid).status == RUNNING:
                if guard > exp.depth_limit:
                    raise RcError("plan: p%d never finished" % pid)
                take(ordinary(pid))
                guard += 1
        elif kind == "step":
            _, pid, count = item
            for _i in range(count):
                take(ordinary(pid))
        elif kind == "crash":
            take(crash(item[1]))
        elif kind == "crash_all":
            take(CRASH_ALL_LABEL)
        else:
            raise RcError("unknown plan item %r" % (item,))
    return labels
