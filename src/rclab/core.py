"""Execution model primitives: states, steps, traces, the rules of the
state properties, and `Cache`, the one memo of a pure function.

Every state here is an immutable value.  A step function elsewhere maps
(state, label) -> (state, record) and never mutates its input, which is
what makes memoized search and bit-exact replay possible.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple, Optional, Tuple

# Distinguished "no value" marker.  Serialized as JSON null; never a legal
# proposal value.
BOTTOM = None


class _Uninit:
    """Marker for a private variable that has never been written.

    Reading one of these is a harness bug (the built-in machines write
    every private variable before reading it on every path), surfaced as
    UninitializedRead rather than silently treated as BOTTOM.
    """

    __slots__ = ()

    def __repr__(self):
        return "UNINIT"


UNINIT = _Uninit()

RUNNING = "running"
RETURNED = "returned"
HALTED = "halted"
FELL_OFF = "fell_off"  # reached end of program without returning

ORDINARY = "ordinary"
CRASH = "crash"
CRASH_ALL = "crash_all"


class RcError(Exception):
    """Base class for all library errors."""


class ConfigError(RcError):
    pass


class ObjectTypeError(RcError):
    """An operation was applied to an object of the wrong type."""


class Violation(RcError):
    """A failed check: `prop` names the property violated and `detail`,
    also the error's text, says how.  Every search stops on the first one
    and catches this type alone."""

    def __init__(self, prop, detail):
        super().__init__(detail)
        self.prop = prop
        self.detail = detail


class TransitionError(Violation):
    """A step the transition cannot take: it has no post-state.  The class's
    `prop` names the property the step violates."""

    prop = ""

    def __init__(self, detail):
        super().__init__(self.prop, detail)


class UninitializedRead(TransitionError):
    """A machine read a private variable before writing it."""

    prop = "ReadBeforeWrite"


class GenericityViolation(TransitionError):
    """A process accessed a consensus base object again after crashing."""

    prop = "GenericityViolation"

    def __init__(self, instance, pid, attempt, prior_attempt):
        self.instance = instance
        self.pid = pid
        self.attempt = attempt
        self.prior_attempt = prior_attempt
        super().__init__(
            "p%d accessed %s in attempt %d after accessing it in attempt %d"
            % (pid, instance, attempt, prior_attempt)
        )


# The state properties, as a verdict names them.
AGREEMENT = "Agreement"
VALIDITY = "Validity"
RWF = "RecoverableWaitFreedom"
INVARIANT = "Invariant"


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


def check_rwf(frame, bound: int):
    """Recoverable wait-freedom of a frame, whose attempt may take at most
    `bound` steps: (RWF, detail), or None if clean."""
    if frame.status == FELL_OFF:
        return (RWF, "p%d reached the end of the program without returning" % frame.pid)
    if frame.steps > bound:
        return (RWF, "p%d took %d steps in one attempt, bound is %d"
                % (frame.pid, frame.steps, bound))
    return None


def check_returns(returns, config):
    """Agreement, then validity, of a state's `returns` under `config`:
    (property, detail), or None if both hold."""
    err = check_agreement(returns, config.agreement_scope)
    if err:
        return (AGREEMENT, err)
    err = check_validity(returns, config.proposals)
    if err:
        return (VALIDITY, err)
    return None


class Cache(dict):
    """The memo of a pure function `fn`: `cache[key]` is `fn(key)`, computed
    on the first lookup of `key` and kept, so a hit is a plain dict lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class StepLabel(NamedTuple):
    kind: str  # ORDINARY | CRASH | CRASH_ALL
    pid: Optional[int] = None

    def to_json(self):
        return {"kind": self.kind, "pid": self.pid}

    def __str__(self):
        if self.kind == CRASH_ALL:
            return "crash_all"
        return "%s(%d)" % (self.kind, self.pid)


def ordinary(pid: int) -> StepLabel:
    return StepLabel(ORDINARY, pid)


def crash(pid: int) -> StepLabel:
    return StepLabel(CRASH, pid)


CRASH_ALL_LABEL = StepLabel(CRASH_ALL, None)


class Frame(NamedTuple):
    """Per-process local state.

    `proposal` never changes for the lifetime of an execution; a crash
    resets pc/locals and bumps `attempt`.  `steps` counts ordinary steps
    taken in the current attempt.  `armed_crash` is Assumption-1
    bookkeeping: true iff this process's previous step was its first
    access in the execution to some TAS object.
    """

    pid: int
    pc: str
    locals: Tuple[Tuple[str, Any], ...]
    proposal: Any
    attempt: int = 1
    status: str = RUNNING
    retval: Any = BOTTOM
    steps: int = 0
    armed_crash: bool = False

    def loc(self, name: str) -> Any:
        for k, v in self.locals:
            if k == name:
                if v is UNINIT:
                    raise UninitializedRead(
                        "p%d read uninitialized %r at %s" % (self.pid, name, self.pc)
                    )
                return v
        raise KeyError(name)

    def with_locals(self, updates: dict) -> Tuple[Tuple[str, Any], ...]:
        """The locals with `updates` applied.  A machine's local names are
        fixed, so the values are replaced in place; a name that is not a
        local raises KeyError."""
        out = []
        hits = 0
        for pair in self.locals:
            name = pair[0]
            if name in updates:
                out.append((name, updates[name]))
                hits += 1
            else:
                out.append(pair)
        if hits != len(updates):
            raise KeyError(next(k for k in updates if k not in dict(self.locals)))
        return tuple(out)


def locals_tuple(d: dict) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(d.items()))


class SystemState(NamedTuple):
    """Full snapshot: one frame per process plus every shared object.

    `objects` holds object values in a fixed per-experiment layout order,
    so two states are equal iff their canonical encodings are equal.
    `returns` accumulates (pid, attempt, value) for every return taken,
    across re-executions after crashes.
    """

    frames: Tuple[Frame, ...]
    objects: Tuple[Any, ...]
    failures: int = 0
    returns: Tuple[Tuple[int, int, Any], ...] = ()
    participants: frozenset = frozenset()
    tas_seen: frozenset = frozenset()
    cons_access: frozenset = frozenset()


class StepRecord(NamedTuple):
    """One step of a trace: its op text and response, or for a step that
    raised a `TransitionError`, the error's property and detail.  Its step
    number is its position in the trace."""

    label: StepLabel
    op: Optional[str]
    resp: Any
    error: Optional[str] = None
    detail: Optional[str] = None

    def to_json(self, step: int):
        out = {"step": step, "label": self.label.kind, "pid": self.label.pid}
        if self.error is None:
            out["op"], out["resp"] = self.op, self.resp
        else:
            out["error"], out["detail"] = self.error, self.detail
        return out

    @staticmethod
    def from_json(d, step: int) -> "StepRecord":
        """The record at position `step` of a trace.  ConfigError unless `d`
        numbers it `step` and carries a well-formed label; KeyError or
        TypeError if a field is missing or `d` is not an object."""
        kind, pid = d["label"], d["pid"]
        if type(d["step"]) is not int or d["step"] != step:
            raise ConfigError("trace record %d is numbered %r" % (step, d["step"]))
        if kind not in (ORDINARY, CRASH, CRASH_ALL):
            raise ConfigError("trace record %d has unknown label %r" % (step, kind))
        if (pid is not None) if kind == CRASH_ALL else (type(pid) is not int):
            raise ConfigError("trace record %d: %s step with pid %r" % (step, kind, pid))
        label = StepLabel(kind, pid)
        if "error" in d:
            return StepRecord(label, None, None, d["error"], d["detail"])
        return StepRecord(label, d["op"], d["resp"])


class Trace(NamedTuple):
    config: dict
    records: Tuple[StepRecord, ...]


def _jsonable(x):
    if isinstance(x, frozenset):
        return ["frozenset", sorted(_jsonable(e) for e in x)]
    if isinstance(x, tuple):
        return [_jsonable(e) for e in x]
    if x is UNINIT:
        return "?uninit"
    return x


def canonical(state: SystemState):
    """Canonical, JSON-able encoding of a state (fixed field order)."""
    return _jsonable(tuple(state))


def _encode_default(x):
    if x is UNINIT:
        return "?uninit"
    if isinstance(x, frozenset):
        return _jsonable(x)
    raise TypeError("%s is not JSON serializable" % type(x).__name__)


def json_encoder(separators=None, sort_keys=False, default=None):
    """`json.JSONEncoder(...).encode` with these arguments and no
    circular-reference check, for values that hold no cycle.
    `JSONEncoder.encode` builds a new C encoder on every call; the one
    returned here is built once, with the same arguments.  Without the C
    encoder, `JSONEncoder.encode` is returned."""
    enc = json.JSONEncoder(separators=separators, sort_keys=sort_keys, default=default,
                           check_circular=False)
    if json.encoder.c_make_encoder is None:
        return enc.encode
    c_encode = json.encoder.c_make_encoder(
        None, enc.default, json.encoder.encode_basestring_ascii, None,
        enc.key_separator, enc.item_separator, sort_keys, False, True)

    def encode(x) -> str:
        return "".join(c_encode(x, 0))

    return encode


# The JSON text of a state component, as in `digest`.  The encoder writes
# tuples, NamedTuples among them, as arrays and calls `_encode_default`
# only for frozensets and UNINIT, so its text for a component is that of
# `json.dumps(_jsonable(component))`.
encode = json_encoder(separators=(",", ":"), default=_encode_default)


# id(component) -> (component, its JSON text).  The entry holds the
# component, so its id is not reused while the entry lives.
_fragments = {}
_FRAGMENTS_MAX = 256


def _fragment(x) -> str:
    hit = _fragments.get(id(x))
    if hit is not None:
        return hit[1]
    if len(_fragments) >= _FRAGMENTS_MAX:
        _fragments.clear()
    text = encode(x)
    _fragments[id(x)] = (x, text)
    return text


def digest(state: SystemState) -> str:
    """SHA-256 of `json.dumps(canonical(state), separators=(",", ":"))`.

    Those bytes are joined from the JSON text of each frame, the objects
    tuple and the `returns`, `participants`, `tas_seen` and `cons_access`
    fields, which the transition shares between states, so each is
    encoded once and cached.  The cache is keyed by identity, and each
    entry holds its component, so a text always belongs to the object it
    was made from.  It is never keyed by value: `1`, `1.0` and `True` are
    equal, as are `0.0` and `-0.0`, but their texts differ.  It is
    emptied when it holds `_FRAGMENTS_MAX` entries.

    `hashlib` is imported on the first digest, not with this module, so a
    process that digests no state never loads OpenSSL's libcrypto."""
    frames, objects, failures, returns, participants, tas_seen, cons_access = state
    return digest_texts(
        ",".join([_fragment(fr) for fr in frames]),
        _fragment(objects),
        "%d,%s,%s,%s,%s" % (failures, _fragment(returns), _fragment(participants),
                            _fragment(tas_seen), _fragment(cons_access)),
    )


def digest_texts(frames: str, objects: str, others: str) -> str:
    """`digest` of the state with these JSON texts: `frames` of its frames
    joined by commas, `objects` of its objects tuple, and `others` of the
    fields from `failures` on, joined by commas."""
    text = "[[%s],%s,%s]" % (frames, objects, others)
    return _sha256(text.encode()).hexdigest()


def _sha256(data):
    """`hashlib.sha256(data)`.  The first call imports hashlib, which maps
    OpenSSL's libcrypto into the process, and rebinds this name to
    `hashlib.sha256`, so a run that digests nothing never loads it."""
    global _sha256
    import hashlib

    _sha256 = hashlib.sha256
    return _sha256(data)
