"""Shared base-object types with atomic single-step semantics.

Each value is immutable; `apply` returns (new value, response).  Types:
read/write register, test-and-set bit (with a pure read for the readable
variant), compare-and-swap word, and an atomic first-proposal-wins
consensus object that settles its decision in a single step.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .core import BOTTOM, ObjectTypeError


class Register(NamedTuple):
    value: Any = BOTTOM


class Tas(NamedTuple):
    bit: int = 0


class Cas(NamedTuple):
    value: Any = BOTTOM


class Cons(NamedTuple):
    """Atomic consensus base object.

    The decision is write-once: it settles to the first proposal
    delivered and every later decide returns the settled value.
    `accessors` records (pid, attempt) for every decide, which is what
    the genericity monitor inspects.
    """

    decision: Any = BOTTOM
    accessors: frozenset = frozenset()


def _expect(value, cls, op):
    if not isinstance(value, cls):
        raise ObjectTypeError(
            "op %r applied to %s, expected %s" % (op, type(value).__name__, cls.__name__)
        )


def apply(value, op: str, args: tuple = ()):
    """Apply one operation; returns (new value, response)."""
    if op == "read":
        _expect(value, Register, op)
        return value, value.value
    if op == "write":
        _expect(value, Register, op)
        return Register(args[0]), "ack"
    if op == "tas":
        _expect(value, Tas, op)
        return Tas(1), value.bit
    if op == "rtas":
        _expect(value, Tas, op)
        return value, value.bit
    if op == "cas_read":
        _expect(value, Cas, op)
        return value, value.value
    if op == "cas":
        _expect(value, Cas, op)
        expected, new = args
        if value.value == expected:
            return Cas(new), value.value
        return value, value.value
    if op == "decide":
        _expect(value, Cons, op)
        pid, attempt, v = args
        assert v is not BOTTOM, "consensus proposal must not be the bottom value"
        decision = value.decision if value.decision is not BOTTOM else v
        return Cons(decision, value.accessors | {(pid, attempt)}), decision
    raise ObjectTypeError("unknown operation %r" % op)
