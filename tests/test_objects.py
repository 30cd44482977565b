"""Base object semantics: registers, TAS, CAS, atomic consensus."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rclab import objects
from rclab.core import BOTTOM, ObjectTypeError
from rclab.objects import Cas, Cons, Register, Tas

values = st.one_of(st.integers(), st.text(max_size=3))


def test_register_fresh_read_is_bottom():
    _, resp = objects.apply(Register(), "read")
    assert resp is BOTTOM


def test_register_configured_initial():
    _, resp = objects.apply(Register(0), "read")
    assert resp == 0


def test_register_write_then_read():
    reg, ack = objects.apply(Register(), "write", ("a",))
    assert ack == "ack"
    _, resp = objects.apply(reg, "read")
    assert resp == "a"


@given(values, values)
def test_register_last_writer_wins(a, b):
    reg, _ = objects.apply(Register(), "write", (a,))
    reg, _ = objects.apply(reg, "write", (b,))
    _, resp = objects.apply(reg, "read")
    assert resp == b


def test_tas_first_wins_then_idempotent():
    t = Tas()
    t, resp = objects.apply(t, "tas")
    assert resp == 0 and t.bit == 1
    t, resp = objects.apply(t, "tas")
    assert resp == 1 and t.bit == 1
    t, resp = objects.apply(t, "tas")
    assert resp == 1


def test_rtas_is_pure():
    t = Tas()
    t2, resp = objects.apply(t, "rtas")
    assert resp == 0 and t2 == t
    t, _ = objects.apply(t, "tas")
    t2, resp = objects.apply(t, "rtas")
    assert resp == 1 and t2 == t
    _, again = objects.apply(t, "rtas")
    assert again == resp


def test_cas_uncontended_success():
    c, resp = objects.apply(Cas(), "cas", (BOTTOM, "a"))
    assert resp is BOTTOM and c.value == "a"


def test_cas_failed_compare_leaves_value():
    c, _ = objects.apply(Cas(), "cas", (BOTTOM, "a"))
    c, resp = objects.apply(c, "cas", (BOTTOM, "b"))
    assert resp == "a" and c.value == "a"


def test_cas_matching_expected_swaps():
    c, _ = objects.apply(Cas(), "cas", (BOTTOM, "a"))
    c, resp = objects.apply(c, "cas", ("a", "b"))
    assert resp == "a" and c.value == "b"


def test_cas_read_is_pure():
    c, _ = objects.apply(Cas(), "cas", (BOTTOM, 7))
    c2, resp = objects.apply(c, "cas_read")
    assert resp == 7 and c2 == c


def test_cons_first_proposal_wins():
    c, resp = objects.apply(Cons(), "decide", (1, 1, "a"))
    assert resp == "a" and c.decision == "a"
    c, resp = objects.apply(c, "decide", (2, 1, "b"))
    assert resp == "a" and c.decision == "a"
    assert (1, 1) in c.accessors and (2, 1) in c.accessors


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), values),
                min_size=1, max_size=8))
def test_cons_is_write_once(calls):
    # constraint: the bottom value is never proposed
    c = Cons()
    responses = []
    for pid, att, v in calls:
        if v is BOTTOM:
            continue
        before = c
        c, resp = objects.apply(c, "decide", (pid, att, v))
        if before.decision is not BOTTOM:
            assert c.decision == before.decision, "consensus decision changed"
        responses.append(resp)
    if responses:
        assert all(r == responses[0] for r in responses)


@given(st.lists(st.booleans(), min_size=1, max_size=8))
def test_tas_bit_monotone(ops):
    t = Tas()
    for use_tas in ops:
        before = t
        t, _ = objects.apply(t, "tas" if use_tas else "rtas")
        assert t.bit >= before.bit, "TAS bit went backwards"
    assert t.bit in (0, 1)


@pytest.mark.parametrize("value,op", [
    (Cas(), "read"),
    (Register(), "tas"),
    (Tas(), "cas", ),
    (Register(), "decide"),
])
def test_wrong_type_rejected(value, op):
    with pytest.raises(ObjectTypeError):
        objects.apply(value, op, (BOTTOM, 1, 1))


def test_unknown_op_rejected():
    with pytest.raises(ObjectTypeError):
        objects.apply(Register(), "swap", (1,))
