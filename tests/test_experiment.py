"""The transition table: every step it serves equals the machine's own step."""

import gc
import json
import random
import weakref

import pytest

from rclab.checker import GENERICITY, explore
from rclab.core import (
    BOTTOM,
    CRASH_ALL_LABEL,
    FELL_OFF,
    HALTED,
    ORDINARY,
    RETURNED,
    RUNNING,
    Frame,
    ObjectTypeError,
    UninitializedRead,
    digest,
    ordinary,
)
from rclab.programs import END, Fig1Machine, Next, Ret
from rclab.simulator import random_run
from rclab.valency import build_graph, classify

from conftest import (
    DIFFERENTIAL_CONFIGS,
    direct_step,
    make_config,
    make_experiment,
    read_before_write,
    reachable_edges,
    reenter_after_crash,
)

TABLE_CONFIGS = dict(
    DIFFERENTIAL_CONFIGS,
    **{
        "fig1-tas-a1": dict(cons="tas", failure="independent", adversary="assumption1"),
        "fig2-2-2-tas-b2": dict(program="fig2", f=2, cons="tas", failure="independent",
                                budget=2),
    },
)


@pytest.mark.parametrize("name", sorted(TABLE_CONFIGS))
def test_table_matches_direct_step(name):
    """Every ordinary step the table serves to `apply_step` equals the
    machine's own step and the reference step."""
    exp = make_experiment(**TABLE_CONFIGS[name])
    edges = 0
    for state, lab, ref in reachable_edges(exp):
        if lab.kind != ORDINARY:
            continue
        edges += 1
        pre = exp.materialize(exp.intern(state))
        post, rec = exp.apply_step(pre, lab)
        assert post == ref
        # interned components: equal objects tuples are one tuple
        assert (post.objects is pre.objects) == (post.objects == pre.objects)
        frame = pre.frames[lab.pid - 1]
        got = post.frames[lab.pid - 1]
        outcome, calls = direct_step(exp, frame, pre.objects)
        if isinstance(outcome, Ret):
            assert calls == []
            status = RETURNED if exp.rerun else HALTED
            want = Frame(frame.pid, "done", frame.locals, frame.proposal, frame.attempt,
                         status, outcome.value, frame.steps + 1)
            assert repr(got) == repr(want)
            assert post.objects is pre.objects
            assert (rec.op, rec.resp) == ("%s return" % frame.pc, outcome.value)
            continue
        assert isinstance(outcome, Next) and len(calls) == 1
        (obj, op, args, new, resp), = calls
        slot = exp.idx[obj]
        locs = frame.with_locals(outcome.updates) if outcome.updates else frame.locals
        status = FELL_OFF if outcome.pc == END else RUNNING
        want = Frame(frame.pid, outcome.pc, locs, frame.proposal, frame.attempt, status,
                     frame.retval, frame.steps + 1, got.armed_crash)
        assert repr(got) == repr(want)
        objs = pre.objects[:slot] + (new,) + pre.objects[slot + 1:]
        assert repr(post.objects) == repr(objs)
        text = "%s %s %s" % (frame.pc, op, obj)
        if args:
            text += " " + json.dumps(list(args))
        assert (rec.op, rec.resp) == (text, resp)
    assert edges > 0


@pytest.mark.parametrize("name", sorted(TABLE_CONFIGS))
def test_warm_table_gives_the_cold_verdict(name):
    cfg = make_config(**TABLE_CONFIGS[name])
    exp = make_experiment(**TABLE_CONFIGS[name])
    cold = explore(exp).to_json()
    assert explore(exp).to_json() == cold
    assert explore(cfg).to_json() == cold
    # rows that the unchecked valency graph or simulator filled, which the
    # search then steps through with its edge checks
    graph_warmed = make_experiment(**TABLE_CONFIGS[name])
    build_graph(graph_warmed)
    run_warmed = make_experiment(**TABLE_CONFIGS[name])
    rng = random.Random(1)
    for _ in range(20):
        random_run(run_warmed, rng)
    for warm in (graph_warmed, run_warmed):
        assert any(warm.rows)
        assert explore(warm).to_json() == cold


def test_mutant_is_caught_after_a_correct_table_was_filled(monkeypatch):
    kw = dict(failure="simultaneous", budget=1, monitor=True)
    assert explore(make_experiment(**kw)).passed
    monkeypatch.setattr(Fig1Machine, "step", reenter_after_crash(Fig1Machine.step))
    assert explore(make_experiment(**kw)).prop == GENERICITY


def test_uninitialized_read_raises_on_every_visit(monkeypatch):
    monkeypatch.setattr(Fig1Machine, "step", read_before_write(Fig1Machine.step))
    exp = make_experiment()
    init = exp.initial_state()
    for _ in range(2):
        with pytest.raises(UninitializedRead):
            exp.apply_step(init, ordinary(1))


@pytest.mark.parametrize("error", [AssertionError, ObjectTypeError])
def test_step_error_raises_on_every_visit(monkeypatch, error):
    step = Fig1Machine.step

    def mutant(self, frame, access):
        if frame.pc == "x:if2":
            raise error("seeded")
        return step(self, frame, access)

    monkeypatch.setattr(Fig1Machine, "step", mutant)
    exp = make_experiment()
    state = exp.apply_step(exp.initial_state(), ordinary(1))[0]
    for _ in range(2):
        with pytest.raises(error):
            exp.apply_step(state, ordinary(1))


def test_step_that_reads_two_objects_fails_loudly(monkeypatch):
    step = Fig1Machine.step

    def mutant(self, frame, access):
        access("D", "read")
        return step(self, frame, access)

    monkeypatch.setattr(Fig1Machine, "step", mutant)
    exp = make_experiment()
    with pytest.raises(AssertionError, match="made 2 accesses"):
        exp.apply_step(exp.initial_state(), ordinary(1))


def test_step_that_reads_no_object_fails_loudly(monkeypatch):
    def mutant(self, frame, access):
        return Next("x:if2", {"p_self": BOTTOM})

    monkeypatch.setattr(Fig1Machine, "step", mutant)
    exp = make_experiment()
    with pytest.raises(AssertionError, match="made 0 accesses"):
        exp.apply_step(exp.initial_state(), ordinary(1))


def test_return_that_accesses_an_object_fails_loudly(monkeypatch):
    def mutant(self, frame, access):
        return Ret(access("P[1]", "read"))

    monkeypatch.setattr(Fig1Machine, "step", mutant)
    exp = make_experiment()
    with pytest.raises(AssertionError, match="returned at x:if after accessing P\\[1\\]"):
        exp.apply_step(exp.initial_state(), ordinary(1))


def test_crash_resets_are_shared_and_count_attempts():
    exp = make_experiment(failure="simultaneous", budget=2)
    init = exp.initial_state()
    once = exp.apply_step(init, CRASH_ALL_LABEL)[0]
    again = exp.apply_step(init, CRASH_ALL_LABEL)[0]
    assert all(a is b for a, b in zip(once.frames, again.frames))
    twice = exp.apply_step(once, CRASH_ALL_LABEL)[0]
    assert [fr.attempt for fr in once.frames] == [2, 2]
    assert [fr.attempt for fr in twice.frames] == [3, 3]


def test_step_that_reads_another_object_from_an_equal_frame_fails_loudly(monkeypatch):
    step = Fig1Machine.step
    calls = []

    def mutant(self, frame, access):
        # impure: the second visit of p1's x:if2 reads D instead of P[2]
        if frame.pid == 1 and frame.pc == "x:if2":
            calls.append(frame)
            if len(calls) > 1:
                return Next("x:recD", {"p_other": access("D", "read")})
        return step(self, frame, access)

    monkeypatch.setattr(Fig1Machine, "step", mutant)
    exp = make_experiment()
    init = exp.initial_state()
    exp.apply_step(exp.apply_step(init, ordinary(1))[0], ordinary(1))
    s = init
    for lab in [ordinary(2)] * 3 + [ordinary(1)]:  # p2 announces in P[2] first
        s = exp.apply_step(s, lab)[0]
    with pytest.raises(AssertionError, match="slot"):
        exp.apply_step(s, ordinary(1))


def test_apply_step_interns_nothing_along_its_own_path(monkeypatch):
    exp = make_experiment(failure="simultaneous", budget=1)
    interned = []
    intern = exp.intern
    monkeypatch.setattr(exp, "intern", lambda state: interned.append(state) or intern(state))
    state = exp.initial_state()
    for lab in [ordinary(1), CRASH_ALL_LABEL, ordinary(2), ordinary(1)]:
        state = exp.apply_step(state, lab)[0]
    assert len(interned) == 1
    # a state `apply_step` did not return last is interned
    exp.apply_step(exp.initial_state(), ordinary(1))
    assert len(interned) == 2


@pytest.mark.parametrize("props", [[10, 20], [0.5, -0.0], ["a", "b"]])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONFIGS))
def test_digest_ids_is_the_digest_of_the_materialized_state(name, props):
    exp = make_experiment(proposals=props, **DIFFERENTIAL_CONFIGS[name])
    states = [exp.initial_state()]
    states += list(dict.fromkeys(post for _state, _lab, post in reachable_edges(exp)))
    # cold: each id is digested as soon as it is interned, so every digest
    # extends the texts; then warm: every text is cached
    cold = []
    for state in states:
        ids = exp.intern(state)
        cold.append(exp.digest_ids(ids))
        assert cold[-1] == digest(exp.materialize(ids))
    assert [exp.digest_ids(exp.intern(state)) for state in states] == cold
    # every id interned before the first digest
    other = make_experiment(proposals=props, **DIFFERENTIAL_CONFIGS[name])
    all_ids = [other.intern(state) for state in states]
    assert [other.digest_ids(ids) for ids in all_ids] == cold


def row_keys(exp):
    return {(fid, oid) for fid, rows in enumerate(exp.rows) for oid in rows}


def recording(step, pairs):
    """`step`, whose last two arguments are an id state and a label, adding
    to `pairs` the (frame id, objects id) of each ordinary step it takes."""
    def wrapper(*args):
        ids, lab = args[-2:]
        if lab.kind == ORDINARY:
            pairs.add((ids[lab.pid - 1], ids[-2]))
        return step(*args)
    return wrapper


# perfbench's `valency` and `explore-memo` configs: a row more than the
# pairs stepped from would be a row keyed more finely than its step
def test_one_row_per_frame_and_objects_stepped_from_in_the_graph():
    exp = make_experiment(program="fig2", f=2, cons="tas", failure="independent", budget=2,
                          monitor=True)
    pairs = set()
    exp.successor = recording(exp.successor, pairs)
    build_graph(exp)
    assert len(pairs) == 14668
    assert sum(map(len, exp.rows)) == len(pairs)
    assert row_keys(exp) == pairs


def test_one_row_per_frame_and_objects_stepped_from_in_explore():
    exp = make_experiment(program="fig2", n=3, f=1, proposals=[10, 20, 30],
                          failure="independent", budget=1, monitor=True)
    pairs = set()
    exp.successor = recording(exp.successor, pairs)
    assert explore(exp).passed
    assert len(pairs) == 11970
    assert sum(map(len, exp.rows)) == len(pairs)
    assert row_keys(exp) == pairs


# Each run leaves the experiment's caches filled; explore on fig1 under one
# independent crash fails Agreement and minimizes its counterexample.
FREED_RUNS = {
    "explore": (dict(program="fig2", f=1, failure="independent", budget=1),
                lambda exp: explore(exp).passed),
    "explore-fails": (dict(failure="independent", budget=1),
                      lambda exp: not explore(exp).passed),
    "valency": (dict(cons="tas", failure="simultaneous", budget=1),
                lambda exp: bool(classify(build_graph(exp)))),
    "random_run": (dict(failure="simultaneous", budget=2),
                   lambda exp: bool(random_run(exp, random.Random(1))[0])),
}


@pytest.mark.parametrize("name", sorted(FREED_RUNS))
def test_an_experiment_is_freed_without_the_collector(name):
    # a cache function that held its experiment would make a reference
    # cycle, which only the cyclic collector frees
    kw, run = FREED_RUNS[name]
    enabled = gc.isenabled()
    gc.disable()
    try:
        exp = make_experiment(**kw)
        assert run(exp)
        assert exp.digest_ids(exp.intern(exp.initial_state()))
        ref = weakref.ref(exp)
        del exp
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
