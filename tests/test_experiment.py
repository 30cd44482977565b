"""The transition table: every step it serves equals the machine's own step."""

import gc
import json
import random
import weakref

import pytest

from rclab import experiment, simulator
from rclab.checker import GENERICITY, explore, shortest_failure
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
    ObjectTypeError,
    RcError,
    UninitializedRead,
    crash,
    digest,
    ordinary,
)
from rclab.programs import END, Fig1Machine, Next, Ret
from rclab.simulator import dump_trace, random_run, replay, run
from rclab.valency import build_graph, classify, summary

from conftest import (
    DIFFERENTIAL_CONFIGS,
    direct_step,
    make_config,
    make_experiment,
    read_before_write,
    reachable_edges,
    reenter_after_crash,
    reference_step,
)

TABLE_CONFIGS = dict(
    DIFFERENTIAL_CONFIGS,
    **{
        "fig1-tas-a1": dict(cons="tas", failure="independent", adversary="assumption1"),
        # fails Agreement: rows the unchecked graph built are checked when
        # the search first steps through them
        "fig1-ind-b1": dict(failure="independent", budget=1),
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


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONFIGS))
def test_the_initial_state_is_built_and_packed_once(monkeypatch, name):
    exp = make_experiment(**DIFFERENTIAL_CONFIGS[name])
    init = exp.initial_state()
    assert exp.initial_state() is init
    fresh = make_experiment(**DIFFERENTIAL_CONFIGS[name]).initial_state()
    assert fresh == init and fresh is not init
    met = []
    interner_id = experiment.Interner.id
    monkeypatch.setattr(experiment.Interner, "id", lambda self, x: met.append(x) or interner_id(self, x))
    s = exp.intern(init)
    assert met == []
    # an equal state built apart is hashed, and packs to the same id state
    assert exp.intern(fresh) == s and met
    assert exp.materialize(s) == init


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
    """(process index, frame id, objects id, failures) of every row key."""
    lay = exp.layout
    return {(i, (key >> lay.shifts[i]) & lay.fmask, (key >> lay.osh) & lay.omask,
             key & lay.fail_mask) for i, rows in enumerate(exp.rows) for key in rows}


def second_level_keys(exp):
    """(process index, frame id, objects id, failures, others id) of every
    second-level row key; a return's leaves out the objects id, which
    reads as 0."""
    lay = exp.layout
    return {(i, (key >> lay.shifts[i]) & lay.fmask, (key >> lay.osh) & lay.omask,
             key & lay.fail_mask, key >> lay.xsh)
            for i, rows in enumerate(exp.others_rows) for key in rows}


def stepped_from(exp, states):
    """(process index, frame id, objects id, failures) of every ordinary
    step `enabled_ids` offers from the id states `states`, and (process
    index, frame id, objects id, failures, others id) of those that read
    the other fields, with objects id 0 for a return, which reads no
    object."""
    lay = exp.layout
    out, deeper = set(), set()
    for s in states:
        ids = exp.unpack(s)
        failures = s & lay.fail_mask
        for lab in exp.enabled_ids(s):
            if lab.kind == ORDINARY:
                i = lab.pid - 1
                out.add((i, ids[i], ids[-2], failures))
                row = exp.rows[i][s & lay.masks[i]]
                if row.__class__ is bool:
                    deeper.add((i, ids[i], 0 if row else ids[-2], failures, ids[-1]))
    return out, deeper


# perfbench's `valency` and `explore-memo` configs: a row more than the keys
# stepped from would be a row keyed more finely than its step
def test_one_row_per_frame_objects_and_failures_stepped_from_in_the_graph():
    exp = make_experiment(program="fig2", f=2, cons="tas", failure="independent", budget=2,
                          monitor=True)
    keys, deeper = stepped_from(exp, build_graph(exp).nodes)
    assert (len(keys), len(deeper)) == (16100, 6996)
    assert sum(map(len, exp.rows)) == len(keys)
    assert row_keys(exp) == keys
    assert sum(map(len, exp.others_rows)) == len(deeper)
    assert second_level_keys(exp) == deeper


def test_one_row_per_frame_objects_and_failures_stepped_from_in_explore():
    kw = dict(program="fig2", n=3, f=1, proposals=[10, 20, 30], failure="independent",
              budget=1, monitor=True)
    exp = make_experiment(**kw)
    assert explore(exp).passed
    # the sweep expands exactly the graph's nodes
    g = build_graph(make_experiment(**kw))
    keys, deeper = stepped_from(exp, [exp.intern(g.exp.materialize(s)) for s in g.nodes])
    assert (len(keys), len(deeper)) == (12372, 666)
    assert sum(map(len, exp.rows)) == len(keys)
    assert row_keys(exp) == keys
    assert sum(map(len, exp.others_rows)) == len(deeper)
    assert second_level_keys(exp) == deeper


# Searches on configs that pass, fail and stop at the depth limit, with
# independent and simultaneous crashes and under assumption 1, each with
# what it returns that must not depend on the field widths.
WIDTH_RUNS = {
    "sweep": (dict(program="fig2", f=1, cons="tas", failure="independent", budget=2,
                   monitor=True), lambda exp: explore(exp).to_json()),
    "sweep-fails": (dict(failure="independent", budget=2), lambda exp: explore(exp).to_json()),
    "sweep-depth": (dict(failure="simultaneous", budget=2, depth=12),
                    lambda exp: explore(exp).to_json()),
    "walk": (dict(program="cas-rc", failure="independent", budget=3),
             lambda exp: explore(exp, memo=False).to_json()),
    "walk-fails": (dict(program="tas-cons2", failure="independent", budget=1),
                   lambda exp: explore(exp, memo=False).to_json()),
    "shortest_failure": (dict(program="fig2", f=1, failure="independent", budget=2),
                         lambda exp: shortest_failure(exp)),
    "a1": (dict(cons="tas", failure="independent", adversary="assumption1"),
           lambda exp: explore(exp).to_json()),
    "graph": (dict(program="fig2", f=1, cons="tas", failure="simultaneous", budget=2),
              lambda exp: graph_outputs(build_graph(exp))),
    "replay": (dict(failure="simultaneous", budget=2), lambda exp: replayed(exp)),
}


def graph_outputs(g):
    """What a valency graph shows: its summary, its nodes' digests and its
    edges."""
    return (summary(g, classify(g)), [g.exp.digest_ids(s) for s in g.nodes], list(g.adj.codes),
            g.terminals)


def replayed(exp):
    """The digests of seeded random runs' traces, replayed."""
    rng = random.Random(3)
    out = []
    for _ in range(20):
        labels, final = random_run(exp, rng)
        trace, last = run(exp, labels)
        assert last == final
        out.append(replay(dump_trace(trace, final_hash=digest(final))).digests)
    return out


def test_the_walk_outputs_are_pinned():
    # a tree has one state more than edges; a violation's post-state is not
    # counted
    assert WIDTH_RUNS["walk"][1](make_experiment(**WIDTH_RUNS["walk"][0])) == {
        "result": "pass", "stats": {"states": 59625, "edges": 59624,
                                    "terminal_executions": 18080, "max_attempt_steps": 2}}
    fails = WIDTH_RUNS["walk-fails"][1](make_experiment(**WIDTH_RUNS["walk-fails"][0]))
    assert fails == {
        "result": "fail", "property": "Validity",
        "detail": "p1 (attempt 2) decided None, not a proposal",
        "stats": {"states": 12, "edges": 12, "terminal_executions": 0, "max_attempt_steps": 4},
        "trace": [lab.to_json() for lab in [ordinary(1)] * 2 + [crash(1)] + [ordinary(1)] * 4]}


@pytest.mark.parametrize("name", sorted(WIDTH_RUNS))
def test_outputs_do_not_depend_on_the_field_widths(monkeypatch, name):
    kw, run_it = WIDTH_RUNS[name]
    exp = make_experiment(**kw)
    want = run_it(exp)
    # the narrowest fields that hold every id the run minted; replay takes
    # an experiment of its own, built at those widths
    narrow = [max(1, (len(ids) - 1).bit_length()) for ids in (exp.frames_by_id, exp.objects_by_id)]
    monkeypatch.setattr(experiment, "FRAME_BITS", narrow[0])
    monkeypatch.setattr(experiment, "OBJECTS_BITS", narrow[1])
    monkeypatch.setattr(simulator, "_experiments", {})
    exp = make_experiment(**kw)
    assert exp.layout.widths[:2] == tuple(narrow) < (16, 24)
    assert run_it(exp) == want


@pytest.mark.parametrize("constant,field", [("FRAME_BITS", "frame"), ("OBJECTS_BITS", "objects")])
def test_an_id_past_its_field_raises_naming_the_field(monkeypatch, constant, field):
    monkeypatch.setattr(experiment, constant, 3)
    exp = make_experiment(program="fig2", f=1, failure="independent", budget=1)
    with pytest.raises(RcError, match="the %s id field is full: 3 bits hold 8 %s ids"
                       % (field, field)):
        explore(exp)
    # the id that did not fit was not minted
    interner = exp._frames if field == "frame" else exp._objects
    assert len(interner.values) == len(interner.ids) == 8
    assert len(exp._status_codes) == len(exp.frames_by_id)


def test_intern_of_a_state_past_the_failures_field_raises():
    exp = make_experiment(failure="independent", budget=2)
    assert exp.layout.widths[2] == 2
    init = exp.initial_state()
    s = exp.intern(init._replace(failures=3))
    assert exp.materialize(s).failures == 3
    with pytest.raises(RcError, match="failures 4 does not fit the 2-bit failures field"):
        exp.intern(init._replace(failures=4))


def test_a_crash_after_a_frame_overran_its_bound_steps_as_on_whole_states(monkeypatch):
    # at bound 1 every attempt overruns its bound, which a search reports
    # at once; the simulator and the valency graph step on unchecked, and a
    # crash that resets a frame of many steps must land on the model's state
    monkeypatch.setattr(Fig1Machine, "bound", lambda self: 1)
    exp = make_experiment(program="fig1", failure="independent", budget=2)
    rng = random.Random(1)
    overran = 0
    for _ in range(100):
        whole = exp.initial_state()
        s = exp.intern(whole)
        while exp.enabled_ids(s):
            lab = rng.choice(exp.enabled_ids(s))
            if lab.kind != ORDINARY:
                overran += max(fr.steps for fr in whole.frames) > 2 * exp.bound
            whole = reference_step(exp, whole, lab)
            s = exp.successor(s, lab)
            assert exp.materialize(s) == whole
            assert exp.intern(whole) == s
    assert overran
    g = build_graph(exp)
    states = [exp.materialize(s) for s in g.nodes]
    assert len(set(states)) == len(states)
    assert [exp.intern(state) for state in states] == g.nodes


# Crash edges: independent crashes, simultaneous ones past halted frames
# and past returned ones, assumption 1's forced crashes, and at bound 1,
# where frames overrun their bound before a crash resets them
CRASH_EDGE_CONFIGS = {
    "independent": dict(program="fig2", f=1, cons="tas", failure="independent", budget=2),
    "crash_all-halted": dict(failure="simultaneous", budget=2, mode="halt-after-return"),
    "crash_all-returned": dict(failure="simultaneous", budget=2, mode="rerun-after-crash"),
    "a1": dict(cons="tas", failure="independent", adversary="assumption1"),
    "overrun": dict(failure="independent", budget=2),
}


@pytest.mark.parametrize("name", sorted(CRASH_EDGE_CONFIGS))
def test_every_crash_edge_of_the_graph_steps_as_on_whole_states(monkeypatch, name):
    if name == "overrun":
        monkeypatch.setattr(Fig1Machine, "bound", lambda self: 1)
    exp = make_experiment(**CRASH_EDGE_CONFIGS[name])
    seen = set()
    for s in build_graph(exp).nodes:
        whole = exp.materialize(s)
        for lab in exp.enabled_ids(s):
            if lab.kind != ORDINARY:
                assert exp.materialize(exp.successor(s, lab)) == reference_step(exp, whole, lab)
                seen.update(fr.status for fr in whole.frames)
                seen.add(max(fr.steps for fr in whole.frames) > exp.bound)
    assert {"crash_all-halted": HALTED, "crash_all-returned": RETURNED,
            "overrun": True}.get(name, RUNNING) in seen
    # one difference per frame id a crash met
    assert 0 < len(exp.reset_deltas) <= len(exp.frames_by_id)


@pytest.mark.parametrize("kw", [
    dict(failure="simultaneous", budget=2),
    dict(program="fig2", f=1, failure="independent", budget=1),
    dict(program="fig3", failure="independent", budget=1),
    dict(cons="tas", failure="independent", adversary="assumption1")])
def test_a_crash_changes_only_failures_and_the_frames_it_resets(kw):
    # a crash keeps the objects id and the others id, which holds no
    # `failures`; of the id state it changes the failures field, by one,
    # and the frame id and status code of each frame it resets
    exp = make_experiment(**kw)
    g = build_graph(exp)
    lay, n = exp.layout, exp.n
    crashes = 0
    for nid, pre in enumerate(g.nodes):
        for lab, child in g.edges(nid):
            if lab.kind == ORDINARY:
                continue
            post = g.nodes[child]
            before, after = exp.unpack(pre), exp.unpack(post)
            assert after[n:] == before[n:]
            assert post & lay.fail_mask == (pre & lay.fail_mask) + 1
            hit = [lab.pid - 1] if lab.kind == CRASH else [
                i for i in range(n) if exp.frames_by_id[before[i]].status != HALTED]
            assert [i for i in range(n) if after[i] != before[i]] == hit
            fields = lay.fail_mask
            for i in hit:
                fields |= lay.fmask << lay.shifts[i] | 3 << lay.widths[2] + 2 * i
            assert (pre ^ post) & ~fields == 0
            assert exp.intern(exp.materialize(post)) == post
            crashes += 1
    assert crashes
    assert {len(x) for x in exp.others_by_id} == {4}


# perfbench's `explore-memo` and `valency` configs, which pass
@pytest.mark.parametrize("kw", [
    dict(program="fig2", n=3, f=1, proposals=[10, 20, 30], failure="independent", budget=1,
         monitor=True),
    dict(program="fig2", f=2, cons="tas", failure="independent", budget=2, monitor=True)])
def test_the_collector_tracks_no_row(kw):
    exp = make_experiment(**kw)
    assert explore(exp).passed
    g = build_graph(exp)
    stores = exp.rows + exp.others_rows
    assert any(stores) and not any(map(gc.is_tracked, stores))
    assert not any(gc.is_tracked(d) for store in stores for d in store.values())
    assert not any(map(gc.is_tracked, g.nodes))
    # nor a crash's difference, nor a frame's steps
    assert exp.reset_deltas and not any(map(gc.is_tracked, exp.reset_deltas.values()))
    assert exp.steps_of and not any(map(gc.is_tracked, exp.steps_of))


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
