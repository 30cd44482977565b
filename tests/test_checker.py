"""Property evaluation, exhaustive search, minimization, fuzzing."""

import hashlib
import json
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rclab import checker, simulator
from rclab.checker import (
    AGREEMENT,
    GENERICITY,
    INVARIANT,
    READ_BEFORE_WRITE,
    RWF,
    VALIDITY,
    check_agreement,
    check_validity,
    confirm_violation,
    explore,
    fuzz,
    inspect_edge,
    shortest_failure,
    state_checks,
)
from rclab.core import (
    CRASH_ALL_LABEL,
    FELL_OFF,
    ORDINARY,
    Violation,
    canonical,
    crash,
    digest,
    ordinary,
)
from rclab.objects import Register
from rclab.programs import END, Fig1Machine, Fig2Machine
from rclab.simulator import ScheduleError
from rclab.valency import build_graph, classify

from conftest import (
    DIFFERENTIAL_CONFIGS,
    SEEDED_SCHEDULES,
    bound_off_by_one,
    keep_raced_decision,
    make_config,
    make_experiment,
    read_before_write,
    reachable_edges,
    reenter_after_crash,
    scan_decisions_descending,
    skip_decision_write,
    trust_unset_decision,
)


# -- property primitives ------------------------------------------------------


def test_agreement_examples():
    assert check_agreement([(1, 1, "a"), (2, 1, "a")]) is None
    assert check_agreement([(1, 1, "a"), (2, 1, "b")]) is not None
    assert check_agreement([]) is None


def test_agreement_cross_process_scope():
    returns = [(1, 1, "a"), (1, 2, "b")]  # same process, different attempts
    assert check_agreement(returns) is not None
    assert check_agreement(returns, scope="cross-process") is None
    returns = [(1, 1, "a"), (2, 1, "b")]
    assert check_agreement(returns, scope="cross-process") is not None


def test_agreement_cross_process_keeps_first_decision():
    # p1's first decision agrees with p2; its later, different one is ignored
    returns = [(1, 1, "a"), (2, 1, "a"), (1, 2, "b")]
    assert check_agreement(returns, scope="cross-process") is None


def test_validity_examples():
    assert check_validity([(1, 1, "a")], ["a", "b"]) is None
    assert check_validity([(1, 1, "c")], ["a", "b"]) is not None
    assert check_validity([(1, 1, None)], ["a", "b"]) is not None


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3),
                          st.sampled_from("ab")), max_size=6))
def test_agreement_iff_single_value(returns):
    distinct = {v for _p, _a, v in returns}
    assert (check_agreement(returns) is None) == (len(distinct) <= 1)


# -- edge and state invariants ------------------------------------------------


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONFIGS))
def test_check_edge_runs_whenever_an_object_changed(name):
    exp = make_experiment(**DIFFERENTIAL_CONFIGS[name])
    calls = []
    check_edge = exp.machine.check_edge

    def counted(pre_objects, post_objects):
        calls.append(1)
        return check_edge(pre_objects, post_objects)

    exp.machine.check_edge = counted
    for state, lab, post in reachable_edges(exp):
        before = len(calls)
        inspect_edge(exp, state, lab, post)
        if post.objects != state.objects:
            assert len(calls) == before + 1, (state, lab)
    assert calls


def test_explore_consults_the_machines_instance_patches():
    # perfbench's tracer patches the machine's checks on the instance after
    # the experiment is built; every check must go through the patch
    exp = make_experiment(program="fig2", f=1, failure="independent", budget=1)
    calls = dict.fromkeys(("check_frame", "check_objects", "check_edge"), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        setattr(exp.machine, name, counted(name, getattr(exp.machine, name)))
    assert explore(exp).passed
    assert all(calls.values()), calls


def test_the_valency_graph_runs_no_edge_check():
    # perfbench's `valency` config: the graph steps through `successor`,
    # which checks nothing
    exp = make_experiment(program="fig2", f=2, cons="tas", failure="independent", budget=2,
                          monitor=True)
    calls = []
    check_edge = exp.machine.check_edge
    exp.machine.check_edge = lambda pre, post: calls.append(1) or check_edge(pre, post)
    assert classify(build_graph(exp))
    assert calls == []


def fig2_forge():
    exp = make_experiment(program="fig2", f=1, failure="independent", budget=1)
    return exp, exp.initial_state()


def test_forged_register_decrease_is_reported():
    exp, init = fig2_forge()
    slot = exp.idx["R[2]"]
    pre = init._replace(objects=init.objects[:slot] + (Register(1),)
                        + init.objects[slot + 1:])
    assert inspect_edge(exp, pre, ordinary(1), init) == (INVARIANT, "R[2] decreased")
    # the id kernel's check, cached per (pre, post) pair of objects ids
    oids = [exp.intern(init._replace(objects=init.objects[:slot] + (Register(r),)
                                     + init.objects[slot + 1:]))[exp.n] for r in range(3)]
    assert exp.edge_checks[oids[2], oids[1]] == "R[2] decreased"
    assert exp.edge_checks[oids[0], oids[1]] is None


def test_forged_early_iteration_is_reported():
    exp, init = fig2_forge()
    fr = init.frames[0]
    forged = fr._replace(pc="xn:inc", locals=fr.with_locals({"k": 1}))
    state = init._replace(frames=(forged,) + init.frames[1:])
    assert exp.machine.check_state(state) == (
        "p1 is in iteration 1 with only 0 failures so far")


def test_forged_crash_that_changes_an_object_is_reported():
    exp, init = fig2_forge()
    slot = exp.idx["D[0]"]
    post = init._replace(objects=init.objects[:slot] + (Register(10),)
                         + init.objects[slot + 1:])
    assert inspect_edge(exp, init, crash(1), post) == (
        INVARIANT, "crash step changed shared objects")


# -- state checks once per state, on what the edge touched ---------------------


def full_state_properties(exp, state):
    """Every state property of `state`, each over the whole state; None if
    all hold."""
    for fr in state.frames:
        if fr.status == FELL_OFF or fr.steps > exp.bound:
            return RWF
    if check_agreement(state.returns, exp.config.agreement_scope):
        return AGREEMENT
    if check_validity(state.returns, exp.config.proposals):
        return VALIDITY
    if exp.machine.check_state(state):
        return INVARIANT
    return None


def reference_state_checks(exp, label, post):
    """The state checks of an edge into `post` in full: RWF of the moved
    frame, then the whole `check_agreement`, `check_validity` and
    `check_state`."""
    if label.kind == ORDINARY:
        fr = post.frames[label.pid - 1]
        if fr.status == FELL_OFF:
            return (RWF, "p%d reached the end of the program without returning"
                    % label.pid)
        if fr.steps > exp.bound:
            return (RWF, "p%d took %d steps in one attempt, bound is %d"
                    % (label.pid, fr.steps, exp.bound))
        err = check_agreement(post.returns, exp.config.agreement_scope)
        if err:
            return (AGREEMENT, err)
        err = check_validity(post.returns, exp.config.proposals)
        if err:
            return (VALIDITY, err)
    err = exp.machine.check_state(post)
    return (INVARIANT, err) if err else None


# The differential configs, and configs whose reachable states violate
# agreement (in both scopes) or wait-freedom.
INCREMENTAL_CONFIGS = dict(DIFFERENTIAL_CONFIGS, **{
    "tas-cons2-b1": dict(program="tas-cons2", failure="independent", budget=1),
    "tas-cons2-b1-cross": dict(program="tas-cons2", failure="independent", budget=1,
                               agreement_scope="cross-process"),
    "fig1-tas-ind-b1-cross": dict(cons="tas", failure="independent", budget=1,
                                  agreement_scope="cross-process"),
    "fig2-2-0-b1": dict(program="fig2", f=0, failure="independent", budget=1),
})


@pytest.mark.parametrize("name", sorted(INCREMENTAL_CONFIGS))
def test_incremental_state_checks_equal_full_checks(name):
    exp = make_experiment(**INCREMENTAL_CONFIGS[name])
    outcomes = set()
    for state, lab, post in reachable_edges(exp):
        if full_state_properties(exp, state) is None:
            got = state_checks(exp, exp.intern(state), lab, exp.intern(post))
            assert got == reference_state_checks(exp, lab, post), (state, lab)
            outcomes.add(got and got[0])
    if name not in DIFFERENTIAL_CONFIGS:
        assert outcomes - {None}, "no violating edge"


# The configs above, fig1 under assumption 1, whose frames arm crashes, two
# under the genericity monitor (fig1's instance is one `Cons` object, fig2's
# is built from registers and a TAS), and configs where a returned frame
# halts, so that no crash may hit it.  fig1's frames never fall off the end,
# so there a frame that is not running has halted; fig2 f=0 at budget 2 also
# reaches a frame that fell off, which a crash may still hit.
ID_CONFIGS = dict(INCREMENTAL_CONFIGS, **{
    "fig1-tas-a1": dict(cons="tas", failure="independent", adversary="assumption1"),
    "fig1-atomic-monitor": dict(failure="simultaneous", budget=1, monitor=True),
    "fig2-2-1-tas-monitor": dict(program="fig2", f=1, cons="tas", failure="independent",
                                 budget=1, monitor=True),
    "fig1-halt-ind-b1": dict(mode="halt-after-return", failure="independent", budget=1),
    "fig1-halt-sim-b1": dict(mode="halt-after-return", failure="simultaneous", budget=1),
    "fig2-2-0-halt-b2": dict(program="fig2", f=0, mode="halt-after-return",
                             failure="independent", budget=2),
})


def kernel_outcome(exp, pre, label):
    """(post id state, the id kernel's check outcome) of one edge from the id
    state `pre`; the post id state is None when the edge check failed."""
    try:
        post = checker.checked_edge(exp, pre, label)
    except Violation as v:
        return None, (v.prop, v.detail)
    return post, state_checks(exp, pre, label, post)


@pytest.mark.parametrize("name", sorted(ID_CONFIGS))
def test_id_states_match_whole_states(name):
    exp = make_experiment(**ID_CONFIGS[name])
    outcomes = set()
    for state, lab, post in reachable_edges(exp):
        pre = exp.intern(state)
        assert exp.materialize(pre) == state
        assert exp.enabled_ids(pre) == exp.enabled_steps(state)
        got = exp.materialize(exp.successor(pre, lab))
        assert got == post, (state, lab)
        text = json.dumps(canonical(got), separators=(",", ":"))
        assert digest(got) == hashlib.sha256(text.encode()).hexdigest()
        if full_state_properties(exp, state) is None:
            ids, outcome = kernel_outcome(exp, pre, lab)
            assert ids is None or exp.materialize(ids) == post
            assert outcome == inspect_edge(exp, state, lab, post), (state, lab)
            outcomes.add(outcome and outcome[0])
    if name in INCREMENTAL_CONFIGS and name not in DIFFERENTIAL_CONFIGS:
        assert outcomes - {None}, "no violating edge"


def test_forged_step_into_an_early_iteration_is_reported():
    exp, init = fig2_forge()
    fr = init.frames[0]
    moved = fr._replace(pc="xn:inc", locals=fr.with_locals({"k": 1}), steps=1)
    post = init._replace(frames=(moved,) + init.frames[1:])
    # the same frame after one failure is clean: the check is per failures
    pre, after = init._replace(failures=1), post._replace(failures=1)
    assert state_checks(exp, exp.intern(pre), ordinary(1), exp.intern(after)) is None
    assert state_checks(exp, exp.intern(init), ordinary(1), exp.intern(post)) == (
        INVARIANT, "p1 is in iteration 1 with only 0 failures so far")


def test_forged_register_write_past_the_failures_is_reported():
    exp, init = fig2_forge()
    slot = exp.idx["R[2]"]
    post = init._replace(objects=init.objects[:slot] + (Register(2),)
                         + init.objects[slot + 1:])
    # the same objects after one failure are clean: the check is per failures
    pre, after = init._replace(failures=1), post._replace(failures=1)
    assert state_checks(exp, exp.intern(pre), ordinary(1), exp.intern(after)) is None
    assert state_checks(exp, exp.intern(init), ordinary(1), exp.intern(post)) == (
        INVARIANT, "R[2]=2 with only 0 failures so far")


@pytest.mark.parametrize("scope,prior,new,detail", [
    ("all-returns", [(1, 1, 10)], (2, 1, 20), "returns disagree: ['10', '20']"),
    ("all-returns", [(1, 1, 10)], (1, 2, 20), "returns disagree: ['10', '20']"),
    ("cross-process", [(1, 1, 10)], (2, 1, 20), "distinct processes decided ['10', '20']"),
    ("cross-process", [(1, 1, 10), (1, 2, 20)], (2, 1, 20),
     "distinct processes decided ['10', '20']"),
    ("cross-process", [(1, 1, 10)], (1, 2, 20), None),
    ("cross-process", [(1, 1, 10), (1, 2, 20)], (2, 1, 10), None),
])
def test_forged_return_is_checked_for_agreement(scope, prior, new, detail):
    exp = make_experiment(program="fig2", f=1, failure="independent", budget=1,
                          agreement_scope=scope)
    init = exp.initial_state()
    pre = init._replace(returns=tuple(prior))
    post = pre._replace(returns=pre.returns + (new,))
    got = state_checks(exp, exp.intern(pre), ordinary(new[0]), exp.intern(post))
    assert got == (detail and (AGREEMENT, detail))
    if detail:
        assert detail == check_agreement(post.returns, scope)


def test_forged_invalid_decision_is_reported():
    exp, init = fig2_forge()
    post = init._replace(returns=((1, 1, 99),))
    assert state_checks(exp, exp.intern(init), ordinary(1), exp.intern(post)) == (
        VALIDITY, "p1 (attempt 1) decided 99, not a proposal")


def forged_edges(exp):
    """Forged edges (pre, label, post) between whole states of `exp`, a fig2
    n=2 f=1 experiment with independent failures and budget 1, whose state
    checks find each property: RWF, both invariants (each edge first after a
    failure, where it is clean), validity and agreement.  The last two edges
    reach one post-state: one adds p2's clashing return, the other, out of a
    state that already holds it, only records p2's access to `C[0]`.  Both
    change the others id, so the state checks read the post-state's
    returns on both."""
    init = exp.initial_state()
    fr = init.frames[0]
    o1, o2 = ordinary(1), ordinary(2)

    def moved(frame):
        return init._replace(frames=(frame,) + init.frames[1:])

    slot = exp.idx["R[2]"]
    written = init._replace(objects=init.objects[:slot] + (Register(2),)
                            + init.objects[slot + 1:])
    early = moved(fr._replace(pc="xn:inc", locals=fr.with_locals({"k": 1}), steps=1))
    decided = init._replace(returns=((1, 1, 10),))
    clash = decided._replace(returns=decided.returns + ((2, 1, 20),),
                             cons_access=frozenset({("C[0]", 2, 1)}))
    edges = [
        (init, o1, moved(fr._replace(pc=END, status=FELL_OFF, steps=1))),
        (init, o1, moved(fr._replace(steps=exp.bound + 1))),
    ]
    for post in (early, written):
        edges += [(init._replace(failures=1), o1, post._replace(failures=1)),
                  (init, o1, post)]
    return edges + [
        (init, o1, init._replace(returns=((1, 1, 99),))),
        (decided, o1, decided._replace(returns=decided.returns + ((1, 2, 20),))),
        (clash._replace(returns=decided.returns), o2, clash),
        (clash._replace(cons_access=frozenset()), o2, clash),
    ]


@pytest.mark.parametrize("scope", ["all-returns", "cross-process"])
def test_warm_check_caches_give_the_cold_outcomes(scope):
    kw = dict(program="fig2", f=1, failure="independent", budget=1, agreement_scope=scope)
    exp = make_experiment(**kw)
    clean = explore(exp)
    assert clean.passed
    edges = forged_edges(exp)
    # every forged component is interned before the first check that reads it
    ids = [(exp.intern(pre), lab, exp.intern(post)) for pre, lab, post in edges]
    props = set()
    for (pre, lab, post), (pre_ids, _, post_ids) in zip(edges, ids):
        cold = make_experiment(**kw)
        want = state_checks(cold, cold.intern(pre), lab, cold.intern(post))
        assert state_checks(exp, pre_ids, lab, post_ids) == want, (pre, lab, post)
        props.add(want and want[0])
    assert props == {None, RWF, INVARIANT, VALIDITY, AGREEMENT}
    # no violation cached for a forged edge leaks into a clean one
    assert explore(exp).to_json() == clean.to_json()


# Without the memo every edge reaches a new state; of these configs only
# cas-rc's execution tree is small enough for a quick test.
@pytest.mark.parametrize("name,memo", [(name, True) for name in sorted(DIFFERENTIAL_CONFIGS)]
                         + [("cas-rc-b3", False)])
def test_state_checks_run_once_per_new_state(monkeypatch, name, memo):
    calls = []

    def counted(exp, pre, label, post):
        calls.append(1)
        return state_checks(exp, pre, label, post)

    monkeypatch.setattr(checker, "state_checks", counted)
    verdict = explore(make_config(**DIFFERENTIAL_CONFIGS[name]), memo=memo)
    assert verdict.passed
    assert len(calls) == verdict.stats["states"] - 1


# Without the memo, fig2's execution tree is too large for a quick test.
@pytest.mark.parametrize("kw,memo", [
    (dict(program="fig2", f=1, failure="independent", budget=1, monitor=True), True),
    (DIFFERENTIAL_CONFIGS["cas-rc-b3"], False)])
def test_every_explored_edge_is_one_successor_call(kw, memo):
    # `successor` is the one step walk: ordinary and crash edges alike
    exp = make_experiment(**kw)
    kinds = []
    successor = exp.successor

    def counted(ids, label):
        kinds.append(label.kind)
        return successor(ids, label)

    exp.successor = counted
    verdict = explore(exp, memo=memo)
    assert verdict.passed
    assert len(kinds) == verdict.stats["edges"]
    assert ORDINARY in kinds and set(kinds) != {ORDINARY}


# Configs with crash edges: two that pass under the genericity monitor, and
# one under assumption 1, whose forced crashes lead to an agreement violation.
CRASHING_CONFIGS = [
    dict(program="fig2", f=1, failure="independent", budget=1, monitor=True),
    dict(failure="simultaneous", budget=2, monitor=True),
    dict(cons="tas", failure="independent", adversary="assumption1"),
]


@pytest.mark.parametrize("kw", CRASHING_CONFIGS)
def test_a_search_builds_no_state_but_the_initial_one(monkeypatch, kw):
    # every state check past the initial state is served from the per-id
    # caches, crash edges' included
    exp = make_experiment(**kw)
    calls = []
    check_state = exp.machine.check_state

    def counted(state):
        calls.append(state)
        return check_state(state)

    def refused(ids):
        raise AssertionError("a search built the state of %r" % (ids,))

    monkeypatch.setattr(exp.machine, "check_state", counted)
    monkeypatch.setattr(exp, "materialize", refused)
    for search in (explore, shortest_failure, lambda e: fuzz(e, episodes=50)):
        del calls[:]
        search(exp)
        assert calls == [exp.initial_state()]


# -- exhaustive exploration ---------------------------------------------------


def test_explore_pass_has_stats(fig1_sim1):
    verdict = explore(fig1_sim1)
    assert verdict.passed and verdict.exit_code == 0
    assert verdict.stats["states"] > 0
    assert verdict.stats["terminal_executions"] > 0
    assert verdict.stats["max_attempt_steps"] <= fig1_sim1.bound


def test_explore_accepts_config_dict():
    verdict = explore({"program": "cas-rc", "n": 2, "proposals": [1, 2]})
    assert verdict.passed


def test_explore_finds_agreement_violation():
    cfg = make_config(program="tas-cons2", failure="independent", budget=1)
    verdict = explore(cfg)
    assert verdict.result == "fail" and verdict.exit_code == 2
    assert verdict.prop in (AGREEMENT, VALIDITY)
    assert verdict.trace_labels


def test_counterexample_confirms_independently():
    cfg = make_config(program="tas-cons2", failure="independent", budget=1)
    verdict = explore(cfg)
    got = confirm_violation(cfg, verdict.trace_labels)
    assert got is not None and got[0] == verdict.prop


@pytest.mark.parametrize("memo", [True, False])
@pytest.mark.parametrize("kw", [dict(program="tas-cons2", failure="independent", budget=1),
                                dict(program="fig2", f=1, failure="independent", budget=2)])
def test_counterexample_is_the_shortest_and_confirms(kw, memo):
    # either search reports `shortest_failure`'s schedule, which replays to
    # the verdict's own violation
    cfg = make_config(**kw)
    verdict = explore(cfg, memo=memo)
    assert verdict.result == "fail"
    assert confirm_violation(cfg, verdict.trace_labels) == (verdict.prop, verdict.detail)
    assert ((verdict.trace_labels, verdict.prop, verdict.detail)
            == shortest_failure(checker.as_experiment(cfg)))


def test_rwf_violation_on_overloaded_fig2():
    cfg = make_config(program="fig2", f=0, failure="independent", budget=1)
    verdict = explore(cfg)
    assert verdict.result == "fail" and verdict.prop == RWF
    assert confirm_violation(cfg, verdict.trace_labels)[0] == RWF


def test_check_rwf_clean_schedule():
    exp = make_experiment()
    assert confirm_violation(exp, [ordinary(1)] * 6) is None


def test_confirm_rejects_crash_the_adversary_never_forces():
    # assumption 1 enables no crash before a first TAS access
    exp = make_experiment(cons="tas", failure="independent", adversary="assumption1")
    with pytest.raises(ScheduleError) as err:
        confirm_violation(exp, [crash(1)] * 5)
    assert err.value.index == 0 and err.value.label == crash(1)


def test_confirm_rejects_step_of_returned_process():
    # p1 returns after 6 solo steps and takes no seventh
    exp = make_experiment()
    with pytest.raises(ScheduleError) as err:
        confirm_violation(exp, [ordinary(1)] * 7)
    assert err.value.index == 6 and err.value.label == ordinary(1)


def test_memoization_does_not_change_verdict(fig1_sim1):
    with_memo = explore(fig1_sim1, memo=True)
    without = explore(fig1_sim1, memo=False)
    assert with_memo.result == without.result
    assert (with_memo.stats["terminal_executions"]
            == without.stats["terminal_executions"])


# Without the memo `explore` walks the execution tree, so a draw with more
# complete executions than this is skipped.
NOMEMO_EXECUTIONS = 50_000


SMALL_DRAWS = dict(
    program=st.sampled_from([dict(program="fig1"), dict(program="fig3"),
                             dict(program="cas-rc"), dict(program="tas-cons2"),
                             dict(program="fig2", f=0)]),
    failure=st.sampled_from(["none", "independent", "simultaneous"]),
    budget=st.integers(0, 1),
    mode=st.sampled_from(["rerun-after-crash", "halt-after-return"]),
    scope=st.sampled_from(["all-returns", "cross-process"]))


@settings(deadline=None, max_examples=60)
@given(**SMALL_DRAWS)
def test_memo_and_nomemo_agree(program, failure, budget, mode, scope):
    cfg = make_config(failure=failure, budget=budget, mode=mode, agreement_scope=scope,
                      **program)
    memo = explore(cfg, memo=True)
    if memo.passed:
        # the memo holds one state per node of the reachable state graph
        assert len(build_graph(cfg).nodes) == memo.stats["states"]
    assume(memo.stats["terminal_executions"] <= NOMEMO_EXECUTIONS)
    nomemo = explore(cfg, memo=False)
    if memo.result == "fail":
        # both report the shortest violating schedule, which replays to the
        # verdicts' violation; only the sweep counts the fewest crashes
        assert ((nomemo.result, nomemo.prop, nomemo.detail, nomemo.trace_labels,
                 nomemo.stats["terminal_executions"])
                == (memo.result, memo.prop, memo.detail, memo.trace_labels,
                    memo.stats["terminal_executions"]))
        assert (confirm_violation(cfg, memo.trace_labels)
                == (memo.prop, memo.detail))
        assert memo.crashes <= sum(lab.kind != ORDINARY for lab in nomemo.trace_labels)
        return
    # a pass or a depth limit reports nothing that depends on the order
    assert ((nomemo.result, nomemo.prop, nomemo.detail, nomemo.trace_labels,
             nomemo.stats["terminal_executions"])
            == (memo.result, memo.prop, memo.detail, memo.trace_labels,
                memo.stats["terminal_executions"]))


@settings(deadline=None, max_examples=60)
@given(**SMALL_DRAWS)
def test_fuzz_failure_implies_exhaustive_failure(program, failure, budget, mode, scope):
    # a random schedule may break another property than the shortest
    # violation does: tas-cons2's shortest breaks Validity, a random one may
    # break Agreement first.  Most draws pass, and a pass implies nothing.
    cfg = make_config(failure=failure, budget=budget, mode=mode, agreement_scope=scope,
                      **program)
    fuzzed = fuzz(cfg, episodes=200)
    if fuzzed.result != "fail":
        return
    assert explore(cfg).result == "fail"
    assert confirm_violation(cfg, fuzzed.trace_labels) == (fuzzed.prop, fuzzed.detail)


def test_explore_leaves_recursion_limit_unchanged():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter default
    try:
        assert explore(make_config(failure="simultaneous", budget=1)).passed
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(before)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONFIGS))
def test_explore_states_equal_graph_nodes(name):
    cfg = make_config(**DIFFERENTIAL_CONFIGS[name])
    verdict = explore(cfg, memo=True)
    assert verdict.passed
    assert verdict.stats["states"] == len(build_graph(cfg).nodes)


@pytest.mark.parametrize("mutate,prop", [
    (reenter_after_crash, GENERICITY),
    (read_before_write, READ_BEFORE_WRITE),
])
def test_transition_errors_map_to_their_property(monkeypatch, mutate, prop):
    monkeypatch.setattr(Fig1Machine, "step", mutate(Fig1Machine.step))
    exp = make_experiment(failure="simultaneous", budget=1, monitor=True)
    assert confirm_violation(exp, SEEDED_SCHEDULES[prop])[0] == prop
    verdict = explore(exp)
    assert verdict.prop == prop
    assert confirm_violation(exp, verdict.trace_labels)[0] == prop


# Counterexamples pinned against changes to the search and its checks: the
# shortest violating schedule, whichever search found the violation, and
# the sweep's count of the fewest crashes it needs.
@pytest.mark.parametrize("memo", [True, False])
@pytest.mark.parametrize("mutate,trace,prop,detail,crashes", [
    (reenter_after_crash, [ordinary(1)] * 4 + [CRASH_ALL_LABEL] + [ordinary(1)] * 4,
     GENERICITY, "p1 accessed C in attempt 2 after accessing it in attempt 1", 1),
    (read_before_write, [ordinary(1)], READ_BEFORE_WRITE, "p1 read uninitialized 'd' at x:if", 0),
])
def test_seeded_bug_counterexample_is_pinned(monkeypatch, mutate, trace, prop, detail, crashes,
                                             memo):
    monkeypatch.setattr(Fig1Machine, "step", mutate(Fig1Machine.step))
    exp = make_experiment(failure="simultaneous", budget=1, monitor=True)
    verdict = explore(exp, memo=memo)
    assert ((verdict.trace_labels, verdict.prop, verdict.detail, verdict.crashes)
            == (trace, prop, detail, crashes if memo else None))


@pytest.mark.parametrize("kw,length", [
    (dict(), 17),
    (dict(cons="tas"), 19),
    (dict(n=3, proposals=[10, 20, 30]), 18),
])
def test_fig2_mutant_that_keeps_a_raced_decision_is_caught(monkeypatch, kw, length):
    monkeypatch.setattr(Fig2Machine, "step", keep_raced_decision(Fig2Machine.step))
    exp = make_experiment(program="fig2", f=1, failure="independent", budget=1,
                          monitor=True, **kw)
    verdict = explore(exp)
    assert (verdict.prop, len(verdict.trace_labels)) == (AGREEMENT, length)
    assert confirm_violation(exp, verdict.trace_labels)[0] == AGREEMENT
    trace, final = simulator.run(exp, verdict.trace_labels)
    assert simulator.replay(simulator.dump_trace(trace, final_hash=digest(final))).matches_header


@pytest.mark.parametrize("machine,attr,mutate,kw,prop,length", [
    (Fig1Machine, "step", skip_decision_write, dict(failure="simultaneous", budget=1),
     AGREEMENT, 14),
    (Fig1Machine, "step", skip_decision_write,
     dict(failure="simultaneous", budget=1, cons="tas"), AGREEMENT, 15),
    (Fig2Machine, "step", scan_decisions_descending,
     dict(program="fig2", f=2, failure="independent", budget=2), AGREEMENT, 26),
    (Fig1Machine, "step", trust_unset_decision, dict(failure="simultaneous", budget=1),
     VALIDITY, 7),
    (Fig1Machine, "step", trust_unset_decision,
     dict(failure="simultaneous", budget=1, cons="tas"), VALIDITY, 7),
    (Fig2Machine, "bound", bound_off_by_one,
     dict(program="fig2", f=1, failure="independent", budget=1), RWF, 18),
])
def test_mutant_is_caught_with_a_replayable_counterexample(monkeypatch, machine, attr, mutate,
                                                           kw, prop, length):
    monkeypatch.setattr(machine, attr, mutate(getattr(machine, attr)))
    exp = make_experiment(monitor=True, **kw)
    verdict = explore(exp)
    assert (verdict.prop, len(verdict.trace_labels)) == (prop, length)
    assert confirm_violation(exp, verdict.trace_labels)[0] == prop
    trace, final = simulator.run(exp, verdict.trace_labels)
    assert simulator.replay(simulator.dump_trace(trace, final_hash=digest(final))).matches_header


def test_descending_scan_passes_with_one_decision_register(monkeypatch):
    # with f=1 a process scans only D[0], so the order cannot matter
    monkeypatch.setattr(Fig2Machine, "step", scan_decisions_descending(Fig2Machine.step))
    assert explore(make_config(program="fig2", f=1, failure="independent", budget=1,
                               monitor=True)).passed


def test_overload_shortest_failure_is_pinned():
    # acceptance criterion 4's fig2 config with f=1
    exp = make_experiment(program="fig2", f=1, failure="independent", budget=2)
    o1, c1 = ordinary(1), crash(1)
    assert shortest_failure(exp) == (
        [o1, o1, c1, o1, o1, o1, c1, o1, o1], RWF,
        "p1 reached the end of the program without returning")


def test_initial_state_invariant_is_checked_by_every_entry_point(monkeypatch):
    exp = make_experiment(program="fig2", f=1, failure="independent", budget=1)
    init = exp.initial_state()
    monkeypatch.setattr(Fig2Machine, "check_state",
                        lambda self, state: "flagged" if state == init else None)
    verdict = explore(exp)
    assert (verdict.result, verdict.prop, verdict.trace_labels) == ("fail", INVARIANT, [])
    assert shortest_failure(exp) == ([], INVARIANT, "flagged")
    verdict = fuzz(exp, episodes=10)
    assert (verdict.result, verdict.prop, verdict.trace_labels) == ("fail", INVARIANT, [])
    assert confirm_violation(exp, []) == (INVARIANT, "flagged")
    assert confirm_violation(exp, [ordinary(1)]) == (INVARIANT, "flagged")


def test_edge_invariant_is_checked_by_every_entry_point(monkeypatch):
    # p1's second step, xn:inc, is the first that writes an object
    exp = make_experiment(program="fig2", f=1, failure="independent", budget=1)
    monkeypatch.setattr(Fig2Machine, "check_edge",
                        lambda self, pre, post: "flagged" if pre != post else None)
    verdict = explore(exp)
    assert (verdict.result, verdict.prop, verdict.detail) == ("fail", INVARIANT, "flagged")
    assert shortest_failure(exp) == ([ordinary(1)] * 2, INVARIANT, "flagged")
    assert fuzz(exp, episodes=10).prop == INVARIANT
    assert confirm_violation(exp, [ordinary(1)]) is None
    assert confirm_violation(exp, [ordinary(1)] * 2) == (INVARIANT, "flagged")


# -- verdicts -----------------------------------------------------------------


def test_verdict_defaults_by_position_and_by_keyword():
    labels = [ordinary(1)]
    for v in (checker.Verdict("fail", "Agreement", "d", labels, {"states": 1}, 2),
              checker.Verdict(result="fail", prop="Agreement", detail="d", trace_labels=labels,
                              stats={"states": 1}, crashes=2)):
        assert (v.result, v.prop, v.detail, v.trace_labels, v.stats, v.crashes) == (
            "fail", "Agreement", "d", labels, {"states": 1}, 2)
        assert not v.passed and v.exit_code == 2
    v = checker.Verdict("pass")
    assert (v.result, v.prop, v.detail, v.trace_labels, v.stats, v.crashes) == (
        "pass", None, None, None, {}, None)
    assert v.passed and v.exit_code == 0


def test_verdicts_built_without_stats_do_not_share_a_dict():
    a, b = checker.Verdict("pass"), checker.Verdict(result="pass")
    a.stats["states"] = 1
    assert b.stats == {}


@pytest.mark.parametrize("verdict,text", [
    (checker.Verdict("pass", stats={"states": 3}),
     '{"result": "pass", "stats": {"states": 3}}'),
    (checker.Verdict("fail", "Agreement", "returns disagree", [ordinary(1), crash(2)],
                     {"states": 5}, crashes=1),
     '{"result": "fail", "stats": {"states": 5}, "property": "Agreement", '
     '"detail": "returns disagree", "crashes": 1, "trace": [{"kind": "ordinary", "pid": 1}, '
     '{"kind": "crash", "pid": 2}]}'),
    (checker.Verdict("depth-limit", detail="depth limit 4 reached", stats={"states": 2}),
     '{"result": "depth-limit", "stats": {"states": 2}, "detail": "depth limit 4 reached"}'),
])
def test_verdict_json_keeps_its_keys_and_their_order(verdict, text):
    assert json.dumps(verdict.to_json()) == text


def test_depth_limit_is_exact():
    # cas-rc n=2 without crashes: every execution has exactly 4 steps
    assert explore(make_config(program="cas-rc", depth=4)).passed
    assert explore(make_config(program="cas-rc", depth=3)).result == "depth-limit"


def test_depth_limit_verdict():
    cfg = make_config(failure="simultaneous", budget=1, depth=3)
    verdict = explore(cfg)
    assert verdict.result == "depth-limit" and verdict.exit_code == 3


def assert_depth_limit_agrees(kw, full, depth):
    # whether some path reaches a non-terminal state at `depth` does not
    # depend on the order in which a search meets the paths; `full` is the
    # sweep's pass without a depth limit
    cfg = make_config(depth=depth, **kw)
    sweep, walk = explore(cfg), explore(cfg, memo=False)
    assert sweep.result == walk.result
    if sweep.passed:
        assert sweep.stats == full.stats
        assert ((walk.stats["terminal_executions"], walk.stats["max_attempt_steps"])
                == (full.stats["terminal_executions"], full.stats["max_attempt_steps"]))


@settings(deadline=None, max_examples=40)
@given(program=st.sampled_from([dict(program="fig1"), dict(program="fig1", cons="tas"),
                                dict(program="fig3"), dict(program="cas-rc")]),
       failure=st.sampled_from(["none", "independent", "simultaneous"]),
       budget=st.integers(0, 1),
       mode=st.sampled_from(["rerun-after-crash", "halt-after-return"]),
       depth=st.integers(0, 16))
def test_depth_limit_does_not_depend_on_the_search_order(program, failure, budget, mode,
                                                          depth):
    kw = dict(failure=failure, budget=budget, mode=mode, **program)
    full = explore(make_config(**kw))
    assume(full.passed and full.stats["terminal_executions"] <= NOMEMO_EXECUTIONS)
    assert_depth_limit_agrees(kw, full, depth)


FIG2_DEPTH = dict(program="fig2", f=1, failure="independent", budget=1)


# A non-terminal state lies at depth 26, none at 27, so both searches stop
# early below 27.
@pytest.mark.parametrize("depth", range(1, 27))
def test_depth_limit_agrees_on_fig2(depth):
    assert_depth_limit_agrees(FIG2_DEPTH, explore(make_config(**FIG2_DEPTH)), depth)


def test_fig2_passes_from_depth_27():
    # the walk passes here too, with these executions, but takes over a
    # minute to count them one by one
    full = explore(make_config(**FIG2_DEPTH))
    assert explore(make_config(depth=27, **FIG2_DEPTH)).stats == full.stats
    assert full.stats["terminal_executions"] == 10303268


@settings(deadline=None, max_examples=40)
@given(program=st.sampled_from([dict(program="fig1"), dict(program="fig1", cons="tas"),
                                dict(program="tas-cons2"), dict(program="fig2", f=0),
                                dict(program="fig2", f=1)]),
       failure=st.sampled_from(["independent", "simultaneous"]),
       budget=st.integers(1, 2),
       mode=st.sampled_from(["rerun-after-crash", "halt-after-return"]),
       scope=st.sampled_from(["all-returns", "cross-process"]))
def test_sweep_reports_the_fewest_crashes(program, failure, budget, mode, scope):
    kw = dict(failure=failure, mode=mode, agreement_scope=scope, **program)
    verdict = explore(make_config(budget=budget, **kw))
    assume(verdict.result == "fail")
    crashes = verdict.crashes
    assert sum(lab.kind != ORDINARY for lab in verdict.trace_labels) == crashes
    # the budget gates crashes alone: the violation is still reachable at
    # its own crash count, and no violation is at one fewer
    at = explore(make_config(budget=crashes, **kw))
    assert (at.result, at.crashes) == ("fail", crashes)
    if crashes:
        assert explore(make_config(budget=crashes - 1, **kw)).result != "fail"


@settings(deadline=None, max_examples=10)
@given(budget=st.integers(0, 2))
def test_budget_monotone_fig1(budget):
    # a pass with budget b implies passes with every smaller budget; fig1
    # passes at budget 2, so all smaller budgets must pass too
    cfg = make_config(failure="simultaneous", budget=budget)
    assert explore(cfg).passed


def test_crash_free_equals_none_model():
    none_v = explore(make_config(program="fig3"))
    zero_v = explore(make_config(program="fig3", failure="independent",
                                 budget=0))
    assert none_v.passed and zero_v.passed
    assert none_v.stats == zero_v.stats


# -- fuzzing ------------------------------------------------------------------


def test_fuzz_pass_is_seeded():
    cfg = make_config(program="cas-rc", failure="independent", budget=5, seed=7)
    a = fuzz(cfg, episodes=200)
    b = fuzz(cfg, episodes=200)
    assert a.passed and a.stats == b.stats
    assert a.stats["seed"] == 7


@pytest.mark.parametrize("kw", [
    dict(failure="simultaneous", budget=1, depth=3),
    dict(program="fig2", f=1, failure="independent", budget=2, depth=8, seed=3),
])
def test_fuzz_stops_at_the_depth_limit(kw):
    cfg = make_config(**kw)
    assert explore(cfg).result == "depth-limit"
    verdict = fuzz(cfg, episodes=200)
    assert verdict.result == "depth-limit" and verdict.exit_code == 3


def test_fuzz_finds_tas_cons2_violation():
    cfg = make_config(program="tas-cons2", failure="independent", budget=1)
    verdict = fuzz(cfg, episodes=2000)
    assert verdict.result == "fail"
    assert verdict.prop in (AGREEMENT, VALIDITY)
    assert confirm_violation(cfg, verdict.trace_labels) is not None


def test_fuzz_fig2_larger_instance():
    cfg = make_config(program="fig2", n=3, f=2, proposals=[10, 20, 30],
                      failure="independent", budget=2, seed=7)
    assert fuzz(cfg, episodes=300).passed


# -- verdict serialization ----------------------------------------------------


def test_verdict_to_json_round_trips_labels():
    cfg = make_config(program="tas-cons2", failure="independent", budget=1)
    verdict = explore(cfg)
    doc = verdict.to_json()
    assert doc["result"] == "fail"
    assert doc["property"] == verdict.prop
    kinds = {lab["kind"] for lab in doc["trace"]}
    assert kinds <= {"ordinary", "crash", "crash_all"}
