"""Per-algorithm behavior: line-labeled paths, recovery branches, bounds."""

import json
import os

import pytest

from rclab import checker
from rclab.core import GenericityViolation, crash, ordinary
from rclab.programs import build_machine
from rclab.simulator import run, run_plan

from conftest import GOLDEN_DIR, get_value, make_config, make_experiment


def ops(trace):
    return [r.op for r in trace.records]


# -- fig1 ---------------------------------------------------------------------


def test_fig1_solo_direct_path():
    exp = make_experiment()
    trace, final = run(exp, run_plan(exp, [("until_done", 1)]))
    assert final.returns == ((1, 1, 10),)
    assert ops(trace) == [
        "x:if read P[1]",
        "x:if2 read P[2]",
        "x:wP write P[1] [10]",
        'x:C decide C [1, 1, 10]',
        "x:wD write D [10]",
        "x:retd return",
    ]


def test_fig1_late_starter_adopts_recorded_decision():
    exp = make_experiment()
    trace, final = run(exp, run_plan(exp, [("until_done", 1), ("until_done", 2)]))
    assert final.returns == ((1, 1, 10), (2, 1, 10))
    assert "x:recDret return" in ops(trace)


def test_fig1_recovery_prefers_own_announcement():
    exp = make_experiment(failure="simultaneous", budget=1)
    plan = [("until_pc", 1, "x:C"), ("crash_all",), ("until_done", 1)]
    trace, final = run(exp, run_plan(exp, plan))
    assert final.returns == ((1, 2, 10),)
    assert ops(trace)[-1] == "x:inbotObotret return"


def test_fig1_recovery_yields_to_other_announcement():
    exp = make_experiment(failure="simultaneous", budget=1)
    plan = [("until_pc", 2, "x:C"), ("crash_all",), ("until_done", 1)]
    trace, final = run(exp, run_plan(exp, plan))
    assert final.returns == ((1, 2, 20),)
    assert ops(trace)[-1] == "x:ibotOnbotret return"


@pytest.mark.parametrize("choice,expected", [
    ("p1", 10), ("p2", 20), ("min", 10), ("max", 20),
])
def test_fig1_tie_break_choice(choice, expected):
    exp = make_experiment(failure="simultaneous", budget=1, choice=choice)
    plan = [("step", 1, 2), ("step", 2, 2), ("step", 1, 1), ("step", 2, 1),
            ("crash_all",), ("until_done", 1), ("until_done", 2)]
    _, final = run(exp, run_plan(exp, plan))
    assert {v for _p, _a, v in final.returns} == {expected}


def test_fig1_inlined_consensus_matches_atomic():
    for cons in ("atomic", "tas"):
        exp = make_experiment(cons=cons)
        _, final = run(exp, run_plan(exp, [("until_done", 2), ("until_done", 1)]))
        assert {v for _p, _a, v in final.returns} == {20}


# -- fig2 ---------------------------------------------------------------------


def fig2_experiment(**kw):
    base = dict(program="fig2", n=2, f=1, proposals=[10, 20],
                failure="independent", budget=1)
    base.update(kw)
    return make_experiment(**base)


def test_fig2_solo_first_iteration():
    exp = fig2_experiment()
    trace, final = run(exp, run_plan(exp, [("until_done", 1)]))
    assert final.returns == ((1, 1, 10),)
    assert ops(trace) == [
        "xn:if read R[1]",
        "xn:inc write R[1] [1]",
        'xn:C decide C[0] [1, 1, 10]',
        "xn:wD write D[0] [10]",
        "xn:ifp read R[1]",
        "xn:forp read R[2]",
        "xn:retd return",
    ]
    assert get_value(exp, final, "D[0]").value == 10
    assert get_value(exp, final, "R[2]").value == 0


def test_fig2_crashed_process_adopts_earlier_decision():
    exp = fig2_experiment()
    plan = [("until_pc", 2, "xn:C"), ("crash", 2),
            ("until_done", 1), ("until_done", 2)]
    trace, final = run(exp, run_plan(exp, plan))
    assert final.returns == ((1, 1, 10), (2, 2, 10))
    # p2 recovered into iteration 1 and read the iteration-0 decision
    assert "xn:forado read D[0]" in ops(trace)
    assert get_value(exp, final, "R[2]").value == 2


def test_fig2_forgets_decision_when_overtaken():
    exp = fig2_experiment()
    plan = [("until_pc", 1, "xn:ifp"),
            ("until_pc", 2, "xn:C"), ("crash", 2), ("until_pc", 2, "xn:forado"),
            ("until_done", 1), ("until_done", 2)]
    trace, final = run(exp, run_plan(exp, plan))
    # p1 saw R[2] = 2 > R[1] = 1, dropped its iteration-0 decision, and
    # decided again in iteration 1
    records = [r for r in trace.records
               if r.label == ordinary(1) and r.op.startswith("xn:forp")]
    assert records and records[0].resp == 2
    assert final.returns == ((1, 1, 10), (2, 2, 10))


def test_fig2_scan_order_changes_collision_scan():
    exp = make_experiment(program="fig2", n=3, f=1, proposals=[10, 20, 30],
                          failure="independent", budget=1, scan_order="desc")
    assert exp.machine.others(1) == [3, 2]
    assert exp.machine.others(2) == [3, 1]
    exp = make_experiment(program="fig2", n=3, f=1, proposals=[10, 20, 30],
                          failure="independent", budget=1)
    assert exp.machine.others(1) == [2, 3]


def test_fig2_iteration_gate_requires_failures():
    # R[i] can exceed the iteration gate only after enough crashes
    exp = fig2_experiment(f=0, budget=0)
    _, final = run(exp, run_plan(exp, [("until_done", 1), ("until_done", 2)]))
    assert {v for _p, _a, v in final.returns} == {10}


# -- fig3 ---------------------------------------------------------------------


def test_fig3_solo_cas_path():
    exp = make_experiment(program="fig3")
    trace, final = run(exp, run_plan(exp, [("until_done", 1)]))
    assert final.returns == ((1, 1, 10),)
    assert ops(trace) == [
        "ex:if read P[1]",
        "ex:if2 read P[2]",
        "ex:wP write P[1] [10]",
        'ex:CAS cas C [null, 10]',
        "ex:rC cas_read C",
        "ex:retC return",
    ]
    assert get_value(exp, final, "C").value == 10


def test_fig3_loser_reads_winner_from_cas():
    exp = make_experiment(program="fig3")
    plan = [("step", 1, 2), ("step", 2, 2), ("until_done", 1), ("until_done", 2)]
    _, final = run(exp, run_plan(exp, plan))
    assert final.returns == ((1, 1, 10), (2, 1, 10))


def test_fig3_crashed_laggard_yields():
    exp = make_experiment(program="fig3", failure="independent", budget=1)
    plan = [("until_pc", 1, "ex:CAS"), ("crash", 2), ("until_done", 2)]
    trace, final = run(exp, run_plan(exp, plan))
    # p2 crashed before announcing, finds P[1] non-bottom, returns it
    assert ops(trace)[-1] == "ex:retpo return"
    assert final.returns == ((2, 2, 10),)


# -- cas-rc -------------------------------------------------------------------


def test_cas_rc_solo():
    exp = make_experiment(program="cas-rc")
    _, final = run(exp, run_plan(exp, [("until_done", 1)]))
    assert final.returns == ((1, 1, 10),)


def test_cas_rc_exhaustive_budget3():
    cfg = make_config(program="cas-rc", failure="independent", budget=3)
    verdict = checker.explore(cfg)
    assert verdict.passed, verdict.to_json()


# -- tas-cons2 ----------------------------------------------------------------


def test_tas_cons2_solo():
    exp = make_experiment(program="tas-cons2")
    _, final = run(exp, run_plan(exp, [("until_done", 1)]))
    assert final.returns == ((1, 1, 10),)


def test_tas_cons2_loser_adopts_winner():
    exp = make_experiment(program="tas-cons2")
    plan = [("until_done", 2), ("until_done", 1)]
    _, final = run(exp, run_plan(exp, plan))
    assert final.returns == ((2, 1, 20), (1, 1, 20))


def test_tas_cons2_crash_free_exhaustive():
    verdict = checker.explore(make_config(program="tas-cons2"))
    assert verdict.passed, verdict.to_json()


def test_tas_cons2_not_recoverable():
    cfg = make_config(program="tas-cons2", failure="independent", budget=1)
    verdict = checker.explore(cfg)
    assert verdict.result == "fail"
    assert verdict.prop in ("Agreement", "Validity")


# -- genericity monitor -------------------------------------------------------


@pytest.mark.parametrize("adversary", ["exhaustive", "assumption1"])
def test_monitor_watches_a_cons_instance_through_its_object(adversary):
    # a decide on C records (pid, attempt) in C's accessors and nothing in
    # cons_access, also where assumption 1 updates the state's other fields
    exp = make_experiment(failure="independent", budget=1, monitor=True,
                          adversary=adversary)
    _, final = run(exp, [ordinary(1)] * 4)  # x:if x:if2 x:wP x:C
    assert get_value(exp, final, "C").accessors == {(1, 1)}
    assert final.cons_access == frozenset()


def test_monitor_allows_distinct_instances_across_crash():
    exp = fig2_experiment(monitor=True)
    plan = [("until_pc", 1, "xn:wD"), ("crash", 1), ("until_done", 1)]
    _, final = run(exp, run_plan(exp, plan))
    # p1 decided C[0] before the crash and C[1] after it: both permitted
    assert final.returns[-1][0] == 1


def test_monitor_flags_reentry_after_crash():
    exp = make_experiment(cons="tas", failure="independent", budget=1,
                          monitor=True)
    state = exp.initial_state()
    for _ in range(4):  # x:if x:if2 x:wP x:C.wA -- first access to instance C
        state, _ = exp.apply_step(state, ordinary(1))
    state, _ = exp.apply_step(state, crash(1))
    state, _ = exp.apply_step(state, ordinary(1))
    state, _ = exp.apply_step(state, ordinary(1))
    assert state.frames[0].pc == "x:recD"  # the algorithm itself stays out
    # hand-build the violation: p1 forced back to the instance entry
    forged = state._replace(
        frames=(state.frames[0]._replace(pc="x:C.wA"), state.frames[1]))
    with pytest.raises(GenericityViolation):
        exp.apply_step(forged, ordinary(1))


def test_monitor_clean_on_fig1_exhaustive():
    cfg = make_config(failure="simultaneous", budget=2, cons="tas",
                      monitor=True)
    assert checker.explore(cfg).passed


# -- static bounds ------------------------------------------------------------


def load_golden_stats():
    with open(os.path.join(GOLDEN_DIR, "stats.json")) as fh:
        return json.load(fh)


def test_static_bounds_match_exhaustive_oracle():
    stats = load_golden_stats()
    for name, entry in stats["bounds"].items():
        assert entry["observed_max"] == entry["static"], name


def test_bound_values():
    assert build_machine(make_config()).bound() == 6
    assert build_machine(make_config(cons="tas")).bound() == 8
    assert build_machine(make_config(program="fig2", f=1)).bound() == 12
    assert build_machine(make_config(program="fig2", f=2, cons="tas")).bound() == 26
    assert build_machine(make_config(program="fig3")).bound() == 6
    assert build_machine(make_config(program="cas-rc")).bound() == 2
    assert build_machine(make_config(program="tas-cons2")).bound() == 4


def test_bound_is_never_exceeded_with_crashes():
    cfg = make_config(failure="simultaneous", budget=2)
    verdict = checker.explore(cfg)
    assert verdict.passed
    assert verdict.stats["max_attempt_steps"] <= build_machine(cfg).bound()
