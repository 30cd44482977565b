"""Acceptance suite: one test per acceptance criterion.

Each test prints a single "[acceptance N] ...: PASS/FAIL" line so the
whole gate can be read off a `pytest -v -s tests/test_acceptance.py` run.
Heavy exploration results are computed once per session and shared.
"""

import json
import os
import random
import time
from collections import Counter

import pytest

from rclab import checker, simulator, valency
from rclab.checker import GENERICITY, RWF
from rclab.config import ExperimentConfig
from rclab.core import crash, digest, ordinary
from rclab.experiment import Experiment
from rclab.simulator import parse_trace, replay_file

from conftest import CASES_DIR, GOLDEN_DIR, get_value

pytestmark = pytest.mark.acceptance


def _report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print("\n[acceptance %d] %s: %s" % (num, desc, status))
    assert not failures, failures


def _cfg(**kw):
    return ExperimentConfig.from_dict(kw)


# -- shared exploration grids -------------------------------------------------

FIG1_GRID = [
    _cfg(program="fig1", n=2, proposals=list(props),
         failure="simultaneous", budget=budget, cons=cons, mode=mode,
         monitor=True)
    for cons in ("atomic", "tas")
    for props in ((10, 20), (20, 10))
    for budget in (0, 1, 2)
    for mode in ("rerun-after-crash", "halt-after-return")
]

FIG2_GRID = [
    _cfg(program="fig2", n=n, f=f, proposals=list(range(10, 10 + 10 * n, 10)),
         failure="independent", budget=f, cons=cons, scan_order=order,
         monitor=True)
    for (n, f) in ((2, 0), (2, 1), (2, 2), (3, 1))
    for cons in ("atomic", "tas")
    if not (cons == "tas" and n != 2)
    for order in ("asc", "desc")
]


@pytest.fixture(scope="module")
def fig1_results():
    start = time.time()
    results = [(cfg, checker.explore(cfg)) for cfg in FIG1_GRID]
    return results, time.time() - start


@pytest.fixture(scope="module")
def fig2_results():
    return [(cfg, checker.explore(cfg)) for cfg in FIG2_GRID]


@pytest.fixture(scope="module")
def golden_stats():
    with open(os.path.join(GOLDEN_DIR, "stats.json")) as fh:
        return json.load(fh)


def test_criterion_1_fig1_exhaustive(fig1_results):
    results, elapsed = fig1_results
    failures = []
    for cfg, verdict in results:
        if not verdict.passed:
            failures.append((cfg.cons, cfg.proposals, cfg.budget, cfg.mode,
                             verdict.to_json()))
    if elapsed >= 60:
        failures.append("runtime %.1fs exceeds 60s" % elapsed)
    _report(1, "fig1 exhaustive grid (%d configs, %.1fs)"
            % (len(results), elapsed), failures)


def test_criterion_2_fig2_exhaustive(fig2_results, golden_stats):
    failures = []
    for cfg, verdict in fig2_results:
        key = "n=%d,f=%d,cons=%s,scan=%s" % (cfg.n, cfg.f, cfg.cons,
                                             cfg.scan_order)
        if not verdict.passed:
            failures.append((key, verdict.to_json()))
            continue
        # the iteration-claim invariant was evaluated at every explored
        # state inside explore(); a pass certifies it held throughout
        want = golden_stats["fig2"][key]
        got = {k: verdict.stats[k] for k in
               ("states", "edges", "terminal_executions", "max_attempt_steps")}
        if got != want:
            failures.append((key, "stats drift", got, want))
    _report(2, "fig2 exhaustive grid with iteration-claim invariant "
            "(%d configs)" % len(fig2_results), failures)


def test_criterion_3_genericity_clean(fig1_results, fig2_results):
    failures = []
    for cfg, verdict in fig1_results[0] + fig2_results:
        assert cfg.monitor
        if verdict.prop == GENERICITY:
            failures.append((cfg.program, verdict.to_json()))
    _report(3, "genericity monitor reports zero violations on "
            "criteria 1-2 grids", failures)


def test_criterion_4_overload_breaks_wait_freedom(tmp_path):
    failures = []
    for f in (0, 1):
        cfg = _cfg(program="fig2", n=2, f=f, proposals=[10, 20],
                   failure="independent", budget=f + 1)
        verdict = checker.explore(cfg)
        if verdict.result != "fail" or verdict.prop != RWF:
            failures.append((f, verdict.to_json()))
            continue
        confirmed = checker.confirm_violation(cfg, verdict.trace_labels)
        if confirmed is None or confirmed[0] != RWF:
            failures.append((f, "counterexample does not confirm", confirmed))
        # and the counterexample survives a serialization round trip
        exp = Experiment(cfg)
        trace, final = simulator.run(exp, verdict.trace_labels)
        path = tmp_path / ("overload-f%d.jsonl" % f)
        simulator.write_trace(trace, path, final_hash=digest(final))
        if not replay_file(path).matches_header:
            failures.append((f, "trace replay hash mismatch"))
    _report(4, "fig2 with budget f+1 fails recoverable wait-freedom, "
            "replayably (f in {0,1})", failures)


def test_criterion_5_fig3_valency_narrative():
    cfg = _cfg(program="fig3", n=2, proposals=[10, 20],
               failure="independent", budget=1)
    g = valency.build_graph(cfg)
    labels = valency.classify(g)
    failures = []
    s = None
    for nid, state in enumerate(g.nodes):
        whole = g.exp.materialize(state)
        if ([fr.pc for fr in whole.frames] == ["ex:wP", "ex:wP"]
                and whole.failures == 0):
            s = nid
    if s is None:
        failures.append("state s (both poised to announce) not found")
    else:
        if labels[s].klass != "bivalent":
            failures.append(("s not bivalent", labels[s]))
        succ = dict(g.edges(s))
        s2 = succ[ordinary(1)]
        if labels[s2].klass != "bivalent":
            failures.append(("s' not bivalent", labels[s2]))
        out = {step: labels[child] for step, child in g.edges(s2)}
        v1 = frozenset({10})
        if out[ordinary(1)] != (v1, "univalent"):
            failures.append(("CAS successor", out[ordinary(1)]))
        if out[crash(2)] != (v1, "univalent"):
            failures.append(("crash(p2) successor", out[crash(2)]))
        if out[ordinary(2)].klass != "bivalent":
            failures.append(("p2 announce successor", out[ordinary(2)]))
        if out[crash(1)].klass != "bivalent":
            failures.append(("crash(p1) successor", out[crash(1)]))
    _report(5, "fig3 valency narrative (s, s', and all four transitions)",
            failures)


def test_criterion_6_assumption1_mechanics():
    cases = [
        _cfg(program="tas-cons2", n=2, proposals=[10, 20],
             failure="independent", adversary="assumption1"),
        _cfg(program="fig2", n=2, f=0, proposals=[10, 20], cons="tas",
             failure="independent", adversary="assumption1"),
        _cfg(program="fig2", n=2, f=1, proposals=[10, 20], cons="tas",
             failure="independent", adversary="assumption1"),
    ]
    failures = []
    for cfg in cases:
        g = valency.build_graph(cfg)
        m = len(g.exp.tas_names)
        max_failures = max(g.exp.materialize(g.nodes[t]).failures for t in g.terminals)
        if max_failures > m:
            failures.append((cfg.program, cfg.f, "failures %d > m %d"
                             % (max_failures, m)))
        for nid in g.adj:
            per_pid = Counter(lab.pid for lab, _ in g.edges(nid))
            if per_pid and max(per_pid.values()) > 1:
                failures.append((cfg.program, cfg.f,
                                 "process with 2 enabled steps"))
                break
    _report(6, "assumption-1 adversary: <= m failures and <= 1 enabled "
            "step per process", failures)


def test_criterion_7_cas_universality():
    failures = []
    for model in ("independent", "simultaneous"):
        for budget in range(5):
            cfg = _cfg(program="cas-rc", n=2, proposals=[10, 20],
                       failure=model, budget=budget)
            verdict = checker.explore(cfg)
            if not verdict.passed:
                failures.append((model, budget, verdict.to_json()))
    for model in ("independent", "simultaneous"):
        cfg = _cfg(program="cas-rc", n=2, proposals=[10, 20],
                   failure=model, budget=4, seed=7)
        verdict = checker.fuzz(cfg, episodes=10_000)
        if not verdict.passed:
            failures.append((model, "fuzz", verdict.to_json()))
    _report(7, "cas-rc exhaustive (budgets 0-4, both models) plus "
            "10k-episode fuzz", failures)


# -- criterion 8: golden corpus ----------------------------------------------


def _returned_values(state):
    return {v for _p, _a, v in state.returns}


def _return_ops(records):
    return [(r.label.pid, r.op) for r in records if r.op.endswith("return")]


def _ops(records):
    return [r.op for r in records]


def _check_retd(res, records):
    assert [op for _p, op in _return_ops(records)] == ["x:retd return"] * 2
    assert _returned_values(res.state) == {10}
    assert any(op.startswith("x:wD") for op in _ops(records))


def _check_recD(res, records):
    assert "x:recDret return" in _ops(records)
    assert _returned_values(res.state) == {10}
    assert any(op.startswith("x:wD") for op in _ops(records))


def _check_inbotObot(res, records):
    rets = _return_ops(records)
    assert (1, "x:inbotObotret return") in rets
    assert not any(op.startswith("x:wD") for op in _ops(records))
    assert _returned_values(res.state) == {10}  # p1 keeps its own proposal


def _check_ibotOnbot(res, records):
    rets = _return_ops(records)
    assert (1, "x:ibotOnbotret return") in rets
    assert not any(op.startswith("x:wD") for op in _ops(records))
    assert _returned_values(res.state) == {20}  # p1 adopts p2's proposal


def _check_inbotOnbot(res, records):
    rets = [op for _p, op in _return_ops(records)]
    assert rets == ["x:inbotOnbotret return"] * 2
    assert not any(op.startswith("x:wD") for op in _ops(records))
    assert _returned_values(res.state) == {10}  # deterministic tie-break


def _check_nowrites(res, records):
    assert not _return_ops(records)
    assert not any(" write P" in op for op in _ops(records))
    assert res.state.returns == ()


def _check_onewrite(res, records):
    writes = [op for op in _ops(records) if " write P" in op]
    assert writes == ["x:wP write P[2] [20]"]
    rets = {op for _p, op in _return_ops(records)}
    assert rets <= {"x:inbotObotret return", "x:ibotOnbotret return"}
    assert _returned_values(res.state) == {20}


def _check_twowrites(res, records):
    writes = {op.split()[2] for op in _ops(records) if " write P" in op}
    assert writes == {"P[1]", "P[2]"}
    assert not any(op.startswith("x:wD") for op in _ops(records))
    rets = {op for _p, op in _return_ops(records)}
    assert rets == {"x:inbotOnbotret return"}
    assert _returned_values(res.state) == {10}


def _check_same_iter(res, records):
    assert res.state.returns == ((1, 1, 10), (2, 1, 10))
    assert not any(r.label.kind == "crash" for r in records)
    # every decision went through the iteration-0 instance
    assert not any("C[1]" in op for op in _ops(records))


def _check_distinct_iters(res, records):
    assert res.state.returns == ((1, 1, 10), (2, 2, 10))
    assert "xn:forado read D[0]" in _ops(records)  # p2 adopts from D[0]
    assert any("decide C[1]" in op for op in _ops(records))


def _check_recover_after_inc(res, records):
    assert res.state.returns == ((2, 2, 20),)
    exp = Experiment(ExperimentConfig.from_dict(
        parse_trace(open(os.path.join(CASES_DIR,
                                      "fig2_recover_after_inc.jsonl")).read()
                    )[0]["config"]))
    assert get_value(exp, res.state, "R[2]").value == 2
    assert res.state.frames[1].steps <= exp.bound


def _check_forget_decision(res, records):
    scans = [r for r in records
             if r.label == ordinary(1) and r.op.startswith("xn:forp")]
    assert scans and scans[0].resp == 2  # p1 saw the faster process
    assert any(r.label == ordinary(1) and "decide C[1]" in r.op
               for r in records)
    assert _returned_values(res.state) == {10}


def _check_fig1_tas_loser_reads(res, records):
    tas = [(r.label.pid, r.resp) for r in records if r.op == "x:C.tas tas C.T"]
    assert tas == [(2, 0), (1, 1)]  # p2 wins the TAS, p1 loses
    reads = [(r.label.pid, r.resp) for r in records if r.op.startswith("x:C.rA")]
    assert reads == [(1, 20)] and "x:C.rA read C.A[2]" in _ops(records)
    assert _returned_values(res.state) == {20}


def _check_fig1_tas_crash_after_wA(res, records):
    ops = _ops(records)
    crash_at = ops.index("crash")
    assert ops[crash_at - 1] == "x:C.wA write C.A[1] [10]"
    assert not any("C.T" in op for op in ops)  # nobody ran the TAS
    assert {op for _p, op in _return_ops(records)} == {
        "x:inbotObotret return", "x:ibotOnbotret return"}
    assert _returned_values(res.state) == {10}


def _check_fig2_tas_loser_reads(res, records):
    tas = [(r.label.pid, r.resp) for r in records if r.op == "xn:C.tas tas C[0].T"]
    assert tas == [(1, 0), (2, 1)]  # p1 wins the TAS, p2 loses
    reads = [(r.label.pid, r.op, r.resp) for r in records if r.op.startswith("xn:C.rA")]
    assert reads == [(2, "xn:C.rA read C[0].A[1]", 10)]
    assert _returned_values(res.state) == {10}


def _check_fig2_tas_crash_after_wA(res, records):
    ops = _ops(records)
    crash_at = ops.index("crash")
    assert ops[crash_at - 1] == "xn:C.wA write C[0].A[2] [20]"
    # p2 never re-enters C[0]; it adopts D[0] and decides in C[1]
    after = [r.op for r in records[crash_at:] if r.label == ordinary(2)]
    assert not any("C[0].A" in op or "C[0].T" in op for op in after)
    assert "xn:C.wA write C[1].A[2] [10]" in after
    assert res.state.returns == ((1, 1, 10), (2, 2, 10))


GOLDEN_CASES = {
    "fig1_ret_retd": _check_retd,
    "fig1_ret_recD": _check_recD,
    "fig1_ret_inbotObot": _check_inbotObot,
    "fig1_ret_ibotOnbot": _check_ibotOnbot,
    "fig1_ret_inbotOnbot": _check_inbotOnbot,
    "fig1_noD_nowrites": _check_nowrites,
    "fig1_noD_onewrite": _check_onewrite,
    "fig1_noD_twowrites": _check_twowrites,
    "fig2_same_iter": _check_same_iter,
    "fig2_distinct_iters": _check_distinct_iters,
    "fig2_recover_after_inc": _check_recover_after_inc,
    "fig2_forget_decision": _check_forget_decision,
    "fig1_tas_loser_reads": _check_fig1_tas_loser_reads,
    "fig1_tas_crash_after_wA": _check_fig1_tas_crash_after_wA,
    "fig2_tas_loser_reads": _check_fig2_tas_loser_reads,
    "fig2_tas_crash_after_wA": _check_fig2_tas_crash_after_wA,
}


def test_criterion_8_golden_case_corpus():
    failures = []
    for name, check in sorted(GOLDEN_CASES.items()):
        path = os.path.join(CASES_DIR, name + ".jsonl")
        try:
            res = replay_file(path)
            assert res.matches_header, "final hash mismatch"
            _, records = parse_trace(open(path).read())
            check(res, records)
            agreement = checker.check_agreement(res.state.returns)
            assert agreement is None, agreement
        except (AssertionError, OSError) as exc:
            failures.append((name, str(exc)))
    _report(8, "golden corpus: %d directed-schedule cases replay to their "
            "conclusions" % len(GOLDEN_CASES), failures)


# -- criterion 9: determinism -------------------------------------------------

FUZZ_CONFIGS = [
    _cfg(program="fig1", n=2, proposals=[10, 20], failure="simultaneous",
         budget=2),
    _cfg(program="fig2", n=2, f=1, proposals=[10, 20],
         failure="independent", budget=1),
    _cfg(program="fig3", n=2, proposals=[10, 20], failure="independent",
         budget=1),
    _cfg(program="cas-rc", n=2, proposals=[10, 20], failure="independent",
         budget=3),
]


def test_criterion_9_infrastructure_determinism(fig1_results):
    failures = []

    # 1000 fuzzed traces round-trip with every intermediate hash intact
    per_config = 250
    for cfg in FUZZ_CONFIGS:
        exp = Experiment(cfg)
        for seed in range(per_config):
            rng = random.Random(seed)
            labels, final = simulator.random_run(exp, rng)
            state = exp.initial_state()
            digests = [digest(state)]
            for lab in labels:
                state, _ = exp.apply_step(state, lab)
                digests.append(digest(state))
            trace, _ = simulator.run(exp, labels)
            text = simulator.dump_trace(trace, final_hash=digest(final))
            res = simulator.replay(text)
            if not res.matches_header or res.digests != tuple(digests):
                failures.append((cfg.program, seed, "hash drift"))
                break

    # memoized and unmemoized exploration agree; budget-2 grids have up to
    # 1.8e8 distinct executions, so the enumeration half of the comparison
    # covers the budgets where it is exact and tractable
    compared = 0
    for cfg, verdict in fig1_results[0]:
        if cfg.budget > 1:
            continue
        plain = checker.explore(cfg, memo=False)
        compared += 1
        if (plain.result, plain.prop) != (verdict.result, verdict.prop):
            failures.append((cfg.budget, cfg.mode, "verdict drift"))
        if (plain.stats["terminal_executions"]
                != verdict.stats["terminal_executions"]):
            failures.append((cfg.budget, cfg.mode, "execution count drift"))
    _report(9, "1000 trace round-trips and memo/no-memo agreement "
            "(%d configs)" % compared, failures)
