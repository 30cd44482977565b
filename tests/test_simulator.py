"""Scripted runs, trace serialization, bit-exact replay, plan builder."""

import importlib.util
import json
import os
import random

import pytest

from rclab import simulator
from rclab.core import (
    CRASH_ALL_LABEL,
    ConfigError,
    GenericityViolation,
    RcError,
    UninitializedRead,
    crash,
    digest,
    json_encoder,
    ordinary,
)
from rclab.experiment import Experiment
from rclab.programs import Fig1Machine
from rclab.simulator import (
    ScheduleError,
    dump_trace,
    parse_trace,
    replay,
    replay_file,
    run,
    run_plan,
    random_run,
)

from conftest import (
    CASES_DIR,
    SEEDED_SCHEDULES,
    make_experiment,
    read_before_write,
    reenter_after_crash,
)


def test_scripted_solo_run(fig1_sim1):
    labels = [ordinary(1)] * 6
    trace, final = run(fig1_sim1, labels)
    assert final.returns == ((1, 1, 10),)
    lines = dump_trace(trace).splitlines()[1:]
    assert [json.loads(line)["step"] for line in lines] == list(range(6))


def test_disabled_step_reports_index(fig1_sim1):
    labels = [ordinary(1)] * 6 + [ordinary(1)]  # p1 already returned
    with pytest.raises(ScheduleError) as err:
        run(fig1_sim1, labels)
    assert err.value.index == 6
    assert err.value.label == ordinary(1)


def test_crash_not_in_model_is_rejected(fig1_sim1):
    with pytest.raises(ScheduleError) as err:
        run(fig1_sim1, [crash(1)])
    assert err.value.index == 0


def test_trace_serialization_fields(fig1_sim1):
    trace, final = run(fig1_sim1, [ordinary(1), CRASH_ALL_LABEL])
    text = dump_trace(trace, final_hash=digest(final))
    lines = text.strip().split("\n")
    header = json.loads(lines[0])
    assert header["config"]["program"] == "fig1"
    assert header["final_hash"] == digest(final)
    first = json.loads(lines[1])
    assert set(first) == {"step", "label", "pid", "op", "resp"}
    assert first["step"] == 0 and first["label"] == "ordinary"
    second = json.loads(lines[2])
    assert second["label"] == "crash_all" and second["pid"] is None


def test_parse_round_trip(fig1_sim1):
    trace, final = run(fig1_sim1, [ordinary(1), ordinary(2)])
    header, records = parse_trace(dump_trace(trace, final_hash=digest(final)))
    assert records == trace.records
    assert header["config"] == trace.config


def test_replay_is_bit_exact(fig1_sim1):
    labels = run_plan(fig1_sim1, [("until_done", 1), ("crash_all",),
                                  ("until_done", 2)])
    trace, final = run(fig1_sim1, labels)
    result = replay(dump_trace(trace, final_hash=digest(final)))
    assert result.matches_header
    assert result.final_hash == digest(final)
    assert result.state == final
    assert len(result.digests) == len(labels) + 1


def test_replay_detects_tampering(fig1_sim1):
    trace, final = run(fig1_sim1, [ordinary(1)])
    text = dump_trace(trace, final_hash=digest(final))
    lines = text.strip().split("\n")
    rec = json.loads(lines[1])
    rec["resp"] = 999
    with pytest.raises(RcError):
        replay("\n".join([lines[0], json.dumps(rec)]))


SEEDED_BUGS = pytest.mark.parametrize("mutate,prop", [
    (reenter_after_crash, GenericityViolation.prop),
    (read_before_write, UninitializedRead.prop),
])


def seeded_error_trace(monkeypatch, mutate, prop):
    """(experiment, schedule, trace text) of a fig1 mutant whose schedule
    ends in a step that raises a transition error."""
    monkeypatch.setattr(Fig1Machine, "step", mutate(Fig1Machine.step))
    exp = make_experiment(failure="simultaneous", budget=1, monitor=True)
    labels = SEEDED_SCHEDULES[prop]
    trace, final = run(exp, labels)
    return exp, labels, dump_trace(trace, final_hash=digest(final))


@SEEDED_BUGS
def test_step_that_raises_is_recorded_and_replayed(monkeypatch, mutate, prop):
    exp, labels, text = seeded_error_trace(monkeypatch, mutate, prop)
    header, records = parse_trace(text)
    *clean, last = records
    assert all(r.error is None for r in clean)
    assert len(records) == len(labels)
    assert (last.label, last.op, last.resp, last.error) == (labels[-1], None, None, prop)
    line = json.loads(text.splitlines()[-1])
    assert line == {"step": len(labels) - 1, "label": labels[-1].kind,
                    "pid": labels[-1].pid, "error": prop, "detail": last.detail}
    # the failing step has no post-state: the header hashes the state before it
    _, before = run(exp, labels[:-1])
    assert header["final_hash"] == digest(before)
    result = replay(text)
    assert result.failed_step == last
    assert result.matches_header and result.state == before
    assert len(result.digests) == len(labels)


@SEEDED_BUGS
def test_replay_requires_the_recorded_error(monkeypatch, mutate, prop):
    exp, labels, text = seeded_error_trace(monkeypatch, mutate, prop)
    lines = text.splitlines()
    failing = json.loads(lines[-1])
    with pytest.raises(ScheduleError, match="follows step %d" % (len(labels) - 1)):
        run(exp, labels + [ordinary(2)])
    after = dict(failing, step=len(labels), pid=2)
    with pytest.raises(ScheduleError, match="follows step"):
        replay("\n".join(lines + [json.dumps(after)]))
    other = dict(failing, detail="another error")
    with pytest.raises(ScheduleError):
        replay("\n".join(lines[:-1] + [json.dumps(other)]))
    # without the bug the step no longer raises
    monkeypatch.undo()
    with pytest.raises(ScheduleError):
        replay(text)


# the four configs of acceptance criterion 9, which perfbench's `replay`
# workload round-trips
REPLAY_CONFIGS = [
    dict(failure="simultaneous", budget=2, monitor=True),
    dict(program="fig2", f=1, failure="independent", budget=1, monitor=True),
    dict(program="fig3", failure="independent", budget=1, monitor=True),
    dict(program="cas-rc", failure="independent", budget=3, monitor=True),
]


def trace_text(exp, labels):
    trace, final = run(exp, labels)
    return dump_trace(trace, final_hash=digest(final))


def cold_replay(monkeypatch, text):
    """`replay` on an experiment built for this call alone."""
    with monkeypatch.context() as m:
        m.setattr(simulator, "_experiment", Experiment)
        return replay(text)


def test_warm_replay_equals_cold_replay(monkeypatch):
    rng = random.Random(16)
    exps = [make_experiment(**kw) for kw in REPLAY_CONFIGS]
    texts = [trace_text(exp, random_run(exp, rng)[0]) for _ in range(20) for exp in exps]
    cold = [cold_replay(monkeypatch, text) for text in texts]
    assert all(res.matches_header for res in cold)
    simulator._experiments.clear()
    assert [replay(text) for text in texts] == cold
    assert len(simulator._experiments) == len(REPLAY_CONFIGS)


def test_replay_keeps_equal_configs_of_another_text_apart(monkeypatch):
    plan = [("until_done", 1), ("crash_all",), ("until_done", 2)]
    texts = []
    for props in ([1, 2], [1.0, 2.0]):
        exp = make_experiment(proposals=props, failure="simultaneous", budget=1)
        texts.append(trace_text(exp, run_plan(exp, plan)))
    ints, floats = [replay(text) for text in texts]
    assert ints.matches_header and floats.matches_header
    assert ints.final_hash != floats.final_hash
    assert type(floats.state.frames[0].proposal) is float
    assert [ints, floats] == [cold_replay(monkeypatch, text) for text in texts]


def test_replay_validates_the_config_on_every_call(fig1_sim1):
    text = trace_text(fig1_sim1, [ordinary(1)])
    replay(text)
    cached = list(simulator._experiments)
    header, *records = text.splitlines()
    doc = json.loads(header)
    doc["config"]["budget"] = "one"
    bad = "\n".join([json.dumps(doc)] + records)
    for _ in range(2):
        with pytest.raises(ConfigError):
            replay(bad)
    assert list(simulator._experiments) == cached


def test_replay_that_fails_partway_leaves_the_cache_usable(monkeypatch, fig1_sim1):
    labels = run_plan(fig1_sim1, [("until_done", 1), ("crash_all",), ("until_done", 2)])
    text = trace_text(fig1_sim1, labels)
    lines = text.splitlines()
    tampered = json.loads(lines[5])
    tampered["resp"] = 999
    with pytest.raises(ScheduleError, match="schedule step 4"):
        replay("\n".join(lines[:5] + [json.dumps(tampered)] + lines[6:]))
    assert replay(text) == cold_replay(monkeypatch, text)


def test_replay_caches_at_most_its_bound():
    simulator._experiments.clear()
    bound = simulator._EXPERIMENTS_MAX
    texts = [trace_text(make_experiment(failure="simultaneous", budget=b), [ordinary(1)])
             for b in range(bound + 3)]
    for text in texts:
        replay(text)
        assert len(simulator._experiments) <= bound
    # the least recently used goes first: the first kept, once used again,
    # outlives the next miss
    first_kept = list(simulator._experiments.values())[0]
    replay(texts[-bound])
    replay(texts[0])
    assert len(simulator._experiments) == bound
    assert first_kept in simulator._experiments.values()


def test_replay_file(tmp_path, fig1_sim1):
    labels = run_plan(fig1_sim1, [("until_done", 1)])
    trace, final = run(fig1_sim1, labels)
    path = tmp_path / "t.jsonl"
    simulator.write_trace(trace, path, final_hash=digest(final))
    result = replay_file(path)
    assert result.matches_header


def test_random_run_is_seeded(fig1_sim1):
    a, fa = random_run(fig1_sim1, random.Random(3))
    b, fb = random_run(fig1_sim1, random.Random(3))
    assert a == b and fa == fb


def test_random_run_takes_at_most_depth_limit_steps():
    exp = make_experiment(failure="simultaneous", budget=1, depth=3)
    for seed in range(20):
        labels, _ = random_run(exp, random.Random(seed))
        assert len(labels) == 3  # no execution of fig1 ends within 3 steps


def test_run_plan_reports_unreachable_pc(fig1_sim1):
    with pytest.raises(RcError):
        run_plan(fig1_sim1, [("until_pc", 1, "x:recD")])  # solo never recovers


def test_run_plan_crash_kinds(fig1_sim1):
    labels = run_plan(fig1_sim1, [("step", 1, 1), ("crash_all",)])
    assert labels == [ordinary(1), CRASH_ALL_LABEL]
    exp = make_experiment(failure="independent", budget=1)
    labels = run_plan(exp, [("crash", 2)])
    assert labels == [crash(2)]


# -- assumption 1 -------------------------------------------------------------


def a1_experiment(**kw):
    base = dict(program="tas-cons2", failure="independent",
                adversary="assumption1")
    base.update(kw)
    return make_experiment(**base)


def test_participation_grows_with_steps():
    exp = a1_experiment()
    s = exp.initial_state()
    assert s.participants == frozenset()
    s, _ = exp.apply_step(s, ordinary(2))
    assert s.participants == frozenset({2})
    s, _ = exp.apply_step(s, ordinary(1))
    assert s.participants == frozenset({1, 2})


def test_forced_crash_after_first_tas_access():
    exp = a1_experiment()
    s = exp.initial_state()
    s, _ = exp.apply_step(s, ordinary(1))  # t:wA
    assert exp.enabled_steps(s) == [ordinary(1), ordinary(2)]
    s, _ = exp.apply_step(s, ordinary(1))  # t:tas -- first access to T
    # p1 is the lowest participant and just touched T: its crash is forced
    assert exp.enabled_steps(s) == [ordinary(2), crash(1)]
    s, _ = exp.apply_step(s, crash(1))
    # after the crash the arm is cleared and p1 runs freely again
    assert crash(1) not in exp.enabled_steps(s)


def test_no_second_forced_crash_for_same_tas():
    exp = a1_experiment()
    s = exp.initial_state()
    for lab in (ordinary(1), ordinary(1), crash(1),
                ordinary(1), ordinary(1)):  # rerun reaches t:tas again
        s, _ = exp.apply_step(s, lab)
    # second access to the same TAS object does not arm another crash
    assert crash(1) not in exp.enabled_steps(s)


def test_lower_pid_excluded_after_higher_crash():
    # the crasher is the execution's lowest participant, so once p2 has
    # crashed, p1 must never take a step
    exp = a1_experiment()
    s = exp.initial_state()
    for lab in (ordinary(2), ordinary(2), crash(2)):
        s, _ = exp.apply_step(s, lab)
    assert exp.enabled_steps(s) == [ordinary(2)]


def test_higher_pid_not_forced_while_lower_participates():
    exp = a1_experiment()
    s = exp.initial_state()
    s, _ = exp.apply_step(s, ordinary(1))
    s, _ = exp.apply_step(s, ordinary(2))
    s, _ = exp.apply_step(s, ordinary(2))  # p2's first access to T
    # p2 armed a crash but p1 is the lowest participant, so nothing is forced
    labels = exp.enabled_steps(s)
    assert crash(2) not in labels and crash(1) not in labels


# Records beyond the golden traces' text: non-ASCII and escaped strings,
# floats, null and nested lists, keys out of order.
ENCODER_RECORDS = [
    {"config": {"program": "fig1", "n": 2, "proposals": ["na\u00efve \u2713", 'say "hi"\\'],
                "f": None, "cap": None}, "final_hash": "ab" * 32},
    {"step": 3, "pid": 1, "label": "ordinary", "op": "write D [0.5, -2.0]",
     "resp": [[1, [2.5e-07, None, -0.0]], [], [[["\u00e9"]]]]},
    {"z": 1e300, "a": [float("inf"), float("-inf")], "m": {"y": [None], "x": 1.0}},
]


@pytest.mark.parametrize("c_encoder", [True, False])
def test_trace_encoder_writes_what_json_dumps_writes(monkeypatch, c_encoder):
    records = list(ENCODER_RECORDS)
    for name in sorted(os.listdir(CASES_DIR)):
        with open(os.path.join(CASES_DIR, name)) as fh:
            records += [json.loads(line) for line in fh]
    expected = [json.dumps(r, sort_keys=True) for r in records]
    dumps = simulator.dumps
    if not c_encoder:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        dumps = json_encoder(sort_keys=True)
    assert [dumps(r) for r in records] == expected


def test_golden_traces_regenerate_byte_for_byte(tmp_path):
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "make_golden.py")
    spec = importlib.util.spec_from_file_location("make_golden", path)
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    make_golden.make_traces(str(tmp_path))
    names = sorted(os.listdir(CASES_DIR))
    assert len(names) == 16 and sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(CASES_DIR, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
