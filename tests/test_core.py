"""Execution model: initial states, enabledness, crash semantics, hashing."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from rclab import core
from rclab.config import ExperimentConfig
from rclab.core import (
    BOTTOM,
    CRASH_ALL_LABEL,
    RETURNED,
    RUNNING,
    ConfigError,
    canonical,
    crash,
    digest,
    ordinary,
)
from rclab.experiment import as_experiment
from rclab.simulator import ScheduleError, require_enabled, run, run_plan

from conftest import (
    DIFFERENTIAL_CONFIGS,
    get_value,
    make_config,
    make_experiment,
    reachable_edges,
)


def test_process_count_mismatch_rejected():
    with pytest.raises(ConfigError):
        make_config(program="fig3", n=3, proposals=[1, 2, 3])


def test_proposal_arity_checked():
    with pytest.raises(ConfigError):
        make_config(proposals=[1])


def test_to_dict_gives_the_fields_and_a_fresh_proposals_list():
    cfg = make_config(failure="simultaneous", budget=1)
    d = cfg.to_dict()
    expected = {
        "program": "fig1", "n": 2, "proposals": [10, 20], "failure": "simultaneous",
        "budget": 1, "f": None, "cons": "atomic", "choice": "p1", "scan_order": "asc",
        "mode": "rerun-after-crash", "adversary": "exhaustive", "seed": 0,
        "monitor": False, "depth": None, "agreement_scope": "all-returns", "cap": None,
    }
    assert list(d.items()) == list(expected.items())
    d["proposals"].append(30)
    assert cfg.proposals == [10, 20]


def test_configs_compare_field_by_field_and_are_unhashable():
    cfg = make_config(failure="simultaneous", budget=1)
    assert cfg == make_config(failure="simultaneous", budget=1)
    assert not cfg != make_config(failure="simultaneous", budget=1)
    for key, value in (("budget", 2), ("proposals", [20, 10]), ("seed", 1), ("cap", 5)):
        other = make_config(**dict(cfg.to_dict(), **{key: value}))
        assert cfg != other and not cfg == other
    assert cfg != cfg.to_dict()
    with pytest.raises(TypeError):
        hash(cfg)


def test_config_repr_names_every_field():
    text = repr(make_config(program="fig2", f=1, cons="tas", cap=7))
    assert text.startswith("ExperimentConfig(program='fig2', n=2, proposals=[10, 20], ")
    for key in ("failure", "budget", "f", "cons", "choice", "scan_order", "mode", "adversary",
                "seed", "monitor", "depth", "agreement_scope", "cap"):
        assert " %s=" % key in text
    assert text.endswith(", cap=7)")


def test_a_missing_field_or_a_bad_value_is_a_config_error():
    with pytest.raises(ConfigError, match="missing config key 'proposals'"):
        ExperimentConfig.from_dict({"program": "fig1", "n": 2})
    with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
        ExperimentConfig.from_dict({"program": "fig1", "n": 2, "proposals": [10, 20], "bogus": 1})
    with pytest.raises(ConfigError, match="budget"):
        ExperimentConfig(program="fig1", n=2, proposals=[10, 20], budget=-1)
    with pytest.raises(TypeError):
        ExperimentConfig(program="fig1", n=2, proposals=[10, 20], budjet=1)


def test_experiment_from_a_dict_validates_its_config_once(monkeypatch):
    calls = []
    validate = ExperimentConfig.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(ExperimentConfig, "validate", counted)
    as_experiment(dict(program="fig1", n=2, proposals=[10, 20]))
    assert len(calls) == 1


def test_bottom_is_not_a_proposal():
    with pytest.raises(ConfigError):
        make_config(proposals=[None, 2])


def test_initial_state_shape(fig1_sim1):
    s = fig1_sim1.initial_state()
    assert [fr.pid for fr in s.frames] == [1, 2]
    assert all(fr.pc == "x:if" and fr.status == RUNNING and fr.attempt == 1
               for fr in s.frames)
    assert s.failures == 0 and s.returns == ()
    assert get_value(fig1_sim1, s, "P[1]").value is BOTTOM
    assert get_value(fig1_sim1, s, "D").value is BOTTOM


def test_initial_enabled_steps_simultaneous(fig1_sim1):
    s = fig1_sim1.initial_state()
    assert fig1_sim1.enabled_steps(s) == [ordinary(1), ordinary(2), CRASH_ALL_LABEL]


def test_no_crash_labels_when_budget_spent(fig1_sim1):
    s = fig1_sim1.initial_state()
    s, _ = fig1_sim1.apply_step(s, CRASH_ALL_LABEL)
    assert s.failures == 1
    assert fig1_sim1.enabled_steps(s) == [ordinary(1), ordinary(2)]


def test_terminal_state_has_no_steps():
    exp = make_experiment(failure="simultaneous", budget=0)
    labels = run_plan(exp, [("until_done", 1), ("until_done", 2)])
    _, final = run(exp, labels)
    assert exp.enabled_steps(final) == []


def test_first_step_reads_own_announcement(fig1_sim1):
    s = fig1_sim1.initial_state()
    s, rec = fig1_sim1.apply_step(s, ordinary(1))
    assert rec.op == "x:if read P[1]"
    assert rec.resp is BOTTOM
    assert s.frames[0].pc == "x:if2"  # second guard read, then x:wP


def test_crash_resets_frame_but_keeps_returns(fig1_sim1):
    exp = fig1_sim1
    labels = run_plan(exp, [("until_done", 1)])
    _, s = run(exp, labels)
    assert s.frames[0].status == RETURNED
    assert s.returns == ((1, 1, 10),)
    s, _ = exp.apply_step(s, CRASH_ALL_LABEL)
    fr = s.frames[0]
    assert fr.status == RUNNING and fr.pc == "x:if" and fr.attempt == 2
    assert s.returns == ((1, 1, 10),)  # the log survives the crash


def test_halt_mode_forbids_rerun():
    exp = make_experiment(failure="simultaneous", budget=1,
                          mode="halt-after-return")
    labels = run_plan(exp, [("until_done", 1)])
    _, s = run(exp, labels)
    s, _ = exp.apply_step(s, CRASH_ALL_LABEL)
    assert s.frames[0].status == "halted"
    assert s.frames[1].attempt == 2  # the running process still resets
    assert ordinary(1) not in exp.enabled_steps(s)


def test_crash_leaves_shared_objects_untouched(fig1_sim1):
    exp = fig1_sim1
    labels = run_plan(exp, [("until_pc", 1, "x:C")])
    _, s = run(exp, labels)
    post, _ = exp.apply_step(s, CRASH_ALL_LABEL)
    assert post.objects == s.objects


def test_apply_step_is_pure(fig1_sim1):
    s = fig1_sim1.initial_state()
    a1, _ = fig1_sim1.apply_step(s, ordinary(1))
    a2, _ = fig1_sim1.apply_step(s, ordinary(1))
    assert a1 == a2
    assert s == fig1_sim1.initial_state()  # input untouched


def test_disabled_crash_raises():
    exp = make_experiment(failure="none")
    with pytest.raises(ScheduleError) as err:
        require_enabled(exp, exp.intern(exp.initial_state()), CRASH_ALL_LABEL, 0)
    assert err.value.index == 0 and err.value.label == CRASH_ALL_LABEL
    exp = make_experiment(failure="independent", budget=0)
    with pytest.raises(ScheduleError) as err:
        require_enabled(exp, exp.intern(exp.initial_state()), crash(1), 3)
    assert err.value.index == 3 and err.value.label == crash(1)


def test_independent_crash_targets_one_process():
    exp = make_experiment(failure="independent", budget=1)
    s = exp.initial_state()
    s, _ = exp.apply_step(s, ordinary(1))
    post, _ = exp.apply_step(s, crash(1))
    assert post.frames[0].attempt == 2
    assert post.frames[1] == s.frames[1]


def test_with_locals_replaces_values_in_place(fig1_sim1):
    fr = fig1_sim1.initial_state().frames[0]
    assert fr.with_locals({"d": 10, "p_self": BOTTOM}) == (
        ("d", 10), ("p_other", fr.locals[1][1]), ("p_self", BOTTOM))
    with pytest.raises(KeyError):
        fr.with_locals({"d": 10, "k": 1})  # fig1 has no local k


def test_digest_distinguishes_states(fig1_sim1):
    s = fig1_sim1.initial_state()
    t, _ = fig1_sim1.apply_step(s, ordinary(1))
    assert digest(s) == digest(fig1_sim1.initial_state())
    assert digest(s) != digest(t)


def reference_digest(state):
    """The digest's byte contract, encoded whole from `canonical`."""
    text = json.dumps(canonical(state), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Proposals for the digest tests: JSON strings that need escapes, and floats.
DIGEST_PROPOSALS = {
    "ints": [10, 20],
    "strings": ['say "hi"\\', "na\u00efve \u2713"],
    "floats": [0.5, -2.0],
}


@pytest.mark.parametrize("props", sorted(DIGEST_PROPOSALS))
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONFIGS))
def test_digest_equals_reference_on_every_reachable_state(name, props):
    exp = make_experiment(proposals=DIGEST_PROPOSALS[props], **DIFFERENTIAL_CONFIGS[name])
    init = exp.initial_state()
    assert digest(init) == reference_digest(init)
    for _state, _lab, post in reachable_edges(exp):
        assert digest(post) == reference_digest(post)


@pytest.mark.parametrize("pair", [([1, 2], [1.0, 2.0]), ([0.0, 1], [-0.0, 1])])
def test_digest_tells_equal_values_of_another_text_apart(monkeypatch, pair):
    # The two experiments' states compare equal but encode differently.
    # Their steps are interleaved in one process, and the cache is emptied
    # on the way.
    clears = []

    class Fragments(dict):
        def clear(self):
            clears.append(len(self))
            super().clear()

    monkeypatch.setattr(core, "_fragments", Fragments())
    a, b = (make_experiment(proposals=props, **DIFFERENTIAL_CONFIGS["fig2-2-1-tas"])
            for props in pair)
    pairs = [(a.initial_state(), b.initial_state())]
    seen = set()
    while pairs:
        sa, sb = pairs.pop()
        assert sa == sb
        da, db = digest(sa), digest(sb)
        assert (da, db) == (reference_digest(sa), reference_digest(sb))
        assert da != db
        for lab in a.enabled_steps(sa):
            post = a.apply_step(sa, lab)[0]
            if post not in seen:
                seen.add(post)
                pairs.append((post, b.apply_step(sb, lab)[0]))
    assert clears and max(clears) == core._FRAGMENTS_MAX


# Run in a fresh interpreter: imports every layer and explores a passing
# config, then digests the initial state, and prints what was loaded.
FOOTPRINT = """
import json, sys
before = set(sys.modules)
from rclab import checker, cli, simulator, valency
from rclab.config import ExperimentConfig
from rclab.experiment import Experiment
exp = Experiment(ExperimentConfig(program="fig1", n=2, proposals=[10, 20],
                                  failure="simultaneous", budget=1))
assert checker.explore(exp).passed
added = sorted(set(sys.modules) - before)
from rclab import core
init = exp.initial_state()
got = core.digest(init)
loaded = "hashlib" in sys.modules
import hashlib
text = json.dumps(core.canonical(init), separators=(",", ":"))
print(json.dumps({"added": added, "loaded": loaded,
                  "equal": got == hashlib.sha256(text.encode()).hexdigest()}))
"""


def test_a_passing_search_imports_neither_hashlib_nor_dataclasses():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    out = json.loads(proc.stdout)
    assert "rclab.cli" in out["added"]
    assert {"hashlib", "_hashlib", "dataclasses", "inspect"}.isdisjoint(out["added"])
    assert out["loaded"] and out["equal"]


def test_memo_key_is_the_state_itself():
    exp = make_experiment(failure="simultaneous", budget=1)
    s = exp.initial_state()
    crashed, _ = exp.apply_step(s, CRASH_ALL_LABEL)
    assert exp.memo_key(s) is s
    # frames that differ only in attempt number and the failure counter
    # are different keys
    assert exp.memo_key(s) != exp.memo_key(crashed)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_proposal_rejected(bad):
    with pytest.raises(ConfigError, match="finite"):
        make_config(failure="simultaneous", budget=1, proposals=[bad, 1])


def test_assumption1_requires_independent_failures():
    with pytest.raises(ConfigError):
        make_config(failure="simultaneous", budget=1, adversary="assumption1")
