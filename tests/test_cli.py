"""Command-line interface: verbs, exit codes, artifacts."""

import json
import os

import pytest

from rclab import valency
from rclab.cli import EXIT_CONFIG, EXIT_USAGE, main
from rclab.config import ExperimentConfig
from rclab.core import digest
from rclab.programs import Fig1Machine

from conftest import CASES_DIR, read_before_write, reenter_after_crash


@pytest.fixture
def fig1_config(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps({
        "program": "fig1", "n": 2, "proposals": [10, 20],
        "failure": "simultaneous", "budget": 1,
    }))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_check_pass(capsys, fig1_config):
    code, out = run_cli(capsys, "check", "--config", fig1_config)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "pass" and doc["stats"]["states"] > 0


def test_check_fail_writes_replayable_counterexample(capsys, tmp_path,
                                                     fig1_config):
    trace = str(tmp_path / "cx.jsonl")
    code, out = run_cli(capsys, "check", "--config", fig1_config,
                        "--override", "program=tas-cons2",
                        "--override", 'failure="independent"',
                        "--out", trace)
    assert code == 2
    doc = json.loads(out)
    assert doc["result"] == "fail" and doc["trace_file"] == trace
    code, out = run_cli(capsys, "replay", "--trace", trace)
    assert code == 0
    assert json.loads(out)["matches_header"] is True


O1 = {"kind": "ordinary", "pid": 1}
C1 = {"kind": "crash", "pid": 1}
TAS_CONS2 = {"program": "tas-cons2", "n": 2, "proposals": [10, 20],
             "failure": "independent", "budget": 1}
FIG2_OVERLOAD = {"program": "fig2", "n": 2, "f": 1, "proposals": [10, 20],
                 "failure": "independent", "budget": 2}
TAS_CONS2_FAIL = {"result": "fail", "property": "Validity",
                  "detail": "p1 (attempt 2) decided None, not a proposal",
                  "trace": [O1, O1, C1, O1, O1, O1, O1]}
FIG2_OVERLOAD_FAIL = {"result": "fail", "property": "RecoverableWaitFreedom",
                      "detail": "p1 reached the end of the program without returning",
                      "trace": [O1, O1, C1, O1, O1, O1, C1, O1, O1]}


def _stats(states, edges, max_steps):
    return {"states": states, "edges": edges, "terminal_executions": 0,
            "max_attempt_steps": max_steps}


# `rclab check`'s whole output on a failing config, and its counterexample
# file: the trace is the shortest violating schedule with either search.
@pytest.mark.parametrize("cfg,flags,want,final_hash,lines", [
    (TAS_CONS2, [], dict(TAS_CONS2_FAIL, crashes=1, stats=_stats(134, 221, 4)),
     "81a3d455296ee0efa64bd1047ceb4e75ef2f8fc48871108fc16b416e43c2dcd3", 8),
    (TAS_CONS2, ["--no-memo"], dict(TAS_CONS2_FAIL, stats=_stats(12, 12, 4)),
     "81a3d455296ee0efa64bd1047ceb4e75ef2f8fc48871108fc16b416e43c2dcd3", 8),
    (FIG2_OVERLOAD, [], dict(FIG2_OVERLOAD_FAIL, crashes=2, stats=_stats(3245, 5797, 12)),
     "89d322c0925f89c43f49b0ca76228df4a8ee2968654a64799901c65ef50e4a8a", 10),
    (FIG2_OVERLOAD, ["--no-memo"], dict(FIG2_OVERLOAD_FAIL, stats=_stats(25, 25, 7)),
     "89d322c0925f89c43f49b0ca76228df4a8ee2968654a64799901c65ef50e4a8a", 10),
], ids=["tas-cons2", "tas-cons2-nomemo", "fig2-overload", "fig2-overload-nomemo"])
def test_check_failure_output_is_pinned(capsys, tmp_path, cfg, flags, want, final_hash, lines):
    path, trace = tmp_path / "cfg.json", tmp_path / "cx.jsonl"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "check", "--config", str(path), "--out", str(trace), *flags)
    assert code == 2
    doc = json.loads(out)
    assert doc.pop("trace_file") == str(trace)
    assert doc == want
    text = trace.read_text().splitlines()
    assert (json.loads(text[0])["final_hash"], len(text)) == (final_hash, lines)


def test_check_depth_limit_exit_code(capsys, fig1_config):
    code, out = run_cli(capsys, "check", "--config", fig1_config,
                        "--depth", "3")
    assert code == 3
    assert json.loads(out)["result"] == "depth-limit"


def test_bound_verb(capsys, fig1_config):
    code, out = run_cli(capsys, "bound", "--config", fig1_config)
    assert code == 0
    assert json.loads(out) == {"f": None, "n": 2, "program": "fig1", "steps": 6}


def test_valency_verb_writes_dot(capsys, tmp_path, fig1_config):
    dot = tmp_path / "g.dot"
    code, out = run_cli(capsys, "valency", "--config", fig1_config,
                        "--out", str(dot))
    assert code == 0
    doc = json.loads(out)
    assert doc["nodes"] > 0 and doc["model"] == "extended"
    g = valency.build_graph(ExperimentConfig.from_file(fig1_config))
    assert dot.read_text() == valency.to_dot(g, valency.classify(g))


def test_valency_over_the_node_cap_exits_3(capsys, fig1_config):
    code = main(["valency", "--config", fig1_config, "--override", "cap=10"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "truncated by the node cap" in captured.err


def test_fuzz_verb(capsys, fig1_config):
    code, out = run_cli(capsys, "fuzz", "--config", fig1_config,
                        "--episodes", "50", "--seed", "3")
    assert code == 0
    assert json.loads(out)["stats"]["seed"] == 3


def test_fuzz_depth_limit_exit_code(capsys, fig1_config):
    code, out = run_cli(capsys, "fuzz", "--config", fig1_config, "--depth", "3")
    assert code == 3
    assert json.loads(out)["result"] == "depth-limit"


def test_missing_verb_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_unknown_verb_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == EXIT_USAGE


def test_missing_config_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["check"])
    assert err.value.code == EXIT_USAGE


def test_malformed_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--config", str(bad)]) == EXIT_CONFIG


def test_config_that_is_not_an_object_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["check", "--config", str(bad), "--override", "budget=1"]) == EXIT_CONFIG


def test_invalid_config_value_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"program": "nope", "n": 2,
                               "proposals": [1, 2]}))
    assert main(["check", "--config", str(bad)]) == EXIT_CONFIG


@pytest.mark.parametrize("override", [
    'monitor="no"',
    "monitor=1",
    "depth=-1",
    "depth=2.5",
    "depth=true",
    "cap=-1",
    "cap=0",
    'cap="10"',
    'n="2"',
    'budget="x"',
    'f="1"',
    'seed="x"',
    "proposals=[[1],[2]]",
    "proposals=5",
    'choice="median"',
    "proposals=[true,false]",
    "proposals=[true,1]",
    "proposals=[1,1.0]",
    "proposals=[0.0,-0.0]",
    "proposals=[NaN,1]",
    "proposals=[1,Infinity]",
    "proposals=[1e400,1]",
])
def test_mistyped_config_value_is_config_error(fig1_config, override):
    assert main(["check", "--config", fig1_config,
                 "--override", override]) == EXIT_CONFIG


def test_removed_hash_ignores_attempt_key_is_config_error(capsys, tmp_path, fig1_config):
    # a config or a trace header that names the removed key is rejected,
    # not read as the default
    assert main(["check", "--config", fig1_config,
                 "--override", "hash_ignores_attempt=false"]) == EXIT_CONFIG
    assert "unknown config key 'hash_ignores_attempt'" in capsys.readouterr().err
    with open(os.path.join(CASES_DIR, "fig1_ret_recD.jsonl")) as fh:
        header, *records = fh.read().splitlines()
    doc = json.loads(header)
    doc["config"]["hash_ignores_attempt"] = False
    trace = tmp_path / "old.jsonl"
    trace.write_text("\n".join([json.dumps(doc)] + records) + "\n")
    assert main(["replay", "--trace", str(trace)]) == EXIT_CONFIG
    assert "unknown config key 'hash_ignores_attempt'" in capsys.readouterr().err


def test_non_finite_proposal_in_a_config_file_or_trace_header_is_config_error(
        capsys, tmp_path):
    # Python's json reads NaN and Infinity; neither may reach a search or a
    # counterexample header
    bad = tmp_path / "nan.json"
    bad.write_text('{"program": "fig1", "n": 2, "proposals": [NaN, 1], '
                   '"failure": "independent", "budget": 1}')
    assert main(["check", "--config", str(bad)]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    with open(os.path.join(CASES_DIR, "fig1_ret_recD.jsonl")) as fh:
        header, *records = fh.read().splitlines()
    doc = json.loads(header)
    doc["config"]["proposals"] = [10, float("inf")]
    trace = tmp_path / "inf.jsonl"
    trace.write_text("\n".join([json.dumps(doc)] + records) + "\n")
    assert main(["replay", "--trace", str(trace)]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


# the default of each key, as JSON
_UNREAD = {"f": "null", "cons": '"atomic"', "choice": '"p1"', "scan_order": '"asc"'}


@pytest.mark.parametrize("program,key,value", [
    ("fig1", "f", 1),
    ("fig3", "f", 0),
    ("cas-rc", "f", 2),
    ("tas-cons2", "f", 1),
    ("fig3", "cons", "tas"),
    ("cas-rc", "cons", "tas"),
    ("tas-cons2", "cons", "tas"),
    ("fig2", "choice", "max"),
    ("fig3", "choice", "p2"),
    ("cas-rc", "choice", "min"),
    ("tas-cons2", "choice", "p2"),
    ("fig1", "scan_order", "desc"),
    ("fig3", "scan_order", "desc"),
    ("cas-rc", "scan_order", "desc"),
    ("tas-cons2", "scan_order", "desc"),
])
def test_key_the_program_does_not_read_is_config_error(capsys, fig1_config, program, key,
                                                       value):
    # any value but the default of a key that the program never reads; fig2
    # requires f
    extra = ["--override", "f=1"] if program == "fig2" else []
    assert main(["bound", "--config", fig1_config] + extra
                + ["--override", 'program="%s"' % program,
                   "--override", "%s=%s" % (key, json.dumps(value))]) == EXIT_CONFIG
    assert ("%s does not read %s; leave it %s\n" % (program, key, _UNREAD[key])
            in capsys.readouterr().err)


@pytest.mark.parametrize("choice,code", [("p1", 0), ("p2", 0), ("min", EXIT_CONFIG),
                                         ("max", EXIT_CONFIG)])
def test_tie_break_of_a_string_and_a_number(capsys, fig1_config, choice, code):
    # only the configured tie-break runs; min and max need orderable proposals
    assert main(["check", "--config", fig1_config, "--override", 'proposals=["a", 1]',
                 "--override", 'choice="%s"' % choice]) == code


def test_unknown_config_key_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"program": "fig1", "n": 2,
                               "proposals": [1, 2], "bogus": 1}))
    assert main(["check", "--config", str(bad)]) == EXIT_CONFIG


def test_bad_override_is_config_error(capsys, fig1_config):
    assert main(["check", "--config", fig1_config,
                 "--override", "budget"]) == EXIT_CONFIG


def test_override_does_not_touch_config_file(capsys, fig1_config):
    before = open(fig1_config).read()
    run_cli(capsys, "check", "--config", fig1_config,
            "--override", "budget=0")
    assert open(fig1_config).read() == before


def test_jobs_is_usage_error(fig1_config):
    with pytest.raises(SystemExit) as err:
        main(["check", "--config", fig1_config, "--jobs", "2"])
    assert err.value.code == EXIT_USAGE


@pytest.mark.parametrize("verb,flag", [
    ("check", ["--seed", "3"]),
    ("valency", ["--seed", "3"]),
    ("valency", ["--depth", "3"]),
    ("bound", ["--seed", "3"]),
    ("bound", ["--depth", "3"]),
    ("bound", ["--out", "x.txt"]),
])
def test_flag_the_verb_does_not_read_is_usage_error(capsys, fig1_config, verb, flag):
    with pytest.raises(SystemExit) as err:
        main([verb, "--config", fig1_config] + flag)
    assert err.value.code == EXIT_USAGE
    assert "unrecognized arguments: %s" % " ".join(flag) in capsys.readouterr().err


@pytest.mark.parametrize("episodes", ["0", "-5"])
def test_episodes_below_one_is_usage_error(fig1_config, episodes):
    with pytest.raises(SystemExit) as err:
        main(["fuzz", "--config", fig1_config, "--episodes", episodes])
    assert err.value.code == EXIT_USAGE


def test_missing_config_file_is_usage_error(tmp_path):
    assert main(["check", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE


def test_missing_trace_file_is_usage_error(tmp_path):
    assert main(["replay", "--trace", str(tmp_path / "nope.jsonl")]) == EXIT_USAGE


@pytest.mark.parametrize("data", [
    b"{not json\n",
    b"\xff\xfe\n",
    b'{"final_hash": "00"}\n',
    b'{"config": {"program": "fig1", "n": 2, "proposals": [1, 2]}}\n[1, 2]\n',
] + [
    b'{"config": {"program": "fig1", "n": 2, "proposals": [1, 2]}}\n'
    + json.dumps(dict({"step": 0, "label": "ordinary", "pid": 1, "op": "x", "resp": None},
                      **fields)).encode() + b"\n"
    for fields in (
        {"step": "zero"},
        {"step": 1},  # the first record is step 0
        {"step": False},
        {"label": "bogus"},
        {"pid": "x"},
        {"pid": None},
        {"pid": True},
        {"label": "crash", "pid": 1.0},
        {"label": "crash_all", "pid": 1},
    )
])
def test_malformed_trace_is_config_error(tmp_path, data):
    path = tmp_path / "t.jsonl"
    path.write_bytes(data)
    assert main(["replay", "--trace", str(path)]) == EXIT_CONFIG


def solo_trace_lines(fig1_config):
    """A fig1 trace of p1 running alone to its return, as JSON objects."""
    from rclab import simulator
    from rclab.config import ExperimentConfig
    from rclab.experiment import Experiment

    exp = Experiment(ExperimentConfig.from_file(fig1_config))
    trace, final = simulator.run(exp, simulator.run_plan(exp, [("until_done", 1)]))
    text = simulator.dump_trace(trace, final_hash=digest(final))
    return [json.loads(line) for line in text.splitlines()]


@pytest.mark.parametrize("tamper", [
    lambda lines: lines[1].update(resp=999),
    # p1 has returned, so a further step of p1 is not enabled
    lambda lines: lines.append(dict(lines[-1], step=len(lines) - 1)),
    lambda lines: lines[0].update(final_hash="0" * 64),
], ids=["record-differs", "step-not-enabled", "final-hash-differs"])
def test_replay_that_does_not_reproduce_exits_2(tmp_path, fig1_config, tamper):
    lines = solo_trace_lines(fig1_config)
    tamper(lines)
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert main(["replay", "--trace", str(path)]) == 2


@pytest.mark.parametrize("final_hash", [5, None, ["0" * 64]])
def test_replay_final_hash_that_is_not_a_string_is_config_error(tmp_path, fig1_config,
                                                                final_hash):
    lines = solo_trace_lines(fig1_config)
    lines[0]["final_hash"] = final_hash
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert main(["replay", "--trace", str(path)]) == EXIT_CONFIG


def test_replay_missing_final_hash_still_verifies(capsys, tmp_path,
                                                  fig1_config):
    # header without final_hash: replay succeeds and reports its own hash
    from rclab import simulator
    from rclab.config import ExperimentConfig
    from rclab.experiment import Experiment

    exp = Experiment(ExperimentConfig.from_file(fig1_config))
    labels = simulator.run_plan(exp, [("until_done", 1)])
    trace, _ = simulator.run(exp, labels)
    path = tmp_path / "t.jsonl"
    simulator.write_trace(trace, str(path))
    code, out = run_cli(capsys, "replay", "--trace", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == len(labels) and doc["final_hash"]


@pytest.mark.parametrize("verb", ["check", "fuzz"])
@pytest.mark.parametrize("mutate,prop", [
    (reenter_after_crash, "GenericityViolation"),
    (read_before_write, "ReadBeforeWrite"),
])
def test_counterexample_ending_in_transition_error(capsys, monkeypatch, tmp_path,
                                                   fig1_config, verb, mutate, prop):
    monkeypatch.setattr(Fig1Machine, "step", mutate(Fig1Machine.step))
    trace = str(tmp_path / "cx.jsonl")
    code, out = run_cli(capsys, verb, "--config", fig1_config,
                        "--override", "monitor=true", "--out", trace)
    assert code == 2
    doc = json.loads(out)
    assert doc["result"] == "fail" and doc["property"] == prop
    assert doc["trace_file"] == trace
    # the trace file holds every step; the violating one carries the error
    # and no op or response
    with open(trace) as fh:
        records = [json.loads(line) for line in fh.read().splitlines()[1:]]
    assert [{"kind": r["label"], "pid": r["pid"]} for r in records] == doc["trace"]
    assert all("error" not in r and "op" in r for r in records[:-1])
    assert records[-1]["error"] == prop and records[-1]["detail"] == doc["detail"]
    assert "op" not in records[-1] and "resp" not in records[-1]
    code, out = run_cli(capsys, "replay", "--trace", trace)
    assert code == 2
    replayed = json.loads(out)
    assert replayed["property"] == prop and replayed["detail"] == doc["detail"]
    assert replayed["matches_header"] is True
    assert replayed["steps"] == len(doc["trace"])
