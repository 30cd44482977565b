"""The frontier ladder's record of the checkout it measured."""

import importlib.util
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from rclab import checker, valency
from rclab.config import ExperimentConfig
from rclab.experiment import Experiment
from rclab.valency import build_graph

LADDER = os.path.join(os.path.dirname(__file__), "..", "tools", "ladder.py")


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return ladder


def git(root, *args):
    proc = subprocess.run(["git", "-C", root, "-c", "user.name=rclab",
                           "-c", "user.email=rclab@example.com",
                           "-c", "commit.gpgsign=false", *args],
                          check=True, stdout=subprocess.PIPE, text=True)
    return proc.stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_commit_marks_a_dirty_tree_and_names_only_its_own_checkout(tmp_path):
    ladder = load_ladder()
    root = str(tmp_path / "checkout")
    copy = os.path.join(root, "copy")
    os.makedirs(copy)
    git(root, "init", "-q")
    with open(os.path.join(root, "a.txt"), "w") as fh:
        fh.write("a\n")
    git(root, "add", "a.txt")
    git(root, "commit", "-q", "-m", "a")
    sha = git(root, "rev-parse", "--short", "HEAD")
    assert ladder.commit(root) == sha
    with open(os.path.join(root, "a.txt"), "w") as fh:
        fh.write("b\n")
    assert ladder.commit(root) == sha + "-dirty"
    # a copy inside the checkout, and a directory in no checkout at all
    assert ladder.commit(copy) is None
    assert ladder.commit(str(tmp_path)) is None


def test_shortest_failure_entry_counts_every_checked_edge():
    ladder = load_ladder()
    what, cfg = ladder.RUNS["criterion 4: fig2 n=2 f=1 budget 2"]
    assert what == "shortest_failure"
    exp = Experiment(ExperimentConfig.from_dict(dict(cfg)))
    states, edges, outputs = ladder._shortest_failure(SimpleNamespace(checker=checker), exp)
    assert (states, edges) == (416, 1239)
    assert outputs == {"property": "RecoverableWaitFreedom", "length": 9}


def test_entry_reports_cpu_time_and_no_per_state_cost_below_a_mib(monkeypatch):
    # 416 states raise the peak RSS of this process by far less than 1 MiB
    ladder = load_ladder()
    monkeypatch.setattr(sys, "path", list(sys.path))
    result = ladder.run_one("criterion 4: fig2 n=2 f=1 budget 2",
                            os.path.dirname(os.path.dirname(os.path.abspath(LADDER))))
    assert result["cpu_s"] >= 0
    assert result["bytes_per_state"] is None
    assert "cpu_s" in ladder.MEDIAN_KEYS


def test_entry_reports_the_ids_its_experiment_minted(monkeypatch):
    ladder = load_ladder()
    monkeypatch.setattr(sys, "path", list(sys.path))
    name = "criterion 4: fig2 n=2 f=1 budget 2"
    result = ladder.run_one(name, os.path.dirname(os.path.dirname(os.path.abspath(LADDER))))
    exp = Experiment(ExperimentConfig.from_dict(dict(ladder.RUNS[name][1])))
    checker.shortest_failure(exp)
    assert ((result["frame_ids"], result["objects_ids"], result["others_ids"])
            == (len(exp.frames_by_id), len(exp.objects_by_id), len(exp.others_by_id)))


def test_entry_reports_the_rows_its_experiment_holds(monkeypatch):
    ladder = load_ladder()
    monkeypatch.setattr(sys, "path", list(sys.path))
    name = "criterion 4: fig2 n=2 f=1 budget 2"
    result = ladder.run_one(name, os.path.dirname(os.path.dirname(os.path.abspath(LADDER))))
    exp = Experiment(ExperimentConfig.from_dict(dict(ladder.RUNS[name][1])))
    checker.shortest_failure(exp)
    assert result["rows"] == sum(map(len, exp.rows)) > 0
    assert result["others_rows"] == sum(map(len, exp.others_rows)) > 0
    # a checkout whose experiment keeps no rows
    assert ladder.row_counts(SimpleNamespace()) == {"rows": None, "others_rows": None}


def test_valency_entry_counts_every_edge_of_the_graph():
    ladder = load_ladder()
    cfg = dict(program="tas-cons2", n=2, proposals=[10, 20], failure="independent", budget=1)
    nodes, edges, _ = ladder._valency(SimpleNamespace(valency=valency),
                                      Experiment(ExperimentConfig.from_dict(cfg)))
    g = build_graph(cfg)
    assert (nodes, edges) == (len(g.nodes), sum(len(e) for e in g.adj.values()))
    assert edges > nodes


def test_cold_start_reports_times_and_peak_but_no_states():
    ladder = load_ladder()
    result = ladder.run_child("cold start",
                              os.path.dirname(os.path.dirname(os.path.abspath(LADDER))))
    assert sorted(result) == ["cpu_s", "peak_rss_mb", "wall_s"]
    assert result["wall_s"] > 0 and result["cpu_s"] >= 0 and result["peak_rss_mb"] > 0


def test_trace_entry_counts_no_one_time_library_map_per_state():
    # hashlib's library maps about 3.6 MB on the first digest; set-up takes
    # it, so the trace path's 1000 round trips cost tens of bytes per step
    ladder = load_ladder()
    result = ladder.run_child("trace path: fig2 n=3 f=1",
                              os.path.dirname(os.path.dirname(os.path.abspath(LADDER))))
    assert result["failed"] == 0
    assert result["bytes_per_state"] is None or result["bytes_per_state"] <= 100


def test_child_peak_leaves_out_the_launching_process():
    # Linux carries the launcher's peak RSS across exec into ru_maxrss;
    # `held` keeps 64 MB of this process resident while the child runs
    ladder = load_ladder()
    held = bytearray(64 * 2**20)
    held[::4096] = b"\1" * (len(held) // 4096)
    result = ladder.run_child("cold start",
                              os.path.dirname(os.path.dirname(os.path.abspath(LADDER))))
    assert result["peak_rss_mb"] < 64
