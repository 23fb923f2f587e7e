"""BENCHMARK.json names exactly the workloads and metrics run.py reports."""

import json
import os

import run
import tracing
from workloads import WORKLOADS


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_what_run_reports():
    bench = load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert bench["run_seconds"] == run.DEFAULT_SECONDS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    layers = {k: u for k, (_, u) in tracing.layer_metrics([], {}).items()}
    layers.update(run.TRACE_EXTRA_UNITS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers


def test_run_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "desk_sweep", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def fake_rec(ok: bool) -> dict:
    return {"commands": 5, "failed_commands": 0, "cells": 720, "cell_errors": 0,
            "checks": [("result", ok, "")], "passes": 1, "output_hashes": {"a.csv": "00"},
            "metrics": {"wall_s": 1.0}, "units": {"wall_s": "s"}}


def test_seed_hashes_are_stored_only_after_a_correct_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    args = run.argparse.Namespace(workload="desk_sweep", seed=7, seconds=1.0, trace=0)
    w = WORKLOADS["desk_sweep"]
    monkeypatch.setattr(run, "measure", lambda *a: fake_rec(False))
    assert run.run_workload(args) == 1
    assert run.load_seed_hashes(w, 7) is None
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False
    monkeypatch.setattr(run, "measure", lambda *a: fake_rec(True))
    assert run.run_workload(args) == 0
    stored = run.load_seed_hashes(w, 7)
    assert stored["hashes"] == {"a.csv": "00"}
    assert "seed 7 at commit" in stored["source"]


def test_run_all_reports_a_failed_workload(monkeypatch, capsys):
    def fake_run(argv, **kwargs):
        name, trace = argv[argv.index("--workload") + 1], argv[argv.index("--trace") + 1]
        failed = int(name == "universe_sweep" and trace == "1")
        line = json.dumps({"correct": not failed, "attempted": 10, "failed": failed,
                           "metrics": {f"m{trace}": {"value": 1.0, "unit": "s"}}})
        return run.subprocess.CompletedProcess(argv, failed, f"{name} m = 1 s\n{line}\n")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    assert run.main(["--seconds", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    total = json.loads(lines[-1])
    assert total["correct"] is False
    assert total["attempted"] == 10 * 2 * len(WORKLOADS) + 1
    assert total["failed"] == 2
    assert total["metrics"]["desk_sweep.m0"] == {"value": 1.0, "unit": "s"}
    assert len(lines) == 2 * len(WORKLOADS) + 1


def test_slowest_two_is_the_mean_of_the_two_largest():
    assert run.slowest_two([1.0, 4.0, 2.0, 3.0]) == 3.5
    assert run.slowest_two(iter([2.0])) == 2.0
