"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from helix_pst.cli import run_command  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_at_tiny_size(workload, tmp_path):
    result = run.run(workload, seed=3, seconds=0, trace=False, size="tiny", workdir=tmp_path)
    assert result["correct"] and result["failed"] == result["missed"] == 0, result["failures"]
    assert result["attempted"] == run.MIN_REPS * len(workloads.build(workload, 3, "x", True))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    result = run.run("trace", seed=3, seconds=0, trace=True, size="tiny", workdir=tmp_path)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    # with the layer-touch commands every layer records time
    for name, m in result["metrics"].items():
        if name.endswith("_s") and name != "bench.trace_overhead_s":
            assert m["value"] > 0, name


def test_workloads_are_seeded():
    for w in workloads.WORKLOADS:
        assert workloads.build(w, 5, "x") == workloads.build(w, 5, "x")
        assert workloads.build(w, 5, "x") != workloads.build(w, 6, "x")


def _bump_csv(path: str, column: int) -> None:
    lines = Path(path).read_text().splitlines()
    cells = lines[2].split(",")
    cells[column] = repr(float(cells[column] or 0.0) + 1e-3)
    lines[2] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def _bump_json(path: str, edit) -> None:
    doc = json.loads(Path(path).read_text())
    edit(doc)
    Path(path).write_text(json.dumps(doc))


TAMPER = {
    "evolve": lambda path: _bump_csv(path, 1),
    "scan": lambda path: _bump_csv(path, 1),
    "sweep": lambda path: _bump_csv(path, 1),
    "spectrum": lambda path: _bump_csv(path, 1),
    "pmax": lambda path: _bump_json(path, lambda d: d.update(p_max=d["p_max"] - 1e-3)),
    "dark": lambda path: _bump_json(
        path, lambda d: d["groups"][1].update(overlap=d["groups"][1]["overlap"] + 1e-3)),
    "attain": lambda path: _bump_json(
        path, lambda d: d["constraints"][0].update(
            residual=d["constraints"][0]["residual"] + 1e-3)),
}


@pytest.mark.parametrize("workload", ("large_n", "trace"))
def test_one_tampered_value_fails_its_operation(workload, tmp_path):
    runner = run.Runner(workload, 4, "tiny", tmp_path / "out")
    report = runner.spawn("run")
    assert runner.failures == []
    for i, cmd in enumerate(runner.commands):
        TAMPER[cmd.op](cmd.output)
        runner._check(report)
        assert [f[0] for f in runner.failures] == [i], cmd.op
        runner.failures.clear()
        report = runner.spawn("run")  # fresh, untampered outputs


def test_known_high_gamma_miss_is_counted_apart_from_failures(tmp_path):
    # fig2 at gamma = 14.5: the 0.005 grid samples the event at tau ~ 6.2823
    # (p ~ 0.99963) only at 0.9975 and 0.9965, so the scan reports none
    cmd = workloads.Command("sweep", {"n": 8, "site-bc": "closed", "channel-bc": "closed",
                                      "in": "0,1", "out": "4,1",
                                      "gamma-grid": "14.5:14.5:1.0"},
                            str(tmp_path / "sweep.csv"))
    assert run_command(cmd.argv()) == 0
    kind, message, events = checks.verify(cmd, 0, None)
    assert kind == checks.MISS and "6.28" in message and events == 1
    runner = run.Runner("sweep", 4, "tiny", tmp_path / "out")
    runner.commands = [cmd]
    report = {"codes": [0], "errors": [None]}
    runner._check(report)
    assert runner.failures == [] and [i for i, _ in runner.misses] == [0]
    assert report["missed_events"] == 1


FIG2 = {"n": 8, "site-bc": "closed", "channel-bc": "closed", "in": "0,1", "out": "4,1"}


@pytest.mark.parametrize("stderr", ("", "no PST event within the horizon\n"))
def test_unreported_scan_event_is_wrong(stderr, tmp_path):
    # fig2 at gamma = 1.5 has one PST event before tau = 70, near 60.73
    cmd = workloads.Command("scan", {**FIG2, "gamma": 1.5, "horizon": 70.0},
                            str(tmp_path / "scan.csv"))
    with open(cmd.stderr_path, "w") as err, contextlib.redirect_stderr(err):
        assert run_command(cmd.argv()) == 0
    assert checks.verify(cmd, 0, None) is None
    assert Path(cmd.stderr_path).read_text() == "PST times: 60.7312071956\n"
    Path(cmd.stderr_path).write_text(stderr)
    assert checks.verify(cmd, 0, None)[0] == checks.WRONG


def test_blanked_sweep_event_is_wrong(tmp_path):
    cmd = workloads.Command("sweep", {**FIG2, "gamma-grid": "1.5:1.5:1.0"},
                            str(tmp_path / "sweep.csv"))
    assert run_command(cmd.argv()) == 0
    assert checks.verify(cmd, 0, None) is None
    Path(cmd.output).write_text("gamma,tau_min\n1.5,\n")
    kind, message, _ = checks.verify(cmd, 0, None)
    assert kind == checks.WRONG and "60.73" in message


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert "helix-pst" in proc.stderr
