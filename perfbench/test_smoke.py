"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload must emit every metric named in BENCHMARK.json with its unit,
a forced bad output must be counted as a failed operation, and the benchmark
must refuse to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "train-demo": lambda work: workloads.train_demo(ROOT, 5, work, epochs=2),
    "train-mixture": lambda work: workloads.train_mixture(ROOT, 5, work, steps=20),
    "oracle-mix": lambda work: workloads.oracle_mix(
        ROOT, 5, work, small=12, passes=2, large_atoms=60, grids=1, grid_step=0.1
    ),
}


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(TINY)
    assert sorted(TINY) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(name, trace, section, tmp_path):
    spans = tmp_path / "spans.csv"
    result = run.run_benchmark(TINY[name](tmp_path), seconds=0, trace=trace, probes=1, spans_path=spans)
    assert result["correct"], result["report"]
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_UNITS
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace:
        assert spans.read_text().startswith("span,name,unit,parent,start_s,end_s\n")
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _unit(granules):
    return [workloads.Op("train", sum(granules), len(granules), granules)]


def test_a_cost_at_one_step_shows_in_the_unit_time():
    plain = [_unit([0.01] * 10) for _ in range(3)]
    late = [_unit([0.01] * 9 + [0.015]) for _ in range(3)]
    assert run.typical_requests(late)[0] == pytest.approx(run.typical_requests(plain)[0] + 0.005)


def test_a_slow_moment_in_one_unit_is_left_out():
    units = [_unit([0.01] * 10) for _ in range(3)]
    units[1][0].granules[4] = 0.05
    assert run.typical_requests(units)[0] == pytest.approx(0.1)


def test_a_tampered_digest_is_a_failed_operation(tmp_path, monkeypatch):
    digests = iter(["first"] + ["tampered"] * 100)
    monkeypatch.setattr(workloads, "file_digest", lambda path: next(digests))
    result = run.run_benchmark(TINY["train-mixture"](tmp_path), seconds=0, trace=False, probes=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1 >= run.MIN_UNITS - 1
    base = f"({result['failed']}/{result['attempted']} operations)"
    assert any(line.startswith("failed_frac") and line.endswith(base) for line in result["report"])


def test_a_failing_oracle_check_is_a_failed_operation(tmp_path, monkeypatch):
    workload = TINY["oracle-mix"](tmp_path)
    monkeypatch.setattr(workloads.cli, "main", lambda argv: 1)
    result = run.run_benchmark(workload, seconds=0, trace=False, probes=1)
    rounds = result["attempted"] // len(workload.requests)
    cli_requests = sum(1 for kind, *_ in workload.requests if kind != "grid")
    assert not result["correct"]
    assert result["failed"] == rounds * cli_requests


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "oracle-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
