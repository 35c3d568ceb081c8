"""Tests of the benchmark's own code, at quick scale.

Run from the repository root::

    python3 -m pytest geobench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from geobench import checks, run, worker
from geobench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

#: Simulated seconds per workload at quick scale.
QUICK = {"geo_hetero_closed": 2.0, "geo_hetero_writes": 2.0}


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_measurements():
    """One traced measurement per workload: untraced runs plus a traced one."""
    saved = run.MIN_P99_SAMPLES
    run.MIN_P99_SAMPLES = 0  # quick runs are far too short for a p99
    try:
        measurements = {}
        for name, workload in WORKLOADS.items():
            measurement = run.Measurement(workload, seed=3, seconds=0.0, trace=True, duration=QUICK[name])
            measurement.run()
            measurements[name] = measurement
        return measurements
    finally:
        run.MIN_P99_SAMPLES = saved


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_and_passes_its_checks(quick_measurements, name):
    measurement = quick_measurements[name]
    assert measurement.violations == []
    assert len(measurement.rounds) == run.MIN_ROUNDS
    assert len(measurement.first) == len(measurement.specs) > 1
    assert measurement.issued_total > 0
    values = measurement.end_to_end()
    assert values["ops_per_norm_s"] > 0
    assert values["wire_msgs_per_op"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_emitted_metric_names_match_benchmark_json(quick_measurements, name):
    declared = _benchmark_json()
    measurement = quick_measurements[name]
    end_to_end = measurement.end_to_end()
    per_layer = measurement.per_layer()
    assert sorted(end_to_end) == sorted(m["name"] for m in declared["end_to_end"])
    assert sorted(per_layer) == sorted(m["name"] for m in declared["per_layer"])


def test_benchmark_json_matches_the_code():
    declared = _benchmark_json()
    assert sorted(declared) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in declared["end_to_end"])


def test_traced_run_attributes_every_layer(quick_measurements):
    per_layer = quick_measurements["geo_hetero_closed"].per_layer()
    shares = sum(value for name, value in per_layer.items() if name.endswith(".share"))
    assert shares == pytest.approx(1.0)
    assert per_layer["core.brd.msgs_per_op"] > 0
    assert per_layer["trace.overhead"] > 0


# ---------------------------------------------------------------------- #
# Safety checker
# ---------------------------------------------------------------------- #
ORIGINALS = {"c0/r0", "c0/r1", "c1/r0"}


def _logs():
    return {
        "c0/r0": ["a", "b", "c", "d", "e"],
        "c0/r1": ["a", "b", "c", "d"],
        "c1/r0": ["a", "b", "c", "d", "e"],
        "joiner1": ["c", "d", "e", "f"],  # joined late, runs past the originals
        "joiner2": ["f", "g"],  # starts inside joiner1's extension
        "idle": [],
    }


def test_safety_checker_accepts_segments_of_one_order():
    assert checks.check_execution_logs(_logs(), ORIGINALS) == []


def test_safety_checker_rejects_a_planted_divergence():
    logs = _logs()
    logs["c0/r1"] = ["a", "c", "b", "d"]
    problems = checks.check_execution_logs(logs, ORIGINALS)
    assert any("c0/r1 diverges" in problem for problem in problems)


def test_safety_checker_rejects_a_diverging_joiner():
    logs = _logs()
    logs["joiner1"] = ["c", "e", "d"]
    problems = checks.check_execution_logs(logs, ORIGINALS)
    assert any("joiner joiner1 diverges" in problem for problem in problems)


def test_safety_checker_rejects_a_joiner_outside_the_order():
    logs = _logs()
    logs["joiner2"] = ["x", "y"]
    problems = checks.check_execution_logs(logs, ORIGINALS)
    assert any("joiner2 starts outside" in problem for problem in problems)


def test_safety_checker_rejects_a_duplicated_txn_id():
    logs = _logs()
    logs["c1/r0"] = ["a", "b", "c", "b", "d"]
    problems = checks.check_execution_logs(logs, ORIGINALS)
    assert problems == ["exactly-once: c1/r0 executed 'b' twice"]


def test_validity_rejects_an_id_that_was_never_issued():
    assert checks.check_validity(["a", "b"], {"a", "b", "c"}) == []
    assert checks.check_validity(["a", "z"], {"a", "b"}) != []


def test_progress_check_rejects_a_stalled_cluster():
    assert checks.check_progress({0: 9.8, 1: 9.95}, [0, 1], end=10.0) == []
    problems = checks.check_progress({0: 9.8, 1: 6.0}, [0, 1], end=10.0)
    assert problems == ["progress: cluster 1 executed no round after t=6.0 of a 10.0 s run"]
    assert checks.check_progress({0: 9.8}, [0, 1], end=10.0) != []


def test_open_loop_check_rejects_saturation():
    assert checks.check_open_loop(offered=1000, completed=990, backlog=0) == []
    assert checks.check_open_loop(offered=1000, completed=900, backlog=0) != []
    assert checks.check_open_loop(offered=1000, completed=980, backlog=15) != []


def test_real_run_logs_pass_and_a_planted_swap_fails():
    spec = WORKLOADS["geo_hetero_closed"].specs(5, QUICK["geo_hetero_closed"])[0]
    deployment = spec.build()
    metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
    _process, problems = worker.inspect(deployment, spec, metrics)
    assert problems == []
    replica = deployment.replicas["c1/r2"]
    log = replica.execution_log
    log[10], log[11] = log[11], log[10]
    _process, problems = worker.inspect(deployment, spec, metrics)
    assert any("safety" in problem for problem in problems)


# ---------------------------------------------------------------------- #
# Determinism check
# ---------------------------------------------------------------------- #
def test_determinism_check_rejects_a_perturbed_row(quick_measurements):
    observed = quick_measurements["geo_hetero_closed"].first[0]["observed"]
    same = json.loads(json.dumps(observed))
    assert checks.diff_fingerprints(observed, same) == []
    perturbed = json.loads(json.dumps(observed))
    perturbed["sim"]["write_p99_ms"] = math.nextafter(perturbed["sim"]["write_p99_ms"], math.inf)
    assert checks.diff_fingerprints(observed, perturbed) == [
        "determinism: 'sim' differs between runs of one seed"
    ]
    perturbed = json.loads(json.dumps(observed))
    perturbed["census"]["HsVote"] += 1
    assert checks.diff_fingerprints(observed, perturbed) == [
        "determinism: 'census' differs between runs of one seed"
    ]


# ---------------------------------------------------------------------- #
# Command line
# ---------------------------------------------------------------------- #
def test_command_fails_without_the_program(tmp_path):
    """Without ``src/`` the benchmark must fail and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "geobench", tmp_path / "geobench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "geobench/run.py", "--workload", "geo_hetero_closed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
