"""Tests of the benchmark itself: every workload runs in smoke mode with no
failed check, and a corrupted output is counted as a failure.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def run_bench(capsys, workload, trace=0):
    code = bench.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct(capsys, workload):
    result = run_bench(capsys, workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric(capsys):
    result = run_bench(capsys, "online_m10", trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    assert result["metrics"]["simulate.gain_index_bslots_per_s"]["value"] > 0
    assert result["metrics"]["oracle.n_joint"]["value"] == 15 * 13 * 28


def test_perturbed_index_table_fails(capsys, monkeypatch):
    original = workloads.lib.index_policy.gain_indices_average

    def perturbed(mdp, lam, policy=None):
        table = original(mdp, lam, policy)
        return replace(table, indices=-table.indices)

    monkeypatch.setattr(workloads.lib.index_policy, "gain_indices_average", perturbed)
    result = run_bench(capsys, "offline_m10")
    assert not result["correct"] and result["failed"] > 0


def test_max_iters_trace_fails(capsys, monkeypatch):
    original = workloads.lib.lagrange.gradient_search

    def gave_up(problem, *args, **kwargs):
        trace = original(problem, *args, **kwargs)
        return replace(trace, stop_reason="max_iters")

    monkeypatch.setattr(workloads.lib.lagrange, "gradient_search", gave_up)
    result = run_bench(capsys, "offline_m10")
    assert not result["correct"] and result["failed"] > 0


def test_nonzero_exit_code_fails(capsys, monkeypatch):
    monkeypatch.setattr(workloads.lib.cli, "cmd_oracle", lambda args: 3)
    result = run_bench(capsys, "pipeline_cli")
    assert not result["correct"] and result["failed"] > 0


def test_refuses_to_run_without_the_library():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "offline_m10", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_host_speed_reads_each_call_against_the_samples_around_it():
    speed = calibrate.HostSpeed()
    ref = calibrate.REFERENCE_S
    speed.samples = [ref, 2 * ref]
    # (kind, seconds, index of the sample before the call)
    speed.calls = [("indices", 1.0, -1), ("oracle", 1.0, 0), ("oracle", 2.0, 1)]
    assert speed.scale({"indices"}) == pytest.approx(1.0)
    # 1 s read at 1.5x the reference time, 2 s at 2x
    assert speed.scale({"oracle"}) == pytest.approx(3.0 / (1.5 + 4.0))
    assert speed.scale() == pytest.approx(4.0 / (1.0 + 1.5 + 4.0))
