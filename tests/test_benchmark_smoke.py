"""Each workload of the repository benchmark (BENCHMARK.json) runs in smoke
mode, in a fresh process, with every correctness check passing, with and
without tracing.  A library change that breaks a name the benchmark calls
fails here, including the names only the traced layer probes call.  The
runs write only to the git-ignored .bench_out/ directory."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize(
    "workload, trace",
    [(w, t) for w in WORKLOADS for t in (0, 1)],
    ids=[w + ("-traced" if t else "") for w in WORKLOADS for t in (0, 1)],
)
def test_benchmark_smoke_run_is_correct(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    if trace:
        # only traced runs call the layer probes, which time solver calls
        # such as one single-bandit policy evaluation
        assert result["metrics"]["solvers.policy_evaluation_ms"]["value"] > 0.0, proc.stdout
