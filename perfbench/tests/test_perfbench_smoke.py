"""Smoke test of the benchmark command at order 8, one surface per workload.

Each workload must run, pass its output checks and print every end-to-end
metric, and a reference file holding a corrupted digest must make it fail.
The traced run must report the per-layer metrics, and a reference holding
the right digest must pass.
"""

import json
import subprocess
import sys

from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "run.py"
BENCHMARK = json.loads((RUN.parents[1] / "BENCHMARK.json").read_text())
SEED = 3


def bench(workload, reference, trace=0):
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
        "--seconds", "0", "--trace", str(trace), "--order", "8", "--surfaces", "1",
        "--reference", str(reference),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=RUN.parents[1], timeout=600)
    return proc, json.loads(proc.stdout.splitlines()[-1])


def digests(stdout):
    line = next(l for l in stdout.splitlines() if l.startswith("digests: "))
    return line.split()[1:]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_checks_and_corrupt_reference(workload, tmp_path):
    proc, result = bench(workload, tmp_path / "absent.json")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    (got,) = digests(proc.stdout)

    ref = tmp_path / "reference.json"
    corrupt = "0" * len(got)
    ref.write_text(json.dumps({workload: {"order": 8, "surfaces": 1, "digests": {str(SEED): [corrupt]}}}))
    proc, result = bench(workload, ref)
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] >= 1


def test_traced_run_and_matching_reference(tmp_path):
    proc, result = bench("chain_dense", tmp_path / "absent.json", trace=1)
    assert proc.returncode == 0, proc.stderr
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["normalize.fundamental_identity_residual.calls"]["value"] == 0
    assert metrics["normalize.find_chain_curve.stage_calls"]["value"] > 0
    assert metrics["series_core.GaussianRational.mul.calls"]["value"] > 0

    ref = tmp_path / "reference.json"
    entry = {"order": 8, "surfaces": 1, "digests": {str(SEED): digests(proc.stdout)}}
    ref.write_text(json.dumps({"chain_dense": entry}))
    proc, result = bench("chain_dense", ref)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and "reference: checked" in proc.stdout
