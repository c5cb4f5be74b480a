"""Smoke test of the benchmark at the six-interval size, a few ops per workload.

    python -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = last_json(run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_op_wall_time(workload):
    result = last_json(run(workload, 1))
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == expected
    parts = sum(metrics[f"bench.{k}"]["value"] for k in ("layers_self_s", "glue_s", "tracer_s"))
    assert parts == pytest.approx(metrics["bench.op_wall_s"]["value"], rel=1e-9)
    assert metrics["bench.traced_ops"]["value"] >= 1
    assert metrics["setup.pipeline.build_corpus.calls"]["value"] == 1


def test_same_seed_gives_same_outputs():
    records = []
    for _ in range(2):
        last_json(run("train-folds", 0, seed=5))
        path = ROOT / ".bench_out" / "train-folds-smoke-seed5-trace0.json"
        records.append(json.loads(path.read_text()))
    assert records[0]["outputs_sha256"] == records[1]["outputs_sha256"]
    assert records[0]["environment"]["thread_env"]["OMP_NUM_THREADS"] == "1"


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
