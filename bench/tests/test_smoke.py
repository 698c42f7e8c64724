"""Smoke test: every workload at a tiny size reports every named metric and
repeats its output digest.

    python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(tmp_path, workload, trace, seed=3):
    out = tmp_path / f"{workload}-{trace}-{len(list(tmp_path.iterdir()))}.jsonl"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"], proc.stdout
    assert last["attempted"] >= 1 and last["failed"] == 0
    return last, json.loads(out.read_text())["detail"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present_and_digest_repeats(tmp_path, workload):
    first, detail1 = run(tmp_path, workload, 0)
    _, detail2 = run(tmp_path, workload, 0)
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == names
    assert all(v["value"] > 0 for v in first["metrics"].values())
    assert detail1["digest"] == detail2["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_present(tmp_path, workload):
    result, _ = run(tmp_path, workload, 1)
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_wire_estimates_match_in_process(tmp_path):
    _, inproc = run(tmp_path, "audit-inproc", 0)
    _, wire = run(tmp_path, "audit-wire", 0)
    assert inproc["digest"] == wire["digest"]


def test_refuses_to_run_without_sources(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's files
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in BENCH.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            target = tmp_path / "bench" / path.relative_to(BENCH)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
