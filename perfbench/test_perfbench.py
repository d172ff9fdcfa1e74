"""Self-tests of the benchmark at a tiny size.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import bench_core
import bench_workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = bench_workloads.make_workloads(tiny=True)
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _digests(workload):
    return {workload.name: {
        str(i): bench_workloads.sha256(workload.text(i))
        for i in bench_workloads.pool_indices(workload, SEED)}}


def _printed(metrics, result):
    return json.loads(bench_core.result_line(metrics, result))


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_print_with_units(name):
    w = TINY[name]
    metrics, detail, result = bench_core.end_to_end(w, SEED, 0, _digests(w))
    out = _printed(metrics, result)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == w.size
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert detail["failed_frac"] == 0.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_metrics_print_with_units(name):
    w = TINY[name]
    metrics, _detail, baseline, result = bench_core.traced(
        w, SEED, 0, _digests(w))
    out = _printed(metrics, result)
    assert out["correct"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(np.isfinite(v["value"]) for v in out["metrics"].values())
    assert baseline["solve_per_iteration_ms"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_answer_counts_as_failed(name):
    w = TINY[name]

    def corrupt(out):
        return replace(out, x=out.x + 1e-2)

    _m, detail, result = bench_core.end_to_end(w, SEED, 0, _digests(w),
                                               corrupt=corrupt)
    assert result.failed == result.attempted > 0
    assert detail["failed_frac"] == 1.0
    assert not _printed(_m, result)["correct"]


def test_changed_digest_is_refused():
    w = TINY["qsdp20_palm"]
    digests = _digests(w)
    slot = next(iter(digests[w.name]))
    digests[w.name][slot] = "0" * 64
    with pytest.raises(bench_workloads.DigestMismatch, match="qsdp20_palm"):
        bench_core.end_to_end(w, SEED, 0, digests)


def test_recorded_digests_cover_every_pool_slot():
    recorded = bench_workloads.load_digests()
    assert {n: sorted(map(int, d)) for n, d in recorded.items()} == {
        n: list(range(bench_workloads.POOL)) for n in bench_workloads.WORKLOADS}


def test_cli_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense60x5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
