"""Self-test of the benchmark harness at tiny input sizes.

    python3 -m pytest bench/selftest.py -q

Runs every workload once untraced and once traced with --scale tiny, and
checks that every metric named in BENCHMARK.json comes out with its unit,
that no operation fails, and that the recorded spans are well formed. The
file is not named test_*.py, so the package's own test run does not
collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import check_well_formed, self_times  # noqa: E402

SEED = 3

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as _fh:
    BENCH = json.load(_fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, trace: int) -> dict:
    done = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                 "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        m[:3] for m in layers.METRICS
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics(workload):
    result = tiny(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_metrics_and_spans(workload):
    result = tiny(workload, 1)
    assert result["correct"] and result["failed"] == 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    with open(os.path.join(HERE, "out", f"{workload}-seed{SEED}-trace1.json")) as fh:
        assert json.load(fh)["record"]["layers"]["accounted_within_overhead"]
    with open(os.path.join(HERE, "out", f"{workload}-seed{SEED}-spans.json")) as fh:
        recorded = json.load(fh)
    for part in ("main", "probe"):
        spans = recorded[part]
        assert spans
        assert check_well_formed(spans) == []
        assert {s["name"] for s in spans if s["parent"] is None} == {
            "pass" if part == "main" else "probe"
        }


def test_self_time_subtracts_covered_children():
    spans = [
        {"id": 0, "name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "b", "start": 3.0, "end": 6.0, "parent": 0},
        {"id": 3, "name": "c", "start": 1.5, "end": 2.0, "parent": 1},
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.5, 2: 3.0, 3: 0.5}
    spans[3]["end"] = 5.0
    assert check_well_formed(spans) == ["span 3 c lies outside its parent"]


def test_refuses_more_jobs_than_cores(tmp_path):
    wl = workloads.SessionLong(ROOT, str(tmp_path), SEED, "tiny", 1)
    assert wl.jobs == 1
    with pytest.raises(ValueError, match="exceeds nproc"):
        wl.n_jobs(2)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    done = bench("--workload", "design", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
