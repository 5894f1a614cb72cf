"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the repository:  python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import END_TO_END, REFERENCE, WORKLOADS  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

PRINTED_METRICS = ("wall_s", "item_p50_ms", "item_tail_ms", "peak_rss_mb", "setup_s",
                 "fail_frac")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--seed", "0", "--seconds", "1",
         "--scale", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_failures(workload):
    proc = bench("--workload", workload)
    res = result(proc)
    for name in PRINTED_METRICS:
        assert f" {name} " in proc.stdout, name
    assert set(res["metrics"]) == {name for name, _unit in END_TO_END}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    proc = bench("--workload", workload, "--trace", "1")
    res = result(proc)
    assert set(res["metrics"]) == {name for name, _unit in PER_LAYER}
    for name, unit in PER_LAYER:
        assert res["metrics"][name]["unit"] == unit
        assert f" {name} " in proc.stdout, name
    assert "slowest layer:" in proc.stdout
    assert "no span recorded" not in proc.stderr, proc.stderr
    assert res["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails_items(workload, tmp_path):
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    jobs = ref["workloads"][workload]["tiny"]
    assert jobs, "no stored tiny reference"
    jobs[0][0] = "deliberately wrong"
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    res = result(bench("--workload", workload, "--reference", str(path)))
    assert res["failed"] > 0 and not res["correct"]
    assert res["failed"] / res["attempted"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
