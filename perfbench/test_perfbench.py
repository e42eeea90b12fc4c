"""Smoke-size self-test of the benchmark: python3 -m pytest -q perfbench

Runs the tiny `smoke` workload through the real command line, so it checks
what a full run checks: metric names and units against BENCHMARK.json, the
recorded digest, traced against untraced digests, and exact counters across
processes with different PYTHONHASHSEED.
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
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)


def run_bench(out, trace, hashseed, cwd=ROOT, script=RUN):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    cmd = [sys.executable, script, "--workload", "smoke", "--seed", "0",
           "--seconds", "0.5", "--trace", str(trace), "--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.jsonl"
    for trace, hashseed in ((0, 1), (0, 2), (1, 3)):
        proc = run_bench(out, trace, hashseed)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    with open(out, encoding="utf-8") as f:
        return [json.loads(line) for line in f], out


def test_metric_names_and_units(records):
    recs, _ = records
    for rec in recs:
        declared = BENCH["per_layer"] if rec["trace"] else BENCH["end_to_end"]
        assert {m["name"]: m["unit"] for m in declared} == {
            name: m["unit"] for name, m in rec["metrics"].items()}
        assert all(isinstance(m["value"], (int, float)) for m in rec["metrics"].values())


def test_digests_and_counters_repeat_across_processes(records):
    recs, _ = records
    plain_a, plain_b, traced = recs
    assert plain_a["digest"] == plain_b["digest"] == traced["digest"]
    assert plain_a["counters"] == plain_b["counters"]
    for name, value in plain_a["counters"].items():
        assert traced["counters"][name] == value
    assert any(name.startswith("evals.kgrouping.M") for name in traced["counters"])


def test_compare_flags_no_exact_differences(records):
    _, out = records
    proc = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), str(out), str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "COUNTER" not in proc.stdout and "DIGEST" not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path / "r.jsonl", 0, 0, cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
