"""Smoke test of the benchmark itself, on tiny inputs (corpora <= 4, ring
M(1,2)).  Run from anywhere with ``python3 -m pytest perfbench/test_smoke.py``.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import run  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke", "--seconds", "0", *args],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return last_json(proc.stdout)


def test_every_named_metric_is_emitted_with_its_unit():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        for workload in spec["workloads"]:
            result = bench("--workload", workload["name"], "--trace", trace)
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            assert set(metrics) == {m["name"] for m in spec[section]}
            for m in spec[section]:
                assert metrics[m["name"]]["unit"] == m["unit"]
                assert isinstance(metrics[m["name"]]["value"], (int, float))


def test_wrong_pinned_digest_counts_as_failure():
    expected = dict(run.EXPECTED)
    expected["check urp <=4"] = (0, "0" * 64)
    runner = run.Runner(True, time.monotonic() + 120, expected)
    run.setup(runner)
    assert runner.failed == 0
    run.run_workload(runner, "refine_ring", seed=1, seconds=0, trace=False)
    # two runs of four commands; the urp report mismatches in each
    assert runner.failed == 2
    assert runner.attempted == run.SETUP_REPEATS + 8


def test_spans_nest_and_self_times_fit_in_wall_time():
    runner = run.Runner(True, time.monotonic() + 120)
    run.setup(runner)
    calls: Counter = Counter()
    for label, argv in run.commands("enum_split", True):
        spans_path = os.path.join(run.WORK, "spans", "test.json")
        out = os.path.join(run.WORK, "out", "test")
        code, wall, _ = runner.spawn(run.traced_argv(argv, spans_path, label), out)
        runner.check(label, code, out)
        with open(spans_path) as fh:
            trace = json.load(fh)
        spans = trace["spans"]
        assert trace["trace_id"] == label and spans
        for _, start, end, parent in spans:
            assert start <= end
            if parent >= 0:
                _, p_start, p_end, _ = spans[parent]
                assert p_start <= start and end <= p_end
        own = run.self_times(spans)
        assert min(own) >= 0
        assert sum(own) <= wall
        calls.update(run.layer_values(trace))
    assert runner.failed == 0
    assert calls["lattice.enumerate_lattices.items"] == 5
    # internal calls through names bound in other modules are traced
    assert calls["congruence.principal_congruence.calls"] > 0
    assert calls["splitting.is_congruence_splitting.calls"] > 0
