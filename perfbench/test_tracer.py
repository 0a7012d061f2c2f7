"""Tests of the benchmark's own tracing.

    python3 -m pytest perfbench -q

Two traced passes of a workload, each operation in a fresh process, must
give identical counts, so that a later claim resting on a count (calls,
cells, operand bits, cold normalizers, snap cache hits and misses) compares
like with like.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
import time
from pathlib import Path

import pytest

import run
import tracer
import workloads


def _is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s")


@pytest.fixture(scope="module")
def traced_passes():
    """Two traced passes of every workload: {workload: (first, second, failures)}."""
    root = run.ROOT / ".perfbench-work"
    root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="test-", dir=root))
    try:
        out = {}
        for name in run.WORKLOADS:
            runner = run.Runner(work, time.monotonic() + run.RUN_DEADLINE_S)
            try:
                ops = workloads.prepare(name, work, random.Random(7),
                                        runner.tailkit)
                passes = [run.Pass(traced=True), run.Pass(traced=True)]
                for pass_ in passes:
                    for op in ops:
                        runner.operate(op, pass_)
            finally:
                runner.close()
            out[name] = (*passes, runner.failures)
        yield out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_self_time_excludes_children():
    spans = [["a", -1, 0.0, 10.0, {}],
             ["b", 0, 1.0, 4.0, {"cells": 2, "bits_max": 5}],
             ["c", 1, 2.0, 3.0, {}],
             ["b", 0, 5.0, 6.0, {"cells": 3, "bits_max": 4}]]
    flat = tracer.aggregate(spans)
    assert flat["a.self_s"] == 6.0
    assert flat["b.self_s"] == 3.0
    assert flat["c.self_s"] == 1.0
    assert (flat["b.calls"], flat["b.cells"], flat["b.bits_max"]) == (2, 5, 5)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat(traced_passes, name):
    first, second, failures = traced_passes[name]
    assert failures == []
    counts = {k: v for k, v in first.figures.items() if not _is_time(k)}
    assert counts == {k: v for k, v in second.figures.items() if not _is_time(k)}


def test_workloads_reach_their_layers(traced_passes):
    verify, convolve, logperiodic = (traced_passes[n][0].figures
                                     for n in ("verify", "convolve", "logperiodic"))
    assert verify["convolution.conv_window_value.calls"] > 0
    assert verify["mixture.build_schedule.calls"] > 0
    assert verify["numerics.snap.misses"] > 0
    assert convolve["convolution.conv_linear_exact.calls"] == 3
    assert "convolution.conv_window_value.calls" not in convolve
    assert logperiodic["logperiodic.normalizers.cold"] == 3
    assert not any(k.startswith("convolution.") for k in logperiodic)


def test_every_layer_metric_is_recorded(traced_passes):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    recorded = {k for first, _, _ in traced_passes.values() for k in first.figures}
    missing = [m["name"] for m in spec["per_layer"]
               if not m["name"].startswith("trace.") and m["name"] not in recorded]
    assert missing == []
