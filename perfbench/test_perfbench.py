"""Tests of the benchmark itself (not part of the program's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They check that the exact counters repeat for one seed and change with
the seed, that the process LJ workload ends bitwise equal to a serial
run of the same inputs, that a traced run reports the same counts as
an untraced one, that the span accounting splits nested spans exactly
and finds stray spans, and that the benchmark refuses to run without
the program sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer, account  # noqa: E402

WORKLOADS = workloads.WORKLOADS


@lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    """One short benchmark run: (counters, result object)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    counters = next(json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("counters "))
    return counters, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_for_a_seed_and_fingerprint_follows_it(workload):
    first, result = run(workload, 11)
    again, _ = run(workload, 11, 1)
    other, _ = run(workload, 12)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert first == again
    assert first["fingerprint"] != other["fingerprint"]


def test_process_lj_ends_bitwise_equal_to_serial():
    process, _ = run("lj_liquid_process", 11)
    (ROOT / ".perfbench-tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-tmp"))
    serial = workloads.build_lj(11, "serial", False, tmp)
    try:
        serial.loop.run(workloads.WARMUP_STEPS)
        builds = serial.engine.neighbor_builds
        serial.loop.run(process["steps"])
        system = serial.loop.system
        assert workloads.fingerprint(system.positions, system.velocities) \
            == process["fingerprint"]
        assert serial.engine.neighbor_builds - builds \
            == process["neighbor.builds"]
    finally:
        serial.close()
        shutil.rmtree(tmp, ignore_errors=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_the_untraced_counts(workload):
    counters, _ = run(workload, 11)
    _, traced = run(workload, 11, 1)
    assert traced["correct"], traced
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    for key, value in counters.items():
        if key in layers:
            assert layers[key] == value, key
    if workload == "segment_service":
        assert layers["service.splice_ratio"] > 0
        assert layers["service.resubmissions"] == (
            layers["service.cache_hits"] + layers["service.joined_inflight"])
    else:
        steps = counters["steps"]
        assert layers["engine.evaluations"] == steps + 1


def test_account_splits_nested_spans_exactly():
    tracks = {"MainThread": [
        ["loop", 0.0, 10.0, -1, None],
        ["eval", 1.0, 4.0, 0, None],
        ["neigh", 1.5, 2.0, 1, None],
        ["eval", 5.0, 9.0, 0, None],
        ["other", 10.5, 11.0, -1, None],
    ]}
    acct = account(tracks, wall=12.0, main="MainThread")
    assert acct["self_s"] == {"loop": 3.0, "eval": 6.5, "neigh": 0.5,
                              "other": 0.5}
    assert acct["unaccounted_s"]["MainThread"] == pytest.approx(1.5)
    assert acct["residual_s"] == pytest.approx(0.0)


def test_stray_counts_open_and_boundary_crossing_spans():
    tracer = Tracer()
    tracer.tracks[0] = ("MainThread", [
        ["inside", 1.0, 2.0, -1, None],
        ["crossing", 2.5, 4.0, -1, None],
        ["open", 2.8, None, -1, None],
        ["before", 0.0, 0.5, -1, None],
    ])
    assert tracer.stray(0.9, 3.0) == 2


def test_tracer_wrapper_records_nesting_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner", count_of=lambda r: r)
    assert Layer().outer() == 2
    tracer.uninstall()
    assert Layer.outer.__name__ == "outer" and not hasattr(
        Layer.outer, "__wrapped__")
    spans = next(iter(tracer.tracks.values()))[1]
    assert [s[0] for s in spans] == ["outer", "inner"]
    assert spans[1][3] == 0 and tracer.counts == {"inner": 1}


def test_refuses_to_run_without_the_program():
    (ROOT / ".perfbench-tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-tmp"))
    try:
        shutil.copytree(HERE, tmp / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             "lj_liquid_process", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
