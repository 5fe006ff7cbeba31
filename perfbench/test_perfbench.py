"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
for path in (str(HERE), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from orbitfactor import upoly  # noqa: E402


def worker(workload: str, mode: str, seed: int = 5) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                           "--seed", str(seed), "--mode", mode],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_op_list(workload):
    first = [op.key for op in workloads.build(workload, 3)]
    again = [op.key for op in workloads.build(workload, 3)]
    other = [op.key for op in workloads.build(workload, 4)]
    assert first == again
    assert first != other


def test_strata_cover_the_group():
    for p, m in workloads.SWEEP_FIELDS:
        ctx = workloads.gf.field_create(p, m)
        q = ctx.order
        assert sum(size for _, _, size in workloads.strata(ctx)) == q ** 3 - q - 1


def test_wrapping_leaves_results_unchanged():
    ops = workloads.build("sweep", 6)[::40] + [
        op for op in workloads.build("group", 6)
        if op.label.startswith(("lang_solve q=3", "class_of_lambda q=3", "conjugacy_classes q=7"))]
    original_mul = upoly.Poly.__mul__
    recorder = spans.Recorder()
    recorder.install()
    recorder.enabled = True
    try:
        traced = [op.run() for op in ops]
    finally:
        recorder.enabled = False
        recorder.uninstall()
    assert upoly.Poly.__mul__ is original_mul
    assert recorder.summary()["spans"]["upoly.Poly.__mul__"]["calls"] > 0
    for op, result in zip(ops, traced):
        op.check(result)
        assert op.run() == result, op.label


def test_missing_span_is_reported_not_raised():
    recorder = spans.Recorder(names=["gf.no_such_function", "gf.FieldCtx.no_such_method"])
    recorder.install()
    recorder.uninstall()
    assert recorder.missing == ["gf.no_such_function", "gf.FieldCtx.no_such_method"]


class FakeClock:
    """A perf_counter that moves only when a test function says it works."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def test_self_times_follow_the_call_tree(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "time", clock)
    fake = types.ModuleType("orbitfactor.fake")

    def leaf():
        clock.work(1)

    def mid():
        clock.work(2)
        fake.leaf()
        fake.leaf()

    def top():
        clock.work(4)
        fake.mid()
        fake.leaf()

    def bad():
        clock.work(16)
        fake.leaf()
        raise ValueError("expected")

    fake.leaf, fake.mid, fake.top, fake.bad = leaf, mid, top, bad
    monkeypatch.setitem(sys.modules, "orbitfactor.fake", fake)
    recorder = spans.Recorder(names=["fake.top", "fake.mid", "fake.leaf", "fake.bad"])
    recorder.install()
    recorder.enabled = True
    try:
        with recorder.root():
            clock.work(8)
            fake.top()
        with pytest.raises(ValueError), recorder.root():
            fake.bad()
    finally:
        recorder.uninstall()
    assert fake.leaf is leaf
    got = {name: (entry["calls"], entry["self_s"], entry["errors"])
           for name, entry in recorder.summary()["spans"].items()}
    assert got == {spans.ROOT: (2, 8.0, 1), "fake.top": (1, 4.0, 0), "fake.mid": (1, 2.0, 0),
                   "fake.leaf": (4, 4.0, 0), "fake.bad": (1, 16.0, 1)}


def test_self_times_sum_to_traced_wall():
    plain = worker("sweep", "run")
    traced = worker("sweep", "trace")
    wall = sum(traced["latencies"])
    overhead = wall / sum(plain["latencies"]) - 1
    entries = traced["summary"]["spans"].values()
    assert all(entry["self_s"] >= 0 for entry in entries)
    total_self = sum(entry["self_s"] for entry in entries)
    assert traced["summary"]["spans"][spans.ROOT]["calls"] == traced["attempted"]
    assert abs(total_self - wall) <= max(overhead, 0.01) * wall


def test_call_counts_repeat_across_traced_runs():
    def counts(report):
        return {name: (entry["calls"], entry["errors"])
                for name, entry in report["summary"]["spans"].items()}

    first, second = worker("sweep", "trace"), worker("sweep", "trace")
    assert counts(first) == counts(second)
    assert first["summary"]["repeats"] == second["summary"]["repeats"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert set(workloads.OP_LISTS) == set(run.WORKLOADS)
