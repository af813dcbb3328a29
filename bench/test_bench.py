"""Tests of the benchmark itself: ``python -m pytest bench -q``.

The workloads run with tiny op counts here (``seconds=0``, one round,
two-run campaign chunks), so these tests check behaviour, not speed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from bench import ROOT, layers, workloads
from bench.compare import verdict
from bench.run import end_to_end_metrics
from bench.trace import Function, Method, Tracer
from repro.faults.bitflip import flip_bit_in_array
from repro.faults.engine import CampaignEngine
from repro.parallel.simmpi import DistributedStencilRunner

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = {"seconds": 0.0, "min_rounds": 1}


def _run(name: str):
    kwargs = dict(TINY, runs=2) if name == "campaign" else TINY
    return workloads.WORKLOADS[name](seed=3, **kwargs)


# -- workloads ------------------------------------------------------------------
def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_every_end_to_end_metric(name):
    result = _run(name)
    metrics = end_to_end_metrics(result)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in metrics.values()), metrics
    assert result.attempted > 0
    assert result.failed == 0, result.failures


def _corrupt_after(monkeypatch, owner, name, corrupt):
    original = getattr(owner, name)

    def patched(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        corrupt(self)
        return out

    monkeypatch.setattr(owner, name, patched)


def test_hotspot3d_check_catches_a_diverged_state(monkeypatch):
    from repro.core.online import OnlineABFT

    original = OnlineABFT.step

    def step(self, grid, inject=None):
        report = original(self, grid, inject)
        flip_bit_in_array(grid.u, (1, 2, 3), 3)
        return report

    monkeypatch.setattr(OnlineABFT, "step", step)
    result = _run("hotspot3d")
    assert result.failed > 0
    assert any("op" in message for message in result.failures)


def test_ranks4_check_catches_a_diverged_rank(monkeypatch):
    def corrupt(runner):
        if runner.ranks[0].protector is not None:
            flip_bit_in_array(runner.ranks[0].interior, (0, 0), 5)

    _corrupt_after(monkeypatch, DistributedStencilRunner, "step", corrupt)
    assert _run("ranks4").failed > 0


def test_crash_check_catches_a_diverged_recovery(monkeypatch):
    def corrupt(runner):
        if runner.recovery.ranks_rebuilt:
            flip_bit_in_array(runner.ranks[0].interior, (0, 0), 5)

    _corrupt_after(monkeypatch, DistributedStencilRunner, "run", corrupt)
    result = _run("crash")
    assert result.failed > 0
    assert any("failure-free" in message for message in result.failures)


def test_crash_check_catches_mismatched_counters(monkeypatch):
    original = DistributedStencilRunner.total_detected
    monkeypatch.setattr(
        DistributedStencilRunner, "total_detected",
        lambda self: original(self) + (1 if self.recovery.ranks_rebuilt else 0),
    )
    result = _run("crash")
    assert result.failed > 0
    assert any("detected/corrected" in message for message in result.failures)


def test_campaign_check_catches_an_imprecise_run(monkeypatch):
    original = CampaignEngine.run

    def run(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        for record in result.records:
            record.arithmetic_error = 2.0 * workloads.TOLERANCE
        return result

    monkeypatch.setattr(CampaignEngine, "run", run)
    result = _run("campaign")
    # Every run of every leg fails: ref must be exact, op/alt within tolerance.
    assert result.failed == result.attempted > 0


def test_bitwise_equal_sees_sign_of_zero_and_nan_payloads():
    a = np.array([0.0, np.nan], dtype=np.float32)
    assert workloads.bitwise_equal(a, a.copy())
    assert not workloads.bitwise_equal(a, np.array([-0.0, np.nan], dtype=np.float32))


# -- tracer -------------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.work`` defines the traced functions; ``fakepkg.user``
    imports one of them by name, like ``from x import f`` does."""
    clock = FakeClock()
    work = types.ModuleType("fakepkg.work")

    def leaf(dt):
        clock.advance(dt)

    def inner():
        clock.advance(1.0)
        work.leaf(2.0)
        work.leaf(3.0)

    def outer():
        clock.advance(10.0)
        work.inner()
        clock.advance(4.0)
        return "done"

    def recursive(n):
        clock.advance(1.0)
        if n:
            work.recursive(n - 1)

    work.leaf, work.inner, work.outer, work.recursive = leaf, inner, outer, recursive
    user = types.ModuleType("fakepkg.user")
    user.leaf = leaf
    package = types.ModuleType("fakepkg")
    for name, module in (("fakepkg", package), ("fakepkg.work", work),
                         ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    spans = {
        "outer": [Function("fakepkg.work", "outer")],
        "inner": [Function("fakepkg.work", "inner")],
        "leaf": [Function("fakepkg.work", "leaf")],
        "recursive": [Function("fakepkg.work", "recursive")],
    }
    return Tracer(spans, package="fakepkg", clock=clock), work, user, clock


def test_tracer_self_time_of_nested_calls(fake_package):
    tracer, work, _, clock = fake_package
    with tracer, tracer.op("leg.op"):
        assert work.outer() == "done"
        clock.advance(0.5)
    assert tracer.calls == {"leg.op": 1, "outer": 1, "inner": 1, "leaf": 2}
    assert tracer.total_time["outer"] == 20.0
    assert tracer.self_time["outer"] == 14.0
    assert tracer.self_time["inner"] == 1.0
    assert tracer.self_time["leaf"] == 5.0
    assert tracer.self_time["leg.op"] == 0.5
    assert sum(tracer.self_time.values()) == tracer.total_time["leg.op"]
    by_name = {record[0]: record for record in tracer.records}
    assert tracer.records[by_name["inner"][3]][0] == "outer"
    assert all(record[4] == 0 for record in tracer.records)


def test_tracer_folds_reentry_and_ignores_calls_outside_ops(fake_package):
    tracer, work, user, clock = fake_package
    with tracer:
        work.outer()  # outside any op: not recorded
        assert not tracer.records
        with tracer.op("leg.op"):
            work.recursive(3)
            user.leaf(1.0)  # the by-name copy is patched too
    assert tracer.calls["recursive"] == 1
    assert tracer.self_time["recursive"] == 4.0
    assert tracer.calls["leaf"] == 1


def test_tracer_restores_every_patched_attribute(fake_package):
    tracer, work, user, _ = fake_package
    before = dict(vars(work)), dict(vars(user))
    with tracer:
        assert work.leaf is not before[0]["leaf"] and user.leaf is work.leaf
    assert dict(vars(work)) == before[0] and dict(vars(user)) == before[1]
    assert all(vars(work)[k] is v for k, v in before[0].items())


def test_library_tracer_patches_every_lookup_site_and_restores_it():
    import repro.core.interpolation as interpolation
    import repro.core.online as online
    import repro.parallel.simmpi as simmpi
    from repro.backends.base import Backend
    from repro.backends.fused import FusedBackend

    def snapshot():
        return {
            (holder, name): value
            for holder in (interpolation, online, simmpi)
            for name, value in vars(holder).items()
        } | {
            (cls, name): value
            for cls in (Backend, FusedBackend, DistributedStencilRunner)
            for name, value in vars(cls).items()
        }

    before = snapshot()
    tracer = layers.make_tracer()
    with tracer:
        assert online.interpolate_checksum_padded is interpolation.interpolate_checksum_padded
        assert online.interpolate_checksum_padded is not before[
            (interpolation, "interpolate_checksum_padded")]
        assert simmpi.ingest_halo is not before[(simmpi, "ingest_halo")]
        assert FusedBackend.__dict__["sweep_into"] is not before[(FusedBackend, "sweep_into")]
        assert Backend.__dict__["sweep_into"] is not before[(Backend, "sweep_into")]
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_every_span_has_targets_and_metrics_are_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    for span, targets in layers.SPANS.items():
        assert targets
        assert {f"{span}.calls", f"{span}.self_pct"} <= declared
    for workload, spans in layers.EXPECTED_SPANS.items():
        assert set(spans) <= set(layers.SPANS), workload


def test_traced_run_reports_every_per_layer_metric():
    tracer = layers.make_tracer()
    # Rounds 0-15 reach the checkpoint at step 16, which lands on a traced round.
    result = workloads.ranks4(seed=3, seconds=0.0, min_rounds=16, tracer=tracer)
    assert not tracer.installed
    assert layers.missing_spans("ranks4", tracer) == []
    metrics = layers.per_layer_metrics(result, tracer)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["parallel.halo.ingest.calls"] == 2 * 4 * 3
    assert metrics["trace.coverage_pct"] > 90.0


# -- compare and the command line -----------------------------------------------
def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(steady, [v * 1.05 for v in steady], 0.1, "lower") == "ok"
    assert verdict(steady, [v * 1.2 for v in steady], 0.1, "lower") == "regressed"
    assert verdict(steady, [v * 1.2 for v in steady], 0.1, "higher") == "ok"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert verdict(steady, noisy, 0.1, "lower") == "unresolved"
    assert verdict(noisy, [1.0, 1.1, 1.2, 4.9], 0.1, "lower") == "ok"


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hotspot3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
