"""Offline-ABFT campaigns on the stacked path: stacked ≡ replay ≡ legacy.

A stacked batch records every run's boundary strips in one call per
iteration and, at each window end, replays every run's checksum through
the window in checksum space, screens the batch once and hands a
flagged run's window to the library protector, which re-runs it from
the run's checkpoint (rollbacks included).  Every record field must
equal the legacy loop's and the replay strategy's, bit for bit, over 2D
and 3D grids, every boundary kind, both dtypes, periods with a short
last window, full and narrower batches, runs without strips, and flips
that share a window, strike consecutive windows, the first and the last
iteration, or turn a value into inf or NaN.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.offline import OfflineABFT
from repro.experiments.common import make_hotspot_app, make_protector_factory
from repro.faults.campaign import CampaignConfig, draw_fault_plans, run_campaign
from repro.faults.engine import CampaignEngine
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.models import FaultModel
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.grid import Grid2D, Grid3D
from repro.stencil.kernels import five_point_diffusion, seven_point_diffusion_3d

REPETITIONS = 5


@dataclass(frozen=True)
class _Flips(FaultModel):
    """One plan per ``(iteration, bit)`` of ``flips``, at a drawn index."""

    flips: Tuple[Tuple[int, int], ...] = ()

    name = "flips"

    def draw(self, rng, shape, iterations, dtype=np.float32):
        return [
            FaultPlan(iteration, tuple(int(rng.integers(0, n)) for n in shape), bit)
            for iteration, bit in self.flips
        ]


_BOUNDARIES = {
    "clamp": lambda ndim: BoundaryCondition.clamp(),
    "periodic": lambda ndim: BoundaryCondition.periodic(),
    "zero": lambda ndim: BoundaryCondition.zero(),
    # A constant fill on y: the checksum-space replay scales it by nx.
    "constant": lambda ndim: BoundarySpec(
        (BoundaryCondition.clamp(), BoundaryCondition.constant(40.0))
        + (BoundaryCondition.clamp(),) * (ndim - 2)
    ),
}


@dataclass(frozen=True)
class _GridFactory:
    ndim: int
    boundary: str
    dtype: type
    values: Tuple[float, float]

    def __call__(self):
        shape = (12, 10) if self.ndim == 2 else (10, 8, 3)
        low, high = self.values
        u0 = low + np.random.default_rng(6).random(shape) * (high - low)
        boundary = _BOUNDARIES[self.boundary](self.ndim)
        if self.ndim == 2:
            return Grid2D(u0.astype(self.dtype), five_point_diffusion(0.2), boundary)
        return Grid3D(
            u0.astype(self.dtype), seven_point_diffusion_3d(0.1), boundary
        )


@dataclass(frozen=True)
class Case:
    ndim: int
    boundary: str
    dtype: type
    period: int
    iterations: int
    track_strips: bool
    #: ``None`` stacks all runs in one batch; 3 leaves a narrower last one.
    batch_size: object
    flips: Tuple[Tuple[int, int], ...]
    #: The initial values' range.  In [1, 2) a float32's exponent is
    #: 127, so flipping its bit 30 makes it NaN (or inf).
    values: Tuple[float, float] = (0.0, 100.0)


@st.composite
def cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    iterations = draw(st.integers(5, 20))
    high = (20, 23, 27, 30, 31) if dtype is np.float32 else (40, 52, 60, 62, 63)
    flips = draw(st.lists(
        st.tuples(st.integers(1, iterations), st.sampled_from(high)),
        min_size=1, max_size=3,
    ))
    return Case(
        ndim=draw(st.sampled_from([2, 3])),
        boundary=draw(st.sampled_from(sorted(_BOUNDARIES))),
        dtype=dtype,
        period=draw(st.sampled_from([1, 3, 4, 16])),
        iterations=iterations,
        track_strips=draw(st.booleans()),
        batch_size=draw(st.sampled_from([None, 3])),
        flips=tuple(flips),
        values=draw(st.sampled_from([(0.0, 100.0), (1.0, 1.9)])),
    )


def record_key(record):
    """Every record field but the elapsed time (the error by its repr,
    so a NaN error equals a NaN error)."""
    return (
        record.run_index,
        repr(record.arithmetic_error),
        record.errors_detected,
        record.errors_corrected,
        record.errors_uncorrected,
        record.rollbacks,
        record.recomputed_iterations,
        tuple((p.iteration, p.index, p.bit) for p in record.faults),
        record.ranks_rebuilt,
        record.checkpoint_bytes,
    )


def _records(result):
    return [record_key(r) for r in result.records]


# A NaN domain makes NumPy warn as it sums; the records still compare.
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=40)
@given(case=cases())
# Two flips in one window, and one in the next.
@example(case=Case(
    3, "clamp", np.float32, 4, 10, True, None, ((5, 27), (6, 30), (9, 31))
))
# A flip at iteration 1 and at the last iteration, in a short last window.
@example(case=Case(2, "periodic", np.float32, 3, 10, True, 3, ((1, 30), (10, 27))))
# NaN from bit 30, and bit 31, without strips, every step a window.
@example(case=Case(
    3, "clamp", np.float32, 1, 6, False, 3, ((2, 30), (4, 31)), (1.0, 1.9)
))
# Bits 30 and 31 of larger values, on zero borders.
@example(case=Case(3, "zero", np.float32, 1, 6, False, 3, ((2, 30), (4, 31))))
# Flips in consecutive windows of a constant border, float64.
@example(case=Case(
    3, "constant", np.float64, 4, 13, True, None, ((4, 62), (5, 60), (13, 52))
))
# One short window (the period is longer than the run).
@example(case=Case(2, "clamp", np.float64, 16, 11, True, 3, ((3, 62),)))
def test_stacked_offline_equals_replay_and_legacy(case):
    grid_factory = _GridFactory(case.ndim, case.boundary, case.dtype, case.values)

    def protector_factory(grid):
        return OfflineABFT.for_grid(
            grid, period=case.period, track_strips=case.track_strips
        )

    config = CampaignConfig(
        iterations=case.iterations, repetitions=REPETITIONS, seed=case.period,
        fault_model=_Flips(case.flips),
    )
    legacy = run_campaign(grid_factory, protector_factory, config)
    with CampaignEngine(executor="serial", batch_size=case.batch_size) as engine:
        stacked = engine.run(grid_factory, protector_factory, config)
        replay = engine.run(
            grid_factory, protector_factory, config, strategy="replay"
        )
    assert stacked.strategy_counts() == {"stacked": REPETITIONS}
    assert _records(stacked) == _records(legacy)
    assert _records(replay) == _records(legacy)


@pytest.mark.parametrize("period", [3, 4])
def test_offline_step_runs_only_in_flagged_windows(period, monkeypatch):
    """The stacked batch steps a run through ``OfflineABFT.step`` only in
    the windows whose end the run's own protector flags: one call per
    iteration of each such window, and none elsewhere."""
    app = make_hotspot_app((16, 16, 4))
    iterations = 10
    reference = app.reference_solution(iterations)
    factory = make_protector_factory("offline-abft", period=period)
    config = CampaignConfig(iterations=iterations, repetitions=8, seed=40)

    flagged = 0
    for plans in draw_fault_plans(config, (16, 16, 4), np.float32):
        grid = app.build_grid()
        protector = factory(grid)
        report = protector.run(grid, iterations, FaultInjector(plans, protector))
        start = 0
        for step in report.steps:
            if step.detection_performed:
                if step.errors_detected:
                    flagged += step.iteration - start
                start = step.iteration

    calls = []
    step = OfflineABFT.step

    def spy(self, grid, inject=None):
        calls.append(grid.iteration)
        return step(self, grid, inject=inject)

    with CampaignEngine(executor="serial") as engine:
        # The first campaign builds the worker state, whose warm-up
        # steps the protector.
        engine.run(app.build_grid, factory, config, reference=reference)
        monkeypatch.setattr(OfflineABFT, "step", spy)
        result = engine.run(app.build_grid, factory, config, reference=reference)
    assert result.strategy_counts() == {"stacked": 8}
    assert sum(r.rollbacks for r in result.records) > 0
    assert flagged > 0
    assert len(calls) == flagged
