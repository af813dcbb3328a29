"""A stacked batch's column checksums equal the replayed runs', bit for bit.

The stacked campaign strategy lays a batch of runs along a trailing
axis of one buffer pair and reduces every run's checksum itself; a
replayed run's protector reduces its own interior with
``Backend.checksum``.  Records agree only if the two reductions agree in
every bit: a checksum that differs in its last bit can decide a
detection near epsilon differently.  A batch reduces in one call over
the merged last and run axes of its own pair.  Each case runs 11 runs
in batches of 8, so a batch of 8 and a narrower final batch of 3, each
on a pair of its width, are both pinned.  Float64 domains fold in
float64 with either checksum dtype; float32 domains, the paper's, take
the float32-to-float64 and the float32-to-float32 folds.
"""

import numpy as np
import pytest

from conftest import COMPUTE_PATHS

import repro.faults.engine as engine_mod
from repro.experiments.common import make_protector_factory
from repro.faults.campaign import (
    CampaignConfig,
    compute_reference,
    draw_fault_plans,
)
from repro.faults.engine import CampaignEngine
from repro.faults.injector import FaultInjector
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D, Grid3D
from repro.stencil.kernels import five_point_diffusion, seven_point_diffusion_3d

ITERATIONS = 6
REPETITIONS = 11
BATCH = 8


class _GridFactory:
    """Builds the same domain of ``dtype`` for every run."""

    def __init__(self, shape, dtype=np.float64):
        self.shape = tuple(shape)
        self.u0 = (np.random.default_rng(5).random(self.shape) * 100.0).astype(dtype)

    def __call__(self):
        if len(self.shape) == 2:
            spec = five_point_diffusion(0.2)
            cls = Grid2D
        else:
            spec = seven_point_diffusion_3d(0.1)
            cls = Grid3D
        return cls(self.u0, spec, BoundaryCondition.clamp())


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype, a.shape, a.tobytes()


def _stacked_checksums(grid_factory, protector_factory, config, monkeypatch):
    """Per batch: the t=0 seed and every step's computed checksum."""
    seeds, computed = [], []
    interpolate = engine_mod._interpolate_stacked
    screen = engine_mod._detection_screen

    def spy_interpolate(prev_cs, *args, **kwargs):
        if len(computed) % ITERATIONS == 0:
            seeds.append(prev_cs.copy())
        return interpolate(prev_cs, *args, **kwargs)

    def spy_screen(cs, predicted, epsilon):
        computed.append(cs.copy())
        return screen(cs, predicted, epsilon)

    monkeypatch.setattr(engine_mod, "_interpolate_stacked", spy_interpolate)
    monkeypatch.setattr(engine_mod, "_detection_screen", spy_screen)
    reference = compute_reference(grid_factory, ITERATIONS)
    with CampaignEngine(executor="serial", batch_size=BATCH) as engine:
        result = engine.run(
            grid_factory, protector_factory, config, reference=reference
        )
    monkeypatch.undo()
    assert result.strategy_counts() == {"stacked": REPETITIONS}
    assert [b.width for b in result.batch_strategies] == [8, 3]
    return seeds, computed


def _replayed_checksums(grid_factory, protector_factory, plans, monkeypatch):
    """One run replayed alone: its seed and every step's computed checksum."""
    grid = grid_factory()
    protector = protector_factory(grid)
    computed = []
    process = protector.process

    def spy_process(u_new, *args, **kwargs):
        # The reduction process() makes of the new step before it
        # interpolates, detects or corrects anything.
        computed.append(protector._checksum(u_new, 0))
        return process(u_new, *args, **kwargs)

    monkeypatch.setattr(protector, "process", spy_process)
    seed = protector._checksum(grid.u, 0)
    protector.run(grid, ITERATIONS, inject=FaultInjector(plans, protector))
    monkeypatch.undo()
    assert len(computed) == ITERATIONS
    return seed, computed


@pytest.mark.parametrize("backend", COMPUTE_PATHS, indirect=True)
@pytest.mark.parametrize("checksum_dtype", [np.float64, None])
@pytest.mark.parametrize(
    "shape, dtype",
    [
        ((16, 64), np.float64),
        ((12, 10, 9), np.float64),
        ((16, 64), np.float32),
        ((12, 10, 9), np.float32),
    ],
    ids=["2d-column", "3d-column", "2d-column-float32", "3d-column-float32"],
)
def test_stacked_checksums_match_replay_bitwise(
    shape, dtype, checksum_dtype, backend, monkeypatch
):
    grid_factory = _GridFactory(shape, dtype)
    protector_factory = make_protector_factory(
        "online-abft", epsilon=1e-5, checksum_dtype=checksum_dtype
    )
    config = CampaignConfig(
        iterations=ITERATIONS, repetitions=REPETITIONS, seed=31
    )
    seeds, computed = _stacked_checksums(
        grid_factory, protector_factory, config, monkeypatch
    )
    plans = draw_fault_plans(config, shape, dtype)
    for run in range(REPETITIONS):
        batch, slot = divmod(run, BATCH)
        seed, steps = _replayed_checksums(
            grid_factory, protector_factory, plans[run], monkeypatch
        )
        assert _bits(seeds[batch][..., slot]) == _bits(seed), f"run {run} seed"
        for t, replayed in enumerate(steps):
            stacked = computed[batch * ITERATIONS + t][..., slot]
            assert _bits(stacked) == _bits(replayed), f"run {run} step {t + 1}"
