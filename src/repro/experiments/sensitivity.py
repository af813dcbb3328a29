"""Detection-sensitivity experiment (Sections 2 and 3.4 claims).

The paper claims its ABFT detector "accurately detects and corrects
errors with a magnitude above 1e-5, independently of the simulated
phenomenon" and "does not raise any false-positives", whereas the
multivariate-interpolation detector it compares against only reaches
magnitudes above ~1e-2. This experiment quantifies both claims: a
relative perturbation of controlled magnitude is injected into one
domain point and the detection rate of the ABFT detector and of the
spatial-interpolation baseline are measured, together with their
false-positive rates on clean runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.baselines.spatial_detector import SpatialInterpolationDetector
from repro.experiments.common import (
    EvaluationScale,
    make_hotspot_app,
    make_protector_factory,
)
from repro.experiments.report import format_scientific, format_table
from repro.faults.campaign import CampaignConfig
from repro.faults.engine import CampaignEngine

__all__ = [
    "SensitivityPoint",
    "SensitivityResult",
    "run_sensitivity",
    "format_sensitivity",
]

#: Relative perturbation magnitudes swept by the experiment.
DEFAULT_MAGNITUDES: Tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


@dataclass(frozen=True)
class SensitivityPoint:
    """Detection rate of one detector at one perturbation magnitude."""

    detector: str
    magnitude: float
    detection_rate: float
    runs: int


@dataclass
class SensitivityResult:
    """Detection-rate curves plus false-positive rates on clean runs."""

    scale_name: str
    tile_size: Tuple[int, int, int]
    points: List[SensitivityPoint] = field(default_factory=list)
    false_positive_rates: dict = field(default_factory=dict)

    def curve(self, detector: str) -> List[SensitivityPoint]:
        return sorted(
            (p for p in self.points if p.detector == detector),
            key=lambda p: -p.magnitude,
        )

    def smallest_detected_magnitude(self, detector: str, threshold: float = 0.99) -> float:
        """Smallest magnitude at which the detector still catches >=threshold."""
        detected = [
            p.magnitude for p in self.curve(detector) if p.detection_rate >= threshold
        ]
        return min(detected) if detected else float("nan")


class _RelativePerturbation:
    """Inject hook: multiply one point by (1 + magnitude) at one iteration."""

    def __init__(self, iteration: int, index, magnitude: float) -> None:
        self.iteration = int(iteration)
        self.index = tuple(int(i) for i in index)
        self.magnitude = float(magnitude)
        self.fired = False

    def __call__(self, grid, iteration: int) -> None:
        if self.fired or iteration != self.iteration:
            return
        grid.u[self.index] *= 1.0 + self.magnitude
        self.fired = True


@dataclass(frozen=True)
class _SpatialDetectorFactory:
    """Picklable per-run factory for the spatial-interpolation baseline."""

    def __call__(self, grid) -> SpatialInterpolationDetector:
        return SpatialInterpolationDetector(correct=False)


class _PerturbationHookFactory:
    """Draws one perturbation hook per run from the experiment's RNG.

    Called by the engine in run order, in the parent process, so the
    draws consume the shared generator in exactly the sequence the
    explicit per-run loop used.
    """

    def __init__(self, rng, shape, iterations: int, magnitude: float) -> None:
        self.rng = rng
        self.shape = tuple(shape)
        self.iterations = int(iterations)
        self.magnitude = float(magnitude)

    def __call__(self, run_index: int) -> _RelativePerturbation:
        iteration = int(self.rng.integers(1, self.iterations + 1))
        index = tuple(int(self.rng.integers(0, n)) for n in self.shape)
        return _RelativePerturbation(iteration, index, self.magnitude)


def run_sensitivity(
    scale: EvaluationScale | None = None,
    magnitudes: Tuple[float, ...] = DEFAULT_MAGNITUDES,
    runs_per_magnitude: int = 8,
    engine: CampaignEngine | None = None,
) -> SensitivityResult:
    """Measure detection rate vs. perturbation magnitude for both detectors.

    The clean runs and every magnitude's perturbed runs execute as
    campaigns on a shared :class:`CampaignEngine`; the custom
    perturbation hooks take the engine's replay strategy, so each worker
    reuses one persistent grid/detector pair across the whole sweep.
    """
    scale = scale if scale is not None else EvaluationScale.quick()
    tile = scale.primary_tile()
    iterations = scale.iterations[tile]
    app = make_hotspot_app(tile)
    reference = app.reference_solution(iterations)
    result = SensitivityResult(scale_name=scale.name, tile_size=tile)

    detectors = {
        "abft-online": make_protector_factory(
            "online-abft", epsilon=scale.epsilon
        ),
        "spatial-interpolation": _SpatialDetectorFactory(),
    }

    rng = np.random.default_rng(4242)
    with CampaignEngine.shared(engine) as eng:
        for name, factory in detectors.items():
            # False positives on clean runs.
            clean_runs = max(2, runs_per_magnitude // 2)
            clean_config = CampaignConfig(
                iterations=iterations, repetitions=clean_runs, inject=False
            )
            clean = eng.run(
                app.build_grid, factory, clean_config, reference=reference
            )
            clean_flags = sum(1 for r in clean.records if r.detected)
            result.false_positive_rates[name] = clean_flags / clean_runs

            # Detection rate per magnitude.
            for magnitude in magnitudes:
                config = CampaignConfig(
                    iterations=iterations,
                    repetitions=runs_per_magnitude,
                    inject=False,
                )
                campaign = eng.run(
                    app.build_grid,
                    factory,
                    config,
                    reference=reference,
                    hook_factory=_PerturbationHookFactory(
                        rng, app.shape, iterations, magnitude
                    ),
                )
                detected = sum(1 for r in campaign.records if r.detected)
                result.points.append(
                    SensitivityPoint(
                        detector=name,
                        magnitude=magnitude,
                        detection_rate=detected / runs_per_magnitude,
                        runs=runs_per_magnitude,
                    )
                )
    return result


def format_sensitivity(result: SensitivityResult) -> str:
    """Render the sensitivity curves as a text table."""
    headers = ["Detector", "Perturbation", "Detection rate", "Runs"]
    rows = []
    for p in sorted(result.points, key=lambda p: (p.detector, -p.magnitude)):
        rows.append(
            [
                p.detector,
                format_scientific(p.magnitude, 1),
                f"{100 * p.detection_rate:.0f}%",
                str(p.runs),
            ]
        )
    fp = ", ".join(
        f"{name}: {100 * rate:.0f}%" for name, rate in result.false_positive_rates.items()
    )
    table = format_table(
        headers,
        rows,
        title=f"Detection sensitivity ({result.scale_name} scale)",
    )
    return table + f"\nFalse-positive rate on clean runs: {fp}"
