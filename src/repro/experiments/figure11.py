"""Figure 11 — impact of the detection period Δ on the Offline ABFT cost.

The paper sweeps the offline detection/checkpoint period from 1 to 128
iterations and reports the mean execution time in the error-free and
single-bit-flip scenarios. The expected shape:

* very small periods are slow (checkpointing and detection every
  iteration or two dominates);
* large periods amortise the checkpoint cost, but in the error-prone
  scenario the recomputation window grows with Δ, so the bit-flip curve
  rises again for large periods;
* a period around 8-16 iterations is the sweet spot for HotSpot3D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.experiments.common import (
    EvaluationScale,
    make_hotspot_app,
    make_protector_factory,
)
from repro.experiments.report import format_seconds, format_table
from repro.faults.campaign import CampaignConfig
from repro.faults.engine import CampaignEngine

__all__ = ["Figure11Point", "Figure11Result", "run_figure11", "format_figure11"]


@dataclass(frozen=True)
class Figure11Point:
    """One point of a Figure 11 curve."""

    tile_size: Tuple[int, int, int]
    scenario: str
    period: int
    mean_time: float
    std_time: float
    rollbacks: int


@dataclass
class Figure11Result:
    """Both curves (error-free / bit-flip) for every evaluated tile."""

    scale_name: str
    points: List[Figure11Point] = field(default_factory=list)

    def curve(self, tile, scenario: str) -> List[Figure11Point]:
        return sorted(
            (
                p
                for p in self.points
                if p.tile_size == tuple(tile) and p.scenario == scenario
            ),
            key=lambda p: p.period,
        )

    def best_period(self, tile, scenario: str) -> int:
        """The detection period with the lowest mean time."""
        curve = self.curve(tile, scenario)
        if not curve:
            raise KeyError((tile, scenario))
        return min(curve, key=lambda p: p.mean_time).period


def run_figure11(
    scale: EvaluationScale | None = None,
) -> Figure11Result:
    """Regenerate Figure 11 at the requested scale.

    Every (period, scenario) campaign runs on one shared
    :class:`CampaignEngine`.  The curves are the mean and spread of
    *per-run* times, so every campaign forces the replay strategy, as
    Figure 8's do: each run is timed alone on a persistent worker-owned
    grid reset in place between runs (no per-run construction cost),
    whereas a stacked batch, which offline ABFT could take, reports
    only its batch mean.
    """
    scale = scale if scale is not None else EvaluationScale.quick()
    tile = scale.primary_tile()
    iterations = scale.iterations[tile]
    repetitions = scale.repetitions[tile]
    app = make_hotspot_app(tile)
    reference = app.reference_solution(iterations)
    result = Figure11Result(scale_name=scale.name)
    with CampaignEngine() as eng:
        for period in scale.detection_periods:
            if period > iterations:
                continue
            factory = make_protector_factory(
                "offline-abft", epsilon=scale.epsilon, period=period
            )
            for scenario, inject in (
                ("error-free", False), ("single-bit-flip", True)
            ):
                config = CampaignConfig(
                    iterations=iterations,
                    repetitions=repetitions,
                    inject=inject,
                    seed=500 + period,
                )
                campaign = eng.run(
                    app.build_grid, factory, config, reference=reference,
                    strategy="replay",
                )
                stats = campaign.time_stats()
                result.points.append(
                    Figure11Point(
                        tile_size=tile,
                        scenario=scenario,
                        period=period,
                        mean_time=stats.mean,
                        std_time=stats.std,
                        rollbacks=campaign.total_rollbacks(),
                    )
                )
    return result


def format_figure11(result: Figure11Result) -> str:
    """Render the Figure 11 curves as a text table."""
    headers = ["Tile", "Scenario", "Period Δ", "Mean time", "Std", "Rollbacks"]
    rows = []
    for p in sorted(result.points, key=lambda p: (p.tile_size, p.scenario, p.period)):
        rows.append(
            [
                "x".join(str(v) for v in p.tile_size),
                p.scenario,
                str(p.period),
                format_seconds(p.mean_time),
                format_seconds(p.std_time),
                str(p.rollbacks),
            ]
        )
    return format_table(
        headers,
        rows,
        title=f"Figure 11 — Offline ABFT vs detection period ({result.scale_name} scale)",
    )
