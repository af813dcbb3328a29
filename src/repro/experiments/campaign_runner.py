"""Campaign execution shared by the Figure 8 and Figure 9 experiments.

Both figures are produced from the same set of campaigns: for every tile
size, every method (No-ABFT / Online / Offline) is run once in an
error-free scenario and once with a single random bit-flip per run.
Figure 8 reads the execution-time statistics of those campaigns and
Figure 9 reads the arithmetic-error statistics.

The campaigns execute on a :class:`~repro.faults.engine.CampaignEngine`
(persistent workers, in-place grid reset, batched dispatch), so the
executor selected for the process (``--executor`` / ``REPRO_EXECUTOR``)
parallelises the Monte Carlo repetitions; records are bitwise-identical
to the legacy serial loop for every executor and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.experiments.common import (
    METHODS,
    EvaluationScale,
    make_hotspot_app,
    make_protector_factory,
)
from repro.faults.campaign import CampaignConfig, CampaignResult
from repro.faults.engine import CampaignEngine

__all__ = ["SCENARIOS", "TileCampaigns", "run_tile_campaigns"]

#: The two execution scenarios of Figures 8 and 9.
SCENARIOS: Tuple[str, ...] = ("error-free", "single-bit-flip")


@dataclass
class TileCampaigns:
    """All (method, scenario) campaigns for one tile size."""

    tile_size: Tuple[int, int, int]
    iterations: int
    repetitions: int
    campaigns: Dict[Tuple[str, str], CampaignResult] = field(default_factory=dict)

    def get(self, method: str, scenario: str) -> CampaignResult:
        return self.campaigns[(method, scenario)]


def run_tile_campaigns(
    scale: EvaluationScale,
    tile: Tuple[int, int, int],
    seed: int = 0,
    engine: Optional[CampaignEngine] = None,
) -> TileCampaigns:
    """Run the error-free and bit-flip campaigns of every method on a tile.

    The error-free reference solution is computed once and reused across
    all campaigns of the tile so that arithmetic errors are comparable.
    An ``engine`` may be shared across calls to keep one worker pool
    alive for a whole experiment; when omitted a private engine
    (following the process-wide executor selection) is created and shut
    down around the call.
    """
    iterations = scale.iterations[tile]
    repetitions = scale.repetitions[tile]
    app = make_hotspot_app(tile)
    reference = app.reference_solution(iterations)
    result = TileCampaigns(
        tile_size=tile, iterations=iterations, repetitions=repetitions
    )

    with CampaignEngine.shared(engine) as eng:
        for method in METHODS:
            if method == "offline-abft":
                factory = make_protector_factory(
                    method, epsilon=scale.epsilon, period=scale.period
                )
            else:
                factory = make_protector_factory(method, epsilon=scale.epsilon)
            for scenario in SCENARIOS:
                config = CampaignConfig(
                    iterations=iterations,
                    repetitions=repetitions,
                    inject=(scenario == "single-bit-flip"),
                    seed=seed,
                )
                # Figure 8 reads these campaigns' *per-run time
                # distributions*, so every method must be timed the same
                # way: force the replay strategy (one timed run at a
                # time on persistent state) instead of letting eligible
                # methods take the stacked batch, whose per-run elapsed
                # is only the batch mean.
                campaign = eng.run(
                    app.build_grid, factory, config, reference=reference,
                    strategy="replay",
                )
                result.campaigns[(method, scenario)] = campaign
    return result
