"""Table 1 — overview of the main experimental parameters.

The paper's Table 1 lists, per tile size, the number of stencil
iterations, the number of experiment repetitions, the error-detection
threshold and the offline detection period. This module emits the same
table for any :class:`~repro.experiments.common.EvaluationScale`, so the
scaled-down campaign and the paper-scale campaign are documented with
the same code.

With ``measure_throughput=True`` the table also reports the measured
campaign throughput (runs/second of the online-ABFT bit-flip campaign)
per tile, timed on the :class:`~repro.faults.engine.CampaignEngine` —
the number that tells a reader how long the listed repetition counts
actually take on their machine.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import EvaluationScale, make_hotspot_app, make_protector_factory
from repro.experiments.report import format_table
from repro.faults.campaign import CampaignConfig
from repro.faults.engine import CampaignEngine

__all__ = ["Table1Row", "Table1Result", "run_table1", "format_table1"]

#: Repetition cap for the optional throughput measurement: enough runs
#: to amortise the engine's one-off state construction, few enough that
#: ``--measure-throughput`` stays interactive at every scale.
_THROUGHPUT_MAX_RUNS = 12


@dataclass(frozen=True)
class Table1Row:
    """One parameter column of Table 1 (one per tile size)."""

    tile_size: Tuple[int, int, int]
    iterations: int
    repetitions: int
    epsilon: float
    offline_period: int
    #: Measured online-ABFT campaign throughput (runs/second) on the
    #: campaign engine; ``None`` unless the caller asked to measure.
    runs_per_second: Optional[float] = None


@dataclass
class Table1Result:
    """All parameter columns plus the scale they were generated from."""

    scale_name: str
    rows: List[Table1Row] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        out: Dict[str, Dict[str, object]] = {}
        for row in self.rows:
            key = "x".join(str(v) for v in row.tile_size)
            out[key] = {
                "iterations": row.iterations,
                "repetitions": row.repetitions,
                "epsilon": row.epsilon,
                "offline_period": row.offline_period,
            }
            if row.runs_per_second is not None:
                out[key]["runs_per_second"] = row.runs_per_second
        return out


def _measure_throughput(
    scale: EvaluationScale,
    tile: Tuple[int, int, int],
    engine: CampaignEngine,
) -> float:
    """Runs/second of the tile's online-ABFT bit-flip campaign."""
    iterations = scale.iterations[tile]
    repetitions = min(scale.repetitions[tile], _THROUGHPUT_MAX_RUNS)
    app = make_hotspot_app(tile)
    reference = app.reference_solution(iterations)
    factory = make_protector_factory("online-abft", epsilon=scale.epsilon)
    config = CampaignConfig(
        iterations=iterations, repetitions=repetitions, inject=True
    )
    # Untimed call warms the worker states (grid, protector, stacked
    # buffers) so the measurement reflects steady-state throughput.
    engine.run(app.build_grid, factory, config, reference=reference)
    start = time.perf_counter()
    engine.run(app.build_grid, factory, config, reference=reference)
    elapsed = time.perf_counter() - start
    return repetitions / elapsed if elapsed > 0 else float("inf")


def run_table1(
    scale: EvaluationScale | None = None,
    measure_throughput: bool = False,
) -> Table1Result:
    """Collect the experimental parameters for the given scale."""
    scale = scale if scale is not None else EvaluationScale.quick()
    result = Table1Result(scale_name=scale.name)
    with CampaignEngine() if measure_throughput else nullcontext() as eng:
        for tile in scale.tile_sizes:
            result.rows.append(
                Table1Row(
                    tile_size=tile,
                    iterations=scale.iterations[tile],
                    repetitions=scale.repetitions[tile],
                    epsilon=scale.epsilon,
                    offline_period=scale.period,
                    runs_per_second=(
                        _measure_throughput(scale, tile, eng)
                        if measure_throughput
                        else None
                    ),
                )
            )
    return result


def format_table1(result: Table1Result) -> str:
    """Render the parameter table as text."""
    headers = ["Parameter"] + [
        "x".join(str(v) for v in row.tile_size) for row in result.rows
    ]
    rows = [
        ["Stencil iterations"] + [str(r.iterations) for r in result.rows],
        ["Experiment repetitions"] + [str(r.repetitions) for r in result.rows],
        ["Error detection threshold"] + [f"{r.epsilon:g}" for r in result.rows],
        ["Offline detection period"]
        + [f"{r.offline_period} iterations" for r in result.rows],
    ]
    if any(r.runs_per_second is not None for r in result.rows):
        rows.append(
            ["Campaign throughput (online)"]
            + [
                "-" if r.runs_per_second is None else f"{r.runs_per_second:.1f} runs/s"
                for r in result.rows
            ]
        )
    return format_table(
        headers, rows, title=f"Table 1 — experimental parameters ({result.scale_name} scale)"
    )
