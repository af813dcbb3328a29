"""Table 1 — overview of the main experimental parameters.

The paper's Table 1 lists, per tile size, the number of stencil
iterations, the number of experiment repetitions, the error-detection
threshold and the offline detection period. This module emits the same
table for any :class:`~repro.experiments.common.EvaluationScale`, so the
scaled-down campaign and the paper-scale campaign are documented with
the same code.  ``repro campaign`` reports the runs/second a
configuration takes on the campaign engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.common import EvaluationScale
from repro.experiments.report import format_table

__all__ = ["Table1Row", "Table1Result", "run_table1", "format_table1"]


@dataclass(frozen=True)
class Table1Row:
    """One parameter column of Table 1 (one per tile size)."""

    tile_size: Tuple[int, int, int]
    iterations: int
    repetitions: int
    epsilon: float
    offline_period: int


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
        return out


def run_table1(scale: EvaluationScale | None = None) -> Table1Result:
    """Collect the experimental parameters for the given scale."""
    scale = scale if scale is not None else EvaluationScale.quick()
    result = Table1Result(scale_name=scale.name)
    for tile in scale.tile_sizes:
        result.rows.append(
            Table1Row(
                tile_size=tile,
                iterations=scale.iterations[tile],
                repetitions=scale.repetitions[tile],
                epsilon=scale.epsilon,
                offline_period=scale.period,
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
    return format_table(
        headers, rows, title=f"Table 1 — experimental parameters ({result.scale_name} scale)"
    )
