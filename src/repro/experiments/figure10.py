"""Figure 10 — impact of the bit-flip position on the final error.

The paper's Figure 10 fixes the bit position of the injected flip and
shows the distribution (quartile boxes) of the final arithmetic error
for every position 0..31, for the three methods. The qualitative shape
to reproduce:

* No-ABFT: fraction-bit flips cause small errors, exponent/sign flips
  cause errors many orders of magnitude above the result scale;
* Online ABFT: flips in bits ~13..31 are detected and corrected with a
  small residual error; flips in the *top* exponent bits overflow the
  checksums and the correction residual grows; flips in bits 0..12 are
  below the detection threshold (and below significance);
* Offline ABFT: every detected flip is erased completely by rollback
  and recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.experiments.common import (
    METHODS,
    EvaluationScale,
    make_hotspot_app,
    make_protector_factory,
    method_label,
)
from repro.experiments.report import format_scientific, format_table
from repro.faults.bitflip import bit_field
from repro.faults.campaign import CampaignConfig
from repro.faults.engine import CampaignEngine
from repro.faults.models import SingleBitFlip
from repro.metrics.statistics import quartile_summary

__all__ = ["Figure10Cell", "Figure10Result", "run_figure10", "format_figure10"]


@dataclass(frozen=True)
class Figure10Cell:
    """Error distribution of one (method, bit position) box."""

    method: str
    bit: int
    field: str
    median_error: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    detection_rate: float


@dataclass
class Figure10Result:
    """All boxes of Figure 10 (three panels: one per method)."""

    scale_name: str
    tile_size: Tuple[int, int, int]
    iterations: int
    repetitions_per_bit: int
    cells: List[Figure10Cell] = field(default_factory=list)

    def panel(self, method: str) -> List[Figure10Cell]:
        """All boxes of one method's panel, ordered by bit position."""
        return sorted(
            (c for c in self.cells if c.method == method), key=lambda c: c.bit
        )

    def cell(self, method: str, bit: int) -> Figure10Cell:
        for c in self.cells:
            if c.method == method and c.bit == bit:
                return c
        raise KeyError((method, bit))


def run_figure10(
    scale: EvaluationScale | None = None,
) -> Figure10Result:
    """Regenerate Figure 10 at the requested scale.

    Uses the smaller tile of the scale (the paper injects into the
    512x512x8 domain, but the error distributions per bit position are
    driven by the float32 representation, not by the domain size).  The
    per-bit campaigns — 32 positions x 3 methods at paper scale — run on
    one shared :class:`CampaignEngine`, whose persistent workers keep a
    single grid/protector pair alive across the whole bit sweep of a
    method instead of allocating one per run.
    """
    scale = scale if scale is not None else EvaluationScale.quick()
    tile = scale.primary_tile()
    iterations = scale.iterations[tile]
    app = make_hotspot_app(tile)
    reference = app.reference_solution(iterations)

    result = Figure10Result(
        scale_name=scale.name,
        tile_size=tile,
        iterations=iterations,
        repetitions_per_bit=scale.bit_repetitions,
    )
    with CampaignEngine() as eng:
        for method in METHODS:
            factory = make_protector_factory(
                method, epsilon=scale.epsilon, period=scale.period
            )
            for bit in scale.bit_positions:
                config = CampaignConfig(
                    iterations=iterations,
                    repetitions=scale.bit_repetitions,
                    inject=True,
                    seed=1000 + bit,
                    fault_model=SingleBitFlip(bit=bit),
                )
                campaign = eng.run(
                    app.build_grid, factory, config, reference=reference
                )
                box = quartile_summary(campaign.errors())
                result.cells.append(
                    Figure10Cell(
                        method=method,
                        bit=bit,
                        field=bit_field(bit, "float32"),
                        median_error=box["median"],
                        q1=box["q1"],
                        q3=box["q3"],
                        whisker_low=box["whisker_low"],
                        whisker_high=box["whisker_high"],
                        detection_rate=campaign.detection_rate(),
                    )
                )
    return result


def format_figure10(result: Figure10Result) -> str:
    """Render the Figure 10 panels as a text table."""
    headers = ["Method", "Bit", "Field", "Median err", "Q1", "Q3", "Detected"]
    rows = []
    for cell in sorted(result.cells, key=lambda c: (c.method, c.bit)):
        rows.append(
            [
                method_label(cell.method),
                str(cell.bit),
                cell.field,
                format_scientific(cell.median_error),
                format_scientific(cell.q1),
                format_scientific(cell.q3),
                f"{100 * cell.detection_rate:.0f}%",
            ]
        )
    title = (
        f"Figure 10 — error vs bit-flip position ({result.scale_name} scale, "
        f"tile {'x'.join(str(v) for v in result.tile_size)}, "
        f"{result.repetitions_per_bit} injections/bit)"
    )
    return format_table(headers, rows, title=title)
