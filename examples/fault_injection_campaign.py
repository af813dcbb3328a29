#!/usr/bin/env python
"""Fault-injection campaign over bit positions (miniature Figure 10).

For a selection of bit positions, injects many random single bit-flips
into HotSpot3D runs protected by each method and prints the median final
error and the detection rate per bit position — the text version of the
paper's Figure 10 panels.

Run with::

    python examples/fault_injection_campaign.py [--repetitions 10]
"""

import argparse

from repro.experiments.common import make_protector_factory
from repro.experiments.report import format_scientific, format_table
from repro.faults.bitflip import bit_field
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.models import SingleBitFlip
from repro.apps.hotspot3d import HotSpot3D, HotSpot3DConfig
from repro.metrics.statistics import quartile_summary


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nx", type=int, default=32)
    parser.add_argument("--nz", type=int, default=4)
    parser.add_argument("--iterations", type=int, default=48)
    parser.add_argument("--repetitions", type=int, default=10,
                        help="injections per (method, bit) cell")
    parser.add_argument("--bits", type=int, nargs="*",
                        default=[1, 8, 16, 22, 24, 27, 30, 31])
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    app = HotSpot3D(HotSpot3DConfig(nx=args.nx, ny=args.nx, nz=args.nz))
    reference = app.reference_solution(args.iterations)

    rows = []
    for method in ("no-abft", "online-abft", "offline-abft"):
        factory = make_protector_factory(method, epsilon=1e-5, period=16)
        for bit in args.bits:
            config = CampaignConfig(
                iterations=args.iterations,
                repetitions=args.repetitions,
                inject=True,
                seed=100 + bit,
                fault_model=SingleBitFlip(bit=bit),
            )
            campaign = run_campaign(app.build_grid, factory, config,
                                    reference=reference)
            box = quartile_summary(campaign.errors())
            detection = campaign.detection_rate()
            rows.append(
                [
                    method,
                    str(bit),
                    bit_field(bit, "float32"),
                    format_scientific(box["median"]),
                    format_scientific(box["q3"]),
                    f"{100 * detection:.0f}%",
                ]
            )

    print(
        format_table(
            ["method", "bit", "field", "median error", "Q3 error", "detected"],
            rows,
            title=(
                f"Error vs bit-flip position — HotSpot3D {args.nx}x{args.nx}x{args.nz}, "
                f"{args.repetitions} injections per cell"
            ),
        )
    )
    print()
    print("Reading guide (paper, Fig. 10): without protection, exponent/sign flips")
    print("are catastrophic; online ABFT detects and corrects everything above the")
    print("threshold (small residual for the top exponent bits); offline ABFT erases")
    print("every detected flip; bits 0-12 are undetectable but harmless.")


if __name__ == "__main__":
    main()
