#!/usr/bin/env python
"""Quickstart: protect a 2D stencil against silent data corruptions.

This example builds a small 2D heat-diffusion stencil, runs it once
unprotected and once under the online ABFT protector while injecting a
single bit-flip, and prints what the protector saw and how close each
run ends up to the error-free reference.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro import (
    FaultInjector,
    FaultPlan,
    NoProtection,
    OnlineABFT,
    l2_error,
)
from repro.stencil import Grid2D, kernels
from repro.stencil.boundary import BoundaryCondition

ITERATIONS = 60
FAULT = FaultPlan(iteration=25, index=(40, 30), bit=27)  # exponent-bit flip


def build_grid() -> Grid2D:
    """A 96x80 float32 heat-diffusion domain with clamp boundaries."""
    rng = np.random.default_rng(7)
    initial = (rng.random((96, 80)) * 100.0).astype(np.float32)
    return Grid2D(initial, kernels.five_point_diffusion(0.2), BoundaryCondition.clamp())


def main() -> None:
    # Error-free reference (what the result should be).
    reference = build_grid()
    reference.run(ITERATIONS)

    # Unprotected run with one silent bit-flip.
    unprotected = build_grid()
    NoProtection().run(unprotected, ITERATIONS, inject=FaultInjector([FAULT]))

    # Protected run with the same bit-flip.
    protected = build_grid()
    protector = OnlineABFT.for_grid(protected, epsilon=1e-5)
    report = protector.run(protected, ITERATIONS, inject=FaultInjector([FAULT]))

    print("Injected fault:")
    print(f"  iteration {FAULT.iteration}, point {FAULT.index}, bit {FAULT.bit}")
    print()
    print("Online ABFT protector:")
    print(f"  errors detected : {report.total_detected}")
    print(f"  errors corrected: {report.total_corrected}")
    for step in report.detections:
        for correction in step.corrections:
            print(
                f"  corrected point {correction.index} at iteration {step.iteration}: "
                f"{correction.old_value:.6g} -> {correction.corrected_value:.6g}"
            )
    print()
    print("Final l2 error vs the error-free reference (Eq. 11 of the paper):")
    print(f"  unprotected : {l2_error(reference.u, unprotected.u):.6g}")
    print(f"  online ABFT : {l2_error(reference.u, protected.u):.6g}")


if __name__ == "__main__":
    main()
