"""Figure 11 — Offline ABFT execution time vs. detection period Δ.

Sweeps the detection/checkpoint period in the error-free and
single-bit-flip scenarios and prints both curves.  Every (period,
scenario) campaign runs on the shared :class:`CampaignEngine` (the
same execution strategy as the figure 10 / sensitivity benchmarks).
"""

from repro.experiments.figure11 import format_figure11, run_figure11


def test_figure11_period_sweep(benchmark, scale):
    result = benchmark.pedantic(run_figure11, args=(scale,), rounds=1, iterations=1)
    print()
    print(format_figure11(result))

    tile = scale.primary_tile()
    error_free = result.curve(tile, "error-free")
    faulty = result.curve(tile, "single-bit-flip")
    assert len(error_free) >= 3

    # Qualitative shape: detecting/checkpointing every iteration is the
    # most expensive error-free configuration (left edge of the curve).
    per_iteration = error_free[0]
    cheapest = min(error_free, key=lambda p: p.mean_time)
    assert per_iteration.period == 1
    assert cheapest.mean_time <= per_iteration.mean_time

    # In the faulty scenario rollbacks happen, and the recomputation window
    # grows with the period, so large periods do not keep getting cheaper.
    assert any(p.rollbacks > 0 for p in faulty)
