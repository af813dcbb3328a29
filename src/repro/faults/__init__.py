"""Fault injection: IEEE-754 bit-flips and seeded injection campaigns.

The paper evaluates the ABFT scheme by injecting single bit-flips into
the stencil domain "during a random stencil iteration, in a random point
in the computational domain, and at a random bit position" (Section 5.1).
This subpackage reproduces that fault model:

``bitflip``
    Raw IEEE-754 bit manipulation on float32/float64 scalars and arrays,
    including the sign/exponent/fraction field classification used by
    Figure 10.
``injector``
    :class:`FaultPlan` (a concrete fault to inject),
    :func:`~repro.faults.injector.flip_plan` (the one rule every plan
    flip follows: check the index, then flip) and
    :class:`FaultInjector` (the serial step hook that fires domain and
    stored-checksum plans at the right iteration).
``models``
    Pluggable fault models beyond the paper's single flip:
    :class:`~repro.faults.models.MultiBitBurst`,
    :class:`~repro.faults.models.PoissonArrival` (MTBF-driven arrival
    across iterations),
    :class:`~repro.faults.models.RegionTargeted` corruption striking
    ghosts, stored checksums and in-flight halo payloads, and
    :class:`~repro.faults.models.RankCrash`, plus the hook that
    delivers every region on a distributed run
    (:class:`~repro.faults.models.DistributedFaultInjector`).
``campaign``
    One run path for every campaign: one plan draw
    (:func:`~repro.faults.campaign.draw_fault_plans`), one per-run
    function (:func:`~repro.faults.campaign.run_one`) and one record
    type (:class:`RunRecord`), plus the aggregation of the
    timing/accuracy statistics the paper reports
    (:func:`~repro.faults.campaign.run_campaign` is the reference
    serial loop, one fresh grid per run).
``engine``
    The throughput harness: :class:`~repro.faults.engine.CampaignEngine`
    dispatches batched runs to a persistent worker pool whose grids and
    protectors are reset in place between runs (replay calls the same
    per-run function) or stepped a batch at a time as one stacked
    array, producing records bitwise-identical to the serial loop.
"""

from repro.faults.bitflip import (
    bit_width,
    bit_field,
    flip_bit,
    flip_bit_in_array,
    exponent_bits,
    fraction_bits,
    sign_bit,
)
from repro.faults.injector import (
    FaultPlan,
    FaultInjector,
    flip_plan,
    random_fault_plan,
    validate_plan_index,
)
from repro.faults.models import (
    FaultModel,
    SingleBitFlip,
    MultiBitBurst,
    PoissonArrival,
    RegionTargeted,
    make_fault_model,
    available_fault_models,
    DistributedFaultInjector,
)
from repro.faults.campaign import (
    CampaignConfig,
    CampaignResult,
    RunRecord,
    draw_fault_plans,
    resolve_run_counters,
    run_campaign,
)
from repro.faults.engine import CampaignEngine

__all__ = [
    "bit_width",
    "bit_field",
    "flip_bit",
    "flip_bit_in_array",
    "exponent_bits",
    "fraction_bits",
    "sign_bit",
    "FaultPlan",
    "FaultInjector",
    "flip_plan",
    "random_fault_plan",
    "validate_plan_index",
    "FaultModel",
    "SingleBitFlip",
    "MultiBitBurst",
    "PoissonArrival",
    "RegionTargeted",
    "make_fault_model",
    "available_fault_models",
    "DistributedFaultInjector",
    "CampaignConfig",
    "CampaignResult",
    "RunRecord",
    "resolve_run_counters",
    "run_campaign",
    "draw_fault_plans",
    "CampaignEngine",
]
