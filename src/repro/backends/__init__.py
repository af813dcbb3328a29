"""The compute backend.

Every numerical hot path of the reproduction — the stencil sweep, the
whole ghost-refresh-plus-sweep step and the checksum reductions — runs
on one :class:`~repro.backends.fused.FusedBackend` instance, which
:func:`get_backend` returns.  It accumulates in place through a
preallocated scratch buffer and folds the column checksum over whole
contiguous lanes; its flat-stride sweep and column-checksum fold run
compiled (:mod:`repro.backends.native`, built once with the system C
compiler) wherever ``cc`` exists, and as NumPy code otherwise.  Both
paths are bitwise equal to
:func:`~repro.stencil.reference.reference_sweep_padded`.

Grids step a padded buffer pair with ``step_into`` (ghost refresh
included) and write each new step straight into the destination buffer
(``sweep_into``), so stepping allocates no full-domain array; the
campaign engine steps whole batches of runs with ``batch_step_into``.
Each of the three takes the pair's :class:`StepPlan`, the one record of
its layout, built once (:func:`batch_arguments` extends a step's
arguments over a batch of runs).
A protector then reduces the new domain with ``checksum``, after any
fault-injection hook has run.

Grids, protectors, runners and the campaign engine each call
:func:`get_backend` where they step or reduce, so they all run on the
same instance.
"""

from repro.backends.base import Backend, StepPlan, batch_arguments
from repro.backends.fused import FoldPlan, FusedBackend

__all__ = [
    "Backend",
    "FoldPlan",
    "FusedBackend",
    "StepPlan",
    "batch_arguments",
    "get_backend",
]

_BACKEND = FusedBackend()


def get_backend() -> FusedBackend:
    """The process's one backend instance (its scratch buffers are shared)."""
    return _BACKEND
