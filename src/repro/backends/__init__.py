"""Pluggable compute backends.

Every numerical hot path of the reproduction — the stencil sweep, the
whole ghost-refresh-plus-sweep step and the checksum reductions — is
routed through a :class:`~repro.backends.base.Backend`.  Two backends
ship built in:

``numpy``
    The straightforward reference implementation (one temporary per
    stencil point, plain ``sum`` checksums).  Every other backend is
    validated against it.
``fused``
    The optimised default: allocation-free in-place accumulation through
    a preallocated scratch buffer, and a column checksum folded over
    whole contiguous lanes.  Its flat-stride sweep and column-checksum
    fold run compiled (:mod:`repro.backends.native`, built once with the
    system C compiler) wherever ``cc`` exists.  Bitwise-identical
    results to ``numpy``.

All built-ins also implement the zero-copy ``sweep_into`` primitive
(write the new step directly into the interior of a second persistent
padded buffer), which the double-buffered grids use to eliminate the
former per-iteration full-domain copy; backends that only provide
``sweep_padded`` fall back to sweep-then-copy transparently.  Grids
drive whole iterations through the backend-owned ``step_into`` and
``batch_step_into`` primitives (ghost refresh included), so a backend
that fuses the refresh into its own sweep only has to override those.
A protector then reduces the new domain with ``checksum``, after any
fault-injection hook has run.

One process-wide selection picks the backend for every layer:
:func:`~repro.backends.registry.set_default_backend` (what the CLI's
``--backend`` flag calls), else the ``REPRO_BACKEND`` environment
variable, else ``fused``.  Grids, protectors, runners and the campaign
engine each call :func:`~repro.backends.registry.get_backend` where
they use the backend, so they all run on the same instance.
Third-party backends join the same registry through
:func:`~repro.backends.registry.register_backend`.
"""

from repro.backends.base import Backend
from repro.backends.fused import FusedBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import (
    BUILTIN_DEFAULT,
    ENV_VAR,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    set_default_backend,
)

__all__ = [
    "Backend",
    "NumpyBackend",
    "FusedBackend",
    "ENV_VAR",
    "BUILTIN_DEFAULT",
    "register_backend",
    "available_backends",
    "get_backend",
    "set_default_backend",
    "default_backend_name",
]

register_backend(NumpyBackend())
register_backend(FusedBackend())
