"""The ``numpy`` reference backend.

This is the straightforward vectorised implementation the reproduction
started from: one full-array temporary per stencil point during the
sweep, and checksums as the plain ``sum`` reduction of the new domain
(the shape every optimised backend is validated against).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backends.base import Backend
from repro.stencil.shift import shifted_view
from repro.stencil.spec import StencilSpec

__all__ = ["NumpyBackend"]


class NumpyBackend(Backend):
    """Reference backend: allocating accumulation, plain-sum checksums."""

    name = "numpy"

    def sweep_into(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        constant: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        interior = self._dst_interior(dst_padded, radius, interior_shape)
        if np.may_share_memory(src_padded, dst_padded):
            # Writing the interior while the sweep still reads the source
            # would corrupt the accumulation; take the copy-based route.
            return super().sweep_into(
                src_padded, dst_padded, spec, radius, interior_shape,
                constant=constant,
            )
        return self.sweep_padded(
            src_padded, spec, radius, interior_shape, constant=constant,
            out=interior,
        )

    def sweep_padded(
        self,
        padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        constant: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        interior_shape, radius = self._normalize_sweep_args(
            padded, radius, interior_shape, constant, out
        )
        dtype = padded.dtype
        if out is None:
            out = np.zeros(interior_shape, dtype=dtype)
        else:
            out[...] = 0
        if constant is not None:
            out += constant
        for offset, weight in spec:
            view = shifted_view(padded, offset, radius, interior_shape)
            # ``out += w * view`` allocates a full-size temporary per
            # stencil point; the fused backend eliminates it with a
            # preallocated scratch buffer.
            out += np.asarray(weight, dtype=dtype) * view
        return out

    def batch_step_into(
        self,
        src_padded: np.ndarray,
        dst_padded: np.ndarray,
        spec: StencilSpec,
        radius,
        interior_shape: Sequence[int],
        boundary,
        constant: Optional[np.ndarray] = None,
        refresh_axes: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Whole-batch step as one vectorised pass over the run axis."""
        return self._batch_step_vectorized(
            src_padded, dst_padded, spec, radius, interior_shape, boundary,
            constant=constant, refresh_axes=refresh_axes,
        )
