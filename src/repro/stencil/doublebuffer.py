"""Persistent double-buffered padded storage for stencil domains.

Historically every sweep paid for one full-domain copy: ``pad_array``
allocated a fresh padded array, copied the interior into it and filled
the halo.  :class:`DoubleBufferedGrid` removes that copy from the hot
path by keeping *two* persistent padded buffers:

* the **front** buffer holds the current domain; before a sweep only its
  ghost cells are re-filled in place (:func:`~repro.stencil.shift.refresh_ghosts`,
  an ``O(boundary surface)`` operation);
* the sweep writes the new interior straight into the **back** buffer
  (:meth:`repro.backends.base.Backend.sweep_into`);
* the pair then swaps, so the buffer that held step ``t`` becomes the
  scratch target for step ``t+2``.

:meth:`DoubleBufferedGrid.step` drives both stages through the
backend's ``step_into`` primitive in one call, so a backend that owns
its ghost refresh can perform the refresh and the sweep as one
operation on the pair.  The pair is built with the operator and the
constant of its steps, and derives what they need from its layout once,
in a :class:`~repro.backends.base.StepPlan`: the pair's one record of
its layout (the operator and constant, the resolved radius, boundary
and refresh axes, the refresh ops and ghost lanes, and each buffer's
interior view and address) and the one argument of every step,
``step_into(front, back, plan)``.

The previous step therefore stays alive exactly one iteration — long
enough for the ABFT protectors, which read ``grid.previous_padded``
immediately after each sweep, and no longer.

Both buffers are ordinary heap arrays.  The tiled runner's threads
sweep views of them in place.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backends import StepPlan, get_backend
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.shift import (
    interior_view,
    normalize_radius,
    padded_shape,
    refresh_ghosts,
)

__all__ = ["DoubleBufferedGrid"]


class DoubleBufferedGrid:
    """A pair of persistent ghost-padded buffers for one stencil domain.

    Parameters
    ----------
    initial:
        Interior domain values (always copied into the front buffer,
        whose dtype is ``initial``'s).
    radius:
        Ghost width, scalar or per axis.
    boundary:
        Boundary specification used by :meth:`refresh`.
    external_axes:
        Axes whose ghost slabs are *externally managed*: :meth:`refresh`
        and :meth:`step` never touch them, leaving whatever a halo
        exchange wrote there in place, while the remaining axes keep
        refreshing from ``boundary`` (their slabs span the external
        halo like interior, so ghost corners match what ``pad_array``
        would build over the halo-extended block).  This is how the
        distributed runner gives each rank a persistent buffer pair:
        the distributed axis is external, its front-buffer slabs are
        filled by message ingestion before every step.
    spec, constant:
        The operator and the optional constant term of every
        :meth:`step` (the constant is read, never copied).  The pair
        builds its :attr:`plan` from them and its layout.
    """

    def __init__(
        self,
        initial: np.ndarray,
        radius,
        boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
        spec,
        constant: Optional[np.ndarray] = None,
        external_axes: Sequence[int] = (),
    ) -> None:
        initial = np.asarray(initial)
        radius = normalize_radius(radius, initial.ndim)
        self.external_axes = tuple(sorted({int(a) for a in external_axes}))
        if any(a < 0 or a >= initial.ndim for a in self.external_axes):
            raise ValueError(
                f"external_axes {self.external_axes} out of range for a "
                f"{initial.ndim}D domain"
            )
        shape = padded_shape(initial.shape, radius)
        self._front = np.zeros(shape, dtype=initial.dtype)
        self._back = np.zeros(shape, dtype=initial.dtype)
        interior_view(self._front, radius)[...] = initial
        #: The :class:`~repro.backends.base.StepPlan` every step passes
        #: to the backend, and the pair's one record of its layout.
        self.plan = StepPlan(
            self._front, self._back, spec, radius, initial.shape, boundary,
            constant,
            # The axes the per-step ghost refresh owns (``None`` → all).
            tuple(a for a in range(initial.ndim) if a not in self.external_axes)
            if self.external_axes
            else None,
        )

    # -- layout, as the plan holds it ------------------------------------------
    @property
    def radius(self) -> tuple:
        """Ghost width per axis."""
        return self.plan.radius

    @property
    def boundary(self) -> BoundarySpec:
        """The boundary every refresh fills the ghosts from."""
        return self.plan.boundary

    @property
    def refresh_axes(self) -> Optional[tuple]:
        """Axes the per-step ghost refresh owns (``None`` → all of them)."""
        return self.plan.refresh_axes

    @property
    def interior_shape(self) -> tuple:
        return self.plan.interior_shape

    # -- accessors ----------------------------------------------------------
    @property
    def front(self) -> np.ndarray:
        """The padded buffer holding the current step."""
        return self._front

    @property
    def back(self) -> np.ndarray:
        """The padded scratch buffer the next sweep writes into."""
        return self._back

    @property
    def interior(self) -> np.ndarray:
        """View of the current interior domain (front buffer), the one
        the plan made of the buffer's interior."""
        return self.plan.interior(self._front)

    def nbytes(self) -> int:
        """Total footprint of the pair in bytes."""
        return int(self._front.nbytes + self._back.nbytes)

    # -- the per-step lifecycle ---------------------------------------------
    def refresh(self) -> np.ndarray:
        """Re-fill the front buffer's ghost cells in place; returns it.

        Called once per sweep, immediately before the buffer is read, so
        that interior mutations since the last step (ABFT corrections,
        injected faults) are reflected in the halo.  Externally managed
        axes (``external_axes``) are skipped — their slabs hold halo
        data the caller ingested.
        """
        plan = self.plan
        return refresh_ghosts(
            self._front, plan.radius, plan.boundary, axes=plan.refresh_axes,
            plan=plan.refresh,
        )

    def step(self):
        """One backend-owned step of the pair: refresh + sweep.

        The whole iteration — ghost refresh of the front buffer and the
        sweep into the back buffer, with the operator and constant the
        pair was built with — is delegated to the ``step_into``
        primitive of the compute backend (resolved here, every step),
        which matches the classic :meth:`refresh`-then-``sweep_into``
        sequence bit for bit.  The step passes only the pair's
        :attr:`plan`, so nothing its layout fixed is derived again.  The front
        buffer's halo is consistent with its interior afterwards — the
        ABFT protectors read it as ``previous_padded``.

        The pair is **not** swapped: callers (``GridBase._commit``, the
        distributed runner) own the swap so previous-step bookkeeping
        stays in one place.

        Returns ``(src_padded, new_interior)``.
        """
        new = get_backend().step_into(self._front, self._back, self.plan)
        return self._front, new

    def swap(self) -> None:
        """Exchange front and back (the freshly swept back becomes current)."""
        self._front, self._back = self._back, self._front

    # -- checkpointing --------------------------------------------------------
    def snapshot_interior(self) -> np.ndarray:
        """Contiguous copy of the front interior (the checkpoint payload).

        Only the interior is captured: every ghost slab of the pair is
        rebuilt before it is next read — locally managed axes by the
        per-step :meth:`refresh`, externally managed axes by the next
        halo ingest — so snapshotting the interior alone is sufficient
        to restore the pair bit-for-bit via :meth:`restore_interior`.
        """
        return self.interior.copy()

    def restore_interior(self, u: np.ndarray) -> None:
        """Overwrite the front interior with ``u`` (snapshot restore).

        The back buffer needs no restore: the next sweep overwrites it
        entirely before anything reads it, so rolling the front interior
        back is enough for bitwise-identical replay.
        """
        u = np.asarray(u)
        if u.shape != self.interior_shape:
            raise ValueError(
                f"expected interior shape {self.interior_shape}, got {u.shape}"
            )
        self.interior[...] = u

    def __repr__(self) -> str:
        ext = (
            f", external_axes={self.external_axes}" if self.external_axes else ""
        )
        return (
            f"DoubleBufferedGrid(interior={self.interior_shape}, "
            f"radius={self.radius}{ext})"
        )
