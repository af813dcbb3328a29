"""Double-buffered stencil domain state.

A :class:`GridBase` bundles the domain array, the stencil operator, the
boundary specification and the optional constant term, and advances the
computation one sweep at a time while keeping the *previous* step alive.

Keeping the previous step is essential for the ABFT scheme: the checksum
interpolation of Theorem 1 predicts the step-``t+1`` checksums from the
step-``t`` checksums **and** a thin strip of step-``t`` boundary values
(the α/β terms), so the protector reads ``grid.previous_padded`` after
every sweep.

Storage is a persistent padded buffer pair
(:class:`~repro.stencil.doublebuffer.DoubleBufferedGrid`): each sweep
refreshes only the ghost cells of the front buffer in place and writes
the new interior straight into the back buffer through the backend's
``sweep_into`` primitive, then the pair swaps.  No full-domain copy is
made per iteration, and the pair, built with the grid's operator and
constant, derives what its steps need from its layout once.
Consequences callers must respect:

* ``grid.u``, ``grid.previous`` and ``grid.previous_padded`` are views
  into the pair.  ``previous``/``previous_padded`` stay valid until the
  *next* call to ``step`` (which reuses their buffer as the sweep
  target); the protectors read them immediately after each sweep, which
  is exactly the window the pair guarantees.
* In-place mutations of ``grid.u`` (ABFT corrections, injected faults)
  are picked up by the next sweep automatically — the ghost refresh
  re-reads the interior every step.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.checkpoint.snapshot import Snapshot
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.doublebuffer import DoubleBufferedGrid
from repro.stencil.spec import StencilSpec

__all__ = ["GridBase", "Grid2D", "Grid3D"]


class GridBase:
    """Double-buffered stencil domain.

    Parameters
    ----------
    initial:
        Initial domain values.  Always copied into the grid's persistent
        padded buffer pair; the caller's array is never aliased.
    spec:
        The stencil operator applied at every step.
    boundary:
        Boundary condition(s) (anything accepted by
        :meth:`BoundarySpec.from_any`).
    constant:
        Optional per-point constant term :math:`C` added at every sweep
        (heat source, power map, ...). Same shape as the domain.  The
        grid keeps it read-only: a read-only array that owns its data
        is shared, anything else is copied, so a caller updating its
        array in place cannot change a grid's steps (backends may cache
        a prepared copy of the constant).

    Every step runs on the one compute backend
    (:func:`~repro.backends.get_backend`).
    """

    expected_ndim: Optional[int] = None

    def __init__(
        self,
        initial: np.ndarray,
        spec: StencilSpec,
        boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
        constant: Optional[np.ndarray] = None,
    ) -> None:
        u = np.asarray(initial)
        if self.expected_ndim is not None and u.ndim != self.expected_ndim:
            raise ValueError(
                f"{type(self).__name__} expects a {self.expected_ndim}D domain, "
                f"got shape {u.shape}"
            )
        if spec.ndim != u.ndim:
            raise ValueError(
                f"stencil is {spec.ndim}D but domain has {u.ndim} dimensions"
            )
        if not np.issubdtype(u.dtype, np.floating):
            u = u.astype(np.float32)
        self.spec = spec
        self.boundary = BoundarySpec.from_any(boundary, u.ndim)
        if constant is not None:
            constant = np.asarray(constant, dtype=u.dtype)
            if constant.shape != u.shape:
                raise ValueError(
                    f"constant term has shape {constant.shape}, domain has {u.shape}"
                )
            if constant.flags.writeable or not constant.flags.owndata:
                constant = constant.copy()
                constant.flags.writeable = False
        self.constant = constant
        self.radius = spec.radius()
        self.iteration = 0
        #: The persistent padded buffer pair backing this grid.
        self.buffers = DoubleBufferedGrid(
            u, self.radius, self.boundary, spec=spec, constant=constant
        )
        #: Interior domain at the current step (a view into the pair).
        self.u = self.buffers.interior
        self._previous: Optional[np.ndarray] = None
        self._previous_padded: Optional[np.ndarray] = None

    # -- basic accessors ----------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.u.shape

    @property
    def dtype(self) -> np.dtype:
        return self.u.dtype

    @property
    def ndim(self) -> int:
        return self.u.ndim

    @property
    def size(self) -> int:
        return int(self.u.size)

    @property
    def previous(self) -> Optional[np.ndarray]:
        """Interior domain at the previous step (``None`` before step 1)."""
        return self._previous

    @property
    def previous_padded(self) -> Optional[np.ndarray]:
        """Ghost-padded domain at the previous step (``None`` before step 1)."""
        return self._previous_padded

    # -- stepping -----------------------------------------------------------
    def padded_current(self) -> np.ndarray:
        """The persistent front buffer with its ghost cells refreshed.

        This is a live view of the grid's storage, not a copy: the
        interior block *is* ``grid.u``.  Mutating the returned array
        mutates the grid.
        """
        return self.buffers.refresh()

    @property
    def back_padded(self) -> np.ndarray:
        """The padded back buffer the next sweep will write into."""
        return self.buffers.back

    def step(self) -> np.ndarray:
        """Advance one stencil sweep and return the new domain.

        The whole iteration — ghost refresh of the front buffer and the
        sweep into the back buffer — is delegated to the backend through
        :meth:`DoubleBufferedGrid.step`, so a backend that fills ghosts
        inside its compiled sweep performs the step in one traversal of
        the pair.  No full-domain allocation is made, and no checksum
        is taken: a protector reduces the new domain itself, after any
        fault-injection hook has run.
        """
        padded, new = self.buffers.step()
        self._commit(padded)
        return new

    def _commit(self, padded_src: np.ndarray) -> None:
        """Swap the buffer pair after a sweep into the back buffer.

        ``padded_src`` is the padded front buffer the sweep read, its
        ghosts refreshed by :meth:`step` or, in the tiled runner, by
        :meth:`padded_current` before the tiles swept; it becomes
        :attr:`previous_padded` and stays valid until the next step
        reclaims its buffer as the sweep target.
        """
        self._previous = self.u
        self._previous_padded = padded_src
        self.buffers.swap()
        self.u = self.buffers.interior
        self.iteration += 1

    def run(self, iterations: int) -> np.ndarray:
        """Advance ``iterations`` sweeps and return the final domain."""
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        for _ in range(iterations):
            self.step()
        return self.u

    # -- snapshot / restore ---------------------------------------------------
    def snapshot(self) -> Snapshot:
        """Deep copy of the current state (for checkpointing)."""
        return Snapshot(iteration=self.iteration, interior=self.u.copy())

    def restore(self, snap: Snapshot) -> None:
        """Restore a previously taken snapshot (rollback recovery).

        The snapshot is written into the front buffer's interior in
        place, so ``grid.u`` remains a view into the buffer pair.
        """
        if snap.interior.shape != self.u.shape:
            raise ValueError(
                f"snapshot shape {snap.interior.shape} does not match domain "
                f"{self.u.shape}"
            )
        self.buffers.restore_interior(snap.interior)
        self.u = self.buffers.interior
        self.iteration = snap.iteration
        self._previous = None
        self._previous_padded = None

    def copy(self) -> "GridBase":
        """Independent deep copy of this grid."""
        clone = type(self)(
            self.u,
            self.spec,
            self.boundary,
            constant=self.constant,
        )
        clone.iteration = self.iteration
        return clone

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shape={self.shape}, dtype={self.dtype}, "
            f"iteration={self.iteration}, k={self.spec.npoints})"
        )


class Grid2D(GridBase):
    """A 2D stencil domain of shape ``(nx, ny)``, indexed ``u[x, y]``."""

    expected_ndim = 2

    @property
    def nx(self) -> int:
        return self.u.shape[0]

    @property
    def ny(self) -> int:
        return self.u.shape[1]


class Grid3D(GridBase):
    """A 3D stencil domain of shape ``(nx, ny, nz)``, indexed ``u[x, y, z]``.

    The third axis is the "layer" axis: the paper's evaluation tiles are
    ``512x512x8`` / ``64x64x8``, i.e. 8 layers, each protected by its own
    pair of checksum vectors.
    """

    expected_ndim = 3

    @property
    def nx(self) -> int:
        return self.u.shape[0]

    @property
    def ny(self) -> int:
        return self.u.shape[1]

    @property
    def nz(self) -> int:
        return self.u.shape[2]

    def layer(self, z: int) -> np.ndarray:
        """View of layer ``z`` (shape ``(nx, ny)``)."""
        return self.u[:, :, z]
