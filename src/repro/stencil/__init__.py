"""Stencil computation substrate.

This subpackage implements the computational kernels the ABFT method
protects: arbitrary weighted stencils on regular 2D and 3D grids
(Equation (1) of the paper), with clamp ("bounce-back"), periodic,
constant-value and zero ("empty") boundary conditions.

The implementation is split into small modules:

``spec``
    :class:`StencilSpec` — the set of stencil points ``{(i, j[, k], w)}``.
``boundary``
    :class:`BoundaryCondition` / :class:`BoundarySpec` — per-axis
    boundary behaviour and the mapping onto ghost-cell padding.
``shift``
    Ghost-cell padding, the in-place ``refresh_ghosts`` halo refresh and
    shifted-view helpers shared by the sweep and by the ABFT checksum
    interpolation.
``doublebuffer``
    :class:`DoubleBufferedGrid` — the persistent padded buffer pair that
    removes the per-iteration full-domain copy (optionally backed by
    ``multiprocessing.shared_memory`` for the process-pool executor).
``sweep``
    The generic N-dimensional padded sweep operator (plus the fused
    ``sweep_with_checksums`` and zero-copy ``sweep_into`` primitives).
    All dispatch to the pluggable compute backends of
    :mod:`repro.backends`.
``reference``
    Deliberately naive loop implementations used as test oracles.
``grid``
    :class:`Grid2D` / :class:`Grid3D` — double-buffered domain state.
``kernels``
    A library of named stencils (Jacobi, 5/9-point, 7/27-point, ...).
"""

from repro.stencil.spec import StencilPoint, StencilSpec
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.shift import (
    interior_slices,
    pad_array,
    padded_shape,
    refresh_ghosts,
    shifted_view,
)
from repro.stencil.doublebuffer import DoubleBufferedGrid
from repro.stencil.sweep import sweep_padded, sweep, sweep_into, sweep_with_checksums
from repro.stencil.grid import Grid2D, Grid3D, GridBase
from repro.stencil import kernels

__all__ = [
    "StencilPoint",
    "StencilSpec",
    "BoundaryCondition",
    "BoundarySpec",
    "pad_array",
    "padded_shape",
    "refresh_ghosts",
    "shifted_view",
    "interior_slices",
    "DoubleBufferedGrid",
    "sweep_padded",
    "sweep",
    "sweep_into",
    "sweep_with_checksums",
    "Grid2D",
    "Grid3D",
    "GridBase",
    "kernels",
]
