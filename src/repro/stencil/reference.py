"""Naive reference sweeps used as test oracles.

These implementations follow the paper's pseudo-code (Figure 2) literally
— explicit Python loops, per-point boundary-index resolution — and are
intentionally slow. They exist solely to validate the vectorised sweeps
and the checksum interpolation on small domains.

:func:`reference_sweep_padded` is the bitwise oracle: the loop oracles
add in Python floats, while it adds point by point in the domain dtype,
in the order the backend's sweeps keep, so their results must equal it
bit for bit.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.shift import normalize_radius, shifted_view
from repro.stencil.spec import StencilSpec

__all__ = [
    "resolve_index",
    "reference_sweep2d",
    "reference_sweep3d",
    "reference_sweep",
    "reference_sweep_padded",
]


def resolve_index(idx: int, n: int, bc: BoundaryCondition):
    """Resolve a possibly out-of-range index according to a boundary condition.

    Returns either an in-range integer index or ``None`` when the access
    should produce the boundary fill value (constant/zero boundaries).
    """
    if 0 <= idx < n:
        return idx
    if bc.is_clamp:
        return min(max(idx, 0), n - 1)
    if bc.is_periodic:
        return idx % n
    return None


def _neighbor_value(u: np.ndarray, coords, bspec: BoundarySpec) -> float:
    resolved = []
    for axis, idx in enumerate(coords):
        bc = bspec.axis(axis)
        r = resolve_index(idx, u.shape[axis], bc)
        if r is None:
            return bc.fill_value()
        resolved.append(r)
    return float(u[tuple(resolved)])


def reference_sweep(
    u: np.ndarray,
    spec: StencilSpec,
    boundary,
    constant: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Loop-based sweep for arbitrary 2D/3D stencils (test oracle)."""
    bspec = BoundarySpec.from_any(boundary, u.ndim)
    out = np.zeros_like(u, dtype=u.dtype)
    points = list(spec)
    for index in np.ndindex(*u.shape):
        acc = 0.0
        if constant is not None:
            acc += float(constant[index])
        for offset, weight in points:
            coords = tuple(index[a] + offset[a] for a in range(u.ndim))
            acc += weight * _neighbor_value(u, coords, bspec)
        out[index] = acc
    return out


def reference_sweep2d(
    u: np.ndarray,
    spec: StencilSpec,
    boundary,
    constant: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Loop-based 2D sweep (test oracle)."""
    if u.ndim != 2:
        raise ValueError("reference_sweep2d expects a 2D array")
    return reference_sweep(u, spec, boundary, constant=constant)


def reference_sweep3d(
    u: np.ndarray,
    spec: StencilSpec,
    boundary,
    constant: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Loop-based 3D sweep (test oracle)."""
    if u.ndim != 3:
        raise ValueError("reference_sweep3d expects a 3D array")
    return reference_sweep(u, spec, boundary, constant=constant)


def reference_sweep_padded(
    padded: np.ndarray,
    spec: StencilSpec,
    radius,
    interior_shape: Sequence[int],
    constant: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One sweep of a ghost-padded array, in the domain dtype (bitwise oracle).

    Zero-fill, add ``constant``, then add ``w * view`` for each stencil
    point in spec order: one full-size temporary per point, and the
    operation order every sweep of the backend keeps.
    """
    interior_shape = tuple(int(n) for n in interior_shape)
    radius = normalize_radius(radius, padded.ndim)
    dtype = padded.dtype
    out = np.zeros(interior_shape, dtype=dtype)
    if constant is not None:
        out += constant
    for offset, weight in spec:
        view = shifted_view(padded, offset, radius, interior_shape)
        out += np.asarray(weight, dtype=dtype) * view
    return out


def reference_row_checksum(u: np.ndarray) -> np.ndarray:
    """Row checksum a_x = sum_y u[x, y] computed with explicit loops."""
    if u.ndim != 2:
        raise ValueError("reference_row_checksum expects a 2D array")
    nx, ny = u.shape
    a = np.zeros(nx, dtype=u.dtype)
    for x in range(nx):
        s = 0.0
        for y in range(ny):
            s += float(u[x, y])
        a[x] = s
    return a


def reference_column_checksum(u: np.ndarray) -> np.ndarray:
    """Column checksum b_y = sum_x u[x, y] computed with explicit loops."""
    if u.ndim != 2:
        raise ValueError("reference_column_checksum expects a 2D array")
    nx, ny = u.shape
    b = np.zeros(ny, dtype=u.dtype)
    for y in range(ny):
        s = 0.0
        for x in range(nx):
            s += float(u[x, y])
        b[y] = s
    return b
