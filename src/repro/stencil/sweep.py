"""Generic N-dimensional stencil sweep.

Implements Equation (1) of the paper,

.. math::

    u^{(t+1)}_{x,y} = C_{x,y} + \\sum_{\\{i,j,w\\} \\in S} w \\cdot u^{(t)}_{x+i,y+j},

as a vectorised accumulation of shifted views over a ghost-padded array.
The padded form (:func:`sweep_padded`) is the primitive shared with the
parallel tile runner, which fills the ghost cells with halo data instead
of a closed boundary condition.

The actual arithmetic lives in the compute backend
(:mod:`repro.backends`); the functions here are thin dispatchers that
delegate to it (:func:`~repro.backends.get_backend`).  Checksums are not part of a
sweep: a caller reduces the new domain with the backend's ``checksum``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backends import get_backend
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.shift import pad_array
from repro.stencil.spec import StencilSpec

__all__ = ["sweep_padded", "sweep"]


def sweep_padded(
    padded: np.ndarray,
    spec: StencilSpec,
    radius,
    interior_shape: Sequence[int],
    constant: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply one stencil sweep to a ghost-padded array.

    Parameters
    ----------
    padded:
        Domain surrounded by ghost cells (boundary condition or halo data
        already applied).
    spec:
        The stencil operator.
    radius:
        Ghost width of ``padded`` (scalar or per axis); must be at least
        the stencil radius on every axis.
    interior_shape:
        Shape of the interior domain to update.
    constant:
        Optional per-point constant term :math:`C` (same shape as the
        interior), e.g. a heat-source/power map.
    out:
        Optional pre-allocated output array (interior shape).

    Returns
    -------
    numpy.ndarray
        The updated interior domain at step ``t+1``.
    """
    return get_backend().sweep_padded(
        padded, spec, radius, interior_shape, constant=constant, out=out
    )


def sweep(
    u: np.ndarray,
    spec: StencilSpec,
    boundary: BoundarySpec | BoundaryCondition | Sequence[BoundaryCondition],
    constant: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply one stencil sweep to an interior domain with a boundary condition.

    This is the closed-boundary convenience form: it pads ``u`` according
    to ``boundary`` and delegates to :func:`sweep_padded`.
    """
    if u.ndim != spec.ndim:
        raise ValueError(
            f"domain has {u.ndim} dimensions but stencil is {spec.ndim}D"
        )
    radius = spec.radius()
    padded = pad_array(u, radius, boundary)
    return sweep_padded(padded, spec, radius, u.shape, constant=constant, out=out)
