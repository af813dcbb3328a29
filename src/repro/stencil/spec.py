"""Stencil specification.

A stencil is a set of points ``{(i, j[, k], w)}`` — relative offsets and
weight coefficients — applied uniformly to every point of the domain
(Equation (1) of the paper):

.. math::

    u^{(t+1)}_{x,y} = C_{x,y} + \\sum_{\\{i,j,w\\} \\in S} w \\cdot u^{(t)}_{x+i, y+j}

The optional constant term :math:`C_{x,y}` (e.g. a localized heat source,
or the power map of HotSpot3D) is *not* part of the spec; it is passed to
the sweep separately because it is a property of the domain, not of the
operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

__all__ = ["BatchOperator", "StencilPoint", "StencilSpec", "spec_key"]


@dataclass(frozen=True)
class StencilPoint:
    """A single stencil point: relative offset + weight.

    Parameters
    ----------
    offset:
        Relative coordinates ``(i, j)`` for 2D stencils or ``(i, j, k)``
        for 3D stencils (one integer per array axis, in axis order).
    weight:
        Weight coefficient of this point. Weights are individual per
        point and may take arbitrary values (including negative).
    """

    offset: Tuple[int, ...]
    weight: float

    def __post_init__(self) -> None:
        offset = tuple(int(o) for o in self.offset)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "weight", float(self.weight))
        if len(offset) not in (1, 2, 3):
            raise ValueError(
                f"stencil offsets must have 1, 2 or 3 components, got {offset!r}"
            )

    @property
    def ndim(self) -> int:
        return len(self.offset)


class StencilSpec:
    """An arbitrary stencil operator: a finite set of weighted offsets.

    Parameters
    ----------
    points:
        Iterable of :class:`StencilPoint` or ``(offset_tuple, weight)``
        pairs. Duplicate offsets are merged by summing their weights.

    Notes
    -----
    The class is immutable after construction. Offsets and weights are
    exposed as NumPy arrays (``offsets`` with shape ``(k, ndim)`` and
    ``weights`` with shape ``(k,)``) for vectorised consumption by the
    sweep and by the checksum interpolation.
    """

    def __init__(self, points: Iterable) -> None:
        merged: Dict[Tuple[int, ...], float] = {}
        ndim = None
        for p in points:
            if isinstance(p, StencilPoint):
                offset, weight = p.offset, p.weight
            else:
                offset, weight = p
                offset = tuple(int(o) for o in offset)
                weight = float(weight)
            if ndim is None:
                ndim = len(offset)
            elif len(offset) != ndim:
                raise ValueError(
                    "all stencil points must have the same dimensionality; "
                    f"got offsets of length {ndim} and {len(offset)}"
                )
            merged[offset] = merged.get(offset, 0.0) + weight
        if not merged:
            raise ValueError("a stencil needs at least one point")
        if ndim not in (2, 3):
            raise ValueError(f"only 2D and 3D stencils are supported, got ndim={ndim}")

        # Deterministic ordering (lexicographic on offsets) so that sweeps
        # and checksum interpolation accumulate terms in the same order,
        # which keeps floating-point round-off reproducible run to run.
        items = sorted(merged.items())
        self._offsets = np.array([o for o, _ in items], dtype=np.int64)
        self._weights = np.array([w for _, w in items], dtype=np.float64)
        self._ndim = ndim

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_dict(cls, weights: Dict[Tuple[int, ...], float]) -> "StencilSpec":
        """Build a spec from an ``{offset: weight}`` mapping."""
        return cls(list(weights.items()))

    @classmethod
    def five_point(
        cls,
        center: float,
        west: float,
        east: float,
        north: float,
        south: float,
    ) -> "StencilSpec":
        """2D five-point stencil (the kernel of Figure 2 in the paper).

        ``west``/``east`` are offsets along the first axis (x) and
        ``north``/``south`` along the second axis (y).
        """
        return cls.from_dict(
            {
                (0, 0): center,
                (-1, 0): west,
                (1, 0): east,
                (0, -1): north,
                (0, 1): south,
            }
        )

    @classmethod
    def four_point_average(cls) -> "StencilSpec":
        """The 2D 4-point averaging stencil used as the paper's example."""
        return cls.from_dict(
            {(0, -1): 0.25, (-1, 0): 0.25, (1, 0): 0.25, (0, 1): 0.25}
        )

    @classmethod
    def nine_point(cls, weights: Sequence[float]) -> "StencilSpec":
        """2D nine-point (Moore neighbourhood) stencil.

        ``weights`` must contain nine coefficients in row-major offset
        order ``(-1,-1), (-1,0), (-1,1), (0,-1), (0,0), (0,1), (1,-1),
        (1,0), (1,1)``.
        """
        weights = [float(w) for w in weights]
        if len(weights) != 9:
            raise ValueError(f"nine_point needs 9 weights, got {len(weights)}")
        offsets = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        return cls(list(zip(offsets, weights)))

    @classmethod
    def seven_point_3d(
        cls,
        center: float,
        west: float,
        east: float,
        north: float,
        south: float,
        below: float,
        above: float,
    ) -> "StencilSpec":
        """3D seven-point stencil (the HotSpot3D kernel shape)."""
        return cls.from_dict(
            {
                (0, 0, 0): center,
                (-1, 0, 0): west,
                (1, 0, 0): east,
                (0, -1, 0): north,
                (0, 1, 0): south,
                (0, 0, -1): below,
                (0, 0, 1): above,
            }
        )

    # -- accessors ---------------------------------------------------------
    @property
    def ndim(self) -> int:
        """Dimensionality of the stencil (2 or 3)."""
        return self._ndim

    @property
    def offsets(self) -> np.ndarray:
        """Integer offsets, shape ``(k, ndim)``."""
        return self._offsets

    @property
    def weights(self) -> np.ndarray:
        """Weight coefficients, shape ``(k,)``."""
        return self._weights

    @property
    def npoints(self) -> int:
        """Number of stencil points ``k = |S|``."""
        return len(self._weights)

    def points(self) -> Tuple[StencilPoint, ...]:
        """The stencil as a tuple of :class:`StencilPoint`."""
        return tuple(
            StencilPoint(tuple(int(v) for v in o), float(w))
            for o, w in zip(self._offsets, self._weights)
        )

    def weight_of(self, offset: Tuple[int, ...]) -> float:
        """Weight at ``offset`` (0.0 if the offset is not in the stencil)."""
        offset = tuple(int(o) for o in offset)
        for o, w in zip(self._offsets, self._weights):
            if tuple(int(v) for v in o) == offset:
                return float(w)
        return 0.0

    # -- derived properties -------------------------------------------------
    def radius(self) -> Tuple[int, ...]:
        """Maximum absolute offset per axis (ghost-cell width needed)."""
        return tuple(int(r) for r in np.abs(self._offsets).max(axis=0))

    def max_radius(self) -> int:
        return int(max(self.radius()))

    def weight_sum(self) -> float:
        """Sum of all weights (1.0 for an averaging stencil)."""
        return float(self._weights.sum())

    def abs_weight_sum(self) -> float:
        """Sum of absolute weights (amplification bound used by thresholds)."""
        return float(np.abs(self._weights).sum())

    def is_axis_symmetric(self, axis: int) -> bool:
        """``True`` iff the stencil is mirror-symmetric along ``axis``.

        Mirror symmetry along the reduction axis is the condition under
        which the α/β boundary-correction terms of Theorem 1 cancel for
        clamp (bounce-back) boundaries; see
        :mod:`repro.core.interpolation`.
        """
        table = {tuple(int(v) for v in o): float(w)
                 for o, w in zip(self._offsets, self._weights)}
        for offset, weight in table.items():
            mirrored = list(offset)
            mirrored[axis] = -mirrored[axis]
            if abs(table.get(tuple(mirrored), 0.0) - weight) > 1e-15:
                return False
        return True

    def is_fully_symmetric(self) -> bool:
        """``True`` iff the stencil is mirror-symmetric along every axis."""
        return all(self.is_axis_symmetric(a) for a in range(self._ndim))

    def scaled(self, factor: float) -> "StencilSpec":
        """A new spec with every weight multiplied by ``factor``."""
        return StencilSpec(
            [
                (tuple(int(v) for v in o), float(w) * factor)
                for o, w in zip(self._offsets, self._weights)
            ]
        )

    # -- dunder -------------------------------------------------------------
    def __len__(self) -> int:
        return self.npoints

    def __iter__(self):
        for o, w in zip(self._offsets, self._weights):
            yield tuple(int(v) for v in o), float(w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StencilSpec):
            return NotImplemented
        return (
            self._ndim == other._ndim
            and np.array_equal(self._offsets, other._offsets)
            and np.allclose(self._weights, other._weights, rtol=0.0, atol=0.0)
        )

    def __hash__(self) -> int:
        return hash(
            (self._ndim, self._offsets.tobytes(), self._weights.tobytes())
        )

    def __repr__(self) -> str:
        pts = ", ".join(f"{tuple(int(v) for v in o)}: {w:g}"
                        for o, w in zip(self._offsets, self._weights))
        return f"StencilSpec({{{pts}}})"


class BatchOperator(tuple):
    """A spec's ``(offset + (0,), weight)`` pairs: one more, unshifted axis.

    The operator of a stacked campaign batch, whose runs lie along a
    trailing axis of ghost width 0.  It is a tuple, so immutable, and
    its :func:`spec_key` is computed once, at construction.
    """

    def __new__(cls, spec: StencilSpec) -> "BatchOperator":
        self = super().__new__(cls, ((o + (0,), w) for o, w in spec))
        offsets = np.array([o for o, _ in self], dtype=np.int64)
        self.key = (offsets.tobytes(), spec.weights.tobytes())
        return self


def spec_key(spec) -> tuple:
    """Hashable identity of an operator, exact to the weight bits.

    The key of the plan caches that derive geometry from an operator.  A
    :class:`StencilSpec` or :class:`BatchOperator` is keyed on its offset
    and weight bytes (a ``==`` of specs is far slower than a bytes
    compare, and bytes cache their hash).  Any other iterable of
    ``(offset, weight)`` pairs is keyed on a tuple of its pairs —
    ``key[0]``, itself a valid operator to build a plan from — and its
    weight bytes, since ``0.0 == -0.0`` would make the pairs alone
    match an operator whose weights differ in the sign bit.
    """
    if isinstance(spec, StencilSpec):
        return (spec.offsets.tobytes(), spec.weights.tobytes())
    if isinstance(spec, BatchOperator):
        return spec.key
    pairs = tuple((tuple(int(o) for o in offset), float(w)) for offset, w in spec)
    return (pairs, np.array([w for _, w in pairs], dtype=np.float64).tobytes())
