"""The stencil IR: kernel plans and the halo-plan lowering pass.

A :class:`KernelPlan` is the tiny intermediate representation sitting
between a :class:`~repro.stencil.spec.StencilSpec` + grid layout and the
emitted numba source:

* the **halo plan** pass (:func:`plan_kernel`) lowers each axis's
  boundary kind into an explicit index-mapping rule
  (:class:`AxisHaloPlan`) — how a ghost position along that axis maps
  onto a source position (or a fill value).  Crucially the periodic
  mapping is the exact modular tiling ``ghost g  ←  r + (g - r) mod n``,
  which equals ``numpy.pad(mode="wrap")`` for *every* ghost width —
  including the degenerate ``r > n`` wrap — and reads only interior
  positions along the axis being refreshed, so the in-place fill needs
  no special cases.  External (distributed) axes lower to "no fill, and
  later axes span my full extent", which is what lets the compiled step
  accept every external-axis ordering;
* the **fusion** information — the spec's offset table in deterministic
  lexicographic order and whether a per-point constant is folded in —
  is carried verbatim for the emit pass to unroll into the inner loop
  (weights stay runtime arguments so specs differing only in
  coefficients share a kernel).

Plans are hashable, carry a canonical :attr:`KernelPlan.signature` and
derive the content :attr:`KernelPlan.digest` that names the on-disk
generated module.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.stencil.doublebuffer import GridLayout
from repro.stencil.spec import StencilSpec

__all__ = ["CODEGEN_VERSION", "AxisHaloPlan", "KernelPlan", "plan_kernel"]

#: Bumped whenever the emitted source changes shape, so stale on-disk
#: modules from an older emitter can never be picked up by digest.
CODEGEN_VERSION = 3

#: Boundary kinds the halo plan knows how to lower.
_KINDS = ("clamp", "periodic", "fill", "external")


@dataclass(frozen=True)
class AxisHaloPlan:
    """Lowered ghost-fill rule for one axis.

    ``kind`` selects the index mapping the emit pass materialises:

    ``clamp``
        low ghost ← first interior row, high ghost ← last interior row.
    ``periodic``
        ghost ``g`` ← interior position ``r + (g - r) mod n`` (modular
        tiling; valid for any ``r``/``n`` combination, degenerate wraps
        included, and reads only interior positions of this axis).
    ``fill``
        both slabs ← the axis's runtime fill value.
    ``external``
        no fill — the slabs hold ingested halo data; axes refreshed
        after this one span its *full* padded extent (ghosts included),
        exactly like the interpreted refresh treats a zero-radius axis.
    """

    axis: int
    radius: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown halo kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    @property
    def fills_ghosts(self) -> bool:
        """Whether this axis writes any ghost slab at all."""
        return self.kind != "external" and self.radius > 0


@dataclass(frozen=True)
class KernelPlan:
    """Everything the emit pass needs to produce one kernel module.

    ``halo`` is ``None`` for sweep-only plans (ghost cells trusted as
    given — the ``sweep_padded`` family); step plans carry one
    :class:`AxisHaloPlan` per axis, in refresh order.
    """

    ndim: int
    offsets: Tuple[Tuple[int, ...], ...]
    has_const: bool
    halo: Optional[Tuple[AxisHaloPlan, ...]]
    spec_signature: str
    layout_signature: Optional[str]
    batch: bool = False

    @property
    def npoints(self) -> int:
        return len(self.offsets)

    @property
    def has_step(self) -> bool:
        return self.halo is not None

    @property
    def signature(self) -> str:
        """Canonical identity of the generated module (cache key)."""
        offs = ";".join(
            ",".join(str(v) for v in o) for o in self.offsets
        )
        halo = (
            "none"
            if self.halo is None
            else ";".join(f"{h.radius}:{h.kind}" for h in self.halo)
        )
        return (
            f"v{CODEGEN_VERSION}|{self.ndim}d|offs[{offs}]"
            f"|const={int(self.has_const)}|halo[{halo}]"
            + ("|b" if self.batch else "")
        )

    @property
    def digest(self) -> str:
        """Content hash naming the on-disk module (``rk_<digest>.py``)."""
        return hashlib.sha256(self.signature.encode()).hexdigest()[:16]


def plan_kernel(
    spec: StencilSpec,
    has_const: bool = False,
    layout: Optional[GridLayout] = None,
    batch: bool = False,
) -> KernelPlan:
    """Lower a spec (and optionally a grid layout) into a kernel plan.

    With ``layout`` the plan also carries the halo plan for the fused
    ``step`` kernels; without it only the sweep family is planned.  The
    layout's ghost width must cover the stencil radius on every axis.

    ``batch=True`` plans the batched campaign kernel family
    (``bstep``/``bstep_cs``): the same halo plan, but the arrays carry
    a trailing run axis ``b`` and one traversal refreshes ghosts,
    sweeps and folds per-run checksum partials for every run in the
    batch.  A batched plan requires a layout (the whole point is the
    fused step).
    """
    if batch and layout is None:
        raise ValueError(
            "batched plans require a grid layout: only the fused "
            "step family has a batched emission strategy"
        )
    offsets = tuple(
        tuple(int(v) for v in o) for o in spec.offsets
    )
    halo: Optional[Tuple[AxisHaloPlan, ...]] = None
    layout_signature: Optional[str] = None
    if layout is not None:
        if layout.ndim != spec.ndim:
            raise ValueError(
                f"layout has {layout.ndim} axes, stencil has {spec.ndim}"
            )
        for axis, (r_spec, r_layout) in enumerate(
            zip(spec.radius(), layout.radius)
        ):
            if r_layout < r_spec:
                raise ValueError(
                    f"layout ghost width {r_layout} along axis {axis} is "
                    f"smaller than the stencil radius {r_spec}"
                )
        halo = tuple(
            AxisHaloPlan(axis=a, radius=r, kind=kind)
            for a, (r, kind) in enumerate(zip(layout.radius, layout.kinds))
        )
        layout_signature = layout.signature()
    return KernelPlan(
        ndim=spec.ndim,
        offsets=offsets,
        has_const=bool(has_const),
        halo=halo,
        spec_signature=spec.signature(),
        layout_signature=layout_signature,
        batch=bool(batch),
    )
