"""The emit pass: a :class:`~repro.backends.codegen.plan.KernelPlan` to
numba-ready Python source.

One plan becomes one self-contained module with up to five functions:

``sweep`` / ``sweep_cs``
    The fused sweep (+ per-point checksum) over trusted ghost cells.
    The spec's offset table is unrolled into straight-line multiply-adds
    (the fusion pass), accumulating in the domain dtype in the spec's
    deterministic lexicographic offset order; weights arrive as a
    pre-cast runtime vector.  The checksum variant folds every freshly
    computed value into its row and column partials exactly like the
    interpreted backends' contract: ``cs1`` is indexed by the parallel
    loop variable, ``cs0`` is merged by a parfor array reduction over
    thread-private partials.
``refresh`` / ``step`` / ``step_cs``  (step plans only)
    The halo plan materialised as straight-line slab fills — per-axis
    kind and ghost width baked in, fill values as a runtime vector —
    followed by the sweep at source/destination offset ``radius``.
    Axis ``k``'s slabs span the full padded extent of axes ``< k`` and
    of external axes, and the interior range of refreshed axes ``> k``
    (corner ownership by the highest axis), reproducing
    :func:`repro.stencil.shift.refresh_ghosts` bit for bit; the modular
    periodic mapping makes degenerate wraps (``r > n``) just another
    straight-line case.
``bstep`` / ``bstep_cs``  (batched step plans, ``batch=True``)
    The batched campaign strategy: the arrays carry a trailing run axis
    ``b`` and the outer ``prange`` runs over the batch, so one
    traversal refreshes ghosts, sweeps and folds per-run checksum
    partials for every run.  Within a run the fills and accumulation
    order are the single-run ``step``/``step_cs`` bodies verbatim (with
    ``, b`` appended to each access), keeping run ``b`` bit-identical
    to a single step on slot ``b``; the per-run checksum columns land
    in trailing-axis ``(.., nb)`` arrays allocated before the run loop.

The module imports ``prange`` from :mod:`repro.backends.codegen.runtime`
and carries no decorators: the compiler applies ``numba.njit`` after
loading (or leaves the functions as plain Python when running without
numba), so the identical source serves both execution modes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.backends.codegen.plan import AxisHaloPlan, KernelPlan

__all__ = ["emit_module"]

_Term = Union[int, str]


def _sum_expr(*terms: _Term) -> str:
    """Render a sum of symbolic terms and integers, folding constants.

    ``_sum_expr("n0", 1, -1)`` → ``"n0"``; ``_sum_expr(0, "g")`` →
    ``"g"``; ``_sum_expr("x0", "sr0", -1)`` → ``"x0 + sr0 - 1"``.
    """
    symbols = [t for t in terms if isinstance(t, str)]
    const = sum(t for t in terms if isinstance(t, int))
    if not symbols:
        return str(const)
    expr = " + ".join(symbols)
    if const > 0:
        expr += f" + {const}"
    elif const < 0:
        expr += f" - {-const}"
    return expr


def _idx(parts: Sequence[str]) -> str:
    return ", ".join(parts)


class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def line(self, depth: int, text: str = "") -> None:
        self.lines.append(("    " * depth + text) if text else "")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_point_sum(
    w: _Writer,
    depth: int,
    plan: KernelPlan,
    src_base: Sequence[Sequence[_Term]],
    tail: Sequence[str] = (),
) -> None:
    """Unrolled ``acc`` accumulation over the spec's offset table.

    The constant term seeds the accumulator (matching the reference
    backends, which start from ``out += constant`` before the point
    loop), then the points accumulate in the spec's lexicographic
    order — so the rounding sequence is identical to the interpreted
    sweep and the interior comes out bit-identical.  ``tail`` appends
    extra trailing index components to every ``src`` access (the run
    axis of batched kernels); the constant is interior-shaped and never
    takes the tail.
    """
    for p, offset in enumerate(plan.offsets):
        idx = _idx(
            [
                _sum_expr(*base, o)
                for base, o in zip(src_base, offset)
            ]
            + list(tail)
        )
        if p == 0 and plan.has_const:
            loopvars = _idx([f"x{a}" for a in range(plan.ndim)])
            w.line(depth, f"acc = const[{loopvars}] + wts[0] * src[{idx}]")
        elif p == 0:
            w.line(depth, f"acc = wts[0] * src[{idx}]")
        else:
            w.line(depth, f"acc += wts[{p}] * src[{idx}]")


def _sweep_args(ndim: int, cs: bool) -> str:
    dims = range(ndim)
    args = ["src", "dst", "wts"]
    args += [f"sr{a}" for a in dims]
    args += [f"dr{a}" for a in dims]
    args += [f"n{a}" for a in dims]
    args.append("const")
    if cs:
        args.append("cs_like")
    return ", ".join(args)


def _emit_sweep(w: _Writer, plan: KernelPlan) -> None:
    ndim = plan.ndim
    dims = range(ndim)
    src_base = [(f"x{a}", f"sr{a}") for a in dims]
    dst_idx = _idx([_sum_expr(f"x{a}", f"dr{a}") for a in dims])
    w.line(0, f"def sweep({_sweep_args(ndim, cs=False)}):")
    w.line(1, "for x0 in prange(n0):")
    for a in range(1, ndim):
        w.line(a + 1, f"for x{a} in range(n{a}):")
    _emit_point_sum(w, ndim + 1, plan, src_base)
    w.line(ndim + 1, f"dst[{dst_idx}] = acc")
    w.line(0)
    w.line(0)


def _emit_sweep_cs(w: _Writer, plan: KernelPlan) -> None:
    ndim = plan.ndim
    dims = range(ndim)
    src_base = [(f"x{a}", f"sr{a}") for a in dims]
    dst_idx = _idx([_sum_expr(f"x{a}", f"dr{a}") for a in dims])
    w.line(0, f"def sweep_cs({_sweep_args(ndim, cs=True)}):")
    if ndim == 2:
        w.line(1, "cs0 = np.zeros(n1, cs_like.dtype)")
        w.line(1, "cs1 = np.zeros(n0, cs_like.dtype)")
        w.line(1, "for x0 in prange(n0):")
        w.line(2, "row = np.zeros(n1, cs_like.dtype)")
        w.line(2, "s = row[0]")
        w.line(2, "for x1 in range(n1):")
        _emit_point_sum(w, 3, plan, src_base)
        w.line(3, f"dst[{dst_idx}] = acc")
        w.line(3, "row[x1] = acc")
        w.line(3, "s += row[x1]")
        w.line(2, "cs1[x0] = s")
        w.line(2, "cs0 += row")
    else:
        w.line(1, "cs0 = np.zeros((n1, n2), cs_like.dtype)")
        w.line(1, "cs1 = np.zeros((n0, n2), cs_like.dtype)")
        w.line(1, "for x0 in prange(n0):")
        w.line(2, "part = np.zeros((n1, n2), cs_like.dtype)")
        w.line(2, "for x1 in range(n1):")
        w.line(3, "for x2 in range(n2):")
        _emit_point_sum(w, 4, plan, src_base)
        w.line(4, f"dst[{dst_idx}] = acc")
        w.line(4, "part[x1, x2] = acc")
        w.line(4, "cs1[x0, x2] += part[x1, x2]")
        w.line(2, "cs0 += part")
    w.line(1, "return cs0, cs1")
    w.line(0)
    w.line(0)


def _halo_loop_ranges(
    halo: Sequence[AxisHaloPlan], k: int
) -> List[str]:
    """Loop range expressions for the non-ghost axes of axis ``k``'s fill.

    Axes before ``k`` were already refreshed (or are external), so their
    full padded extent is spanned; refreshed axes after ``k`` contribute
    only their interior range (their slabs — the corners — are written
    later, by the higher axis), while external axes after ``k`` span
    their full extent like interior (zero-radius semantics).
    """
    ranges = []
    for j, h in enumerate(halo):
        if j == k:
            continue
        full = j < k or h.kind == "external"
        if full:
            ranges.append(f"range({_sum_expr(f'n{j}', 2 * h.radius)})")
        else:
            ranges.append(
                f"range({h.radius}, {_sum_expr(f'n{j}', h.radius)})"
                if h.radius
                else f"range(n{j})"
            )
    return ranges


def _emit_halo_fills(
    w: _Writer,
    plan: KernelPlan,
    base_depth: int,
    tail: Sequence[str] = (),
) -> bool:
    """Straight-line ghost-slab fills for every boundary axis.

    Shared body of ``refresh`` (``base_depth=1``, no tail) and the
    batched ``bstep`` family, which inlines the fills inside the run
    loop with ``tail=("b",)`` appended to every index.  Returns whether
    any fill was emitted at all.
    """
    ndim = plan.ndim
    halo = plan.halo
    assert halo is not None
    body = False
    for k, h in enumerate(halo):
        if not h.fills_ghosts:
            continue
        body = True
        r, n = h.radius, f"n{h.axis}"
        w.line(base_depth, f"# axis {h.axis} halo: {h.kind} (r={r})")
        other = [j for j in range(ndim) if j != k]
        depth = base_depth
        for j, rng in zip(other, _halo_loop_ranges(halo, k)):
            w.line(depth, f"for i{j} in {rng}:")
            depth += 1
        w.line(depth, f"for g in range({r}):")
        depth += 1

        def ghost(pos: str) -> str:
            parts = [f"i{j}" for j in range(ndim)]
            parts[k] = pos
            return _idx(parts + list(tail))

        low_pos = "g"
        high_pos = _sum_expr(r, n, "g")
        if h.kind == "clamp":
            low_src, high_src = str(r), _sum_expr(r, n, -1)
            w.line(depth, f"src[{ghost(low_pos)}] = src[{ghost(low_src)}]")
            w.line(depth, f"src[{ghost(high_pos)}] = src[{ghost(high_src)}]")
        elif h.kind == "periodic":
            low_src = f"{r} + (g - {r}) % {n}"
            high_src = f"{r} + ({n} + g) % {n}"
            w.line(depth, f"src[{ghost(low_pos)}] = src[{ghost(low_src)}]")
            w.line(depth, f"src[{ghost(high_pos)}] = src[{ghost(high_src)}]")
        else:
            w.line(depth, f"src[{ghost(low_pos)}] = fills[{k}]")
            w.line(depth, f"src[{ghost(high_pos)}] = fills[{k}]")
    return body


def _emit_refresh(w: _Writer, plan: KernelPlan) -> None:
    ndim = plan.ndim
    args = ", ".join(["src"] + [f"n{a}" for a in range(ndim)] + ["fills"])
    w.line(0, f"def refresh({args}):")
    if not _emit_halo_fills(w, plan, 1):
        w.line(1, "pass  # every axis is external or has zero ghost width")
    w.line(0)
    w.line(0)


def _emit_step(w: _Writer, plan: KernelPlan, cs: bool) -> None:
    ndim = plan.ndim
    halo = plan.halo
    assert halo is not None
    name = "step_cs" if cs else "step"
    args = ["src", "dst", "wts"] + [f"n{a}" for a in range(ndim)]
    args += ["const", "fills"]
    if cs:
        args.append("cs_like")
    w.line(0, f"def {name}({', '.join(args)}):")
    refresh_args = ", ".join(
        ["src"] + [f"n{a}" for a in range(ndim)] + ["fills"]
    )
    w.line(1, f"refresh({refresh_args})")
    radii = [str(h.radius) for h in halo]
    sweep_args = (
        ["src", "dst", "wts"]
        + radii
        + radii
        + [f"n{a}" for a in range(ndim)]
        + ["const"]
    )
    if cs:
        sweep_args.append("cs_like")
        w.line(1, f"return sweep_cs({', '.join(sweep_args)})")
    else:
        w.line(1, f"sweep({', '.join(sweep_args)})")
    w.line(0)
    w.line(0)


def _emit_bstep(w: _Writer, plan: KernelPlan, cs: bool) -> None:
    """The batched campaign kernel: trailing run axis ``b``.

    One traversal refreshes ghosts, sweeps and (``bstep_cs``) folds
    per-run checksum partials for every run in the batch.  The outer
    ``prange`` is over runs, so each thread owns one run's slab of
    ``src``/``dst`` and its own trailing-axis checksum columns — no
    cross-thread writes.  Within one run the halo fills, the point
    accumulation order and the per-run checksum line sequence are the
    exact single-run ``step``/``step_cs`` bodies with ``, b`` appended
    to every array access (the interior-shaped constant excepted), so
    run ``b`` of a batched call is arithmetically the single-run kernel
    applied to slot ``b``.
    """
    ndim = plan.ndim
    halo = plan.halo
    assert halo is not None
    radii = [h.radius for h in halo]
    dims = range(ndim)
    name = "bstep_cs" if cs else "bstep"
    args = ["src", "dst", "wts"] + [f"n{a}" for a in dims]
    args += ["nb", "const", "fills"]
    if cs:
        args.append("cs_like")
    w.line(0, f"def {name}({', '.join(args)}):")
    if cs:
        if ndim == 2:
            w.line(1, "cs0 = np.zeros((n1, nb), cs_like.dtype)")
            w.line(1, "cs1 = np.zeros((n0, nb), cs_like.dtype)")
        else:
            w.line(1, "cs0 = np.zeros((n1, n2, nb), cs_like.dtype)")
            w.line(1, "cs1 = np.zeros((n0, n2, nb), cs_like.dtype)")
    w.line(1, "for b in prange(nb):")
    _emit_halo_fills(w, plan, 2, tail=("b",))
    src_base = [(f"x{a}", radii[a]) for a in dims]
    dst_idx = _idx(
        [_sum_expr(f"x{a}", radii[a]) for a in dims] + ["b"]
    )
    if not cs:
        w.line(2, "for x0 in range(n0):")
        for a in range(1, ndim):
            w.line(a + 2, f"for x{a} in range(n{a}):")
        _emit_point_sum(w, ndim + 2, plan, src_base, tail=("b",))
        w.line(ndim + 2, f"dst[{dst_idx}] = acc")
    elif ndim == 2:
        w.line(2, "for x0 in range(n0):")
        w.line(3, "row = np.zeros(n1, cs_like.dtype)")
        w.line(3, "s = row[0]")
        w.line(3, "for x1 in range(n1):")
        _emit_point_sum(w, 4, plan, src_base, tail=("b",))
        w.line(4, f"dst[{dst_idx}] = acc")
        w.line(4, "row[x1] = acc")
        w.line(4, "s += row[x1]")
        w.line(3, "cs1[x0, b] = s")
        w.line(3, "for x1 in range(n1):")
        w.line(4, "cs0[x1, b] += row[x1]")
    else:
        w.line(2, "for x0 in range(n0):")
        w.line(3, "part = np.zeros((n1, n2), cs_like.dtype)")
        w.line(3, "for x1 in range(n1):")
        w.line(4, "for x2 in range(n2):")
        _emit_point_sum(w, 5, plan, src_base, tail=("b",))
        w.line(5, f"dst[{dst_idx}] = acc")
        w.line(5, "part[x1, x2] = acc")
        w.line(5, "cs1[x0, x2, b] += part[x1, x2]")
        w.line(3, "for x1 in range(n1):")
        w.line(4, "for x2 in range(n2):")
        w.line(5, "cs0[x1, x2, b] += part[x1, x2]")
    if cs:
        w.line(1, "return cs0, cs1")
    w.line(0)
    w.line(0)


def emit_module(plan: KernelPlan) -> str:
    """Emit the full generated-module source for ``plan``."""
    w = _Writer()
    w.line(0, '"""Generated stencil kernels. DO NOT EDIT.')
    w.line(0)
    w.line(0, f"plan:   {plan.signature}")
    w.line(0, f"spec:   {plan.spec_signature}")
    if plan.layout_signature is not None:
        w.line(0, f"layout: {plan.layout_signature}")
    if plan.batch:
        w.line(0, "batched: trailing run axis b, one traversal per batch")
    w.line(0, '"""')
    w.line(0)
    w.line(0, "import numpy as np")
    w.line(0)
    w.line(0, "from repro.backends.codegen.runtime import prange")
    w.line(0)
    w.line(0, f"SIGNATURE = {plan.signature!r}")
    w.line(0, f"DIGEST = {plan.digest!r}")
    if plan.batch:
        # A batched module carries only the batched pair: the single-run
        # families live in the unbatched module for the same layout, so
        # emitting them here would just double the compile cost.
        w.line(0, 'JIT_FUNCS = ("bstep", "bstep_cs")')
        w.line(0, 'PARALLEL_FUNCS = ("bstep", "bstep_cs")')
        w.line(0)
        w.line(0)
        _emit_bstep(w, plan, cs=False)
        _emit_bstep(w, plan, cs=True)
        src = w.source()
        return src.rstrip("\n") + "\n"
    funcs = ["sweep", "sweep_cs"]
    if plan.has_step:
        funcs += ["refresh", "step", "step_cs"]
    w.line(0, f"JIT_FUNCS = {tuple(funcs)!r}")
    w.line(0, 'PARALLEL_FUNCS = ("sweep", "sweep_cs")')
    w.line(0)
    w.line(0)
    _emit_sweep(w, plan)
    _emit_sweep_cs(w, plan)
    if plan.has_step:
        _emit_refresh(w, plan)
        _emit_step(w, plan, cs=False)
        _emit_step(w, plan, cs=True)
    src = w.source()
    return src.rstrip("\n") + "\n"
