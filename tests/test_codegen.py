"""The stencil kernel compiler: plans, emitted source, cache, identity.

These tests run everywhere — with numba installed the backend under
test JIT-compiles the generated source, without it the same source
executes as plain Python (``KernelCompiler(jit=False)``), so the
emitted index arithmetic is pinned down independently of compilation.

The centrepiece is a hypothesis property test: random stencil specs
(radius ≤ 3, 2D and 3D), random boundary-kind mixes, random external
(distributed) axis subsets and degenerate periodic halos (ghost wider
than the interior) — for every drawn layout the generated fused
refresh+sweep+checksum step must be **bit-identical** to the
interpreted ``refresh_ghosts`` + reference-sweep path, halo included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.backends.base import (
    interpreted_step_counts,
    reset_interpreted_step_counts,
)
from repro.backends.codegen import (
    CACHE_DIR_ENV_VAR,
    CODEGEN_VERSION,
    KernelCompiler,
    default_cache_dir,
    emit_module,
    get_compiler,
    plan_kernel,
)
from repro.backends.numba_backend import NumbaBackend
from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.doublebuffer import GridLayout
from repro.stencil.shift import (
    interior_view,
    pad_array,
    padded_shape,
    refresh_ghosts,
)
from repro.stencil.spec import StencilSpec


@pytest.fixture
def compiler(tmp_path):
    return KernelCompiler(cache_dir=tmp_path, jit=False)


@pytest.fixture
def backend(compiler):
    return NumbaBackend(compiler=compiler)


def _spec2d():
    return StencilSpec.from_dict(
        {(0, 0): 0.6, (-1, 0): 0.1, (1, 0): 0.1, (0, -1): 0.1, (0, 1): 0.1}
    )


def _layout(radius, boundary, ndim, refresh_axes=None):
    return GridLayout.from_args(
        radius, BoundarySpec.from_any(boundary, ndim), ndim,
        refresh_axes=refresh_axes,
    )


class TestPlan:
    def test_signature_is_structural(self):
        a = plan_kernel(_spec2d())
        b = plan_kernel(
            StencilSpec.from_dict(
                {(0, 0): 9.0, (-1, 0): 8.0, (1, 0): 7.0, (0, -1): 6.0,
                 (0, 1): 5.0}
            )
        )
        # Same offsets, different weights: weights are runtime arguments,
        # so the two specs share one generated kernel.
        assert a.signature == b.signature
        assert a.digest == b.digest
        assert f"v{CODEGEN_VERSION}|" in a.signature

    def test_fill_values_do_not_change_the_signature(self):
        spec = _spec2d()
        l1 = _layout((1, 1), BoundaryCondition.constant(1.5), 2)
        l2 = _layout((1, 1), BoundaryCondition.constant(-7.25), 2)
        assert l1.fills != l2.fills
        assert (
            plan_kernel(spec, layout=l1).signature
            == plan_kernel(spec, layout=l2).signature
        )

    def test_const_and_layout_distinguish_plans(self):
        spec = _spec2d()
        plain = plan_kernel(spec)
        with_const = plan_kernel(spec, has_const=True)
        with_layout = plan_kernel(
            spec, layout=_layout((1, 1), BoundaryCondition.clamp(), 2)
        )
        assert len({plain.signature, with_const.signature,
                    with_layout.signature}) == 3
        assert not plain.has_step
        assert with_layout.has_step

    def test_layout_must_cover_the_stencil_radius(self):
        spec = _spec2d()
        with pytest.raises(ValueError, match="smaller than the stencil"):
            plan_kernel(
                spec, layout=_layout((0, 1), BoundaryCondition.clamp(), 2)
            )

    def test_layout_ndim_must_match(self):
        with pytest.raises(ValueError, match="axes"):
            plan_kernel(
                _spec2d(),
                layout=_layout((1, 1, 1), BoundaryCondition.clamp(), 3),
            )


class TestGridLayout:
    def test_external_axes_from_refresh_axes(self):
        layout = GridLayout.from_args(
            (2, 1), BoundarySpec.from_any(BoundaryCondition.periodic(), 2),
            2, refresh_axes=(1,),
        )
        assert layout.kinds == ("external", "periodic")
        assert layout.external_axes == (0,)
        assert "external" in layout.signature()

    def test_grid_exposes_its_layout(self):
        from repro.stencil.doublebuffer import DoubleBufferedGrid

        grid = DoubleBufferedGrid(
            np.zeros((4, 5), dtype=np.float32), (1, 1),
            BoundaryCondition.clamp(), external_axes=(0,),
        )
        assert grid.layout.kinds == ("external", "clamp")

    def test_spec_signatures(self):
        spec = _spec2d()
        assert spec.signature().startswith("stencil2d[")
        assert spec.offsets_signature().startswith("offsets2d[")
        # offsets_signature ignores weights; signature does not.
        other = StencilSpec.from_dict(
            {(0, 0): 1.0, (-1, 0): 0.1, (1, 0): 0.1, (0, -1): 0.1,
             (0, 1): 0.1}
        )
        assert spec.offsets_signature() == other.offsets_signature()
        assert spec.signature() != other.signature()


class TestEmit:
    def test_sweep_only_module(self):
        src = emit_module(plan_kernel(_spec2d()))
        assert "def sweep(" in src and "def sweep_cs(" in src
        assert "def step(" not in src and "def refresh(" not in src
        assert 'JIT_FUNCS = (\'sweep\', \'sweep_cs\')' in src

    def test_step_module_has_all_five_functions(self):
        src = emit_module(
            plan_kernel(
                _spec2d(),
                layout=_layout((1, 1), BoundaryCondition.clamp(), 2),
            )
        )
        for fn in ("sweep", "sweep_cs", "refresh", "step", "step_cs"):
            assert f"def {fn}(" in src

    def test_external_axis_emits_no_fill_for_it(self):
        src = emit_module(
            plan_kernel(
                _spec2d(),
                layout=_layout(
                    (1, 1), BoundaryCondition.clamp(), 2, refresh_axes=(0,)
                ),
            )
        )
        assert "# axis 0 halo: clamp" in src
        assert "# axis 1 halo" not in src

    def test_all_external_refresh_is_a_pass(self):
        src = emit_module(
            plan_kernel(
                _spec2d(),
                layout=_layout(
                    (1, 1), BoundaryCondition.clamp(), 2, refresh_axes=()
                ),
            )
        )
        assert "pass  # every axis is external" in src


class TestCompilerCache:
    def test_in_memory_hit(self, compiler):
        spec = _spec2d()
        a = compiler.kernels_for(spec)
        b = compiler.kernels_for(spec)
        assert a is b
        assert a.hits == 1
        assert len(compiler.stats()) == 1
        assert compiler.stats()[0]["hits"] == 1

    def test_on_disk_reuse_across_compilers(self, tmp_path):
        spec = _spec2d()
        first = KernelCompiler(cache_dir=tmp_path, jit=False)
        entry = first.kernels_for(spec)
        assert not entry.from_disk
        assert entry.path.exists()
        second = KernelCompiler(cache_dir=tmp_path, jit=False)
        again = second.kernels_for(spec)
        # The second compiler found the identical source on disk — the
        # worker-process / later-run artifact-sharing path.
        assert again.from_disk
        assert again.path == entry.path

    def test_warmup_time_attribution(self, compiler, backend):
        backend.warmup(_spec2d())
        stats = compiler.stats()
        assert stats  # sweep + step (+const) families
        assert any(e["warmup_ms"] > 0 for e in stats)
        kinds = {e["kind"] for e in stats}
        assert kinds == {"sweep", "step"}

    def test_cache_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "kc"))
        assert default_cache_dir() == tmp_path / "kc"
        assert get_compiler().cache_dir  # singleton constructible


class TestBackendOnGeneratedKernels:
    def test_src_shape_mismatch_raises(self, backend, rng):
        spec = _spec2d()
        u = rng.random((6, 5)).astype(np.float32)
        src = pad_array(u, (2, 2), BoundaryCondition.clamp())  # too wide
        dst = np.zeros(padded_shape((6, 5), (1, 1)), dtype=np.float32)
        with pytest.raises(ValueError, match="src_padded"):
            backend.step_into(src, dst, spec, (1, 1), (6, 5),
                              BoundaryCondition.clamp())

    def test_aliasing_pair_stages_through_scratch(self, backend, rng):
        spec = _spec2d()
        u = rng.random((7, 6)).astype(np.float32)
        expected = get_backend("numpy").sweep_padded(
            pad_array(u, (1, 1), BoundaryCondition.clamp()), spec,
            (1, 1), (7, 6),
        )
        src = pad_array(u, (1, 1), BoundaryCondition.clamp())
        got = backend.step_into(
            src, src, spec, (1, 1), (7, 6), BoundaryCondition.clamp()
        )
        np.testing.assert_array_equal(got, expected)

    def test_no_interpreted_steps_recorded(self, backend, rng):
        reset_interpreted_step_counts()
        spec = _spec2d()
        u = rng.random((7, 6)).astype(np.float32)
        src = pad_array(u, (1, 1), BoundaryCondition.clamp())
        dst = np.zeros_like(src)
        backend.step_into(src, dst, spec, (1, 1), (7, 6),
                          BoundaryCondition.clamp())
        backend.step_into_with_checksums(
            src, dst, spec, (1, 1), (7, 6), BoundaryCondition.clamp(),
            (0, 1),
        )
        assert interpreted_step_counts().get("numba", 0) == 0

    def test_base_path_is_counted(self, rng):
        reset_interpreted_step_counts()
        spec = _spec2d()
        be = get_backend("fused")
        u = rng.random((7, 6)).astype(np.float32)
        src = pad_array(u, (1, 1), BoundaryCondition.clamp())
        dst = np.zeros_like(src)
        be.step_into(src, dst, spec, (1, 1), (7, 6),
                     BoundaryCondition.clamp())
        assert interpreted_step_counts().get("fused") == 1
        reset_interpreted_step_counts()
        assert interpreted_step_counts() == {}

    def test_compiled_kernels_reporting(self, backend):
        assert backend.compiles_kernels
        assert backend.compiled_kernels() == ()
        backend.warmup(_spec2d())
        entries = backend.compiled_kernels()
        assert entries
        for e in entries:
            assert e["signature"] and e["digest"]
        # fused generates no kernels: its one entry is the native flat
        # library (or the reason it is unavailable).
        (flat,) = get_backend("fused").compiled_kernels()
        assert flat["kind"] == "flat"


# -- the property test ------------------------------------------------------

_KIND_STRATEGY = st.sampled_from(("clamp", "periodic", "constant", "zero"))


def _bc(kind):
    if kind == "constant":
        return BoundaryCondition.constant(2.5)
    return getattr(BoundaryCondition, kind)()


@st.composite
def _cases(draw):
    ndim = draw(st.integers(2, 3))
    npoints = draw(st.integers(1, 5))
    offsets = draw(
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * ndim),
            min_size=npoints, max_size=npoints, unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False, width=32),
            min_size=npoints, max_size=npoints,
        )
    )
    spec = StencilSpec(list(zip(offsets, weights)))
    radius = spec.radius()
    # Interior extents deliberately allowed below the ghost width, so
    # degenerate periodic wraps (r > n) are drawn too.
    shape = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    kinds = tuple(draw(_KIND_STRATEGY) for _ in range(ndim))
    external = tuple(
        a for a in range(ndim) if draw(st.booleans()) and radius[a] > 0
    )
    has_const = draw(st.booleans())
    return spec, shape, kinds, external, has_const


@settings(max_examples=60, deadline=None)
@given(case=_cases(), seed=st.integers(0, 2**31 - 1))
def test_generated_step_bit_identical_to_interpreted(case, seed, tmp_path_factory):
    """Random spec × layout: generated fused step ≡ interpreted path.

    The halos start as random data (standing in for ingested neighbour
    halos on external axes); the reference runs ``refresh_ghosts`` over
    the non-external axes followed by the ``numpy`` reference sweep.
    Interior AND full halo must come out bit-identical; the fused
    checksums must match a post-hoc reduction to 1e-10.
    """
    spec, shape, kinds, external, has_const = case
    radius = spec.radius()
    boundary = BoundarySpec.from_any([_bc(k) for k in kinds], spec.ndim)
    refresh_axes = (
        tuple(a for a in range(spec.ndim) if a not in external)
        if external
        else None
    )
    rng = np.random.default_rng(seed)
    pshape = padded_shape(shape, radius)
    src_ref = rng.standard_normal(pshape).astype(np.float32)
    const = (
        rng.standard_normal(shape).astype(np.float32) if has_const else None
    )
    src_gen = src_ref.copy()
    dst_ref = np.full(pshape, np.nan, dtype=np.float32)
    dst_gen = np.full(pshape, np.nan, dtype=np.float32)

    refresh_ghosts(src_ref, radius, boundary, axes=refresh_axes)
    expected = get_backend("numpy").sweep_padded(
        src_ref, spec, radius, shape, constant=const
    )
    interior_view(dst_ref, radius)[...] = expected

    compiler = KernelCompiler(
        cache_dir=tmp_path_factory.mktemp("prop"), jit=False
    )
    backend = NumbaBackend(compiler=compiler)
    got, cs = backend.step_into_with_checksums(
        src_gen, dst_gen, spec, radius, shape, boundary, (0, 1),
        constant=const, checksum_dtype=np.float64,
        refresh_axes=refresh_axes,
    )
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(src_gen, src_ref)  # halo, corners included
    from repro.core.checksums import checksum

    for axis in (0, 1):
        posthoc = checksum(expected, axis, dtype=np.float64)
        scale = np.maximum(np.abs(posthoc), 1.0)
        assert float(np.max(np.abs(cs[axis] - posthoc) / scale)) < 1e-10


# -- the batched emission strategy ------------------------------------------

class TestBatchPlans:
    def test_batch_suffix_keyed_into_the_signature(self):
        spec = _spec2d()
        layout = _layout((1, 1), BoundaryCondition.clamp(), 2)
        single = plan_kernel(spec, layout=layout)
        batched = plan_kernel(spec, layout=layout, batch=True)
        assert batched.signature == single.signature + "|b"
        assert batched.digest != single.digest

    def test_batch_requires_a_layout(self):
        with pytest.raises(ValueError, match="grid layout"):
            plan_kernel(_spec2d(), batch=True)

    def test_batch_module_emits_only_the_bstep_family(self):
        src = emit_module(
            plan_kernel(
                _spec2d(),
                layout=_layout((1, 1), BoundaryCondition.clamp(), 2),
                batch=True,
            )
        )
        assert "def bstep(" in src and "def bstep_cs(" in src
        assert "def step(" not in src and "def sweep(" not in src
        assert 'JIT_FUNCS = ("bstep", "bstep_cs")' in src
        assert 'PARALLEL_FUNCS = ("bstep", "bstep_cs")' in src
        assert "prange(nb)" in src

    def test_batched_warmup_time_attribution(self, compiler, backend):
        backend.warmup(_spec2d(), batch_width=3)
        kinds = {e["kind"] for e in compiler.stats()}
        assert kinds == {"sweep", "step", "bstep"}


@settings(max_examples=25, deadline=None)
@given(
    case=_cases(),
    batch=st.sampled_from((1, 3, 8)),
    with_cs=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_batched_step_bit_identical_to_single_steps(
    case, batch, with_cs, seed, tmp_path_factory
):
    """Random spec × layout × batch width: bstep ≡ B independent steps.

    The batched kernel must reproduce, slot for slot, exactly what the
    single-run generated step produces on each slot's buffers — interior,
    refreshed halo and (when requested) both checksum vectors, all
    bit-identical.  This is the property that makes stacked-vs-replay a
    pure throughput choice in the campaign engine.
    """
    spec, shape, kinds, external, has_const = case
    radius = spec.radius()
    boundary = BoundarySpec.from_any([_bc(k) for k in kinds], spec.ndim)
    refresh_axes = (
        tuple(a for a in range(spec.ndim) if a not in external)
        if external
        else None
    )
    rng = np.random.default_rng(seed)
    pshape = padded_shape(shape, radius)
    singles = [
        rng.standard_normal(pshape).astype(np.float32) for _ in range(batch)
    ]
    const = (
        rng.standard_normal(shape).astype(np.float32) if has_const else None
    )
    bsrc = np.stack(singles, axis=-1)
    bdst = np.full(bsrc.shape, np.nan, dtype=np.float32)

    compiler = KernelCompiler(
        cache_dir=tmp_path_factory.mktemp("bprop"), jit=False
    )
    backend = NumbaBackend(compiler=compiler)
    if with_cs:
        got, cs = backend.batch_step_into_with_checksums(
            bsrc, bdst, spec, radius, shape, boundary, (0, 1),
            constant=const, checksum_dtype=np.float64,
            refresh_axes=refresh_axes,
        )
    else:
        got = backend.batch_step_into(
            bsrc, bdst, spec, radius, shape, boundary, constant=const,
            refresh_axes=refresh_axes,
        )

    for b in range(batch):
        ssrc = singles[b].copy()
        sdst = np.full(pshape, np.nan, dtype=np.float32)
        if with_cs:
            want, want_cs = backend.step_into_with_checksums(
                ssrc, sdst, spec, radius, shape, boundary, (0, 1),
                constant=const, checksum_dtype=np.float64,
                refresh_axes=refresh_axes,
            )
        else:
            want = backend.step_into(
                ssrc, sdst, spec, radius, shape, boundary, constant=const,
                refresh_axes=refresh_axes,
            )
        np.testing.assert_array_equal(got[..., b], want)
        # Per-slot ghost refresh, corners included, matches the single
        # step's refresh of that slot.
        np.testing.assert_array_equal(bsrc[..., b], ssrc)
        np.testing.assert_array_equal(bdst[..., b], sdst)
        if with_cs:
            for axis in (0, 1):
                np.testing.assert_array_equal(cs[axis][..., b], want_cs[axis])
