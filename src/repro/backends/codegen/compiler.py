"""The kernel compiler: plan → source → loaded (optionally jitted) module.

:class:`KernelCompiler` drives the whole pipeline for one cache
directory:

1. :func:`~repro.backends.codegen.plan.plan_kernel` lowers the spec +
   layout into a :class:`~repro.backends.codegen.plan.KernelPlan`;
2. :func:`~repro.backends.codegen.emit.emit_module` renders the source;
3. the source is written to ``<cache_dir>/rk_<digest>.py`` — a *real*
   file, which is what lets ``numba.njit(cache=True)`` persist its
   compiled artifacts next to it (``__pycache__``), so worker processes
   and later runs load the binary instead of recompiling;
4. the module is imported and, in jit mode, its functions are decorated
   with ``njit`` (``parallel=True`` for the sweeps).  Without numba the
   plain-Python functions are returned as-is and run over NumPy arrays.

The digest embeds the emitter version and the full structural plan
signature, so a source file that already exists with matching content is
reused verbatim (``from_disk`` in the stats) — the cross-process /
cross-run artifact-sharing path.  Per-entry statistics (signatures,
codegen time, warmup time, hit/miss counts) back ``repro backends
--kernels`` and the benchmark's codegen report.

The process-wide compiler returned by :func:`get_compiler` honours the
``REPRO_KERNEL_CACHE_DIR`` environment variable; tests build private
instances with ``cache_dir=tmp_path`` and ``jit=False``.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.backends.codegen import runtime
from repro.backends.codegen.emit import emit_module
from repro.backends.codegen.plan import KernelPlan, plan_kernel
from repro.stencil.doublebuffer import GridLayout
from repro.stencil.spec import StencilSpec

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "CompiledKernels",
    "KernelCompiler",
    "get_compiler",
]

#: Environment variable overriding the on-disk kernel cache directory.
CACHE_DIR_ENV_VAR = "REPRO_KERNEL_CACHE_DIR"


def default_cache_dir() -> Path:
    """The on-disk cache directory the process-wide compiler uses."""
    env = os.environ.get(CACHE_DIR_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "kernels"


@dataclass
class CompiledKernels:
    """One compiled (or plain-Python) kernel module plus its statistics."""

    plan: KernelPlan
    path: Path
    module: object
    jit: bool
    from_disk: bool
    codegen_ms: float
    warmup_ms: float = 0.0
    hits: int = 0

    @property
    def sweep(self):
        return self.module.sweep

    @property
    def sweep_cs(self):
        return self.module.sweep_cs

    @property
    def step(self):
        return getattr(self.module, "step", None)

    @property
    def step_cs(self):
        return getattr(self.module, "step_cs", None)

    @property
    def bstep(self):
        return getattr(self.module, "bstep", None)

    @property
    def bstep_cs(self):
        return getattr(self.module, "bstep_cs", None)

    def describe(self) -> Dict:
        """Stats entry for ``repro backends --kernels`` / the benchmark."""
        kind = "sweep"
        if self.plan.batch:
            kind = "bstep"
        elif self.plan.has_step:
            kind = "step"
        return {
            "signature": self.plan.signature,
            "digest": self.plan.digest,
            "spec": self.plan.spec_signature,
            "layout": self.plan.layout_signature,
            "kind": kind,
            "path": str(self.path),
            "jit": self.jit,
            "from_disk": self.from_disk,
            "codegen_ms": round(self.codegen_ms, 3),
            "warmup_ms": round(self.warmup_ms, 3),
            "hits": self.hits,
            "misses": 1,
        }


class KernelCompiler:
    """Compile and cache specialized kernels for spec + layout requests.

    Parameters
    ----------
    cache_dir:
        Directory holding the generated ``rk_<digest>.py`` modules (and,
        under numba, their ``__pycache__`` artifacts).  Defaults to
        ``$REPRO_KERNEL_CACHE_DIR`` or ``~/.cache/repro/kernels``.
    jit:
        Decorate the generated functions with ``numba.njit``.  Defaults
        to whether numba is importable; pass ``False`` to execute
        generated source as plain Python (the test suites do this on
        machines without numba *and* with it, to pin down the emitted
        index arithmetic independently of compilation).
    """

    def __init__(
        self, cache_dir: Optional[os.PathLike] = None, jit: Optional[bool] = None
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.jit = runtime.NUMBA_JIT if jit is None else bool(jit)
        self._entries: Dict[str, CompiledKernels] = {}

    # -- the pipeline --------------------------------------------------------
    def kernels_for(
        self,
        spec: StencilSpec,
        has_const: bool = False,
        layout: Optional[GridLayout] = None,
        batch: bool = False,
    ) -> CompiledKernels:
        """The compiled kernel set for ``spec`` (+ optional ``layout``).

        Kernels are keyed on the *structural* plan signature — offset
        table, constant-term presence, ghost widths, boundary kinds and
        the ``batch`` flag — so specs differing only in weights, and
        layouts differing only in fill values, share one entry, while
        the batched family (keyed ``|b``) gets its own module.
        """
        plan = plan_kernel(
            spec,
            has_const=has_const,
            layout=layout,
            batch=batch,
        )
        entry = self._entries.get(plan.signature)
        if entry is not None:
            entry.hits += 1
            return entry
        t0 = time.perf_counter()
        source = emit_module(plan)
        path = self.cache_dir / f"rk_{plan.digest}.py"
        from_disk = self._materialize(path, source)
        module = self._load(path, plan)
        if self.jit:
            self._decorate(module)
        entry = CompiledKernels(
            plan=plan,
            path=path,
            module=module,
            jit=self.jit,
            from_disk=from_disk,
            codegen_ms=(time.perf_counter() - t0) * 1e3,
        )
        self._entries[plan.signature] = entry
        return entry

    @staticmethod
    def _materialize(path: Path, source: str) -> bool:
        """Write the module source; returns whether it already existed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            try:
                if path.read_text() == source:
                    return True
            except OSError:
                pass
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(source)
        os.replace(tmp, path)  # atomic: concurrent workers race benignly
        return False

    def _load(self, path: Path, plan: KernelPlan):
        name = f"repro_kernels_{plan.digest}"
        existing = sys.modules.get(name)
        if existing is not None and getattr(existing, "DIGEST", None) == plan.digest:
            return existing
        spec = importlib.util.spec_from_file_location(name, path)
        if spec is None or spec.loader is None:
            raise ImportError(f"cannot load generated kernel module {path}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            sys.modules.pop(name, None)
            raise
        return module

    @staticmethod
    def _decorate(module) -> None:
        """Apply ``njit`` to the module's functions, in dependency order.

        ``JIT_FUNCS`` lists callees before callers (sweeps before the
        steps that invoke them), and the decorated dispatcher replaces
        the plain function *in the module namespace*, so by the time a
        caller is first compiled its global lookups resolve to compiled
        dispatchers.
        """
        from numba import njit

        parallel = set(module.PARALLEL_FUNCS)
        for fname in module.JIT_FUNCS:
            fn = getattr(module, fname)
            setattr(
                module,
                fname,
                njit(cache=True, parallel=fname in parallel)(fn),
            )

    # -- statistics ----------------------------------------------------------
    def stats(self) -> tuple:
        """Per-entry stats, newest-first construction order preserved."""
        return tuple(e.describe() for e in self._entries.values())

    def record_warmup(self, entry: CompiledKernels, ms: float) -> None:
        """Attribute warmup (first-call compile) time to an entry."""
        entry.warmup_ms += float(ms)

    def __repr__(self) -> str:
        mode = "jit" if self.jit else "python"
        return (
            f"<KernelCompiler dir={str(self.cache_dir)!r} mode={mode} "
            f"entries={len(self._entries)}>"
        )


_COMPILER: Optional[KernelCompiler] = None


def get_compiler() -> KernelCompiler:
    """The process-wide compiler (shared by backend, CLI and workers)."""
    global _COMPILER
    if _COMPILER is None:
        _COMPILER = KernelCompiler()
    return _COMPILER
