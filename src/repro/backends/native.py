"""Native flat kernels: the ``fused`` backend's strip loop and column fold in C.

One C source (:data:`SOURCE`) holds two generic kernels, with no code
generation: the stencil, the layout and the constant are run-time
arguments.

``sweep_f32`` / ``sweep_f64`` ``(src, dst, lo, hi, npts, disp, wts, const)``
    ``dst[i] = const[i] + wts[0]*src[i+disp[0]]``, then
    ``dst[i] = dst[i] + wts[k]*src[i+disp[k]]`` for every further point
    in spec order, over the flat range ``[lo, hi)`` in blocks of
    :data:`BLOCK` elements (``const`` may be ``NULL``: the first term is
    then the product alone).  That is the multiply/add sequence of the
    NumPy strip loop it replaces, so every element is bitwise equal.
``fold_f32_f64`` / ``fold_f32_f32`` / ``fold_f64_f64`` ``(base, n0, stride0, span, out)``
    ``out[j] = 0 + base[j] + base[stride0 + j] + ...`` over ``n0``
    planes, lane by lane in order of x: the order of NumPy's axis-0
    ``sum`` (which starts from ``+0.0``, so a ``-0.0`` column sums to
    ``+0.0`` here too).

The library is built once per machine with ``cc`` (:data:`FLAGS`) into
the kernel cache directory
(:func:`~repro.backends.codegen.compiler.default_cache_dir`, which
honours ``REPRO_KERNEL_CACHE_DIR``) and loaded with :mod:`ctypes`, once
per process, under a lock.  Its file name is a digest of the source,
the compiler's ``--version`` line, the flags and the CPU's feature
flags, so a cache shared between machines never loads a binary built
for another CPU.  A cold build took 0.3 s and a load 0.2 ms on a 2-core
x86 VM.  ctypes releases the GIL for the duration of each call.

When the library cannot be had, :func:`library` returns ``None`` and
:func:`unavailable_reason` says why, in one line: no ``cc`` on PATH, the
compiler's first error line, an unwritable cache directory, or a
``dlopen`` error.  Callers then run their NumPy code, which stays the
reference every compiled result is tested against.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.backends.codegen.compiler import default_cache_dir

__all__ = [
    "BLOCK",
    "FLAGS",
    "SOURCE",
    "NativeLibrary",
    "describe",
    "library",
    "unavailable_reason",
]

#: Elements per block of the compiled sweep: every stencil point is
#: applied to one block of the output before the next block starts, so
#: the block stays in L1 cache.
BLOCK = 512

SOURCE = r"""
#include <stddef.h>

#define BLOCK %(block)d

#define SWEEP(NAME, T)                                                      \
void NAME(const T *restrict src, T *restrict dst, ptrdiff_t lo,             \
          ptrdiff_t hi, ptrdiff_t npts, const ptrdiff_t *restrict disp,     \
          const T *restrict wts, const T *restrict cst)                     \
{                                                                           \
    for (ptrdiff_t a = lo; a < hi; a += BLOCK) {                            \
        ptrdiff_t n = hi - a < BLOCK ? hi - a : BLOCK;                      \
        T *restrict out = dst + a;                                          \
        const T *restrict s = src + a + disp[0];                            \
        const T w = wts[0];                                                 \
        if (cst) {                                                          \
            const T *restrict c = cst + a;                                  \
            for (ptrdiff_t i = 0; i < n; i++) out[i] = c[i] + s[i] * w;     \
        } else {                                                            \
            for (ptrdiff_t i = 0; i < n; i++) out[i] = s[i] * w;            \
        }                                                                   \
        for (ptrdiff_t k = 1; k < npts; k++) {                              \
            const T *restrict sk = src + a + disp[k];                       \
            const T wk = wts[k];                                            \
            for (ptrdiff_t i = 0; i < n; i++) out[i] = out[i] + sk[i] * wk; \
        }                                                                   \
    }                                                                       \
}

#define FOLD(NAME, TI, TO)                                                  \
void NAME(const TI *restrict base, ptrdiff_t n0, ptrdiff_t stride0,         \
          ptrdiff_t span, TO *restrict out)                                 \
{                                                                           \
    for (ptrdiff_t j = 0; j < span; j++) out[j] = 0;                        \
    for (ptrdiff_t x = 0; x < n0; x++) {                                    \
        const TI *restrict row = base + x * stride0;                        \
        for (ptrdiff_t j = 0; j < span; j++) out[j] = out[j] + (TO)row[j];  \
    }                                                                       \
}

SWEEP(sweep_f32, float)
SWEEP(sweep_f64, double)
FOLD(fold_f32_f64, float, double)
FOLD(fold_f32_f32, float, float)
FOLD(fold_f64_f64, double, double)
""" % {"block": BLOCK}

#: Compiler flags.  Never ``-ffast-math`` or ``-Ofast``, and no FMA
#: contraction: bitwise equality with NumPy's separate multiply and add
#: depends on it.  ``-march=native`` also tunes for the host; with
#: generic tuning (``-march=x86-64-v3``) GCC splits unaligned 256-bit
#: loads and the sweep measured no faster than NumPy's.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")

_F32, _F64 = np.dtype(np.float32).str, np.dtype(np.float64).str
_P, _N = ctypes.c_void_p, ctypes.c_ssize_t


@dataclass(frozen=True)
class NativeLibrary:
    """The loaded kernels and where they came from.

    ``sweep`` is keyed on the domain dtype's ``str`` and ``fold`` on the
    ``(input, accumulator)`` pair of them; both are native-byte-order
    keys, so a byte-swapped array never finds a kernel.
    """

    path: Path
    compiler: str
    digest: str
    from_disk: bool
    build_ms: float
    load_ms: float
    sweep: Dict[str, Callable]
    fold: Dict[Tuple[str, str], Callable]


#: The loaded library, the one-line reason it is unavailable, or
#: ``None`` before the first :func:`library` call.
_state: Union[None, NativeLibrary, str] = None
_lock = threading.Lock()


def library() -> Optional[NativeLibrary]:
    """The native kernels, built or loaded on first use; ``None`` if unavailable."""
    state = _state
    if state is None:
        state = _load()
    return state if isinstance(state, NativeLibrary) else None


def unavailable_reason() -> Optional[str]:
    """Why :func:`library` returns ``None`` (``None`` when it does not)."""
    library()
    return _state if isinstance(_state, str) else None


def describe() -> Dict:
    """The library as a compiled-kernel stats entry (``kind: "flat"``).

    Same keys as the kernel compiler's entries, plus ``compiler`` and
    ``reason``: the library's path and compiler when it loaded, the
    reason it did not otherwise (``path`` and ``compiler`` are then
    ``None``).  ``hits`` and ``misses`` are always 0: they count the
    compiler's per-(operator, layout) cache lookups, and one library
    serves every operator and layout without a lookup.
    """
    lib = library()
    kernels = "sweep_f32 sweep_f64 fold_f32_f64 fold_f32_f32 fold_f64_f64"
    entry = {
        "signature": f"flat[{kernels}]",
        "digest": "",
        "spec": "any (displacements and weights are call arguments)",
        "layout": "",
        "kind": "flat",
        "path": None,
        "jit": False,
        "from_disk": False,
        "codegen_ms": 0.0,
        "warmup_ms": 0.0,
        "hits": 0,
        "misses": 0,
        "compiler": None,
        "reason": unavailable_reason(),
    }
    if lib is not None:
        entry.update(
            digest=lib.digest,
            path=str(lib.path),
            jit=True,
            from_disk=lib.from_disk,
            codegen_ms=round(lib.build_ms, 3),
            warmup_ms=round(lib.load_ms, 3),
            compiler=lib.compiler,
        )
    return entry


def _load() -> Union[NativeLibrary, str]:
    global _state
    with _lock:
        if _state is None:
            _state = _build_and_load()
        return _state


def _cpu_flags() -> str:
    """The CPU's feature flags (``/proc/cpuinfo``), or the platform's name."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.split(":")[0].strip() in ("flags", "Features"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _build_and_load() -> Union[NativeLibrary, str]:
    cc = shutil.which("cc")
    if cc is None:
        return "no `cc` on PATH"
    try:
        version = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=60
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError) as exc:
        return f"`cc --version` failed: {exc}"
    compiler = version.splitlines()[0] if version else cc
    identity = "\0".join((SOURCE, compiler, " ".join(FLAGS), _cpu_flags()))
    digest = hashlib.sha256(identity.encode()).hexdigest()[:16]
    cache = default_cache_dir()
    path = cache / f"native_flat_{digest}.so"
    from_disk = path.exists()
    start = time.perf_counter()
    if not from_disk:
        reason = _compile(cc, cache, path)
        if reason is not None:
            return reason
    built = time.perf_counter()
    try:
        cdll = ctypes.CDLL(str(path))
    except OSError as exc:
        return f"dlopen failed: {exc}"
    sweep, fold = {}, {}
    for key, name in ((_F32, "sweep_f32"), (_F64, "sweep_f64")):
        fn = getattr(cdll, name)
        fn.argtypes, fn.restype = [_P, _P, _N, _N, _N, _P, _P, _P], None
        sweep[key] = fn
    for key, name in (
        ((_F32, _F64), "fold_f32_f64"),
        ((_F32, _F32), "fold_f32_f32"),
        ((_F64, _F64), "fold_f64_f64"),
    ):
        fn = getattr(cdll, name)
        fn.argtypes, fn.restype = [_P, _N, _N, _N, _P], None
        fold[key] = fn
    return NativeLibrary(
        path=path,
        compiler=compiler,
        digest=digest,
        from_disk=from_disk,
        build_ms=(built - start) * 1e3,
        load_ms=(time.perf_counter() - built) * 1e3,
        sweep=sweep,
        fold=fold,
    )


def _compile(cc: str, cache: Path, path: Path) -> Optional[str]:
    """Build :data:`SOURCE` into ``path``; the reason on failure.

    The library is written to a file private to this process and moved
    into place with ``os.replace``, so processes building into one
    cache at once each end with a complete library.
    """
    try:
        cache.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return f"kernel cache directory {cache} is not writable: {exc}"
    if not os.access(cache, os.W_OK | os.X_OK):
        return f"kernel cache directory {cache} is not writable"
    tmp = cache / f"{path.name}.{os.getpid()}.tmp"
    try:
        proc = subprocess.run(
            [cc, *FLAGS, "-x", "c", "-", "-o", str(tmp)],
            input=SOURCE, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
            first = next((ln for ln in lines if "error" in ln), lines[0])
            return f"cc failed: {first}"
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"cc failed: {exc}"
    finally:
        if tmp.exists():
            tmp.unlink()
    return None
