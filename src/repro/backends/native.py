"""Native flat kernels: the sweep, the column fold, the Theorem-1 terms, the compare.

One C source (:data:`SOURCE`) holds four generic kernels, with no code
generation: the stencil, the layout and the constant are run-time
arguments.  The ``fused`` backend calls the sweep and the fold;
:mod:`repro.core.interpolation` and :mod:`repro.core.detection` call
the other two, each through the function it replaces the NumPy code of.

``sweep_f32`` / ``sweep_f64`` ``(src, dst, lo, hi, npts, disp, wts, const, lane, fill)``
    ``dst[i] = const[i] + wts[0]*src[i+disp[0]]``, then
    ``dst[i] = dst[i] + wts[k]*src[i+disp[k]]`` for every further point
    in spec order, over the flat range ``[lo, hi)`` in blocks of
    :data:`BLOCK_BYTES` (``const`` may be ``NULL``: the first term is
    then the product alone).  That is the multiply/add sequence of the
    NumPy strip loop it replaces, so every element is bitwise equal.
    Each further point's term is added to a block by ``add_f32`` /
    ``add_f64``, which are ``noinline``: inlined into the loop over
    points, GCC's unroll-and-jam pass (``-floop-unroll-and-jam``, on at
    ``-O3``) fused two points into one inner loop that it compiled to
    scalar code (``vmulss``/``vaddss``), so for a 5- or 7-point stencil
    every point after the first ran scalar.  Called once per point and
    block, the helper's loop vectorizes: with it and 1 KB blocks the
    514x514x10 float32 sweep took 1.7-2.3 ms instead of 7.1-8.3 ms on a
    2-core AVX-512 x86 VM (GCC 12).  The flag
    ``-fno-loop-unroll-and-jam`` would fix the sweep too, but the column
    fold below gains from the jam: on the same tile it took 610-730 us
    with the jam and 740-830 us without.
    ``lane`` (``NULL``: none) describes the source's ghost lanes still
    to be filled, as :attr:`repro.stencil.shift.GhostLanes.descriptor`
    lays them out, and ``fill`` points to the boundary's fill value.
    A block runs only once the lanes of every row it reads
    (``max(disp)`` past its end) are filled; the kernel fills rows
    between runs of blocks, at least :data:`LANE_ROWS` at a time, and
    the remaining rows after the last block, so the whole source halo
    is filled on return.  A unit segment is one scalar copy or store
    per row and ghost index.  The ghost refresh and the sweep are then
    one pass over the source instead of two.
``fold_f32_f64`` / ``fold_f32_f32`` / ``fold_f64_f64`` ``(base, n0, stride0, span, out)``
    ``out[j] = 0 + base[j] + base[stride0 + j] + ...`` over ``n0``
    planes, lane by lane in order of x: the order of NumPy's axis-0
    ``sum`` (which starts from ``+0.0``, so a ``-0.0`` column sums to
    ``+0.0`` here too).
``interp_f32_f64`` / ``interp_f32_f32`` / ``interp_f64_f64`` ``(padded, work, constant, plane, nstrip, strips, nrun, run, starts, nterm, terms, wts)``
    The Theorem-1 strips and terms of a column checksum (reduce axis 0)
    of a C-contiguous padded domain, whose x-planes of ``plane``
    elements are laid out as the extended checksum.  ``work`` holds the
    extended checksum ``ext``, as NumPy built it, then one shifted
    vector per strip, then the result.  Strip ``k`` (``strips[4k:4k+4]``
    = first gained plane, count, first lost plane, count) is
    ``ext + (gained - lost)``, each side summed as ``fold_*`` sums, in
    1 KB chunks of the plane; each run of the result is ``0 + c`` (the
    constant it already holds, when ``constant``) or ``0``, plus
    ``w * window`` per term in spec order as ``add_*`` adds, where term
    ``k`` (``terms[2k:2k+2]``) reads ``ext`` (source ``-1``) or a
    shifted vector at a flat displacement from the run's start.  That is
    the NumPy interpolation operation for operation, so every entry is
    bitwise equal to it.  The sums and terms run in the kernel's own
    copies of the fold and ``add_*`` (``sum_*``, ``term_*``): hidden, so
    called without a PLT entry, and ``no_icf``, so GCC does not merge
    them with the originals.  Sharing ``add_f32`` changed its code and
    a PLT entry per exported fold shifted every function after it;
    either made the unchanged sweep measurably slower (the ``campaign``
    workload's unprotected leg read +7-10%).  With the copies, every
    earlier function is byte-identical to, and at the same address as,
    in the library before these kernels.  On the 64x64x8 campaign batch
    of eight runs the call took 13 us warm.
``compare_f64`` ``(computed, interpolated, n, eps, max) -> count``
    The detection compare in one pass: ``rel = |i - c| / |c|``, or
    ``|i - c|`` where ``|c|`` is not positive, exactly as
    :func:`~repro.core.detection.relative_discrepancy` computes it; it
    returns how many ``rel > eps`` and stores the largest ``rel``, NaN
    if any is NaN, as NumPy's ``max`` does.  The max is taken over the
    doubles' bits (every ``rel`` is ``+0.0`` or more, or NaN, and such
    bits order as unsigned integers), which lets GCC vectorize the loop:
    7 us against 11 us for the scalar loop on 4096 entries.

The library is built once per machine with ``cc`` (:data:`FLAGS`) into
the kernel cache directory (:func:`default_cache_dir`, which honours
``REPRO_KERNEL_CACHE_DIR``) and loaded with :mod:`ctypes`, once per
process, under a lock.  Its file name is a digest of the source,
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

__all__ = [
    "BLOCK_BYTES",
    "CACHE_DIR_ENV_VAR",
    "LANE_ROWS",
    "FLAGS",
    "SOURCE",
    "NativeLibrary",
    "default_cache_dir",
    "describe",
    "library",
    "unavailable_reason",
]

#: Environment variable overriding the on-disk kernel cache directory.
CACHE_DIR_ENV_VAR = "REPRO_KERNEL_CACHE_DIR"

#: Bytes per block of the compiled sweep (256 float32 or 128 float64
#: elements): every stencil point is applied to one block of the output
#: before the next block starts, so the block stays in L1 cache.  The
#: 512 elements used before were tuned while the loop ran scalar.  On
#: the 514x514x10 pair (2-core AVX-512 x86 VM, GCC 12, best of 60
#: calls, four runs) float32 took 1.8-2.3 ms in 1 KB blocks against
#: 2.0-2.7 ms in 2 KB ones (512 elements), and float64 4.1-5.9 ms
#: against 5.8-8.2 ms in 4 KB ones; 512 B blocks read as 1 KB.
BLOCK_BYTES = 1024

#: Fewest rows whose ghost lanes the compiled sweep fills at once.  A
#: 258x1026 rank row holds its two lanes on two cache lines 4 KB
#: apart, so row by row each lane was a lone cache miss inside the
#: sweep; 8 to 128 rows at a time made that step 3-5% faster, and 32
#: changes nothing on the 514x514x10 tile, which needs ~51 rows a block.
#: The fill runs between runs of blocks, never inside one: with it in
#: the block loop, GCC compiled the loop ~3-7% slower even without lanes.
LANE_ROWS = 32

SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define BLOCK_BYTES %(block_bytes)d
#define LANE_ROWS %(lane_rows)d

/* One stencil point's term added to one block.  noinline: inlined into
   the sweep's loop over points, it met GCC's unroll-and-jam, which
   fused two points into one scalar inner loop; alone it vectorizes.
   The interpolation adds its terms with its own copy (TERM): GCC's
   identical code folding merged the two, and add_f32 compiled for both
   callers made the sweep slower. */
#define ACCUMULATE(NAME, T, ...)                                            \
__VA_ARGS__ void NAME(T *restrict out, const T *restrict s, T w,            \
                      ptrdiff_t n)                                          \
{                                                                           \
    for (ptrdiff_t i = 0; i < n; i++) out[i] = out[i] + s[i] * w;           \
}
#define ADD(NAME, T) ACCUMULATE(NAME, T, static __attribute__((noinline)))

#define LANES(NAME, T)                                                      \
static void NAME(T *restrict src, const ptrdiff_t *restrict lane,           \
                 const T *restrict fill, ptrdiff_t r0, ptrdiff_t r1)        \
{                                                                           \
    const ptrdiff_t width = lane[1], seg = lane[2], ng = lane[3];           \
    const ptrdiff_t nr = r1 - r0;                                           \
    T *restrict rows = src + r0 * width;                                    \
    for (ptrdiff_t k = 0; k < ng; k++) {                                    \
        T *restrict out = rows + lane[4 + 2 * k];                           \
        const ptrdiff_t from = lane[5 + 2 * k];                             \
        if (from < 0) {                                                     \
            const T f = *fill;                                              \
            if (seg == 1)                                                   \
                for (ptrdiff_t r = 0; r < nr; r++) out[r * width] = f;      \
            else                                                            \
                for (ptrdiff_t r = 0; r < nr; r++)                          \
                    for (ptrdiff_t i = 0; i < seg; i++)                     \
                        out[r * width + i] = f;                             \
        } else {                                                            \
            const T *restrict in = rows + from;                             \
            if (seg == 1)                                                   \
                for (ptrdiff_t r = 0; r < nr; r++)                          \
                    out[r * width] = in[r * width];                         \
            else                                                            \
                for (ptrdiff_t r = 0; r < nr; r++)                          \
                    for (ptrdiff_t i = 0; i < seg; i++)                     \
                        out[r * width + i] = in[r * width + i];             \
        }                                                                   \
    }                                                                       \
}

#define SWEEP(NAME, T, LANES, ADD)                                          \
void NAME(T *restrict src, T *restrict dst, ptrdiff_t lo, ptrdiff_t hi,     \
          ptrdiff_t npts, const ptrdiff_t *restrict disp,                   \
          const T *restrict wts, const T *restrict cst,                     \
          const ptrdiff_t *restrict lane, const T *restrict fill)           \
{                                                                           \
    /* A block runs once the lanes of every row it reads, max(disp)      \
       past its end, are filled.  Rows are filled between runs of        \
       blocks, LANE_ROWS or more at a time: on long rows each row's      \
       lanes miss the cache alone, and a batch lets the misses overlap.  \
       Without lanes every block may run at once. */                     \
    const ptrdiff_t block = BLOCK_BYTES / (ptrdiff_t)sizeof(T);             \
    ptrdiff_t stop = hi, filled = 0, ahead = disp[0];                       \
    for (ptrdiff_t k = 1; k < npts; k++)                                    \
        if (disp[k] > ahead) ahead = disp[k];                               \
    for (ptrdiff_t a = lo; a < hi;) {                                       \
        if (lane) {                                                         \
            ptrdiff_t n = hi - a < block ? hi - a : block;                  \
            ptrdiff_t need = (a + n - 1 + ahead) / lane[1] + 1;             \
            if (need < filled + LANE_ROWS) need = filled + LANE_ROWS;       \
            if (need > lane[0]) need = lane[0];                             \
            LANES(src, lane, fill, filled, need);                           \
            filled = need;                                                  \
            stop = filled == lane[0] ? hi : filled * lane[1] - ahead;       \
        }                                                                   \
        for (; a < hi; a += block) {                                        \
            const ptrdiff_t n = hi - a < block ? hi - a : block;            \
            if (a + n > stop) break;                                        \
            T *restrict out = dst + a;                                      \
            const T *restrict s = src + a + disp[0];                        \
            const T w = wts[0];                                             \
            if (cst) {                                                      \
                const T *restrict c = cst + a;                              \
                for (ptrdiff_t i = 0; i < n; i++) out[i] = c[i] + s[i] * w; \
            } else {                                                        \
                for (ptrdiff_t i = 0; i < n; i++) out[i] = s[i] * w;        \
            }                                                               \
            for (ptrdiff_t k = 1; k < npts; k++)                            \
                ADD(out, src + a + disp[k], wts[k], n);                     \
        }                                                                   \
    }                                                                       \
    if (lane && filled < lane[0]) LANES(src, lane, fill, filled, lane[0]);  \
}

#define PLANES(NAME, TI, TO, ...)                                           \
__VA_ARGS__ void NAME(const TI *restrict base, ptrdiff_t n0,                \
                      ptrdiff_t stride0, ptrdiff_t span, TO *restrict out)  \
{                                                                           \
    for (ptrdiff_t j = 0; j < span; j++) out[j] = 0;                        \
    for (ptrdiff_t x = 0; x < n0; x++) {                                    \
        const TI *restrict row = base + x * stride0;                        \
        for (ptrdiff_t j = 0; j < span; j++) out[j] = out[j] + (TO)row[j];  \
    }                                                                       \
}
#define FOLD(NAME, TI, TO) PLANES(NAME, TI, TO, )

LANES(lanes_f32, float)
LANES(lanes_f64, double)
ADD(add_f32, float)
ADD(add_f64, double)
SWEEP(sweep_f32, float, lanes_f32, add_f32)
SWEEP(sweep_f64, double, lanes_f64, add_f64)
FOLD(fold_f32_f64, float, double)
FOLD(fold_f32_f32, float, float)
FOLD(fold_f64_f64, double, double)

/* The Theorem-1 strips and terms of a checksum reduced over axis 0 of a
   C-contiguous padded domain, whose x-planes are laid out as the
   extended checksum ext.  work holds ext, one shifted vector per strip
   (plane elements each) and the checksum out.  Strip k's delta, over a
   chunk of the plane, is the fold of its gained planes minus the fold
   of its lost planes; its shifted vector is ext + delta.  Each run of
   out starts at 0 + the constant it holds (constant != 0), or at 0,
   and adds w * window per term in spec order: a window reads ext (term
   source -1) or a shifted vector, displaced in ext. */
#define INTERP(NAME, TD, T, FOLD, ADD)                                      \
void NAME(const TD *restrict padded, T *restrict work, ptrdiff_t constant,  \
          ptrdiff_t plane, ptrdiff_t nstrip,                                \
          const ptrdiff_t *restrict strips, ptrdiff_t nrun, ptrdiff_t run,  \
          const ptrdiff_t *restrict starts, ptrdiff_t nterm,                \
          const ptrdiff_t *restrict terms, const T *restrict wts)           \
{                                                                           \
    enum { CHUNK = BLOCK_BYTES / sizeof(T) };                               \
    const T *restrict ext = work;                                           \
    T *restrict shifted = work + plane;                                     \
    T *restrict out = work + (1 + nstrip) * plane;                          \
    T gain[CHUNK], lose[CHUNK];                                             \
    for (ptrdiff_t k = 0; k < nstrip; k++) {                                \
        const ptrdiff_t *restrict s = strips + 4 * k;                       \
        T *restrict sh = shifted + k * plane;                               \
        for (ptrdiff_t a = 0; a < plane; a += CHUNK) {                      \
            const ptrdiff_t n = plane - a < CHUNK ? plane - a : CHUNK;      \
            FOLD(padded + s[0] * plane + a, s[1], plane, n, gain);          \
            FOLD(padded + s[2] * plane + a, s[3], plane, n, lose);          \
            for (ptrdiff_t i = 0; i < n; i++)                               \
                sh[a + i] = ext[a + i] + (gain[i] - lose[i]);               \
        }                                                                   \
    }                                                                       \
    for (ptrdiff_t r = 0; r < nrun; r++) {                                  \
        T *restrict o = out + r * run;                                      \
        if (constant) {                                                     \
            for (ptrdiff_t i = 0; i < run; i++) o[i] = (T)0 + o[i];         \
        } else {                                                            \
            for (ptrdiff_t i = 0; i < run; i++) o[i] = 0;                   \
        }                                                                   \
        for (ptrdiff_t k = 0; k < nterm; k++) {                             \
            const ptrdiff_t from = terms[2 * k];                            \
            const T *v = from < 0 ? ext : shifted + from * plane;           \
            ADD(o, v + starts[r] + terms[2 * k + 1], wts[k], run);          \
        }                                                                   \
    }                                                                       \
}

/* The interpolation's own plane sums and term helper, copies of the
   fold and of ADD: hidden, so called directly rather than through the
   PLT (each PLT entry shifted every function after it, the sweep's loops
   too), and no_icf, so GCC keeps them apart from the originals. */
#define OWN __attribute__((noinline, no_icf, visibility("hidden")))
PLANES(sum_f32_f64, float, double, OWN)
PLANES(sum_f32_f32, float, float, OWN)
PLANES(sum_f64_f64, double, double, OWN)
ACCUMULATE(term_f32, float, OWN)
ACCUMULATE(term_f64, double, OWN)
INTERP(interp_f32_f64, float, double, sum_f32_f64, term_f64)
INTERP(interp_f32_f32, float, float, sum_f32_f32, term_f32)
INTERP(interp_f64_f64, double, double, sum_f64_f64, term_f64)

/* The detection compare: rel = |p - c| / |c|, or |p - c| where c is 0
   or NaN; returns how many rel exceed eps and stores their max, NaN if
   any rel is NaN.  Every rel is +0.0 or more, or NaN, and the bits of
   such doubles order as unsigned integers do, every NaN above +inf: so
   the max is taken over the bits, which, unlike a NaN-propagating
   double max, lets the loop vectorize. */
ptrdiff_t compare_f64(const double *restrict c, const double *restrict p,
                      ptrdiff_t n, double eps, double *restrict max)
{
    ptrdiff_t count = 0;
    uint64_t top = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        const double d = fabs(c[i]), diff = fabs(p[i] - c[i]);
        const double r = d > 0 ? diff / (d > 0 ? d : 1.0) : diff;
        uint64_t bits;
        memcpy(&bits, &r, sizeof bits);
        count += r > eps;
        top = bits > top ? bits : top;
    }
    memcpy(max, &top, sizeof top);
    return count;
}
""" % {"block_bytes": BLOCK_BYTES, "lane_rows": LANE_ROWS}

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

    ``sweep`` and ``compare`` are keyed on the dtype's ``str``, and
    ``fold`` and ``interp`` on the ``(domain, accumulator)`` pair of
    them; all are native-byte-order keys, so a byte-swapped array never
    finds a kernel.
    """

    path: Path
    compiler: str
    digest: str
    from_disk: bool
    build_ms: float
    load_ms: float
    sweep: Dict[str, Callable]
    fold: Dict[Tuple[str, str], Callable]
    interp: Dict[Tuple[str, str], Callable]
    compare: Dict[str, Callable]


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


def default_cache_dir() -> Path:
    """``$REPRO_KERNEL_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/kernels``.

    ``XDG_CACHE_HOME`` defaults to ``~/.cache``.
    """
    env = os.environ.get(CACHE_DIR_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "kernels"


def describe() -> Dict:
    """The library's state as one entry (``kind: "flat"``).

    ``path`` and ``compiler`` name the loaded library, ``from_disk``
    says whether it came from the cache, and ``build_ms`` / ``load_ms``
    time the compile (0 for a cached library) and the ``dlopen``.  When
    the library is unavailable, ``reason`` says why and the other
    fields are ``None``, ``False`` and 0.
    """
    lib = library()
    entry = {
        "kind": "flat",
        "path": None,
        "compiler": None,
        "reason": unavailable_reason(),
        "from_disk": False,
        "build_ms": 0.0,
        "load_ms": 0.0,
    }
    if lib is not None:
        entry.update(
            path=str(lib.path),
            compiler=lib.compiler,
            from_disk=lib.from_disk,
            build_ms=round(lib.build_ms, 3),
            load_ms=round(lib.load_ms, 3),
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
    def bind(name, argtypes, restype=None):
        fn = getattr(cdll, name)
        fn.argtypes, fn.restype = argtypes, restype
        return fn

    pairs = {(_F32, _F64): "f32_f64", (_F32, _F32): "f32_f32", (_F64, _F64): "f64_f64"}
    sweep = {
        key: bind(f"sweep_{suffix}", [_P, _P, _N, _N, _N, _P, _P, _P, _P, _P])
        for key, suffix in ((_F32, "f32"), (_F64, "f64"))
    }
    fold = {
        key: bind(f"fold_{suffix}", [_P, _N, _N, _N, _P])
        for key, suffix in pairs.items()
    }
    interp = {
        key: bind(f"interp_{suffix}", [_P, _P, _N, _N, _N, _P, _N, _N, _P, _N, _P, _P])
        for key, suffix in pairs.items()
    }
    compare = {
        _F64: bind(
            "compare_f64",
            [_P, _P, _N, ctypes.c_double, ctypes.POINTER(ctypes.c_double)], _N,
        )
    }
    return NativeLibrary(
        path=path,
        compiler=compiler,
        digest=digest,
        from_disk=from_disk,
        build_ms=(built - start) * 1e3,
        load_ms=(time.perf_counter() - built) * 1e3,
        sweep=sweep,
        fold=fold,
        interp=interp,
        compare=compare,
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
