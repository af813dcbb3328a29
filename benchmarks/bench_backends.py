#!/usr/bin/env python
"""Compare compute backends and tile executors on ABFT-protected runs.

For every requested backend this benchmark times the paper's hot loop —
sweep + checksum verification under :class:`repro.core.online.OnlineABFT`
— on a five-point float32 diffusion domain (1024x1024 by default, the
acceptance configuration), plus the raw unprotected sweep for context,
and cross-checks that every backend's results and checksums stay within
``recommend_epsilon`` of the ``numpy`` reference across the whole
stencil-kernel library.

It additionally verifies the zero-copy halo pipeline with ``tracemalloc``
(the fused backend must perform **zero** full-domain allocations per
protected iteration — the double-buffered grids sweep in place), compares
the serial/thread/process tile executors on a protected tiled run, checks
the executors produce bit-identical domains and detections under fault
injection, and emits every measurement as machine-readable JSON
(``BENCH_backends.json``) so the perf trajectory is tracked across PRs.

Backends run their ``warmup`` hook (JIT compilation / cache load) plus
one untimed warm-up iteration before any timed loop, so one-off costs
never contaminate the numbers; the warmup time itself is reported
separately.  Every emitted metric is defined in the JSON's
``metric_definitions`` block — one statistic (median over repeats) and
one baseline convention across all backends.  When the optional
``numba`` backend is importable, ``--smoke`` additionally gates on it
beating the ``fused`` backend on the protected 1024² run with a lower
ABFT overhead.

Two sections cover the stencil kernel compiler specifically: a
``codegen`` block reporting, per compiling backend and per generated
kernel module, the code-generation time separately from the first-call
(JIT compile / cache load) warmup time; and a
``distributed_external_axis`` block timing the simulated distributed
runner on an **axis-1 decomposition** — the external-axis ordering the
old hand-written kernels declined — with the backend's compiled fused
step versus a forced interpreted step (separate ghost-refresh pass).
With numba importable, ``--smoke`` gates on the compiled step not being
slower.

Usage::

    python benchmarks/bench_backends.py                 # full comparison
    python benchmarks/bench_backends.py --smoke         # CI gate: exit 1 if
                                                        # fused is slower than
                                                        # numpy, allocates a
                                                        # full domain per iter,
                                                        # or numba (if present)
                                                        # fails its gate
    python benchmarks/bench_backends.py --size 2048 --iters 20 --exec-workers 4
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import tracemalloc

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro.backends import available_backends, get_backend
from repro.core.online import OnlineABFT
from repro.core.thresholds import recommend_epsilon
from repro.parallel.executor import make_executor, resolve_workers
from repro.parallel.runner import TiledStencilRunner
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion
from repro.stencil.shift import pad_array

REFERENCE = "numpy"
DEFAULT_JSON = "BENCH_backends.json"

#: Fixed transient footprint of the protector itself (checksum vectors,
#: interpolation strips, detection buffers) — measured flat at ~85-100 KB
#: from 128^2 to 1024^2 domains.  The allocation gate subtracts this
#: allowance so a small benchmark domain is not mislabelled as a
#: full-domain temporary.
ALLOC_OVERHEAD_ALLOWANCE = 256 * 1024


def build_grid(size: int, backend: str) -> Grid2D:
    rng = np.random.default_rng(42)
    initial = (rng.random((size, size)) * 100.0).astype(np.float32)
    return Grid2D(
        initial,
        five_point_diffusion(0.2),
        BoundaryCondition.clamp(),
        backend=backend,
    )


def warmup_backend(backend: str) -> float:
    """Run the backend's warmup hook; returns its wall time in ms.

    For the interpreted backends this is a no-op; for JIT backends it
    compiles (or loads from the on-disk cache) every kernel the
    benchmark operator needs.  Called once per backend *before* any
    timed loop — together with the untimed warm-up iteration each
    timing function performs, this keeps one-off compilation cost out
    of every reported number.
    """
    start = time.perf_counter()
    get_backend(backend).warmup(
        five_point_diffusion(0.2), BoundaryCondition.clamp(),
        np.float32, np.float64,
    )
    return (time.perf_counter() - start) * 1000.0


def time_protected_run(backend: str, size: int, iters: int, repeats: int):
    """(median, min) per-iteration wall time (ms) of an OnlineABFT run.

    The median is reported in the table; the min — the least
    noise-contaminated sample — is what the ``--smoke`` gate compares,
    so scheduler jitter on shared CI runners cannot flip the verdict.
    """
    samples = []
    for _ in range(repeats):
        grid = build_grid(size, backend)
        protector = OnlineABFT.for_grid(grid, backend=backend)
        protector.step(grid)  # warm-up: scratch buffers, first checksums
        start = time.perf_counter()
        for _ in range(iters):
            protector.step(grid)
        samples.append((time.perf_counter() - start) / iters * 1000.0)
    return statistics.median(samples), min(samples)


def _interpreted_step_proxy(backend):
    """A view of ``backend`` whose ``step_into*`` take the interpreted path.

    The proxy shares the backend's state (spec caches, kernel compiler)
    but resolves the step primitives to the :class:`Backend` base
    implementations — a separate ``refresh_ghosts`` pass followed by the
    sweep — so the fused compiled step can be timed against the unfused
    path on identical kernels.
    """
    from repro.backends.base import Backend

    cls = type(
        "_InterpretedSteps",
        (type(backend),),
        {
            "step_into": Backend.step_into,
            "step_into_with_checksums": Backend.step_into_with_checksums,
            "supports_fused_step": Backend.supports_fused_step,
        },
    )
    proxy = object.__new__(cls)
    proxy.__dict__ = backend.__dict__  # shared caches, shared compiler
    return proxy


def time_distributed_external_axis(
    name: str, size: int, iters: int, repeats: int, axis: int = 1
) -> dict:
    """Compiled vs interpreted step on an axis-1 rank decomposition.

    Axis 1 puts the external (halo-ingested) axis *after* the refreshed
    axis — the layout ordering the old hand-written numba kernels
    declined, forcing every distributed step onto the interpreted path.
    The generated kernels compile it like any other layout; this times
    the protected distributed run both ways on the same backend.
    """
    from repro.parallel.simmpi import DistributedStencilRunner

    backend = get_backend(name)
    out: dict = {"backend": name, "axis": axis, "ranks": 2, "size": size}
    for label, impl in (
        ("compiled", backend),
        ("interpreted", _interpreted_step_proxy(backend)),
    ):
        samples = []
        for _ in range(repeats):
            grid = build_grid(size, name)
            runner = DistributedStencilRunner(
                grid, n_ranks=2, protect=True, backend=impl, axis=axis
            )
            runner.step()  # warm-up: channel mailboxes, first checksums
            start = time.perf_counter()
            for _ in range(iters):
                runner.step()
            samples.append((time.perf_counter() - start) / iters * 1000.0)
        out[label] = {
            "ms_per_iter_median": statistics.median(samples),
            "ms_per_iter_best": min(samples),
        }
    out["speedup_best"] = (
        out["interpreted"]["ms_per_iter_best"]
        / out["compiled"]["ms_per_iter_best"]
    )
    return out


def time_raw_sweep(backend: str, size: int, iters: int, repeats: int) -> float:
    """Median per-iteration wall time (ms) of the unprotected sweep."""
    samples = []
    for _ in range(repeats):
        grid = build_grid(size, backend)
        grid.step()
        start = time.perf_counter()
        for _ in range(iters):
            grid.step()
        samples.append((time.perf_counter() - start) / iters * 1000.0)
    return statistics.median(samples)


def measure_allocations(backend: str, size: int, iters: int = 5) -> dict:
    """Tracemalloc profile of the protected hot loop.

    Measures the *peak* allocation growth across ``iters`` protected
    steps after warm-up.  A full-domain temporary (the old per-iteration
    ``pad_array`` copy, or the reference backend's per-point products)
    bumps the peak by at least one domain worth of bytes; the
    double-buffered zero-copy pipeline only allocates O(edge) checksum
    vectors, orders of magnitude below it.
    """
    grid = build_grid(size, backend)
    protector = OnlineABFT.for_grid(grid, backend=backend)
    # Warm up everything that legitimately allocates once: the buffer
    # pair's first ghost refresh, scratch buffers, initial checksums.
    protector.step(grid)
    protector.step(grid)
    domain_bytes = int(grid.u.nbytes)
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    for _ in range(iters):
        protector.step(grid)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_delta = max(0, int(peak) - int(baseline))
    # The peak is a high-water mark (not a sum over iterations): any
    # full-domain temporary alive at any instant raises it by at least
    # one domain worth of bytes, however briefly it existed.  The fixed
    # protector overhead is subtracted so the verdict scales down to
    # small domains without false positives.
    domain_scale = max(0, peak_delta - ALLOC_OVERHEAD_ALLOWANCE)
    return {
        "domain_bytes": domain_bytes,
        "peak_alloc_bytes": peak_delta,
        "full_domain_allocs": int(round(domain_scale / domain_bytes)),
        "zero_full_domain_allocs": bool(domain_scale < domain_bytes // 2),
    }


def _injection_signature(executor, size: int = 96) -> dict:
    """Digest of a small fault-injected tiled run under one executor.

    Used to check the executor pipelines are semantically identical: the
    final domain must be bit-identical to the serial path and the
    detection/correction counts must match.  The caller's executor (and
    its warm pool) is reused and stays alive.
    """
    import hashlib

    def inject(grid, iteration):
        if iteration == 3:
            grid.u[size // 3, size // 2] += 4096.0

    grid = build_grid(size, "fused")
    runner = TiledStencilRunner.with_online_abft(
        grid, (2, 2), executor=executor, epsilon=1e-5
    )
    try:
        runner.run(6, inject=inject)
        return {
            "domain_sha": hashlib.sha256(grid.u.tobytes()).hexdigest(),
            "detected": runner.total_detected(),
            "corrected": runner.total_corrected(),
        }
    finally:
        runner.shutdown()  # releases shm migration; executor stays alive


def compare_executors(size: int, iters: int, workers) -> dict:
    """Protected tiled-run timing + injection equivalence per executor.

    One executor (and pool) per kind serves both the timing run and the
    injection-equivalence check.
    """
    workers = resolve_workers(workers)
    results: dict = {"workers": workers, "tile_parts": [2, 2], "kinds": {}}
    serial_sig = None
    for kind in ("serial", "threads", "process"):
        executor = make_executor(kind, workers=workers)
        try:
            grid = build_grid(size, "fused")
            runner = TiledStencilRunner.with_online_abft(
                grid, (2, 2), executor=executor, epsilon=1e-5
            )
            try:
                runner.step()  # warm-up: pools, shared-memory migration
                start = time.perf_counter()
                for _ in range(iters):
                    runner.step()
                elapsed_ms = (time.perf_counter() - start) / iters * 1000.0
            finally:
                runner.shutdown()
            sig = _injection_signature(executor)
        finally:
            executor.shutdown()
        if kind == "serial":
            serial_sig = sig
        results["kinds"][kind] = {
            "ms_per_iter": elapsed_ms,
            "injection_matches_serial": sig == serial_sig,
            "detected": sig["detected"],
            "corrected": sig["corrected"],
        }
    return results


def check_equivalence(backends, verbose: bool = True) -> float:
    """Max relative mismatch of any backend vs the reference (library-wide)."""
    from repro.stencil import kernels

    library = [
        ("jacobi4", kernels.jacobi4(), (48, 40)),
        ("five_point_diffusion", kernels.five_point_diffusion(0.2), (48, 40)),
        ("nine_point_smoothing", kernels.nine_point_smoothing(), (48, 40)),
        ("asymmetric_advection_2d", kernels.asymmetric_advection_2d(), (48, 40)),
        ("seven_point_diffusion_3d", kernels.seven_point_diffusion_3d(0.1), (24, 20, 6)),
        ("twenty_seven_point_3d", kernels.twenty_seven_point_3d(), (24, 20, 6)),
        ("asymmetric_advection_3d", kernels.asymmetric_advection_3d(), (24, 20, 6)),
    ]
    rng = np.random.default_rng(7)
    worst = 0.0
    for name, spec, shape in library:
        u = (rng.random(shape) * 100.0).astype(np.float32)
        radius = spec.radius()
        padded = pad_array(u, radius, BoundaryCondition.clamp())
        ref_new, ref_cs = get_backend(REFERENCE).sweep_with_checksums(
            padded, spec, radius, shape, (0, 1), checksum_dtype=np.float64
        )
        for backend in backends:
            new, cs = get_backend(backend).sweep_with_checksums(
                padded, spec, radius, shape, (0, 1), checksum_dtype=np.float64
            )
            eps = recommend_epsilon(shape, 0, np.float32, spec)
            mismatches = [
                np.max(np.abs(new - ref_new) / np.maximum(np.abs(ref_new), 1.0))
            ]
            for axis in (0, 1):
                mismatches.append(
                    np.max(
                        np.abs(cs[axis] - ref_cs[axis])
                        / np.maximum(np.abs(ref_cs[axis]), 1.0)
                    )
                )
            mismatch = float(max(mismatches))
            worst = max(worst, mismatch)
            status = "ok" if mismatch <= eps else "FAIL"
            if verbose or status == "FAIL":
                print(
                    f"  equivalence {backend:8s} {name:26s} "
                    f"max rel diff {mismatch:.3e} (eps {eps:.1e}) {status}"
                )
            if mismatch > eps:
                raise SystemExit(
                    f"backend {backend!r} diverges from {REFERENCE!r} on "
                    f"{name}: {mismatch:.3e} > eps {eps:.3e}"
                )
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=1024, help="domain edge length")
    parser.add_argument("--iters", type=int, default=30, help="timed iterations")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (median)")
    parser.add_argument(
        "--backends",
        nargs="+",
        default=None,
        help="backends to compare (default: all registered)",
    )
    parser.add_argument(
        "--exec-size",
        type=int,
        default=None,
        help="domain edge length for the executor comparison "
        "(default: --size; the acceptance configuration is 2048)",
    )
    parser.add_argument(
        "--exec-workers",
        type=int,
        default=None,
        help="worker count for thread/process executors (default: all cores)",
    )
    parser.add_argument(
        "--skip-executors",
        action="store_true",
        help="skip the executor comparison section",
    )
    parser.add_argument(
        "--json",
        default=DEFAULT_JSON,
        help=f"machine-readable results file (default: {DEFAULT_JSON})",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "CI mode: fewer iterations, small executor domain, and exit "
            "non-zero if the fused backend is slower than the numpy "
            "reference, performs any full-domain allocation per "
            "protected iteration, or (when numba is importable) the "
            "numba backend fails to beat fused with lower ABFT overhead"
        ),
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.iters = min(args.iters, 10)
        args.repeats = max(args.repeats, 5)  # min-of-5 keeps the gate stable
        if args.exec_size is None:
            args.exec_size = 256  # equivalence matters here, not timing
    if args.exec_size is None:
        args.exec_size = args.size

    if args.backends is None:
        # Canonical names only (aliases point at the same instances).
        seen, names = set(), []
        for name in available_backends():
            backend = get_backend(name)
            if id(backend) in seen:
                continue
            seen.add(id(backend))
            names.append(backend.name)
    else:
        names = list(args.backends)
    if REFERENCE not in names:
        names.insert(0, REFERENCE)

    report = {
        "config": {
            "size": args.size,
            "iters": args.iters,
            "repeats": args.repeats,
            "exec_size": args.exec_size,
            "cpu_count": os.cpu_count(),
            "smoke": bool(args.smoke),
        },
        # Every per-backend metric uses one statistic (the median over
        # --repeats) and one baseline convention, spelled out here so
        # the JSON is self-describing and the numbers stay comparable
        # across backends and across PRs.  (An earlier revision mixed
        # baselines: the overhead used each backend's own sweep while
        # the speedup used the reference's protected run, which made
        # "27% overhead yet 0.98x speedup" read as a contradiction.)
        "metric_definitions": {
            "warmup_ms": (
                "one-off Backend.warmup() wall time (JIT compilation / "
                "cache load); excluded from every other metric"
            ),
            "sweep_ms": (
                "median per-iteration wall time of the unprotected sweep "
                "on this backend (one untimed warm-up iteration first)"
            ),
            "abft_ms_median": (
                "median per-iteration wall time of the OnlineABFT-"
                "protected run on this backend (one untimed warm-up "
                "iteration first)"
            ),
            "abft_ms_best": (
                "fastest repeat of the protected run; what the --smoke "
                "speed gates compare (least scheduler-noise-contaminated)"
            ),
            "abft_overhead_pct": (
                "100 * (abft_ms_median - sweep_ms) / sweep_ms: the cost "
                "of protection relative to this same backend's own "
                "unprotected sweep (both medians)"
            ),
            "sweep_speedup_vs_reference": (
                "reference sweep_ms / this backend's sweep_ms (medians; "
                "> 1 means this backend sweeps faster than numpy)"
            ),
            "protected_speedup_vs_reference": (
                "reference abft_ms_median / this backend's abft_ms_median "
                "(medians; > 1 means this backend's protected run is "
                "faster than numpy's)"
            ),
            "codegen.kernels[].codegen_ms": (
                "per generated kernel module: plan + emit + source "
                "materialisation + import time, excluding JIT compilation"
            ),
            "codegen.kernels[].warmup_ms": (
                "per generated kernel module: first-call time during "
                "Backend.warmup() — JIT compilation or on-disk cache load"
            ),
            "distributed_external_axis.speedup_best": (
                "interpreted ms_per_iter_best / compiled ms_per_iter_best "
                "on the axis-1 (previously declined) rank decomposition; "
                "> 1 means the compiled fused step wins"
            ),
        },
        "backends": {},
        "codegen": {},
        "distributed_external_axis": None,
        "executors": None,
        "gates": {},
    }

    print(
        f"Backend comparison: {args.size}x{args.size} float32 five-point "
        f"diffusion, OnlineABFT-protected ({args.iters} iters, "
        f"median of {args.repeats})"
    )
    print()
    print("Equivalence vs reference across the stencil library:")
    worst = check_equivalence(
        [n for n in names if n != REFERENCE], verbose=not args.smoke
    )
    print(f"  all backends within eps of {REFERENCE} (max rel diff {worst:.3e})")
    print()

    results = {}
    header = (
        f"{'backend':10s} {'sweep ms':>10s} {'abft ms':>10s} {'overhead':>9s} "
        f"{'sweep vs numpy':>15s} {'abft vs numpy':>14s} {'peak alloc':>12s}"
    )
    print(header)
    print("-" * len(header))
    warmups = {}
    for name in names:
        warmups[name] = warmup_backend(name)
        raw = time_raw_sweep(name, args.size, args.iters, args.repeats)
        protected, best = time_protected_run(name, args.size, args.iters, args.repeats)
        alloc = measure_allocations(name, args.size)
        results[name] = (raw, protected, best, alloc)
    ref_sweep = results[REFERENCE][0]
    ref_protected = results[REFERENCE][1]
    for name in names:
        raw, protected, best, alloc = results[name]
        overhead = (protected / raw - 1.0) * 100.0
        sweep_speedup = ref_sweep / raw
        protected_speedup = ref_protected / protected
        peak = alloc["peak_alloc_bytes"]
        print(
            f"{name:10s} {raw:10.3f} {protected:10.3f} {overhead:8.1f}% "
            f"{sweep_speedup:13.2f}x {protected_speedup:12.2f}x {peak:10d} B"
        )
        report["backends"][name] = {
            "warmup_ms": warmups[name],
            "sweep_ms": raw,
            "abft_ms_median": protected,
            "abft_ms_best": best,
            "abft_overhead_pct": overhead,
            "sweep_speedup_vs_reference": sweep_speedup,
            "protected_speedup_vs_reference": protected_speedup,
            "alloc": alloc,
        }
    print()

    # -- generated-kernel (codegen) report ------------------------------------
    for name in names:
        backend = get_backend(name)
        if not backend.compiles_kernels:
            continue
        entries = [dict(e) for e in backend.compiled_kernels()]
        total_codegen = sum(e["codegen_ms"] for e in entries)
        total_warmup = sum(e["warmup_ms"] for e in entries)
        report["codegen"][name] = {
            "kernels": entries,
            "total_codegen_ms": total_codegen,
            "total_warmup_ms": total_warmup,
        }
        print(
            f"{name} codegen: {len(entries)} generated kernel modules — "
            f"codegen {total_codegen:.2f} ms, first-call (JIT/cache) "
            f"{total_warmup:.2f} ms"
        )
        for e in entries:
            print(
                f"  {e['digest']}  {e['kind']:5s} codegen "
                f"{e['codegen_ms']:7.3f} ms  warmup {e['warmup_ms']:8.2f} ms  "
                f"{e['spec']}"
            )
        print()

    # -- allocation-regression gate -----------------------------------------
    fused_alloc = results.get("fused", (None,) * 4)[3]
    alloc_gate = None
    if fused_alloc is not None:
        alloc_gate = fused_alloc["zero_full_domain_allocs"]
        domain_mb = fused_alloc["domain_bytes"] / 1e6
        peak_kb = fused_alloc["peak_alloc_bytes"] / 1e3
        if alloc_gate:
            print(
                f"fused backend performs zero full-domain allocations per "
                f"protected iteration (peak transient {peak_kb:.1f} KB vs "
                f"{domain_mb:.1f} MB domain, tracemalloc)"
            )
        else:
            print(
                f"FAIL: fused backend allocated "
                f"{fused_alloc['full_domain_allocs']} full-domain "
                f"temporaries across the loop (peak {peak_kb:.1f} KB, "
                f"domain {domain_mb:.1f} MB)"
            )
    report["gates"]["fused_zero_full_domain_allocs"] = alloc_gate

    # -- executor comparison ------------------------------------------------
    exec_ok = True
    if not args.skip_executors:
        print()
        workers = resolve_workers(args.exec_workers)
        print(
            f"Executor comparison: {args.exec_size}x{args.exec_size} fused "
            f"OnlineABFT tiled 2x2, {workers} workers"
        )
        exec_results = compare_executors(
            args.exec_size, max(3, args.iters // 3), args.exec_workers
        )
        report["executors"] = exec_results
        for kind, row in exec_results["kinds"].items():
            match = "ok" if row["injection_matches_serial"] else "MISMATCH"
            print(
                f"  {kind:8s} {row['ms_per_iter']:10.3f} ms/iter   "
                f"injection vs serial: {match} "
                f"(detected {row['detected']}, corrected {row['corrected']})"
            )
            exec_ok = exec_ok and row["injection_matches_serial"]
        proc = exec_results["kinds"]["process"]["ms_per_iter"]
        thr = exec_results["kinds"]["threads"]["ms_per_iter"]
        report["gates"]["process_beats_threads"] = proc < thr
        report["gates"]["executors_match_serial_under_injection"] = exec_ok
        if proc < thr:
            print(
                f"  process executor beats threads: {proc:.3f} < {thr:.3f} "
                f"ms/iter"
            )
        else:
            print(
                f"  note: process executor ({proc:.3f} ms) did not beat "
                f"threads ({thr:.3f} ms) here — expected on few-core hosts; "
                f"informative only, the gate is the injection equivalence"
            )

    # -- speed gate ----------------------------------------------------------
    speed_fail = False
    if "fused" in results:
        # Gate on the per-backend minimum: the fastest sample is the one
        # least distorted by scheduler noise, which matters on shared CI
        # runners where the margin can be a few percent. A 5% grace band
        # separates "lost the race to runner jitter" (warn, pass) from
        # "actually slower" (fail).
        fused_best = results["fused"][2]
        ref_best = results[REFERENCE][2]
        report["gates"]["fused_faster_than_numpy"] = fused_best < ref_best
        if fused_best < ref_best:
            print(
                f"\nfused backend beats the {REFERENCE} reference: "
                f"{fused_best:.3f} ms < {ref_best:.3f} ms per protected "
                f"iteration (best of {args.repeats})"
            )
        elif fused_best < ref_best * 1.05:
            print(
                f"\nWARN: fused backend ({fused_best:.3f} ms) did not beat the "
                f"{REFERENCE} reference ({ref_best:.3f} ms) but is within the "
                f"5% noise band — not failing the gate"
            )
        else:
            print(
                f"\nFAIL: fused backend ({fused_best:.3f} ms) is >5% slower than "
                f"the {REFERENCE} reference ({ref_best:.3f} ms)"
            )
            speed_fail = True

    # -- numba JIT gate -------------------------------------------------------
    # Only armed when the numba backend is importable (and benchmarked):
    # the compiled per-point fusion must beat the interpreted fused
    # backend on the protected run AND carry a lower ABFT overhead —
    # the acceptance criterion of the JIT-backend milestone.  Absent
    # numba, the benchmark proves graceful degradation instead.
    numba_fail = False
    if "numba" in results and "fused" in results:
        # Same scheduler-noise treatment as the fused-vs-numpy gate
        # above: the hard failure needs a margin beyond runner jitter
        # (5% on the best-of timing, 2 percentage points on the
        # overhead), otherwise warn and pass — on single-core CI
        # runners parallel=True buys nothing and the margins shrink.
        numba_best, fused_best = results["numba"][2], results["fused"][2]
        numba_ov = report["backends"]["numba"]["abft_overhead_pct"]
        fused_ov = report["backends"]["fused"]["abft_overhead_pct"]
        beats = numba_best < fused_best
        lower = numba_ov < fused_ov
        report["gates"]["numba_beats_fused_protected"] = beats
        report["gates"]["numba_overhead_below_fused"] = lower
        if beats:
            print(
                f"numba backend beats fused on the protected run: "
                f"{numba_best:.3f} ms < {fused_best:.3f} ms per iteration "
                f"(best of {args.repeats})"
            )
        elif numba_best < fused_best * 1.05:
            print(
                f"WARN: numba backend ({numba_best:.3f} ms) did not beat "
                f"fused ({fused_best:.3f} ms) but is within the 5% noise "
                f"band — not failing the gate"
            )
        else:
            print(
                f"FAIL: numba backend ({numba_best:.3f} ms) is >5% slower "
                f"than fused ({fused_best:.3f} ms) on the protected run"
            )
            numba_fail = True
        if lower:
            print(
                f"numba ABFT overhead below fused: {numba_ov:.1f}% < "
                f"{fused_ov:.1f}%"
            )
        elif numba_ov < fused_ov + 2.0:
            print(
                f"WARN: numba ABFT overhead ({numba_ov:.1f}%) is not below "
                f"fused ({fused_ov:.1f}%) but within the 2-point noise band "
                f"— not failing the gate"
            )
        else:
            print(
                f"FAIL: numba ABFT overhead ({numba_ov:.1f}%) exceeds fused "
                f"({fused_ov:.1f}%) by more than 2 percentage points"
            )
            numba_fail = True

    # -- external-axis distributed layout (previously declined) ---------------
    # Timed on the best compiling backend present (numba), falling back
    # to the fused backend for the informative numbers; the smoke gate
    # is armed only for numba, where the fused compiled step exists.
    dist_fail = False
    dist_name = "numba" if "numba" in results else (
        "fused" if "fused" in results else None
    )
    if dist_name is not None:
        dist_size = min(args.size, 256 if args.smoke else 512)
        dist = time_distributed_external_axis(
            dist_name, dist_size, max(3, args.iters // 3), args.repeats
        )
        report["distributed_external_axis"] = dist
        comp = dist["compiled"]["ms_per_iter_best"]
        interp = dist["interpreted"]["ms_per_iter_best"]
        print(
            f"\ndistributed axis-1 decomposition ({dist_name}, "
            f"{dist_size}x{dist_size}, 2 ranks, previously declined): "
            f"compiled step {comp:.3f} ms vs interpreted {interp:.3f} ms "
            f"per iteration ({dist['speedup_best']:.2f}x)"
        )
        if dist_name == "numba":
            ok = comp < interp
            report["gates"]["numba_external_axis_compiled_not_slower"] = ok
            if ok:
                print(
                    "  compiled fused step beats the interpreted path on "
                    "the external-axis layout"
                )
            elif comp < interp * 1.05:
                print(
                    "  WARN: compiled step within the 5% noise band of the "
                    "interpreted path — not failing the gate"
                )
            else:
                print(
                    "  FAIL: compiled step is >5% slower than the "
                    "interpreted path on the external-axis layout"
                )
                dist_fail = True

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nmachine-readable results written to {args.json}")

    if args.smoke:
        if alloc_gate is False:
            return 1
        if not exec_ok:
            return 1
        if speed_fail:
            return 1
        if numba_fail:
            return 1
        if dist_fail:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
