#!/usr/bin/env python
"""Compare the backend's compiled and interpreted paths and the tile executors.

This benchmark times the paper's hot loop — sweep + checksum
verification under :class:`repro.core.online.OnlineABFT` — on a
five-point float32 diffusion domain (1024x1024 by default, the
acceptance configuration), plus the raw unprotected sweep for context,
on both paths of the ``fused`` backend: *compiled* (its native flat
kernels, :mod:`repro.backends.native`) and *interpreted* (the same
backend with the native library reading as unavailable, the NumPy code
a machine without ``cc`` runs).  It cross-checks that both paths'
results and checksums stay within ``recommend_epsilon`` of
:func:`~repro.stencil.reference.reference_sweep_padded` across the
whole stencil-kernel library.

It additionally verifies the zero-copy halo pipeline with ``tracemalloc``
(the backend must perform **zero** full-domain allocations per
protected iteration — the double-buffered grids sweep in place), compares
the serial and thread tile executors on a protected tiled run, checks
the executors produce bit-identical domains and detections under fault
injection, and emits every measurement as machine-readable JSON
(``BENCH_backends.json``) so the perf trajectory is tracked across PRs.

The backend's ``warmup`` (the native library build or load) plus one
untimed warm-up iteration run before any timed loop, so one-off costs
never contaminate the numbers; the warmup time itself is reported
separately.  Every emitted metric is defined in the JSON's
``metric_definitions`` block — one statistic (median over repeats) and
one baseline convention for both paths.  A ``kernels`` block lists the
backend's compiled-kernel entries (``FusedBackend.compiled_kernels``):
the native flat library, with its path, build and load time, or the
reason it is not loaded.

Usage::

    python benchmarks/bench_backends.py                 # full comparison
    python benchmarks/bench_backends.py --smoke         # CI gate: exit 1 if
                                                        # the compiled path is
                                                        # slower than the
                                                        # interpreted one or
                                                        # allocates a full
                                                        # domain per iter
    python benchmarks/bench_backends.py --size 2048 --iters 20 --exec-workers 4
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
import tracemalloc
from unittest import mock

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro.backends import get_backend, native
from repro.core.checksums import checksum
from repro.core.online import OnlineABFT
from repro.core.thresholds import recommend_epsilon
from repro.parallel.executor import make_executor, resolve_workers
from repro.parallel.runner import TiledStencilRunner
from repro.stencil.boundary import BoundaryCondition
from repro.stencil.grid import Grid2D
from repro.stencil.kernels import five_point_diffusion
from repro.stencil.reference import reference_sweep_padded
from repro.stencil.shift import pad_array

#: The backend's two paths; the interpreted one is the speed baseline.
PATHS = ("compiled", "interpreted")
DEFAULT_JSON = "BENCH_backends.json"

#: Fixed transient footprint of the protector itself (checksum vectors,
#: interpolation strips, detection buffers) — measured flat at ~85-100 KB
#: from 128^2 to 1024^2 domains.  The allocation gate subtracts this
#: allowance so a small benchmark domain is not mislabelled as a
#: full-domain temporary.
ALLOC_OVERHEAD_ALLOWANCE = 256 * 1024


def build_grid(size: int) -> Grid2D:
    """The benchmark domain."""
    rng = np.random.default_rng(42)
    initial = (rng.random((size, size)) * 100.0).astype(np.float32)
    return Grid2D(initial, five_point_diffusion(0.2), BoundaryCondition.clamp())


@contextlib.contextmanager
def on_path(path: str):
    """Run the enclosed code on ``path``: ``interpreted`` marks the native
    library unavailable, so every sweep and fold runs its NumPy code."""
    if path == "interpreted":
        with mock.patch.object(native, "_state", "interpreted by the benchmark"):
            yield
    else:
        yield


def warmup_backend() -> float:
    """Build or load the native library; returns the wall time in ms.

    Called once *before* any timed loop — together with the untimed
    warm-up iteration each timing function performs, this keeps the
    one-off build cost out of every reported number.
    """
    start = time.perf_counter()
    get_backend().warmup()
    return (time.perf_counter() - start) * 1000.0


def time_protected_run(size: int, iters: int, repeats: int):
    """(median, min) per-iteration wall time (ms) of an OnlineABFT run.

    The median is reported in the table; the min — the least
    noise-contaminated sample — is what the ``--smoke`` gate compares,
    so scheduler jitter on shared CI runners cannot flip the verdict.
    """
    samples = []
    for _ in range(repeats):
        grid = build_grid(size)
        protector = OnlineABFT.for_grid(grid)
        protector.step(grid)  # warm-up: scratch buffers, first checksums
        start = time.perf_counter()
        for _ in range(iters):
            protector.step(grid)
        samples.append((time.perf_counter() - start) / iters * 1000.0)
    return statistics.median(samples), min(samples)


def time_raw_sweep(size: int, iters: int, repeats: int) -> float:
    """Median per-iteration wall time (ms) of the unprotected sweep."""
    samples = []
    for _ in range(repeats):
        grid = build_grid(size)
        grid.step()
        start = time.perf_counter()
        for _ in range(iters):
            grid.step()
        samples.append((time.perf_counter() - start) / iters * 1000.0)
    return statistics.median(samples)


def measure_allocations(size: int, iters: int = 5) -> dict:
    """Tracemalloc profile of the protected hot loop.

    Measures the *peak* allocation growth across ``iters`` protected
    steps after warm-up.  A full-domain temporary (the old per-iteration
    ``pad_array`` copy, or the reference sweep's per-point products)
    bumps the peak by at least one domain worth of bytes; the
    double-buffered zero-copy pipeline only allocates O(edge) checksum
    vectors, orders of magnitude below it.
    """
    grid = build_grid(size)
    protector = OnlineABFT.for_grid(grid)
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

    grid = build_grid(size)
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
        runner.shutdown()  # a caller-provided executor stays alive


def compare_executors(size: int, iters: int, workers) -> dict:
    """Protected tiled-run timing + injection equivalence per executor.

    One executor (and pool) per kind serves both the timing run and the
    injection-equivalence check.
    """
    workers = resolve_workers(workers)
    results: dict = {"workers": workers, "tile_parts": [2, 2], "kinds": {}}
    serial_sig = None
    for kind in ("serial", "threads"):
        executor = make_executor(kind, workers=workers)
        try:
            grid = build_grid(size)
            runner = TiledStencilRunner.with_online_abft(
                grid, (2, 2), executor=executor, epsilon=1e-5
            )
            try:
                runner.step()  # warm-up: pool threads, scratch buffers
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


def check_equivalence(verbose: bool = True) -> float:
    """Max relative mismatch of either path vs the reference (library-wide)."""
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
    be = get_backend()
    for name, spec, shape in library:
        u = (rng.random(shape) * 100.0).astype(np.float32)
        radius = spec.radius()
        padded = pad_array(u, radius, BoundaryCondition.clamp())
        ref_new = reference_sweep_padded(padded, spec, radius, shape)
        ref_cs = {a: checksum(ref_new, a, dtype=np.float64) for a in (0, 1)}
        for path in PATHS:
            with on_path(path):
                new = be.sweep_padded(padded, spec, radius, shape)
                cs = {a: be.checksum(new, a, dtype=np.float64) for a in (0, 1)}
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
                    f"  equivalence {path:11s} {name:26s} "
                    f"max rel diff {mismatch:.3e} (eps {eps:.1e}) {status}"
                )
            if mismatch > eps:
                raise SystemExit(
                    f"the {path} path diverges from the reference sweep on "
                    f"{name}: {mismatch:.3e} > eps {eps:.3e}"
                )
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=1024, help="domain edge length")
    parser.add_argument("--iters", type=int, default=30, help="timed iterations")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (median)")
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
        help="worker count for the thread executor (default: all cores)",
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
            "non-zero if the compiled path is slower than the interpreted "
            "one or performs any full-domain allocation per protected "
            "iteration"
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

    report = {
        "config": {
            "size": args.size,
            "iters": args.iters,
            "repeats": args.repeats,
            "exec_size": args.exec_size,
            "cpu_count": os.cpu_count(),
            "smoke": bool(args.smoke),
        },
        # Every per-path metric uses one statistic (the median over
        # --repeats) and one baseline convention, spelled out here so
        # the JSON is self-describing and the numbers stay comparable
        # across paths and across PRs.
        "metric_definitions": {
            "warmup_ms": (
                "one-off FusedBackend.warmup() wall time (native library "
                "build or load); excluded from every other metric"
            ),
            "sweep_ms": (
                "median per-iteration wall time of the unprotected sweep "
                "on this path (one untimed warm-up iteration first)"
            ),
            "abft_ms_median": (
                "median per-iteration wall time of the OnlineABFT-"
                "protected run on this path (one untimed warm-up "
                "iteration first)"
            ),
            "abft_ms_best": (
                "fastest repeat of the protected run; what the --smoke "
                "speed gate compares (least scheduler-noise-contaminated)"
            ),
            "abft_overhead_pct": (
                "100 * (abft_ms_median - sweep_ms) / sweep_ms: the cost "
                "of protection relative to this same path's own "
                "unprotected sweep (both medians)"
            ),
            "sweep_speedup_vs_interpreted": (
                "interpreted sweep_ms / this path's sweep_ms (medians; "
                "> 1 means this path sweeps faster than the interpreted one)"
            ),
            "protected_speedup_vs_interpreted": (
                "interpreted abft_ms_median / this path's abft_ms_median "
                "(medians; > 1 means this path's protected run is faster "
                "than the interpreted one's)"
            ),
            "kernels.fused[].build_ms": (
                "compile time of the compiled library in this process "
                "(0 when it was loaded from the kernel cache)"
            ),
            "kernels.fused[].load_ms": (
                "dlopen time of the compiled library"
            ),
        },
        "warmup_ms": warmup_backend(),
        "paths": {},
        "kernels": {},
        "executors": None,
        "gates": {},
    }

    print(
        f"Compiled vs interpreted: {args.size}x{args.size} float32 five-point "
        f"diffusion, OnlineABFT-protected ({args.iters} iters, "
        f"median of {args.repeats})"
    )
    print()
    print("Equivalence vs the reference sweep across the stencil library:")
    worst = check_equivalence(verbose=not args.smoke)
    print(f"  both paths within eps of the reference (max rel diff {worst:.3e})")
    print()

    results = {}
    header = (
        f"{'path':12s} {'sweep ms':>10s} {'abft ms':>10s} {'overhead':>9s} "
        f"{'sweep vs interp':>16s} {'abft vs interp':>15s} {'peak alloc':>12s}"
    )
    print(header)
    print("-" * len(header))
    for path in PATHS:
        with on_path(path):
            raw = time_raw_sweep(args.size, args.iters, args.repeats)
            protected, best = time_protected_run(args.size, args.iters, args.repeats)
            alloc = measure_allocations(args.size)
        results[path] = (raw, protected, best, alloc)
    base_sweep, base_protected = results["interpreted"][:2]
    for path in PATHS:
        raw, protected, best, alloc = results[path]
        overhead = (protected / raw - 1.0) * 100.0
        sweep_speedup = base_sweep / raw
        protected_speedup = base_protected / protected
        peak = alloc["peak_alloc_bytes"]
        print(
            f"{path:12s} {raw:10.3f} {protected:10.3f} {overhead:8.1f}% "
            f"{sweep_speedup:14.2f}x {protected_speedup:13.2f}x {peak:10d} B"
        )
        report["paths"][path] = {
            "sweep_ms": raw,
            "abft_ms_median": protected,
            "abft_ms_best": best,
            "abft_overhead_pct": overhead,
            "sweep_speedup_vs_interpreted": sweep_speedup,
            "protected_speedup_vs_interpreted": protected_speedup,
            "alloc": alloc,
        }
    print()

    # -- compiled-kernel report -----------------------------------------------
    backend = get_backend()
    entries = [dict(e) for e in backend.compiled_kernels()]
    report["kernels"][backend.name] = entries
    for e in entries:
        if e["reason"]:
            print(f"{e['kind']} kernels interpreted: {e['reason']}")
        else:
            print(
                f"{e['kind']} kernels compiled: {e['path']} "
                f"({'cache' if e['from_disk'] else 'built'}, build "
                f"{e['build_ms']:.1f} ms, load {e['load_ms']:.2f} ms)"
            )
    print()

    # -- allocation-regression gate -----------------------------------------
    alloc = results["compiled"][3]
    alloc_gate = alloc["zero_full_domain_allocs"]
    domain_mb = alloc["domain_bytes"] / 1e6
    peak_kb = alloc["peak_alloc_bytes"] / 1e3
    if alloc_gate:
        print(
            f"fused backend performs zero full-domain allocations per "
            f"protected iteration (peak transient {peak_kb:.1f} KB vs "
            f"{domain_mb:.1f} MB domain, tracemalloc)"
        )
    else:
        print(
            f"FAIL: fused backend allocated {alloc['full_domain_allocs']} "
            f"full-domain temporaries across the loop (peak {peak_kb:.1f} KB, "
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
        report["gates"]["executors_match_serial_under_injection"] = exec_ok

    # -- speed gate ----------------------------------------------------------
    speed_fail = False
    if native.library() is None:
        # Both runs took the NumPy code: there is nothing to compare.
        report["gates"]["compiled_faster_than_interpreted"] = None
        print(
            f"\nspeed gate skipped: compiled kernels unavailable "
            f"({native.unavailable_reason()})"
        )
    else:
        # Gate on the per-path minimum: the fastest sample is the one
        # least distorted by scheduler noise, which matters on shared CI
        # runners where the margin can be a few percent. A 5% grace band
        # separates "lost the race to runner jitter" (warn, pass) from
        # "actually slower" (fail).
        compiled_best = results["compiled"][2]
        interp_best = results["interpreted"][2]
        faster = compiled_best < interp_best
        report["gates"]["compiled_faster_than_interpreted"] = faster
        if faster:
            print(
                f"\ncompiled path beats the interpreted one: "
                f"{compiled_best:.3f} ms < {interp_best:.3f} ms per protected "
                f"iteration (best of {args.repeats})"
            )
        elif compiled_best < interp_best * 1.05:
            print(
                f"\nWARN: compiled path ({compiled_best:.3f} ms) did not beat "
                f"the interpreted one ({interp_best:.3f} ms) but is within "
                f"the 5% noise band — not failing the gate"
            )
        else:
            print(
                f"\nFAIL: compiled path ({compiled_best:.3f} ms) is >5% slower "
                f"than the interpreted one ({interp_best:.3f} ms)"
            )
            speed_fail = True

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
