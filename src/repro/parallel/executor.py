"""Executors that run per-tile work serially, on threads or on processes.

NumPy and the compiled kernels release the GIL inside their loops, so a
thread pool gives genuine concurrency for the memory-bound sweeps of
large tiles, while for tiny tiles the serial executor avoids the
dispatch overhead.  The tiled runner takes either of the two.  The
process pool serves the campaign engine, whose batches of runs are
Python-bound, picklable tasks: it adds ``submit`` and ``restart`` so the
engine can supervise its workers and re-dispatch a lost batch.

All executors expose the same ``map`` interface.

``make_executor(None)`` resolves the process-wide default installed by
:func:`set_default_executor` (what the ``--executor`` CLI flag sets),
then the ``REPRO_EXECUTOR`` environment variable, then ``"serial"``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

__all__ = [
    "EXECUTOR_ENV_VAR",
    "WORKERS_ENV_VAR",
    "BUILTIN_DEFAULT_EXECUTOR",
    "resolve_workers",
    "set_default_workers",
    "SerialExecutor",
    "ThreadPoolTileExecutor",
    "ProcessPoolTileExecutor",
    "make_executor",
    "available_executors",
    "set_default_executor",
    "default_executor_kind",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted for the default executor kind.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: Environment variable consulted for the default worker count.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Executor used when neither the process default nor the env var is set.
BUILTIN_DEFAULT_EXECUTOR = "serial"

_DEFAULT_EXECUTOR_OVERRIDE: Optional[str] = None
_DEFAULT_WORKERS_OVERRIDE: Optional[int] = None

def resolve_workers(workers: Optional[int]) -> int:
    """Resolve a worker count; never returns fewer than 1.

    ``None`` resolves through the process-wide default installed by
    :func:`set_default_workers` (what the ``--workers`` CLI flag sets),
    then the ``REPRO_WORKERS`` environment variable, then
    ``os.cpu_count()``.  An explicit count below 1 raises (defaults are
    clamped, explicit requests are validated).  This is the single place
    worker counts are interpreted — executors, runners and benchmarks
    all call it, so ``workers=None`` means the same thing everywhere.
    """
    if workers is None:
        if _DEFAULT_WORKERS_OVERRIDE is not None:
            return max(1, _DEFAULT_WORKERS_OVERRIDE)
        env = os.environ.get(WORKERS_ENV_VAR)
        if env is not None:
            try:
                return max(1, int(env))
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
                ) from None
        return max(1, os.cpu_count() or 1)
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def set_default_workers(workers: Optional[int]) -> None:
    """Install (or with ``None`` clear) the process-wide default worker count."""
    global _DEFAULT_WORKERS_OVERRIDE
    if workers is not None and int(workers) < 1:
        raise ValueError("workers must be >= 1")
    _DEFAULT_WORKERS_OVERRIDE = None if workers is None else int(workers)


class SerialExecutor:
    """Run tile tasks one after another in the calling thread."""

    kind = "serial"
    workers = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving order."""
        return [fn(item) for item in items]

    def shutdown(self) -> None:
        """No resources to release."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


class ThreadPoolTileExecutor:
    """Run tile tasks concurrently on a thread pool.

    Parameters
    ----------
    workers:
        Number of worker threads (the paper uses 8 OpenMP threads, one
        per layer of the 3D tiles). ``None`` uses every available core
        (``os.cpu_count()``).
    """

    kind = "threads"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item concurrently, preserving order."""
        pool = self._ensure_pool()
        return list(pool.map(fn, items))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ThreadPoolTileExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


class ProcessPoolTileExecutor:
    """Run picklable tasks on a pool of worker *processes*.

    The campaign engine's executor for Python-bound batches of runs:
    :meth:`map` and :meth:`submit` ship picklable functions and their
    arguments to the workers, and :meth:`restart` replaces a pool that
    lost a worker.  The tiled runner refuses it, since its tiles are
    closures over the parent's buffer pair.

    Parameters
    ----------
    workers:
        Number of worker processes; ``None`` uses every available core.
    """

    kind = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_workers(workers)
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply a picklable ``fn`` to every item across the worker pool."""
        pool = self._ensure_pool()
        return list(pool.map(fn, items))

    def submit(self, fn: Callable[..., R], *args, **kwargs):
        """Submit one task; returns the pool's ``concurrent.futures.Future``.

        The future-based interface lets a caller supervise in-flight
        work — collect completed results even when a sibling task's
        worker died, time out hung workers, and re-dispatch the losses
        after a :meth:`restart` (the campaign engine's worker-failure
        resilience is built on exactly this).
        """
        return self._ensure_pool().submit(fn, *args, **kwargs)

    def restart(self) -> None:
        """Tear down a (possibly broken) pool so the next task gets a fresh one.

        A worker process that dies mid-task breaks the whole
        ``ProcessPoolExecutor`` — every outstanding future fails and the
        pool refuses new work.  ``shutdown(wait=True)`` on such a pool
        can block on a worker that is hung rather than dead, so the
        teardown is non-blocking: cancel what never started, terminate
        any worker still alive, and drop the pool reference.  The next
        :meth:`submit`/:meth:`map` builds a fresh pool on demand.
        """
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        processes = list(getattr(pool, "_processes", {}).values() or [])
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            if proc.is_alive():
                proc.terminate()
        for proc in processes:
            proc.join(timeout=5)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessPoolTileExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


def available_executors() -> Tuple[str, ...]:
    """Canonical executor kinds accepted by :func:`make_executor`."""
    return ("process", "serial", "threads")


def default_executor_kind() -> str:
    """The kind the current process resolves ``kind=None`` to."""
    if _DEFAULT_EXECUTOR_OVERRIDE is not None:
        return _DEFAULT_EXECUTOR_OVERRIDE
    return os.environ.get(EXECUTOR_ENV_VAR, BUILTIN_DEFAULT_EXECUTOR)


def set_default_executor(kind: Optional[str]) -> None:
    """Install (or with ``None`` clear) the process-wide default executor.

    Takes precedence over the ``REPRO_EXECUTOR`` environment variable;
    the kind is validated immediately.
    """
    global _DEFAULT_EXECUTOR_OVERRIDE
    if kind is not None and kind not in available_executors():
        raise ValueError(
            f"unknown executor kind {kind!r}; expected one of "
            f"{available_executors()}"
        )
    _DEFAULT_EXECUTOR_OVERRIDE = kind


def make_executor(kind: Optional[str] = None, workers: Optional[int] = None):
    """Build an executor by kind (``"serial"``, ``"threads"``, ``"process"``).

    ``kind=None`` resolves through the default chain (process-wide
    override, then ``REPRO_EXECUTOR``, then ``"serial"``); ``workers=None``
    sizes pools to ``os.cpu_count()``.
    """
    if kind is None:
        kind = default_executor_kind()
    if kind == "serial":
        return SerialExecutor()
    if kind == "threads":
        return ThreadPoolTileExecutor(workers=workers)
    if kind == "process":
        return ProcessPoolTileExecutor(workers=workers)
    raise ValueError(
        f"unknown executor kind {kind!r}; expected one of {available_executors()}"
    )
