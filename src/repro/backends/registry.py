"""Backend registry and selection.

The process-wide selection is the one way a layer gets its backend:
grids, protectors, runners and the campaign engine call
:func:`get_backend` with no argument where they use it, which resolves

1. the process-wide default installed with :func:`set_default_backend`
   (what the ``--backend`` CLI flag sets),
2. the ``REPRO_BACKEND`` environment variable,
3. the built-in default, ``"fused"`` (numerically bitwise-identical to
   the ``"numpy"`` reference, just faster).

Backends are singletons: ``get_backend("fused")`` always returns the
same instance, so per-backend caches (e.g. the fused backend's scratch
buffers) are shared across the process.

The campaign engine's process executor rebuilds grids and protectors
inside each worker, and a backend instance does not cross the process
boundary (the fused backend's thread-local scratch does not pickle).
Each batch carries the parent's selection by name and the worker
installs it from its own registry, so a custom backend must be
registered at import time — module level of an imported package — for
worker processes to find it.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.backends.base import Backend

__all__ = [
    "ENV_VAR",
    "BUILTIN_DEFAULT",
    "register_backend",
    "available_backends",
    "get_backend",
    "set_default_backend",
    "default_backend_name",
]

#: Environment variable consulted for the default backend name.
ENV_VAR = "REPRO_BACKEND"

#: Backend used when neither the process default nor the env var is set.
BUILTIN_DEFAULT = "fused"

_REGISTRY: Dict[str, Backend] = {}
_DEFAULT_OVERRIDE: Optional[str] = None


def register_backend(backend: Backend) -> Backend:
    """Register a backend instance under its ``name``.

    Re-registering a name replaces the previous instance, so tests and
    downstream packages can swap in instrumented implementations.
    """
    _REGISTRY[str(backend.name)] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Sorted names of all registered backends."""
    return tuple(sorted(_REGISTRY))


def default_backend_name() -> str:
    """The name :func:`get_backend` resolves with no argument."""
    if _DEFAULT_OVERRIDE is not None:
        return _DEFAULT_OVERRIDE
    return os.environ.get(ENV_VAR, BUILTIN_DEFAULT)


def set_default_backend(name: Optional[str]) -> None:
    """Install (or with ``None`` clear) the process-wide default backend.

    Takes precedence over the ``REPRO_BACKEND`` environment variable;
    the name is validated against the registry immediately.
    """
    global _DEFAULT_OVERRIDE
    if name is not None and name not in _REGISTRY:
        raise KeyError(
            f"unknown backend {name!r}; available: {list(available_backends())}"
        )
    _DEFAULT_OVERRIDE = name


def get_backend(name: Optional[str] = None) -> Backend:
    """The registered backend ``name``, or the selection for ``None``.

    ``None`` resolves through the default chain documented in the module
    docstring; a name fetches that registered instance (tests compare
    against the ``numpy`` reference this way).
    """
    if name is None:
        name = default_backend_name()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {list(available_backends())}"
        ) from None
