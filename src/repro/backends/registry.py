"""Backend registry and selection.

Resolution order of :func:`get_backend` when no explicit choice is
given:

1. the process-wide default installed with :func:`set_default_backend`
   (what the ``--backend`` CLI flag sets),
2. the ``REPRO_BACKEND`` environment variable,
3. the built-in default, ``"fused"`` (numerically bitwise-identical to
   the ``"numpy"`` reference, just faster).

Backends are singletons: ``get_backend("fused")`` always returns the
same instance, so per-backend caches (e.g. the fused backend's scratch
buffers) are shared across the process.

The campaign engine's process executor rebuilds grids and protectors
inside each worker from pickled factories, and a backend instance does
not cross the process boundary (the fused backend's thread-local
scratch does not pickle).  Such a factory names its backend, which each
worker resolves **by name** from its own registry, so a custom backend
must be registered at import time — module level of an imported
package — for worker processes to find it.  Unregistered instances
still work everywhere in-process.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Union

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

#: Anything accepted where a backend is expected: a registry name, a
#: :class:`Backend` instance, or ``None`` for the active default.
BackendLike = Union[None, str, Backend]


def register_backend(backend: Backend, aliases: Tuple[str, ...] = ()) -> Backend:
    """Register a backend instance under its ``name`` (plus ``aliases``).

    Re-registering a name replaces the previous instance, so tests and
    downstream packages can swap in instrumented implementations.
    """
    for name in (backend.name, *aliases):
        _REGISTRY[str(name)] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Sorted names of all registered backends."""
    return tuple(sorted(_REGISTRY))


def default_backend_name() -> str:
    """The name the current process resolves ``backend=None`` to."""
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


def get_backend(spec: BackendLike = None) -> Backend:
    """Resolve a backend name/instance/``None`` to a :class:`Backend`.

    ``None`` resolves through the default chain documented in the module
    docstring; an instance is returned unchanged (so callers can inject
    unregistered custom backends).
    """
    if isinstance(spec, Backend):
        return spec
    name = default_backend_name() if spec is None else str(spec)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {list(available_backends())}"
        ) from None
