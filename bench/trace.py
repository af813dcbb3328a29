"""Outside-in span tracer: wraps library entry points without editing them.

A :class:`Tracer` is a context manager.  On entry it replaces each
listed entry point with a timing wrapper *at every site the entry point
is looked up*:

* a module-level function is rebound in every loaded module of the
  traced package that holds the same object (``from x import f`` copies
  the binding, so ``repro.core.online.interpolate_checksum_padded`` is
  patched as well as ``repro.core.interpolation.interpolate_checksum_padded``;
  call-time imports read the defining module and see the patch too);
* a method is rebound on every class of the owner's MRO that defines
  it, so a subclass override and the base implementation it calls via
  ``super()`` are both covered.

On exit every original is restored.  Spans are kept in memory as
``(name, start, end, parent, op)`` records and summed per name into
call counts, total time and *self* time (span duration minus the time
covered by its child spans, computed with a child-time stack).  A call
that re-enters the span that is already innermost (a ``super()`` chain,
or ``detect_errors`` calling the wrapped ``relative_discrepancy``) is
folded into the open span instead of opening a nested one, so call
counts stay "one per entry".

The tracer is single-threaded by design: the benchmark runs everything
in one thread, and the span stack is a plain list.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = ["Function", "Method", "Tracer"]


@dataclass(frozen=True)
class Function:
    """A module-level function, patched wherever it is bound by name."""

    module: str
    name: str

    def resolve(self):
        return getattr(importlib.import_module(self.module), self.name)


@dataclass(frozen=True)
class Method:
    """Methods of a class (or of a class computed at install time).

    ``owner`` is ``"module:Class"`` or a zero-argument callable returning
    the class — e.g. ``lambda: type(get_backend())`` to trace whichever
    backend class is active.
    """

    owner: Union[str, Callable[[], type]]
    names: Tuple[str, ...]

    def owner_class(self) -> type:
        if callable(self.owner):
            return self.owner()
        module, _, cls = self.owner.partition(":")
        return getattr(importlib.import_module(module), cls)


Target = Union[Function, Method]


class _Open:
    __slots__ = ("index", "name", "start", "child")

    def __init__(self, index: int, name: str, start: float) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Context manager wrapping ``spans`` = ``{span name: [targets]}``.

    Parameters
    ----------
    spans:
        Span name to the entry points it covers.
    package:
        Only modules whose name is ``package`` or starts with
        ``package + "."`` are scanned for by-name function bindings.
    clock:
        Time source (``time.perf_counter``; tests pass a fake clock).
    on_enter:
        Span name to ``hook(fn, args, kwargs)``, called before a span of
        that name opens (to count the work a call carries).

    Spans are recorded only inside :meth:`op`, so set-up code that runs
    while the tracer is installed leaves no trace.
    """

    def __init__(
        self,
        spans: Dict[str, Sequence[Target]],
        package: str = "repro",
        clock: Callable[[], float] = time.perf_counter,
        on_enter: Optional[Dict[str, Callable]] = None,
    ) -> None:
        self.spans = {name: tuple(targets) for name, targets in spans.items()}
        self.package = package
        self.clock = clock
        self.on_enter = dict(on_enter or {})
        #: ``(name, start, end, parent index, op id)`` per closed span.
        self.records: List[Tuple[str, float, float, Optional[int], Optional[int]]] = []
        self.calls: Dict[str, int] = {}
        self.self_time: Dict[str, float] = {}
        self.total_time: Dict[str, float] = {}
        self._stack: List[_Open] = []
        self._op: Optional[int] = None
        self._ops = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------------
    def _modules(self):
        prefix = self.package + "."
        for name, module in list(sys.modules.items()):
            if module is not None and (name == self.package or name.startswith(prefix)):
                yield module

    def _patch(self, holder, attr: str, original, replacement) -> None:
        self._patches.append((holder, attr, original))
        setattr(holder, attr, replacement)

    def install(self) -> None:
        """Patch every target; raises if already installed."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for span, targets in self.spans.items():
                for target in targets:
                    if isinstance(target, Function):
                        self._install_function(span, target)
                    else:
                        self._install_method(span, target)
        except BaseException:
            self.uninstall()
            raise

    def _install_function(self, span: str, target: Function) -> None:
        original = target.resolve()
        wrapper = self._wrap(span, original)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    def _install_method(self, span: str, target: Method) -> None:
        for cls in target.owner_class().__mro__:
            if cls is object:
                continue
            for name in target.names:
                raw = cls.__dict__.get(name)
                if raw is not None:
                    self._patch(cls, name, raw, self._wrap(span, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute, most recent first."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- spans ------------------------------------------------------------------
    def _wrap(self, span: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(span, fn, args, kwargs)

        return traced

    def _open(self, name: str) -> _Open:
        parent = self._stack[-1].index if self._stack else None
        index = len(self.records)
        # Reserve the record slot now so children can name their parent.
        self.records.append((name, 0.0, 0.0, parent, self._op))
        span = _Open(index, name, self.clock())
        self._stack.append(span)
        return span

    def _close(self, span: _Open) -> float:
        end = self.clock()
        self._stack.pop()
        duration = end - span.start
        name = span.name
        _, _, _, parent, op = self.records[span.index]
        self.records[span.index] = (name, span.start, end, parent, op)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - span.child
        self.total_time[name] = self.total_time.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1].child += duration
        return duration

    def _call(self, name: str, fn, args, kwargs):
        # Outside a benchmark operation nothing is recorded; a re-entry
        # of the innermost span folds into it.
        if not self._stack or self._stack[-1].name == name:
            return fn(*args, **kwargs)
        hook = self.on_enter.get(name)
        if hook is not None:
            hook(fn, args, kwargs)
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    @contextmanager
    def op(self, name: str) -> Iterator[int]:
        """Root span of one benchmark operation; yields its op id.

        Spans opened inside carry the op id.  The root's self time is
        the part of the operation no traced entry point accounts for.
        """
        if self._stack:
            raise RuntimeError("benchmark operations cannot nest")
        self._op = self._ops
        self._ops += 1
        span = self._open(name)
        try:
            yield self._op
        finally:
            self._close(span)
            self._op = None

    def as_json(self) -> dict:
        """Span records in a compact, self-describing form."""
        names = sorted({r[0] for r in self.records})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "spans": [
                [index[n], round(s, 9), round(e, 9), p, op]
                for n, s, e, p, op in self.records
            ],
        }
