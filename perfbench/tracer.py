"""Benchmark-side tracing: time calls into the program's public functions.

The program itself carries no benchmark spans.  A :class:`Tracer`
replaces chosen functions and methods with thin wrappers for the length
of a ``with`` block and restores every original afterwards.  Each
wrapped call records one span ``(metric, phase, start, end, parent)``
in memory; counters are recorded at the same boundaries.  Per-layer
numbers are computed from the span list once the run ends:

* ``busy`` of a metric is the time inside its wrapped calls, counting a
  call nested inside another call of the same metric once;
* ``self`` of a layer (the metric prefix before the first ``.``) is the
  time its spans cover minus the part covered by their direct child
  spans, whatever layer those belong to.

A function imported by name into several modules (``from repro.kernels
import group_reduce``) is one object bound under many names, so
:meth:`Tracer.patch_everywhere` replaces it in every loaded ``repro``
module that holds it.  Modules must be imported before the tracer is
entered: a module imported while the wrappers are in place would bind
the wrapper, which :meth:`Tracer.restore` therefore also sweeps for.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import types
from collections import defaultdict
from typing import Callable

__all__ = ["Tracer", "is_wrapper", "layer_of"]

#: Attribute carried by every wrapper: the function it replaced.
_ORIGINAL = "__perfbench_original__"


def layer_of(metric: str) -> str:
    """The layer a metric belongs to: its name up to the first ``.``."""
    return metric.split(".", 1)[0]


def is_wrapper(obj) -> bool:
    """Whether ``obj`` is a wrapper some :class:`Tracer` installed."""
    target = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
    return isinstance(target, types.FunctionType) and _ORIGINAL in vars(target)


class Tracer:
    """Install timing wrappers, keep spans in memory, report per layer.

    Usage::

        tracer = Tracer()
        tracer.patch_method(Router, "resolve_ods_mixed", "net.busy_s",
                            count=lambda a, k, r: {"net.lookups": len(r)})
        with tracer:
            run_the_workload()
        tracer.busy("net.busy_s"), tracer.counter("net.lookups")

    Args:
        module_prefix: Only modules whose name starts with this prefix
            are searched by :meth:`patch_everywhere`.
        clock: Monotonic clock returning seconds.
    """

    def __init__(self, module_prefix: str = "repro", clock: Callable[[], float] = time.perf_counter):
        self.module_prefix = module_prefix
        self.clock = clock
        #: Label stamped on every span and counter ("setup", "run", ...).
        self.phase = "run"
        #: ``(metric, phase, start, end, parent_index)``; parent -1 = root.
        self.spans: list[tuple[str, str, float, float, int]] = []
        self._counters: dict[tuple[str, str], float] = defaultdict(float)
        self._gauges: dict[tuple[str, str], float] = {}
        self._stack: list[int] = []
        #: Pending patches: ``(owner, attr, metric, count)``.
        self._plan: list[tuple[object, str, str, Callable | None]] = []
        #: Applied patches: ``(owner, attr, previous raw value, owned)``.
        self._applied: list[tuple[object, str, object, bool]] = []

    # -- planning ----------------------------------------------------------

    def patch_method(self, owner, attr: str, metric: str, count: Callable | None = None) -> None:
        """Wrap ``owner.attr`` (a class or module attribute) on entry.

        ``count(args, kwargs, result)`` — or, for a generator, ``count(
        args, kwargs, item)`` per yielded item — returns a mapping of
        counter increments recorded in the current phase.
        """
        self._plan.append((owner, attr, metric, count))

    def patch_everywhere(self, function, metric: str, count: Callable | None = None) -> None:
        """Wrap ``function`` under every name a loaded module binds it to."""
        found = False
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(self.module_prefix):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._plan.append((module, attr, metric, count))
                    found = True
        if not found:
            raise ValueError(f"{function!r} is not bound in any loaded module")

    # -- spans and counters ------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a counter of the current phase."""
        self._counters[(self.phase, name)] += value

    def gauge_max(self, name: str, value: float) -> None:
        """Keep the largest ``value`` seen for a gauge in the current phase."""
        key = (self.phase, name)
        if value > self._gauges.get(key, float("-inf")):
            self._gauges[key] = value

    def _open(self, metric: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((metric, self.phase, self.clock(), 0.0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = self.clock()
        metric, phase, start, _, parent = self.spans[index]
        self.spans[index] = (metric, phase, start, end, parent)
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - would mean a wrapper leaked
            raise RuntimeError("tracer span stack out of order")

    @contextlib.contextmanager
    def span(self, metric: str):
        """Record one span around a block (for benchmark-owned code)."""
        index = self._open(metric)
        try:
            yield
        finally:
            self._close(index)

    def _record(self, count, args, kwargs, result) -> None:
        if count is not None:
            for name, value in count(args, kwargs, result).items():
                self._counters[(self.phase, name)] += value

    def _wrap(self, function, metric: str, count):
        tracer = self
        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                inner = function(*args, **kwargs)
                while True:
                    index = tracer._open(metric)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    tracer._record(count, args, kwargs, item)
                    yield item

        else:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                index = tracer._open(metric)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer._close(index)
                tracer._record(count, args, kwargs, result)
                return result

        setattr(wrapper, _ORIGINAL, function)
        return wrapper

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, metric, count in self._plan:
                # A class attribute found only on a base class is shadowed
                # on entry and deleted again on restore.
                owned = not isinstance(owner, type) or attr in vars(owner)
                raw = vars(owner)[attr] if owned else getattr(owner, attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(self._wrap(raw.__func__, metric, count))
                else:
                    patched = self._wrap(raw, metric, count)
                self._applied.append((owner, attr, raw, owned))
                setattr(owner, attr, patched)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original back, then sweep for stray wrappers."""
        while self._applied:
            owner, attr, raw, owned = self._applied.pop()
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(self.module_prefix):
                continue
            for attr, value in list(vars(module).items()):
                if is_wrapper(value):
                    while is_wrapper(value):
                        value = vars(value)[_ORIGINAL]
                    setattr(module, attr, value)

    # -- reporting ---------------------------------------------------------

    def counter(self, name: str, phase: str = "run") -> float:
        """A counter's total in ``phase`` (0 when never counted)."""
        return self._counters.get((phase, name), 0.0)

    def gauge(self, name: str, phase: str = "run") -> float:
        """A gauge's maximum in ``phase`` (0 when never set)."""
        return self._gauges.get((phase, name), 0.0)

    def busy(self, metric: str, phase: str = "run") -> float:
        """Seconds inside ``metric``'s calls, same-metric nesting once."""
        total = 0.0
        for name, span_phase, start, end, parent in self.spans:
            if name != metric or span_phase != phase:
                continue
            nested = False
            while parent >= 0:
                if self.spans[parent][0] == metric:
                    nested = True
                    break
                parent = self.spans[parent][4]
            if not nested:
                total += end - start
        return total

    def self_times(self, phase: str = "run") -> dict[str, float]:
        """Per layer: span time minus the time of direct child spans."""
        child_time = [0.0] * len(self.spans)
        for name, span_phase, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (name, span_phase, start, end, parent) in enumerate(self.spans):
            if span_phase == phase:
                out[layer_of(name)] += (end - start) - child_time[index]
        return dict(out)
