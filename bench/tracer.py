"""Outside-in tracer: wraps flowenum's public functions without editing them.

Installing the tracer replaces every module-level binding of a public
function defined in one of the layer modules, in every loaded flowenum
module, so names copied by `from .x import y` are traced too.  Private
helpers (leading underscore) are never wrapped; their time counts as the
self time of the public function that called them.  For a generator
function each resume is one span, so the time a consumer holds the
generator between items is not charged to it.

A function's inclusive time is its span time, counted once for nested
calls of the same function; self time is span time minus the child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

PACKAGE = "flowenum"
LAYERS = ("cli", "dimacs", "core", "solver", "enumeration", "dfs", "kbest", "treebounds")


class Record:
    """Totals for one traced function."""

    __slots__ = ("calls", "hits", "inclusive_ns", "self_ns", "active")

    def __init__(self) -> None:
        self.calls = 0          # invocations (a generator counts once, when created)
        self.hits = 0           # non-None results, or items a generator yielded
        self.inclusive_ns = 0
        self.self_ns = 0
        self.active = 0


class Tracer:
    """Context manager that traces the layer modules while it is entered."""

    def __init__(self) -> None:
        self.records: dict[str, Record] = {}
        self._stack: list[list[int]] = []   # one [child_ns] cell per open span
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def reset(self) -> None:
        for record in self.records.values():
            record.calls = record.hits = record.inclusive_ns = record.self_ns = 0

    def __enter__(self) -> "Tracer":
        for layer in LAYERS:
            try:
                importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue  # a layer that no longer exists reports zeros
        wrappers: dict[object, object] = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            for name, value in list(vars(module).items()):
                key = _layer_key(value)
                if key is None:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, key)
                self._patches.append((module, name, value))
                setattr(module, name, wrappers[value])
        return self

    def __exit__(self, *exc_info) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, fn, key: str):
        record = self.records.setdefault(key, Record())
        stack = self._stack
        clock = time.perf_counter_ns

        def close_span(cell, started) -> None:
            elapsed = clock() - started
            stack.pop()
            record.active -= 1
            record.self_ns += elapsed - cell[0]
            if not record.active:
                record.inclusive_ns += elapsed
            if stack:
                stack[-1][0] += elapsed

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                record.calls += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        cell = [0]
                        stack.append(cell)
                        record.active += 1
                        started = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            close_span(cell, started)
                        record.hits += 1
                        yield item
                finally:
                    inner.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record.calls += 1
            cell = [0]
            stack.append(cell)
            record.active += 1
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(cell, started)
            if result is not None:
                record.hits += 1
            return result

        return traced

    def get(self, key: str) -> Record:
        """Totals for `layer.function`; all zero when no such function exists."""
        return self.records.get(key, Record())

    def layer_totals(self, layer: str) -> tuple[int, int]:
        """(calls, self_ns) summed over every public function of the layer."""
        prefix = layer + "."
        chosen = [r for key, r in self.records.items() if key.startswith(prefix)]
        return sum(r.calls for r in chosen), sum(r.self_ns for r in chosen)


def _layer_key(value) -> str | None:
    """'layer.function' for a public function defined in a layer module."""
    if not isinstance(value, types.FunctionType) or value.__name__.startswith("_"):
        return None
    package, _, layer = value.__module__.partition(".")
    if package != PACKAGE or layer not in LAYERS:
        return None
    return f"{layer}.{value.__name__}"
