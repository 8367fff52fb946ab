"""In-memory span tracer that wraps layer entry points from outside.

A :class:`Tracer` replaces each listed function or method with a wrapper
that records one span ``(name, start, end, parent)`` per call, keeps the
spans in a list and puts every original back on :meth:`Tracer.uninstall`.
A module-level function is replaced at *every* binding under ``repro``,
including names copied by ``from ... import`` (for example
``repro.experiments.bandwidth.solve_min_max_load_lp``); patching only the
defining module would miss those call sites. A method is replaced on its
class.

Counter-only hooks (:meth:`Tracer.count`) observe a call without opening
a span, so they neither cost a span record nor split their caller's self
time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable

__all__ = ["Tracer"]


def _resolve(module: str, qualname: str):
    """(owner, attribute name, current value) for ``module:qualname``.

    A method is read from its class's own ``__dict__``, so an inherited
    method fails loudly instead of being patched on the wrong class.
    """
    owner: Any = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters for one benchmark repeat (see module docstring)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: (name, start, end, parent span index or -1); None while open.
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _span_wrapper(self, name: str, fn: Callable, hook: Callable | None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                result = hook(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn: Callable, hook: Callable):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return hook(self, args, fn(*args, **kwargs))

        return wrapper

    # -- patching --------------------------------------------------------------

    def span(self, name: str, module: str, qualname: str,
             hook: Callable | None = None) -> None:
        """Record a ``name`` span around every call of ``module:qualname``.

        ``hook(tracer, args, result)`` runs after the call and returns the
        result handed back to the caller (normally ``result`` itself).
        """
        owner, attr, target = _resolve(module, qualname)
        self._replace(owner, attr, target,
                      self._span_wrapper(name, target, hook))

    def count(self, module: str, qualname: str, hook: Callable) -> None:
        """Run ``hook`` after every call of ``module:qualname``; no span."""
        owner, attr, target = _resolve(module, qualname)
        self._replace(owner, attr, target, self._count_wrapper(target, hook))

    def _replace(self, owner, attr: str, target, wrapper) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, attr, target))
            setattr(owner, attr, wrapper)
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is target:
                    self._patches.append((module, key, target))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived times ---------------------------------------------------------

    def finished_spans(self) -> list[tuple]:
        return [s for s in self.spans if s is not None]

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds.

        ``total`` sums only the outermost spans of a name (a nested call
        of the same layer is already inside its caller's interval);
        ``calls`` counts those outermost spans. ``self`` is each span's
        duration minus its direct children's, summed over every span of
        the name.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, parent = span
            entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            entry["self"] += (end - start) - child_time[index]
            nested = False
            while parent >= 0:
                if spans[parent][0] == name:
                    nested = True
                    break
                parent = spans[parent][3]
            if not nested:
                entry["calls"] += 1
                entry["total"] += end - start
        return out

    def write_jsonl(self, path) -> None:
        """Write spans as JSON lines (name, start, end, parent, run id)."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id,
                }) + "\n")
