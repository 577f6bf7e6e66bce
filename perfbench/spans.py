"""In-memory spans recorded around calls into frostcast's public functions.

A target is named ``module:qualname`` (``frostcast.features:climate_matrix``
or ``frostcast.ensemble:SubmodelBank.predict_batch``). Installing a target
wraps the function and rebinds the wrapper under every name a loaded
``frostcast`` module holds for it, so calls through ``from .x import f``
aliases are traced too. A target that no longer exists is recorded as
absent and skipped: a refactor that renames or deletes a function leaves the
benchmark running, with that layer's figures at zero.

Spans stay in memory; :meth:`Tracer.dump` writes them out when a run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = "setup"
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Time a block; the yielded dict takes counts found inside it."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record.counts
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def install(self, targets: dict) -> None:
        """Wrap each ``module:qualname`` target; ``targets`` maps it to
        ``(span name, counter)`` where counter(args, kwargs, result) -> dict
        or None."""
        for target, (name, counter) in targets.items():
            owner, attr, original = _resolve(target)
            if original is None:
                self.absent.add(target)
                continue
            wrapper = self._wrap(name, counter, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if mod_name != "frostcast" and not mod_name.startswith("frostcast."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, counter, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as counts:
                result = original(*args, **kwargs)
                if counter is not None:
                    counts.update(counter(args, kwargs, result) or {})
                return result

        return traced

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run_id": s.run_id, "counts": s.counts,
                }, sort_keys=True) + "\n")


def _resolve(target: str):
    """(owner, attribute, function) for a target, or (None, None, None)."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    original = getattr(owner, attr, None)
    if not callable(original):
        return None, None, None
    return owner, attr, original


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the covered time.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent
