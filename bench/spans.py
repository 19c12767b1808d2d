"""In-memory span tracer used by the benchmark's traced run.

A span has a name, start, end, parent span and op id.  Spans are recorded
by wrapping functions at their call sites from outside the program
(``Tracer.patched``), kept in memory, and written out when the run ends.
A span's self time is its duration minus the part of it covered by its
child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable


@dataclass
class Span:
    id: int
    name: str
    op: object
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Site:
    """Wrap ``module.attr`` (the name as the caller sees it) in a span."""

    module: str
    attr: str
    span: str
    attrs: Callable[[tuple, object], dict] | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: object = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            sp = Span(len(self.spans), name, self.op,
                      stack[-1].id if stack else None, time.perf_counter())
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def wrap(self, site: Site, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(site.span) as sp:
                result = fn(*args, **kwargs)
            if site.attrs is not None:
                try:
                    sp.attrs.update(site.attrs(args, result))
                except (AttributeError, IndexError, TypeError, ValueError, OSError):
                    pass  # the layer changed shape; its counts read as absent
            return result
        return traced

    @contextmanager
    def patched(self, sites: Iterable[Site]):
        """Install the wrappers for the duration of the block.

        Sites whose attribute no longer exists are skipped and yielded, so a
        refactor that removes a layer reads as that layer doing no work.
        """
        originals, missing = [], []
        for site in sites:
            module = importlib.import_module(site.module)
            if not hasattr(module, site.attr):
                missing.append(f"{site.module}.{site.attr}")
                continue
            original = getattr(module, site.attr)
            originals.append((module, site.attr, original))
            setattr(module, site.attr, self.wrap(site, original))
        try:
            yield missing
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp), default=str) + "\n")


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover within it."""
    spans = list(spans)
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    return {sp.id: sp.duration - covered_length(
                (max(c.start, sp.start), min(c.end, sp.end)) for c in children[sp.id])
            for sp in spans}
