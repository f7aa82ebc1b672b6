"""In-memory span recorder for the traced benchmark run.

The program under test carries no tracing of its own, so the traced run
wraps the public function at each layer boundary from here: every name
is replaced where its callers look it up (a function imported by name
into another module is patched in that module too), every call records
one span, and :meth:`Tracer.uninstall` puts the originals back.

A span holds its name, thread, start and end times, the enclosing span
on the same thread (``parent``) and, for a shard task run on a pool
thread, the span that submitted it (``cause``).  A span's self time is
its duration minus the part of it that its children on the same thread
cover; a child on another thread runs concurrently and takes nothing
from its cause.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Spans that stand for work no layer wrapper claims: the campaign call
#: itself and each shard task on a pool thread.  Their self time is the
#: unattributed share that ``layers.coverage`` reports.
ROOT_NAMES = ("campaign", "executors.task")


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    thread: int
    start: float
    end: float
    parent: Optional[int]
    cause: Optional[int] = None
    items: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered(span.start, span.end, children.get(span.span_id, ()))
        for span in spans
    }


@dataclass
class LayerTotals:
    seconds: float = 0.0
    total: float = 0.0
    calls: int = 0
    items: int = 0


def aggregate(spans: Sequence[Span]) -> Dict[str, LayerTotals]:
    """Self time, duration, call count and item count summed per span name."""
    selfs = self_times(spans)
    totals: Dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        entry = totals[span.name]
        entry.seconds += selfs[span.span_id]
        entry.total += span.duration
        entry.calls += 1
        entry.items += span.items
    return dict(totals)


def coverage(totals: Dict[str, LayerTotals]) -> Tuple[float, float]:
    """``(coverage, unattributed_s)`` of aggregated spans.

    Coverage is the layers' summed self time over that sum plus the
    roots' self time.  On one thread the denominator is the campaign's
    wall time; with pool threads it also counts each task's time.
    """
    unattributed = sum(
        totals[name].seconds for name in ROOT_NAMES if name in totals
    )
    attributed = sum(
        entry.seconds
        for name, entry in totals.items()
        if name not in ROOT_NAMES
    )
    denominator = attributed + unattributed
    return (attributed / denominator if denominator > 0 else 0.0), unattributed


def resolve(target: str) -> Tuple[object, str, object]:
    """``"pkg.mod:Class.attr"`` -> (owner, attribute, current value)."""
    module_name, _, qualname = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans around patched callables; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """Id of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        items: int = 0,
        cause: Optional[int] = None,
    ):
        """Run ``fn(*args, **kwargs)`` inside one span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self._clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = self._clock()
            stack.pop()
            with self._lock:
                self._spans.append(
                    Span(span_id, name, threading.get_ident(), start, end,
                         parent, cause, items)
                )

    def drain(self) -> List[Span]:
        """Remove and return every finished span."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    # -- patching -----------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        items: Optional[Callable[[tuple], int]] = None,
    ) -> Callable:
        """A traced stand-in for ``fn``; ``items`` counts work per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = items(args) if items is not None else 0
            return self.call(name, fn, args, kwargs, items=count)

        return traced

    def patch(self, target: str, replacement: Callable) -> None:
        """Replace ``target`` everywhere the program looks it up.

        A method is replaced on its class.  A module-level function is
        replaced in its own module and in every loaded ``repro`` module
        that imported it by name.
        """
        owner, attr, original = resolve(target)
        if isinstance(owner, type):
            self._set(owner, attr, original, replacement)
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, original, replacement)

    def _set(self, owner: object, attr: str, original: object, value: object) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched name (last patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
