"""Outside-in wall-clock spans: timing shims around public entry points.

The program is not edited to be traced.  Instead :class:`Shims` swaps
each named public function or method for a thin wrapper that records a
:class:`Span` into a :class:`Recorder`, and puts every original back
when the traced run ends.  A module-level function is replaced in
*every* loaded ``repro`` module that holds a reference to it, because
some modules bind their collaborators at import
(``repro.service.campaign`` does ``from repro.core.calibration import
assess_block_batch``); patching only the defining module would miss
those calls.

Spans live in memory with a parent id taken from a per-thread stack.
A span started on a thread with no open span can instead be linked to
the newest open span of a named layer on any thread: the coordinator's
``handle`` runs on the HTTP server thread but is caused by the
worker's ``TransportClient.call``, so linking makes the call's self
time exactly the time spent on the wire.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span sink with per-thread parent tracking."""

    def __init__(self, links: Optional[Dict[str, str]] = None) -> None:
        #: ``child layer -> parent layer`` for cross-thread causation.
        self.links = dict(links or {})
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open: Dict[str, List[int]] = defaultdict(list)
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Tuple[int, Optional[int], float]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and name in self.links:
            with self._lock:
                candidates = self._open.get(self.links[name])
                parent = candidates[-1] if candidates else None
        sid = next(self._ids)
        stack.append(sid)
        with self._lock:
            self._open[name].append(sid)
        return sid, parent, time.perf_counter()

    def end(self, token: Tuple[int, Optional[int], float], name: str) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        with self._lock:
            self._open[name].remove(sid)
        self.spans.append(
            Span(sid, parent, name, start, end, threading.get_ident())
        )

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _SpanContext(self, name)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s._asdict(), sort_keys=True) + "\n")


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.token = self.recorder.begin(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.end(self.token, self.name)


def timed(recorder: Recorder, name: str, fn: Callable) -> Callable:
    """``fn`` wrapped to record a span named ``name`` per call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(token, name)

    return wrapper


class Shims:
    """Install timing wrappers; :meth:`restore` undoes every one."""

    def __init__(self, recorder: Recorder, package: str = "repro") -> None:
        self.recorder = recorder
        self.package = package
        self._undo: List[Tuple[Any, str, Any]] = []

    def function(self, fn: Callable, name: str) -> int:
        """Wrap module-level ``fn`` wherever a loaded module binds it.

        Returns how many bindings were replaced (at least one, or the
        function was not reachable and the span would silently vanish).
        """
        wrapper = timed(self.recorder, name, fn)
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == self.package
                or mod_name.startswith(self.package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    replaced += 1
        if not replaced:
            raise LookupError(f"{fn!r} is bound in no loaded module")
        return replaced

    def method(self, cls: type, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` (plain, static or class method) in place."""
        original = cls.__dict__[attr]
        if isinstance(original, staticmethod):
            new: Any = staticmethod(
                timed(self.recorder, name, original.__func__)
            )
        elif isinstance(original, classmethod):
            new = classmethod(
                timed(self.recorder, name, original.__func__)
            )
        else:
            new = timed(self.recorder, name, original)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Shims":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# -- span arithmetic ----------------------------------------------------------


def union_length(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - union_length(children[s.sid], s.start, s.end)
        for s in spans
    }


def outermost(spans: Iterable[Span]) -> List[Span]:
    """Spans with no ancestor of the same name (no double counting)."""
    spans = list(spans)
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        nested = False
        while parent is not None:
            if parent.name == s.name:
                nested = True
                break
            parent = (
                by_id.get(parent.parent)
                if parent.parent is not None else None
            )
        if not nested:
            out.append(s)
    return out


def layer_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer name: ``calls``, inclusive ``seconds`` and ``self``."""
    spans = list(spans)
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "seconds": 0.0, "self": 0.0}
    )
    for s in outermost(spans):
        totals[s.name]["seconds"] += s.duration
    for s in spans:
        totals[s.name]["calls"] += 1
        totals[s.name]["self"] += selfs[s.sid]
    return dict(totals)
