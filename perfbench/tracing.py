"""In-memory span tracing around the public calls of each layer.

The traced run patches the public methods named by a list of
:class:`Probe` s for the duration of a ``with instrument(...)`` block and
restores the originals afterwards; nothing under ``src/`` knows it is
being traced.  Each call becomes a :class:`Span` (name, start, end,
parent, request id).  Spans stay in memory and are written once, after
the run, by :func:`write_chrome_trace`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: Optional[str] = None
    attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one thread.  ``request`` is the request id
    stamped on every span opened while it is set."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.request: Optional[str] = None
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent=parent, request=self.request))
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError("spans must close in reverse order of opening")


def exclusive_times(
    spans: Sequence[Span], excluded: Callable[[Span], bool] = lambda s: True
) -> List[float]:
    """Each span's duration minus the part of it covered by descendant
    spans for which ``excluded`` holds (only the outermost such span on
    any path counts, so nothing is subtracted twice).

    With the default ``excluded`` this is plain self time: duration minus
    the coverage of the direct children.  Spans of one thread nest, and a
    child always has a larger index than its parent, so one reverse pass
    computes every span's covered time bottom-up.
    """
    covered = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        span = spans[i]
        if span.parent >= 0:
            covered[span.parent] += span.duration if excluded(span) else covered[i]
    return [s.duration - c for s, c in zip(spans, covered)]


@dataclass(frozen=True)
class Probe:
    """One public callable to trace.

    ``owner`` is a class or module and ``attr`` the name on it.
    ``enter(args, kwargs)`` runs before the span opens (used to set the
    request id); ``describe(args, kwargs, result)`` runs after it closes
    and returns the span's attributes (shapes, counts).
    """

    owner: Any
    attr: str
    span: str
    enter: Optional[Callable[[tuple, dict], None]] = None
    describe: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None


def _traced(tracer: Tracer, probe: Probe, func: Callable) -> Callable:
    def traced(*args, **kwargs):
        if probe.enter is not None:
            probe.enter(args, kwargs)
        idx = tracer.begin(probe.span)
        try:
            out = func(*args, **kwargs)
        finally:
            tracer.end(idx)
        if probe.describe is not None:
            tracer.spans[idx].attrs = probe.describe(args, kwargs, out)
        return out

    traced.__wrapped__ = func  # type: ignore[attr-defined]
    return traced


@contextmanager
def instrument(tracer: Tracer, probes: Sequence[Probe]) -> Iterator[Tracer]:
    """Patch every probe's callable for the block, then restore it.

    Each probe's attribute must be defined on its owner itself: a renamed
    or moved method raises ``AttributeError`` instead of leaving its layer
    silently untraced.
    """
    undo = []
    try:
        for probe in probes:
            raw = vars(probe.owner).get(probe.attr)
            if raw is None:
                raise AttributeError(
                    f"{getattr(probe.owner, '__name__', probe.owner)} defines no {probe.attr!r} to trace"
                )
            if isinstance(raw, staticmethod):
                patched: Any = staticmethod(_traced(tracer, probe, raw.__func__))
            else:
                patched = _traced(tracer, probe, raw)
            undo.append((probe.owner, probe.attr, raw))
            setattr(probe.owner, probe.attr, patched)
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def write_chrome_trace(spans: Sequence[Span], path: Path, metadata: Dict[str, Any]) -> None:
    """Write spans as Chrome trace-event JSON (opens in Perfetto or
    ``chrome://tracing``); the span's parent index and request id ride in
    ``args``."""
    t0 = spans[0].start if spans else 0.0
    events = []
    for i, s in enumerate(spans):
        args: Dict[str, Any] = {"id": i, "parent": s.parent}
        if s.request is not None:
            args["request"] = s.request
        if s.attrs:
            args.update(s.attrs)
        events.append(
            {
                "name": s.name,
                "ph": "X",
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "metadata": metadata}, fh, default=str)
