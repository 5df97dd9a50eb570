"""In-memory span recorder for the traced benchmark run.

The recorder wraps public methods *at class level* (nothing inside
``src/repro`` changes) and keeps one span stack for the single-threaded
simulation.  For every wrapped target it accumulates the call count and
the **self time**: the span's duration minus the part of it covered by
child spans.  Self times therefore partition the root span exactly --
the sum over all targets equals the root's duration -- which is what lets
the per-layer table add up to ``trace.wall_s``.

Raw spans (name, start, end, id, parent id) are kept up to ``max_raw``
and written as a Chrome trace-event document when the run ends; the
aggregates are never capped.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter_ns
from typing import Callable, Iterable, Optional

MAX_RAW_SPANS = 200_000


def resolve(dotted: str) -> Optional[tuple[object, str]]:
    """Split ``pkg.mod.Class.method`` into (owner object, attribute name).

    The longest importable prefix is the module; the rest is an attribute
    chain.  Returns None when any step is missing, so a table entry that
    a refactor removed is skipped instead of failing the run.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: object = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        # Only what the owner defines itself: wrapping an inherited
        # attribute would install it on the subclass and double-count.
        return (owner, parts[-1]) if parts[-1] in vars(owner) else None
    return None


class SpanRecorder:
    """Span stack + per-key (calls, self time) aggregates."""

    def __init__(
        self,
        max_raw: int = MAX_RAW_SPANS,
        clock: Callable[[], int] = perf_counter_ns,
    ) -> None:
        self._clock = clock
        self._max_raw = max_raw
        #: Open spans, innermost last: [start_ns, child_ns, span_id].
        self._stack: list[list[int]] = []
        #: key -> [calls, self_ns]
        self._totals: dict[str, list[int]] = {}
        #: Completed spans: (key, start_ns, end_ns, span_id, parent_id).
        self.raw: list[tuple[str, int, int, int, int]] = []
        self.spans = 0
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, key: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``key`` around every call."""
        totals = self._totals.setdefault(key, [0, 0])
        stack = self._stack
        clock = self._clock
        raw = self.raw
        max_raw = self._max_raw
        recorder = self

        # functools.wraps keeps __name__, which is how pickle finds a
        # bound method again when a traced session checkpoints.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            recorder.spans = span_id = recorder.spans + 1
            frame = [clock(), 0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                totals[0] += 1
                totals[1] += duration - frame[1]
                parent_id = 0
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_id = parent[2]
                if len(raw) < max_raw:
                    raw.append((key, frame[0], end, span_id, parent_id))

        return traced

    # -- class-level installation -------------------------------------------

    def install(self, targets: Iterable[str]) -> None:
        """Wrap every resolvable dotted path; count the rest as missing."""
        for dotted in targets:
            found = resolve(dotted)
            if found is None:
                self.missing.append(dotted)
                continue
            owner, name = found
            original = vars(owner)[name]
            if isinstance(original, (classmethod, staticmethod)):
                traced = type(original)(self.wrap(dotted, original.__func__))
            else:
                traced = self.wrap(dotted, original)
            setattr(owner, name, traced)
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, int]]:
        """Copy of key -> (calls, self_ns)."""
        return {key: (v[0], v[1]) for key, v in self._totals.items()}

    def chrome_trace(self) -> dict:
        """Chrome trace-event document of the retained raw spans."""
        origin = min((s[1] for s in self.raw), default=0)
        events = [
            {
                "name": ".".join(key.split(".")[-2:]),  # Class.method
                "cat": key,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"id": span_id, "parent": parent_id},
            }
            for key, start, end, span_id, parent_id in self.raw
        ]
        # Spans are appended on completion (children first); viewers want
        # them by start time.
        events.sort(key=lambda e: e["ts"])
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans_total": self.spans, "spans_kept": len(self.raw)},
        }

    def save_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
