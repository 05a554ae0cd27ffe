"""The ledger's span recorder: spans around calls into the library, kept in memory.

A span is ``(id, parent, op, name, start_ns, end_ns)``.  The ledger opens
one *op* span per measured operation and child spans around each public
call the operation makes; while ``repro.obs.TRACER`` is on, the events the
engine recorded during the op are folded in below the ledger span that was
open when they ran.  A layer's self time is its span minus the part its
children cover.

Disabled (the untraced run), :meth:`Spans.span` hands out one shared no-op
context manager and nothing is recorded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from repro.obs import TRACER

#: Engine events start up to 1 us early and end up to 2 us early once
#: ``Tracer.events()`` has truncated them to microseconds.
_TRUNCATION_NS = 2000

_ORIGIN_EVENT = "ledger.origin"


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_spans", "_row")

    def __init__(self, spans: "Spans", name: str):
        self._spans = spans
        self._row = [0, None, spans.op_id, name, 0, 0]

    def __enter__(self):
        spans, row = self._spans, self._row
        row[0] = len(spans.rows)
        row[1] = spans._stack[-1] if spans._stack else None
        spans.rows.append(row)
        spans._stack.append(row[0])
        row[4] = time.perf_counter_ns()
        return None

    def __exit__(self, *exc_info):
        self._row[5] = time.perf_counter_ns()
        self._spans._stack.pop()
        return False


class Spans:
    """In-memory span store for one benchmark run."""

    def __init__(self):
        self.enabled = False
        self.rows = []
        self.op_id = 0
        self.engine_events_dropped = 0
        self._stack = []
        self._op_first_row = 0
        self._origin_ns = 0

    def enable(self) -> None:
        """Start recording ledger spans and the engine's TRACER events."""
        self.enabled = True
        TRACER.enable(capacity=1 << 18)

    def disable(self) -> None:
        """Stop recording; what was recorded stays readable."""
        self.enabled = False
        TRACER.disable()

    def span(self, name: str):
        """Context manager timing one call into a layer (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def begin_op(self) -> None:
        """Start a new operation: fresh op id, engine events pinned to a known origin."""
        if not self.enabled:
            return
        self.op_id += 1
        self._op_first_row = len(self.rows)
        TRACER.clear()
        # The first event after clear() fixes TRACER's time origin, so
        # recording one at a timestamp we hold makes every later event's
        # relative ``start_us`` convertible to perf_counter_ns.
        self._origin_ns = time.perf_counter_ns()
        TRACER.record(_ORIGIN_EVENT, self._origin_ns)

    def end_op(self) -> None:
        """Fold the engine events of the finished op under the ledger spans."""
        if not self.enabled:
            return
        self.engine_events_dropped += TRACER.dropped
        events = [e for e in TRACER.events() if e["name"] != _ORIGIN_EVENT]
        if not events:
            return
        ledger = self.rows[self._op_first_row :]
        placed = []  # engine rows of this op, in start order
        events.sort(key=lambda e: (e["start_us"], -e["duration_us"]))
        for event in events:
            start = self._origin_ns + event["start_us"] * 1000
            end = start + event["duration_us"] * 1000
            parent = None
            # Containment, not TRACER's depth: a leaf ``record`` (chase.round)
            # carries the depth of its caller, the same as the ``record`` that
            # closes around it (chase.run).  Containers sort first.
            for row in reversed(placed):
                if row[4] <= start and end <= row[5] + _TRUNCATION_NS:
                    parent = row[0]
                    break
            if parent is None:
                for row in ledger:
                    if row[4] - _TRUNCATION_NS <= start and end <= row[5]:
                        parent = row[0]  # later rows start later: innermost wins
            row = [len(self.rows), parent, self.op_id, event["name"], start, end]
            self.rows.append(row)
            placed.append(row)

    # -- reading -------------------------------------------------------------

    def durations_ms(self, name: str):
        """Durations of every span called ``name``, in recording order."""
        return [(row[5] - row[4]) / 1e6 for row in self.rows if row[3] == name]

    def total_ms(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(self.durations_ms(name))

    def count(self, name: str) -> int:
        """How many spans are called ``name``."""
        return sum(1 for row in self.rows if row[3] == name)

    def self_times_ms(self):
        """``name -> summed self time``: each span minus its direct children."""
        covered = defaultdict(int)
        for row in self.rows:
            if row[1] is not None:
                covered[row[1]] += row[5] - row[4]
        totals = defaultdict(float)
        for row in self.rows:
            totals[row[3]] += (row[5] - row[4] - covered[row[0]]) / 1e6
        return dict(totals)

    def write(self, path: str) -> None:
        """Dump every span as JSON: name, start, end, parent, op id."""
        origin = self.rows[0][4] if self.rows else 0
        document = {
            "engine_events_dropped": self.engine_events_dropped,
            "spans": [
                {
                    "id": row[0],
                    "parent": row[1],
                    "op": row[2],
                    "name": row[3],
                    "start_us": (row[4] - origin) / 1e3,
                    "end_us": (row[5] - origin) / 1e3,
                }
                for row in self.rows
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")
