"""Lightweight span tracing for the engine stack (off by default).

The tracer records *where the time goes* inside a materialisation, a push,
or a DRed retraction: nested spans with monotonic timings and small
attribute dicts, collected into a fixed-capacity ring buffer and exported
as JSON.  It is instrumentation only — enabling it must never change
evaluation results, null labels, or the gated engine counters
(``tests/test_obs_neutrality.py`` pins this byte-for-byte).

Overhead contract
-----------------

* **Disabled** (the default): every instrumented call site pays exactly one
  attribute read and one predictable branch (``if TRACER.enabled:`` for
  leaf records, or :meth:`Tracer.span` returning a shared no-op context
  manager).  No timestamps are taken, nothing allocates.
* **Enabled**: each event costs two ``time.perf_counter_ns()`` calls, one
  small dict, and one lock-guarded ring append.  The ring is bounded
  (:attr:`Tracer.capacity`); when full, the oldest events are overwritten
  and :attr:`Tracer.dropped` counts the loss instead of growing memory.

Usage::

    from repro.obs import TRACER

    TRACER.enable()
    ...  # run a push / retract / materialisation
    events = TRACER.events()          # chronological list of dicts
    TRACER.export_json("trace.json")  # {"events": [...], "dropped": 0}
    TRACER.disable()

Instrumented sites (see ``docs/observability.md`` for the full catalogue):
stratum fixpoints and per-rule firings (``seminaive.stratum`` /
``seminaive.rule``), chase rounds (``chase.round`` / ``chase.run``),
and DeltaSession push and retract phases (``delta.push``, ``delta.retract``,
``retract.overdelete`` …).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional


class _NullSpan:
    """The shared no-op context manager handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span: records its event into the tracer's ring on exit."""

    __slots__ = ("_tracer", "name", "attrs", "start_ns", "depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start_ns = 0
        self.depth = 0

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self.depth = tracer._push_depth()
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        end_ns = time.perf_counter_ns()
        tracer = self._tracer
        tracer._pop_depth()
        tracer._append(self.name, self.start_ns, end_ns, self.depth, self.attrs)
        return False


class Tracer:
    """A ring-buffered span/event recorder with an ``enabled`` master switch.

    All methods are safe to call from any thread; spans nest per thread
    (the depth counter is thread-local).  The recorded event dicts carry
    ``name``, ``start_us`` (microseconds relative to the first recorded
    event), ``duration_us``, ``depth``, and the caller's attributes under
    ``attrs``.
    """

    def __init__(self, capacity: int = 8192):
        self.enabled = False
        self.capacity = capacity
        self.dropped = 0
        self._ring: List[Optional[tuple]] = []
        self._cursor = 0
        self._origin_ns: Optional[int] = None
        self._lock = threading.Lock()
        self._depths = threading.local()

    # -- switches ------------------------------------------------------------

    def enable(self, capacity: Optional[int] = None) -> None:
        """Turn tracing on (optionally resizing the ring), starting clean."""
        with self._lock:
            if capacity is not None:
                self.capacity = capacity
            self._ring = []
            self._cursor = 0
            self.dropped = 0
            self._origin_ns = None
        self.enabled = True

    def disable(self) -> None:
        """Turn tracing off; already-recorded events stay readable."""
        self.enabled = False

    def clear(self) -> None:
        """Drop every recorded event (the switch state is unchanged)."""
        with self._lock:
            self._ring = []
            self._cursor = 0
            self.dropped = 0
            self._origin_ns = None

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **attrs):
        """A context manager timing a nested phase; no-op while disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def record(self, name: str, start_ns: int, **attrs) -> None:
        """Record a leaf event that started at ``start_ns`` and ends now.

        Call sites guard with ``if TRACER.enabled:`` (and only then take
        the start timestamp), so the disabled cost is the branch alone.
        """
        end_ns = time.perf_counter_ns()
        self._append(name, start_ns, end_ns, self._depth(), attrs)

    # -- internals -----------------------------------------------------------

    def _depth(self) -> int:
        return getattr(self._depths, "value", 0)

    def _push_depth(self) -> int:
        depth = getattr(self._depths, "value", 0)
        self._depths.value = depth + 1
        return depth

    def _pop_depth(self) -> None:
        self._depths.value = max(0, getattr(self._depths, "value", 1) - 1)

    def _append(self, name, start_ns, end_ns, depth, attrs) -> None:
        with self._lock:
            if self._origin_ns is None:
                self._origin_ns = start_ns
            entry = (name, start_ns, end_ns, depth, attrs)
            ring = self._ring
            if len(ring) < self.capacity:
                ring.append(entry)
            else:
                ring[self._cursor % self.capacity] = entry
                self._cursor += 1
                self.dropped += 1

    # -- export --------------------------------------------------------------

    def events(self) -> List[dict]:
        """The recorded events as dicts, oldest first."""
        with self._lock:
            ring = list(self._ring)
            cursor = self._cursor
            origin = self._origin_ns or 0
        if len(ring) == self.capacity and cursor:
            split = cursor % self.capacity
            ring = ring[split:] + ring[:split]
        return [
            {
                "name": name,
                "start_us": (start_ns - origin) // 1000,
                "duration_us": (end_ns - start_ns) // 1000,
                "depth": depth,
                "attrs": attrs,
            }
            for name, start_ns, end_ns, depth, attrs in ring
        ]

    def export_json(self, path) -> None:
        """Write ``{"events": [...], "dropped": N}`` to ``path``."""
        document = {"events": self.events(), "dropped": self.dropped}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")


#: The process-global tracer every instrumented site consults.
TRACER = Tracer()
