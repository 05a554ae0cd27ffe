"""A thread-safe labeled metrics registry with Prometheus text exposition.

The engine's :data:`~repro.engine.stats.STATS` blob is deliberately not
thread-safe (single measured run, one writer); a long-lived service needs
the opposite: counters and histograms that many reader threads bump
concurrently, scraped over HTTP.  This module is that layer — stdlib-only,
one lock per registry, deterministic rendering in the Prometheus text
exposition format (version 0.0.4).

Two instrument kinds hold values the service produces itself:

* :class:`Counter` — monotonically increasing; ``inc(n)``.
* :class:`Histogram` — cumulative fixed buckets plus ``_sum``/``_count``;
  ``observe(v)``.  Buckets are fixed at creation, so two runs over the same
  workload land observations in identical buckets
  (``tests/test_obs_metrics.py`` pins this determinism).

Values that already live elsewhere — the view's state, index health, the
term table, the engine's ``STATS`` — are never copied into an instrument.
The caller reads them at scrape time and passes them to
:meth:`MetricsRegistry.render` as :class:`Family` tuples, which go through
the same formatter as the instruments.

Instruments are created idempotently through the registry
(:meth:`MetricsRegistry.counter` etc. return the existing instrument on a
repeated name) and support label dimensions via :meth:`_Instrument.labels`.
:meth:`MetricsRegistry.render` produces the ``/metrics`` payload;
:meth:`MetricsRegistry.collect` produces the JSON-able dict folded into
``/stats``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, NamedTuple, Sequence, Tuple

#: Latency buckets (seconds) shared by the service histograms — wide enough
#: for a cold LUBM query, fine enough near the p50 of an indexed lookup.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _escape_label(value: str) -> str:
    """Escape a label value per the exposition format (backslash, quote, LF)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value) -> str:
    """Render a sample value: integers stay integral, floats use repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == int(value):
        return str(int(value))
    return repr(value)


def _label_str(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    """``{a="x",b="y"}`` (or the empty string for unlabeled samples)."""
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class Family(NamedTuple):
    """One metric family read at scrape time: no instrument stores it.

    ``samples`` pairs label values with a number (or, for
    ``kind="histogram"``, with a histogram child), in rendering order.
    """

    name: str
    help: str
    kind: str
    labelnames: Tuple[str, ...]
    samples: Sequence[Tuple[Tuple[str, ...], object]]


def _family_lines(family: Family) -> List[str]:
    """The exposition lines of one family (nothing for a family without samples)."""
    if not family.samples:
        return []
    name = family.name
    lines = [f"# HELP {name} {family.help}", f"# TYPE {name} {family.kind}"]
    for labelvalues, value in family.samples:
        labels = _label_str(family.labelnames, labelvalues)
        if family.kind == "histogram":
            prefix = labels[1:-1] + "," if labels else ""
            for bound, count in zip(value.buckets, value.counts):
                lines.append(
                    f'{name}_bucket{{{prefix}le="{_format_value(bound)}"}} {count}'
                )
            lines.append(f'{name}_bucket{{{prefix}le="+Inf"}} {value.count}')
            lines.append(f"{name}_sum{labels} {_format_value(value.total)}")
            lines.append(f"{name}_count{labels} {value.count}")
        else:
            lines.append(f"{name}{labels} {_format_value(value)}")
    return lines


class _Instrument:
    """Shared child bookkeeping for the two instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str], lock):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, *labelvalues) -> object:
        """The child instrument for one label-value combination."""
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {labelvalues!r}"
            )
        key = tuple(str(value) for value in labelvalues)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child(self._lock)
            return child

    def _default_child(self):
        """The single child of an unlabeled instrument (created lazily)."""
        return self.labels()

    def _new_child(self, lock):  # pragma: no cover - overridden by every kind
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every child (:meth:`MetricsRegistry.reset`)."""
        with self._lock:
            self._children.clear()

    def _sorted_children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class _CounterChild:
    """One labeled counter series (increments hold the registry lock)."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock):
        self.value = 0
        self._lock = lock

    def inc(self, amount=1) -> None:
        """Add ``amount`` (must be non-negative) to the series."""
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self.value += amount


class Counter(_Instrument):
    """A monotonically increasing metric, optionally labeled."""

    kind = "counter"

    def _new_child(self, lock) -> _CounterChild:
        return _CounterChild(lock)

    def inc(self, amount=1) -> None:
        """Increment the unlabeled series."""
        self._default_child().inc(amount)


class _HistogramChild:
    """One labeled histogram series: bucket counts, sum, and count."""

    __slots__ = ("buckets", "counts", "total", "count", "_lock")

    def __init__(self, buckets: Tuple[float, ...], lock):
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.total = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value) -> None:
        """Record one observation (cumulative bucket counts, under the lock)."""
        with self._lock:
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
            self.total += value
            self.count += 1

    def snapshot(self) -> dict:
        """JSON-able view: cumulative bucket counts keyed by upper bound."""
        return {
            "buckets": {
                _format_value(bound): self.counts[i]
                for i, bound in enumerate(self.buckets)
            },
            "sum": self.total,
            "count": self.count,
        }


class Histogram(_Instrument):
    """A fixed-bucket cumulative histogram, optionally labeled."""

    kind = "histogram"

    def __init__(self, name, help_text, labelnames, lock, buckets=DEFAULT_BUCKETS):
        super().__init__(name, help_text, labelnames, lock)
        self.buckets = tuple(sorted(buckets))

    def _new_child(self, lock) -> _HistogramChild:
        return _HistogramChild(self.buckets, lock)

    def observe(self, value) -> None:
        """Record one observation on the unlabeled series."""
        self._default_child().observe(value)


class MetricsRegistry:
    """A named collection of instruments with deterministic exposition.

    Creation methods are idempotent by name (re-registering returns the
    existing instrument; a kind or label mismatch raises), so modules can
    declare their instruments at import time without coordination.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._instruments: Dict[str, _Instrument] = {}

    def _register(self, cls, name, help_text, labelnames, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with a different "
                        f"kind or label set"
                    )
                return existing
            instrument = cls(name, help_text, labelnames, self._lock, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Counter:
        """Create (or fetch) a :class:`Counter`."""
        return self._register(Counter, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Create (or fetch) a :class:`Histogram` with fixed buckets."""
        return self._register(
            Histogram, name, help_text, labelnames, buckets=tuple(buckets)
        )

    def reset(self) -> None:
        """Zero the registry by dropping every instrument's series.

        Registrations survive — modules hold instrument references created
        at import time, so dropping the instruments themselves would orphan
        those handles.  Tests isolate themselves with this.
        """
        with self._lock:
            for instrument in self._instruments.values():
                instrument.clear()

    # -- exposition ----------------------------------------------------------

    def _families(self) -> List[Family]:
        """Every instrument that has a series, as a :class:`Family`."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        families = []
        for name, instrument in instruments:
            samples = [
                (labelvalues, child if instrument.kind == "histogram" else child.value)
                for labelvalues, child in instrument._sorted_children()
            ]
            families.append(
                Family(name, instrument.help, instrument.kind, instrument.labelnames, samples)
            )
        return families

    def render(self, scraped: Sequence[Family] = ()) -> str:
        """The registry plus the ``scraped`` families, in exposition format (0.0.4).

        Deterministic: families sorted by name, an instrument's samples by
        label values (a scraped family keeps its own order), histogram
        buckets ascending with a trailing ``+Inf``.
        """
        families = sorted([*self._families(), *scraped], key=lambda family: family.name)
        lines = [line for family in families for line in _family_lines(family)]
        return "\n".join(lines) + "\n" if lines else ""

    def collect(self) -> dict:
        """A JSON-able snapshot of every instrument (folded into ``/stats``).

        Counters map label strings (or ``""`` when unlabeled) to values;
        histograms to ``{"buckets": ..., "sum": ..., "count": ...}``.
        """
        return {
            family.name: {
                "type": family.kind,
                "values": {
                    _label_str(family.labelnames, labelvalues): (
                        value.snapshot() if family.kind == "histogram" else value
                    )
                    for labelvalues, value in family.samples
                },
            }
            for family in self._families()
            if family.samples
        }


#: The process-global registry the service exposes at ``GET /metrics``.
REGISTRY = MetricsRegistry()
