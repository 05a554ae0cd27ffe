"""Observability for the engine stack: tracing, profiling, and metrics.

Three independent, individually-switchable layers, all off by default and
all guaranteed not to change evaluation results (see
``docs/observability.md`` for the API reference and the overhead
contract):

* :data:`TRACER` (:mod:`repro.obs.trace`) — nested spans and leaf events
  over the engines' phases, ring-buffered, JSON-exportable.
* :data:`PROFILER` (:mod:`repro.obs.profile`) — per-step join-plan
  counters feeding ``CompiledRule.explain()`` and the harness
  ``--profile`` artifact.
* :data:`REGISTRY` (:mod:`repro.obs.metrics`) — thread-safe labeled
  counters/histograms with Prometheus text exposition, served by the query
  service at ``GET /metrics`` beside the families it reads at scrape time.
"""

from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Histogram, MetricsRegistry, REGISTRY
from repro.obs.profile import PlanProfile, Profiler, StepProfile, PROFILER
from repro.obs.trace import Tracer, TRACER

__all__ = [
    "TRACER",
    "Tracer",
    "PROFILER",
    "Profiler",
    "PlanProfile",
    "StepProfile",
    "REGISTRY",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "DEFAULT_BUCKETS",
]
