"""The shared join-plan evaluation core.

Both engines in the library — the restricted chase
(:mod:`repro.datalog.chase`) and the semi-naive Datalog¬s evaluator
(:mod:`repro.datalog.seminaive`), which the warded materialisation engine
(:mod:`repro.core.warded_engine`) extends with the trigger abstraction —
evaluate rule bodies through this package instead of re-deriving join
strategy per call:

* :mod:`repro.engine.interning` dictionary-encodes every ground term (and
  predicate name) into a dense int ID via the process-global
  :data:`~repro.engine.interning.TERMS` table — constants even, nulls odd —
  and the whole stack below runs on those IDs; decoding happens only at
  result boundaries.
* :class:`~repro.engine.index.PredicateIndex` stores facts as append-only
  per-predicate **ID rows** (no decoded atoms) with hash postings of row
  ids per ``(predicate, position, term-ID)``, so candidate
  buckets are iterated under a captured length instead of being copied per
  lookup, and frozen prefix views
  (:class:`~repro.engine.index.InstanceSnapshot` via ``Instance.snapshot()``)
  come for free.  ``probe_ids`` is the bulk probe: a capped postings slice,
  or a posting-list intersection over several bound positions.
* :func:`~repro.engine.plan.compile_body` / :func:`~repro.engine.plan.compile_rule`
  turn a rule body into a :class:`~repro.engine.plan.JoinPlan` exactly once:
  atoms are selectivity-ordered, every position is resolved at plan time into
  a constant check, a bound-slot check, or a slot binding (this covers
  repeated variables), negated atoms become precompiled membership probes,
  and semi-naive pivots get one dedicated plan per body atom.
* There is one matcher, ``JoinPlan.rows``: column-at-a-time steps
  (:mod:`repro.engine.batch`) that extend a whole batch of partial matches
  per step, sharing one bulk index probe per distinct probe key.  Engines
  fire triggers from its slot-ID rows through precompiled ``RowOps``
  templates; head-satisfaction and constraint checks (``exists``),
  goal-directed re-derivation and ad-hoc matching (``execute``) read the
  same rows.
* :mod:`repro.engine.stats` exposes the counters (facts added, triggers
  fired, nulls invented, pivots skipped, batch probe groups) that
  ``benchmarks/harness.py`` samples per scenario.
* :mod:`repro.engine.reference` keeps the executable specifications the
  differential tests compare the matcher against: the original interpretive
  backtracker (``tests/test_engine_parity.py``) and a depth-first walk of
  the compiled steps that fixes the match order
  (``tests/test_engine_batch_parity.py``).
"""

from repro.engine.index import InstanceSnapshot, PredicateIndex
from repro.engine.interning import TERMS, TermTable, is_null_id
from repro.engine.plan import CompiledRule, JoinPlan, compile_body, compile_rule
from repro.engine.stats import STATS, EngineStats

# The incremental streaming subsystem builds *on top of* the datalog layer
# (which itself imports this package), so it is re-exported lazily: an eager
# import here would run mid-way through repro.datalog's initialisation.
_INCREMENTAL_EXPORTS = ("DeltaSession", "PushResult", "cold_equivalent")


def __getattr__(name: str):
    """PEP 562 lazy re-export of :mod:`repro.engine.incremental`."""
    if name in _INCREMENTAL_EXPORTS:
        from repro.engine import incremental

        return getattr(incremental, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CompiledRule",
    "DeltaSession",
    "PushResult",
    "cold_equivalent",
    "EngineStats",
    "InstanceSnapshot",
    "JoinPlan",
    "PredicateIndex",
    "STATS",
    "TERMS",
    "TermTable",
    "compile_body",
    "compile_rule",
    "is_null_id",
]
