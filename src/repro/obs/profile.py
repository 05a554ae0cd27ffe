"""Per-step join-plan profiling behind a single enabled flag.

When :data:`PROFILER` is enabled, the matcher (:meth:`JoinPlan.rows
<repro.engine.plan.JoinPlan.rows>`) accumulates per-step counters onto the
plan it runs — candidate rows entering each step,
postings probe groups evaluated, rows surviving verification, negation
pre-filter hits, and per-step wall time — without changing what they
compute (``tests/test_obs_neutrality.py`` pins byte-parity with profiling
on).  The counters surface two ways:

* :meth:`repro.engine.plan.CompiledRule.explain` renders them inline with
  the compiled step order — the EXPLAIN output; and
* ``benchmarks/harness.py --profile out.json`` snapshots the hottest plans
  per scenario (:meth:`Profiler.snapshot`) into a JSON artifact.

Cost model: disabled, the matcher pays one attribute read and branch per
*plan execution* (not per row).  Enabled, it adds one timestamp pair and a
handful of integer adds per step-batch.  Every match goes through it, so
rule firings, the chase's head checks and constraint checks all register
profiles (see ``docs/observability.md``).
"""

from __future__ import annotations

import threading
from typing import List, Optional


class StepProfile:
    """Accumulated counters for one join step of one plan."""

    __slots__ = ("rows_in", "probes", "rows_out", "time_ns")

    def __init__(self):
        self.rows_in = 0
        self.probes = 0
        self.rows_out = 0
        self.time_ns = 0

    def as_dict(self) -> dict:
        """JSON-able view (time in microseconds)."""
        return {
            "rows_in": self.rows_in,
            "probes": self.probes,
            "rows_out": self.rows_out,
            "time_us": self.time_ns // 1000,
        }


class PlanProfile:
    """Accumulated counters for one compiled :class:`~repro.engine.plan.JoinPlan`.

    Attached lazily to the plan's ``profile`` slot on its first profiled
    execution and registered with :data:`PROFILER` for snapshots.  The
    negation counters live here (not per step) because the negation
    pre-filter runs over the finished match rows, after the join.
    """

    __slots__ = (
        "label",
        "executions",
        "rows_out",
        "time_ns",
        "steps",
        "neg_in",
        "neg_blocked",
    )

    def __init__(self, label: str, n_steps: int):
        self.label = label
        self.executions = 0
        self.rows_out = 0
        self.time_ns = 0
        self.steps = [StepProfile() for _ in range(n_steps)]
        self.neg_in = 0
        self.neg_blocked = 0

    def as_dict(self) -> dict:
        """JSON-able view used by the harness ``--profile`` artifact."""
        return {
            "label": self.label,
            "executions": self.executions,
            "rows_out": self.rows_out,
            "time_us": self.time_ns // 1000,
            "negation": {"rows_in": self.neg_in, "blocked": self.neg_blocked},
            "steps": [step.as_dict() for step in self.steps],
        }


class Profiler:
    """The process-global plan-profile registry and master switch.

    ``enabled`` is the one flag the matcher reads; :meth:`plan_profile`
    hands out (and registers) the per-plan accumulator.  Profiles survive
    across executions until :meth:`reset`, so a snapshot covers everything
    since the last reset — the harness resets between scenario records.
    """

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._profiles: List[PlanProfile] = []

    def enable(self) -> None:
        """Start accumulating (existing profiles keep accumulating)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop accumulating; collected profiles stay readable."""
        self.enabled = False

    def plan_profile(self, plan, label: Optional[str] = None) -> PlanProfile:
        """The accumulator attached to ``plan`` (created and registered once)."""
        profile = plan.profile
        if profile is None:
            if label is None:
                label = " AND ".join(str(atom) for atom in plan.atoms) or "<empty>"
            profile = PlanProfile(label, len(plan.steps))
            plan.profile = profile
            with self._lock:
                self._profiles.append(profile)
        return profile

    def reset(self) -> None:
        """Forget every collected profile (plans re-register on next use)."""
        with self._lock:
            for profile in self._profiles:
                profile.executions = 0
                profile.rows_out = 0
                profile.time_ns = 0
                profile.neg_in = 0
                profile.neg_blocked = 0
                for step in profile.steps:
                    step.rows_in = 0
                    step.probes = 0
                    step.rows_out = 0
                    step.time_ns = 0

    def snapshot(self, top: Optional[int] = None) -> List[dict]:
        """The executed plans' profiles, hottest (most time) first.

        ``top`` caps the list; plans that never executed since the last
        reset are omitted.
        """
        with self._lock:
            profiles = [p for p in self._profiles if p.executions]
        profiles.sort(key=lambda p: (-p.time_ns, -p.rows_out, p.label))
        if top is not None:
            profiles = profiles[:top]
        return [profile.as_dict() for profile in profiles]


#: The process-global profiler the matcher consults.
PROFILER = Profiler()
