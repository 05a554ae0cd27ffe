"""Process-wide execution-mode switch: row or batch.

Every engine (chase, semi-naive, warded, incremental) fires triggers one way:
from the slot-ID rows :meth:`JoinPlan.rows <repro.engine.plan.JoinPlan.rows>`
returns.  This module selects which **matcher** computes those rows, and
``JoinPlan.rows`` is the only code that asks (:func:`batch_enabled`) — no
engine module branches on the mode:

* ``"row"`` — the depth-first backtracking matcher (``JoinPlan._run``): one
  candidate row id at a time, each complete match copied out as a slot
  tuple; no intermediate join result is ever materialised.
* ``"batch"`` — the column-at-a-time matcher (:mod:`repro.engine.batch`):
  each plan step consumes and produces a whole batch of partial slot tuples,
  and probe lookups are shared across all rows with equal probe keys.

The depth-first matcher also serves ``JoinPlan.execute`` / ``exists``
(head-satisfaction checks, constraints, goal-directed re-derivation) in
*both* modes.  Both matchers produce the same matches **in the same order**
(batch emits row-major, candidates ascending — exactly the depth-first
order), so engine results, invented-null sequences, and the mode-independent
:mod:`~repro.engine.stats` counters are identical in either mode; the
differential suite in ``tests/test_engine_batch_parity.py`` locks this in.

Configuration is **lazy**: the ``REPRO_ENGINE_MODE`` environment variable is
read at the *first call* that needs it, not at import time, and only when no
explicit setting has been made.  An explicit :func:`set_execution_mode` call
(or the :class:`repro.EngineConfig` facade, which goes through it) always
wins, regardless of import order, and ``os.environ`` changes made before
first use are honoured.  The default mode is ``"batch"``
(``REPRO_ENGINE_MODE=row`` selects the depth-first matcher).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

ROW = "row"
BATCH = "batch"
_VALID = (ROW, BATCH)

# None = "not resolved yet": the first getter call resolves from the
# environment; an explicit setter call pins the value and the environment is
# never consulted again in this process.
_mode: Optional[str] = None


def _resolve() -> None:
    """Resolve the still-unset mode from the environment (first use)."""
    global _mode
    mode = os.environ.get("REPRO_ENGINE_MODE") or BATCH
    if mode not in _VALID:
        raise ValueError(
            f"REPRO_ENGINE_MODE must be one of {_VALID}, got {mode!r}"
        )
    _mode = mode


def get_execution_mode() -> str:
    """The current mode: ``"row"`` or ``"batch"``."""
    if _mode is None:
        _resolve()
    return _mode


def set_execution_mode(mode: str) -> None:
    """Select the matcher behind every engine's rows from now on in this process."""
    global _mode
    if mode not in _VALID:
        raise ValueError(f"execution mode must be one of {_VALID}, got {mode!r}")
    _mode = mode


def batch_enabled() -> bool:
    """True iff ``JoinPlan.rows`` should match column-at-a-time."""
    return get_execution_mode() != ROW


def get_worker_count() -> int:
    """Always 1: the engine is one process.

    Survives only because the frozen ``ledger/run.py`` imports it for its
    report's ``config`` block; the next benchmark PR drops it together with
    the ledger's ``--mode parallel`` / ``--workers`` flags.
    """
    return 1


def _reset_for_tests() -> None:
    """Forget the explicit setting so the next use re-reads the environment.

    Test-only: lets the lazy-resolution regression tests exercise the
    first-use path repeatedly within one process.
    """
    global _mode
    _mode = None


@contextmanager
def execution_mode(mode: str) -> Iterator[None]:
    """Temporarily switch mode (used by the harness and the parity tests)."""
    previous = get_execution_mode()
    set_execution_mode(mode)
    try:
        yield
    finally:
        set_execution_mode(previous)
