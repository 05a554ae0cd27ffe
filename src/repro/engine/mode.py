"""Report shims for the frozen benchmark ledger.

The engine takes no configuration: every engine fires from the slot rows
:meth:`JoinPlan.rows <repro.engine.plan.JoinPlan.rows>` computes with the
column-at-a-time batch matcher, in one process.  The two functions below
survive only because the frozen ``ledger/run.py`` imports them to fill its
report's ``config`` block.
"""


def get_execution_mode() -> str:
    """Always ``"batch"``: the engine has one matcher behind its rows.

    Kept because the frozen ``ledger/run.py`` imports it, and
    ``ledger/test_ledger_smoke.py`` asserts ``config.mode == "batch"``.
    """
    return "batch"


def get_worker_count() -> int:
    """Always 1: the engine is one process.

    Kept because the frozen ``ledger/run.py`` imports it for its report's
    ``config`` block.
    """
    return 1
