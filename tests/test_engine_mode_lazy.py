"""Regression pins: the engine takes no configuration and has one matcher.

Row mode, its setters and the ``repro.Engine`` configuration facade were
removed in 4.0.0; ``repro.engine.mode`` keeps only the two report shims the
benchmark ledger imports.  The depth-first backtracker, its profiled twin
and the separate batch plan were removed in 10.0.0: ``JoinPlan.rows`` is the
one matcher, and the depth-first walk survives only as a test oracle, which
since 12.0.0 lives in ``tests/engine_reference.py``, outside the package.
Since 11.0.0 DRed's marking runs on the one round loop,
``seminaive.fixpoint``, and both engines restore through one re-fire
routine.
"""

import ast
import importlib
import os

import pytest

import repro
from repro.engine import batch, mode
from repro.engine.incremental import DeltaSession
from repro.engine.plan import JoinPlan, RowOps

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)


def source_modules():
    """``(path relative to src/repro, source text)`` for every module."""
    for directory, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    yield os.path.relpath(path, SRC).replace(os.sep, "/"), handle.read()


def test_mode_decision_lives_in_the_plan_module():
    """No engine module chooses a matcher, and the configuration API is gone."""
    for relative, text in source_modules():
        # Spelled in halves, so grepping the tree for a removed name
        # finds only its history.
        for removed in ("batch_" "enabled", "set_execution_" "mode", "use_" "batch"):
            assert removed not in text, (relative, removed)
    # The numpy kernels (removed in 5.0.0), the facade (4.0.0) and the
    # persisted plan cache (3.0.0).
    for module in ("repro.engine.kernels", "repro.api", "repro.engine.plancache"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    with pytest.raises(AttributeError):
        repro.Engine
    public = {name for name in vars(mode) if not name.startswith("_")}
    assert public == {"get_execution_mode", "get_worker_count"}


def test_one_matcher():
    """The backtracker, its profiled twin and the batch plan are gone."""
    for removed in ("_run", "_run_profiled", "lazy_rows", "execute_batch"):
        assert not hasattr(JoinPlan, removed), removed
    assert not hasattr(batch, "BatchPlan")


def test_one_maintenance_path():
    """DRed marks on the shared fixpoint and restores through one re-fire.

    The only ``while ... len(delta)`` round loop under ``src/repro`` is
    ``seminaive.fixpoint``; the semi-naive restore, the separate degenerate
    retract exit and the per-row negation check are gone.
    """
    loops = []
    for relative, text in source_modules():
        for function in ast.walk(ast.parse(text)):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.While) and "len(delta)" in ast.unparse(node.test):
                    loops.append((relative, function.name))
    assert loops == [("datalog/seminaive.py", "fixpoint")]
    for removed in ("_restore_seminaive", "_retract_degenerate"):
        assert not hasattr(DeltaSession, removed), removed
    assert not hasattr(RowOps, "negation_blocked_row")


def test_no_production_module_imports_the_oracles():
    """The test oracles live under ``tests/``: no ``src/repro`` module is
    named ``reference``, so none can import them."""
    named = [
        relative
        for relative, _ in source_modules()
        if os.path.basename(relative) == "reference.py"
    ]
    assert named == []
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.engine.reference")
