"""Regression pins: the engine takes no configuration and has one matcher.

Row mode, its setters and the ``repro.Engine`` configuration facade were
removed in 4.0.0; ``repro.engine.mode`` keeps only the two report shims the
benchmark ledger imports.  The depth-first backtracker, its profiled twin
and the separate batch plan were removed in 10.0.0: ``JoinPlan.rows`` is the
one matcher, and the depth-first walk survives only as a test oracle in
``repro.engine.reference``, which no production module imports.
"""

import ast
import importlib
import os

import pytest

import repro
from repro.engine import batch, mode
from repro.engine.plan import JoinPlan

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


def test_no_production_module_imports_the_oracles():
    """``repro.engine.reference`` holds test oracles only."""
    for relative, text in source_modules():
        if relative == "engine/reference.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert "repro.engine.reference" not in names, relative
