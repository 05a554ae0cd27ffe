"""Regression pin: the engine takes no configuration.

Row mode, its setters and the ``repro.Engine`` configuration facade were
removed in 4.0.0; ``repro.engine.mode`` keeps only the two report shims the
benchmark ledger imports.
"""

import importlib
import os

import pytest

import repro
from repro.engine import mode


def test_mode_decision_lives_in_the_plan_module():
    """No engine module chooses a matcher, and the configuration API is gone."""
    root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
    )
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            relative = os.path.relpath(path, root).replace(os.sep, "/")
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
