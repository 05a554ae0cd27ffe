"""Regression tests: execution-mode env vars resolve lazily, not at import."""

import os
import subprocess
import sys

import pytest

from repro.engine import mode


@pytest.fixture
def clean_mode(monkeypatch):
    """Reset the module's resolved state and scrub the env for one test."""
    monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)
    mode._reset_for_tests()
    yield
    mode._reset_for_tests()


class TestLazyResolution:
    def test_env_change_after_import_is_honoured(self, clean_mode, monkeypatch):
        """The historic footgun: setting the env var after import must work."""
        monkeypatch.setenv("REPRO_ENGINE_MODE", "row")
        assert mode.get_execution_mode() == "row"
        assert not mode.batch_enabled()

    def test_default_is_batch(self, clean_mode):
        assert mode.get_execution_mode() == "batch"

    def test_empty_strings_count_as_unset(self, clean_mode, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_MODE", "")
        assert mode.get_execution_mode() == "batch"

    def test_explicit_setter_beats_environment(self, clean_mode, monkeypatch):
        """set_execution_mode before first env read pins the value for good."""
        monkeypatch.setenv("REPRO_ENGINE_MODE", "bogus")
        mode.set_execution_mode("row")
        assert mode.get_execution_mode() == "row"
        # ...and later env churn is ignored once pinned.
        monkeypatch.setenv("REPRO_ENGINE_MODE", "batch")
        assert mode.get_execution_mode() == "row"

    def test_bad_mode_raises_at_first_use_not_import(self, clean_mode, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_MODE", "bogus")
        with pytest.raises(ValueError, match="REPRO_ENGINE_MODE"):
            mode.get_execution_mode()

    def test_removed_parallel_mode_is_rejected(self, clean_mode, monkeypatch):
        valid = r"must be one of \('row', 'batch'\)"
        monkeypatch.setenv("REPRO_ENGINE_MODE", "parallel")
        with pytest.raises(ValueError, match=valid):
            mode.get_execution_mode()
        with pytest.raises(ValueError, match=valid):
            mode.set_execution_mode("parallel")

    def test_execution_mode_context_restores(self, clean_mode):
        mode.set_execution_mode("batch")
        with mode.execution_mode("row"):
            assert mode.get_execution_mode() == "row"
        assert mode.get_execution_mode() == "batch"

    def test_import_does_not_read_environment(self):
        """Importing the module in a fresh process must not touch os.environ.

        A poisoned value would have raised at import time under the old
        eager scheme; lazily it only raises when the mode is first needed.
        """
        code = (
            "import os\n"
            "os.environ['REPRO_ENGINE_MODE'] = 'bogus'\n"
            "import repro.engine.mode as m\n"  # must not raise
            "m.set_execution_mode('row')\n"    # explicit setter still works
            "assert m.get_execution_mode() == 'row'\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_ENGINE_MODE", None)
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    def test_configure_after_submodule_imports(self):
        """The documented footgun scenario: import engines first, then configure."""
        code = (
            "import repro  # pulls in every engine layer\n"
            "from repro.engine.mode import get_execution_mode, set_execution_mode\n"
            "set_execution_mode('row')\n"
            "assert get_execution_mode() == 'row'\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_ENGINE_MODE", None)
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"


def test_mode_decision_lives_in_the_plan_module():
    """Engines fire one way; only ``JoinPlan.rows`` asks which matcher runs."""
    root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
    )
    readers = set()
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            relative = os.path.relpath(path, root).replace(os.sep, "/")
            assert "use_batch" not in text, relative
            if "batch_enabled" in text:
                readers.add(relative)
    assert readers == {"engine/mode.py", "engine/plan.py", "engine/__init__.py"}
