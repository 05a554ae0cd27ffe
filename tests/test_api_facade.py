"""The programmatic facade: Engine/EngineConfig vs the legacy env vars.

The parity classes run the same workload twice in fresh subprocesses — once
configured through ``REPRO_ENGINE_*`` environment variables, once through
:class:`repro.EngineConfig` — and require byte-identical engine counters:
the facade must be a pure re-skinning of the legacy configuration, not a
second code path.
"""

import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.api import Engine, EngineConfig

WORKLOAD = """
import json, sys
import repro
from repro.engine.stats import STATS

{configure}

program = '''
    edge(?X, ?Y) -> path(?X, ?Y).
    edge(?X, ?Z), path(?Z, ?Y) -> path(?X, ?Y).
    path(?X, ?Y), path(?Y, ?X) -> scc(?X, ?Y).
'''
facts = [repro.parse_atom(f"edge(n{{i}}, n{{(i + 1) % 30}})") for i in range(30)]
engine = repro.Engine()
STATS.reset()
answers = engine.evaluate(program, "path", repro.Database(facts))
print(json.dumps({{"answers": len(answers), "mode": engine.mode,
                   "counters": STATS.snapshot()}}, sort_keys=True))
"""


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(script, env_overrides):
    """Last stdout line of ``script`` in a fresh process with only these REPRO_* set."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update(env_overrides)
    env["PYTHONPATH"] = "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def run_workload(configure_lines, env_overrides):
    return run_script(WORKLOAD.format(configure=configure_lines), env_overrides)


class TestEnvVarParity:
    """EngineConfig and legacy env vars must produce byte-identical runs."""

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_modes_round_trip(self, mode):
        via_env = run_workload("", {"REPRO_ENGINE_MODE": mode})
        via_config = run_workload(
            f"repro.Engine(repro.EngineConfig(mode={mode!r}))", {}
        )
        assert via_env == via_config
        assert json.loads(via_env)["mode"] == mode

    def test_config_wins_over_env(self):
        output = run_workload(
            "repro.Engine(repro.EngineConfig(mode='row'))",
            {"REPRO_ENGINE_MODE": "batch"},
        )
        assert json.loads(output)["mode"] == "row"

    def test_from_env_pins_the_environment_snapshot(self):
        config = EngineConfig.from_env({"REPRO_ENGINE_MODE": "row"})
        assert config == EngineConfig(mode="row")
        assert EngineConfig.from_env({}) == EngineConfig()

    def test_from_env_reads_maintenance_knobs(self):
        config = EngineConfig.from_env({"REPRO_COMPACT_RATIO": "0.25"})
        assert config == EngineConfig(compact_ratio=0.25)


class TestEngineConstruction:
    def test_kwargs_build_a_config(self):
        engine = Engine(mode="batch", compact_ratio=0.5)
        assert engine.config == EngineConfig(mode="batch", compact_ratio=0.5)

    def test_config_and_kwargs_conflict(self):
        with pytest.raises(TypeError):
            Engine(EngineConfig(), mode="batch")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(mode="vectorised")
        with pytest.raises(ValueError, match=r"must be one of \('row', 'batch'\)"):
            EngineConfig(mode="parallel")

    def test_invalid_compact_ratio_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(compact_ratio=0.0)

    @pytest.mark.parametrize("raw", ["abc", "-1", "0"])
    def test_bad_compact_ratio_env_raises_at_first_use(self, raw, monkeypatch):
        """A typo must not silently become 0.5 (nor a negative ratio pass)."""
        from repro.engine import index

        monkeypatch.setattr(index, "_compact_ratio", None)
        monkeypatch.setenv("REPRO_COMPACT_RATIO", raw)
        with pytest.raises(ValueError, match="REPRO_COMPACT_RATIO"):
            index.compact_ratio()
        with pytest.raises(ValueError, match="REPRO_COMPACT_RATIO"):
            EngineConfig.from_env({"REPRO_COMPACT_RATIO": raw})

    def test_persisted_plan_cache_is_gone(self):
        """Removed in 3.0.0: no module, no config field."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.plancache")
        with pytest.raises(TypeError):
            EngineConfig(plan_cache="x")

    def test_with_overrides(self):
        base = EngineConfig(mode="batch")
        assert base.with_overrides(compact_ratio=0.4) == EngineConfig(
            mode="batch", compact_ratio=0.4
        )

    def test_configure_one_liner(self):
        engine = repro.configure(mode="batch")
        assert engine.mode == "batch"


class TestFacadeMethods:
    PROGRAM = "edge(?X, ?Y) -> reach(?X, ?Y). edge(?X, ?Z), reach(?Z, ?Y) -> reach(?X, ?Y)."

    def facts(self):
        return [repro.parse_atom("edge(a, b)"), repro.parse_atom("edge(b, c)")]

    def test_evaluate_matches_module_level(self):
        engine = Engine(mode="batch")
        db = repro.Database(self.facts())
        assert engine.evaluate(self.PROGRAM, "reach", db) == repro.evaluate(
            self.PROGRAM, "reach", db
        )

    def test_chase_materialises(self):
        instance = Engine().chase(self.PROGRAM, self.facts())
        assert len(list(instance.with_predicate("reach"))) == 3

    def test_delta_session(self):
        with Engine().delta_session(self.PROGRAM, self.facts()) as session:
            assert len(session.query("reach")) == 3
            session.push([repro.parse_atom("edge(c, d)")])
            assert len(session.query("reach")) == 6

    def test_serve_returns_unstarted_service(self):
        service = Engine().serve(block=False)
        assert service.port == 8377
        assert service.view.consistent
        service.view.close()


class TestDeprecatedShims:
    def test_legacy_setters_reachable_from_top_level(self):
        assert repro.set_execution_mode is not None
        from repro.engine import mode

        assert repro.set_execution_mode is mode.set_execution_mode

    def test_service_exports_lazy(self):
        assert repro.MaterializedView.__name__ == "MaterializedView"
        assert repro.QueryService.__name__ == "QueryService"

    def test_dir_lists_lazy_exports(self):
        listing = dir(repro)
        for name in ("MaterializedView", "QueryService", "set_execution_mode"):
            assert name in listing

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist


def test_package_metadata_version_matches_the_module():
    # CI still runs Python 3.10 (no tomllib): read the line with a regex.
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        declared = re.search(r'^version = "([^"]+)"', handle.read(), re.M).group(1)
    assert declared == repro.__version__


def test_env_knob_inventory_is_exactly_the_documented_four():
    knobs = set()
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    knobs.update(re.findall(r"REPRO_[A-Z_]+", handle.read()))
    assert knobs == {
        "REPRO_ENGINE_MODE",
        "REPRO_NUMPY",
        "REPRO_COMPACT_RATIO",
        "REPRO_SLOW_QUERY_MS",
    }
    with open(os.path.join(ROOT, "docs", "api.md"), encoding="utf-8") as handle:
        documented = handle.read()
    for knob in knobs:
        assert f"`{knob}`" in documented


ONE_PROCESS_WORKLOAD = """
import os, sys
import repro
from repro.datalog.chase import ChaseEngine
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.engine.incremental import DeltaSession
from repro.engine.index import set_compact_ratio

def shm_entries():
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}
    except OSError:
        return set()

before = shm_entries()
edges = [repro.parse_atom(f"edge(n{i}, n{i + 1})") for i in range(300)]
closure = repro.parse_program(
    "edge(?X, ?Y) -> path(?X, ?Y). edge(?X, ?Z), path(?Z, ?Y) -> path(?X, ?Y)."
)
assert len(SemiNaiveEvaluator(closure).evaluate(edges[:40])) == 40 + 40 * 41 // 2
chased = ChaseEngine().chase(
    [repro.parse_atom("person(a)")],
    repro.parse_program("person(?X) -> exists ?Y . parent(?X, ?Y)."),
)
assert chased.invented_nulls == 1
set_compact_ratio(0.2)
session = DeltaSession(repro.parse_program("edge(?X, ?Y) -> link(?X, ?Y)."), edges[:200])
session.push(edges[200:])
session.retract(edges[:100])
assert session.compaction_counts, "the retraction must have forced a compaction"
session.close()
assert "multiprocessing.shared_memory" not in sys.modules
assert shm_entries() == before
print("ok")
"""


def test_engine_is_one_process_and_never_reads_the_removed_knobs():
    """Cold fixpoint, chase, push + retract + compaction: no shared memory.

    The five env vars removed in 2.0.0 are all set: they selected and tuned
    the multi-process executor, and must now be dead names.
    """
    removed = {
        "REPRO_ENGINE_PARALLEL": "2",
        "REPRO_PARALLEL_THRESHOLD": "0",
        "REPRO_SHM": "1",
        "REPRO_CSR": "1",
        "REPRO_SHM_RESULT_MIN": "0",
    }
    assert run_script(ONE_PROCESS_WORKLOAD, removed) == "ok"
