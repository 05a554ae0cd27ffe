"""The package surface: lazy exports, version metadata, and the knob inventory.

The library takes no configuration: ``src/`` reads no environment variable,
and the removed knobs must be dead names in a fresh process.
"""

import os
import re
import subprocess
import sys

import pytest

import repro


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(script, env_overrides, first_on_path=None):
    """Last stdout line of ``script`` in a fresh process with only these REPRO_* set.

    ``first_on_path`` is a directory put ahead of ``src`` on ``PYTHONPATH``.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update(env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (first_on_path, "src") if path is not None
    )
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


class TestDeprecatedShims:
    def test_service_exports_lazy(self):
        assert repro.MaterializedView.__name__ == "MaterializedView"
        assert repro.QueryService.__name__ == "QueryService"

    def test_dir_lists_lazy_exports(self):
        listing = dir(repro)
        for name in ("MaterializedView", "QueryService"):
            assert name in listing

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist


def test_package_metadata_version_matches_the_module():
    # CI still runs Python 3.10 (no tomllib): read the line with a regex.
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        declared = re.search(r'^version = "([^"]+)"', handle.read(), re.M).group(1)
    assert declared == repro.__version__


def test_src_reads_no_environment_variable():
    readers = []
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
                if re.search(r"REPRO_[A-Z_]+|os\.environ|getenv", text):
                    readers.append(os.path.relpath(path, ROOT))
    assert readers == []


ONE_PROCESS_WORKLOAD = """
import os, sys
import repro
from repro.datalog.chase import ChaseEngine
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.engine import index
from repro.engine.incremental import DeltaSession

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
index.COMPACT_RATIO = 0.2
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

    Every removed knob is set, to a value that would change or break the
    run if it were read: the five that selected and tuned the multi-process
    executor (removed in 2.0.0) and the matcher, kernel and compaction
    knobs (removed in 4.0.0).  All must be dead names.
    """
    removed = {
        "REPRO_ENGINE_PARALLEL": "2",
        "REPRO_PARALLEL_THRESHOLD": "0",
        "REPRO_SHM": "1",
        "REPRO_CSR": "1",
        "REPRO_SHM_RESULT_MIN": "0",
        "REPRO_ENGINE_MODE": "row",
        "REPRO_NUMPY": "0",
        "REPRO_COMPACT_RATIO": "abc",
    }
    assert run_script(ONE_PROCESS_WORKLOAD, removed) == "ok"


NO_NUMPY_WORKLOAD = """
import sys
try:
    import numpy
except RuntimeError:
    pass
else:
    raise SystemExit("the unimportable numpy is not first on the path")
import repro
from repro.core.warded_engine import WardedEngine
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.engine.incremental import DeltaSession
from repro.translation.entailment_regime import EntailmentView
from repro.workloads.ontologies import university_graph

edges = [repro.parse_atom(f"edge(n{i}, n{i + 1})") for i in range(80)]
closure = repro.parse_program(
    "edge(?X, ?Y) -> path(?X, ?Y). edge(?X, ?Z), path(?Z, ?Y) -> path(?X, ?Y)."
)
assert len(SemiNaiveEvaluator(closure).evaluate(edges[:40])) == 40 + 40 * 41 // 2
warded = WardedEngine(repro.parse_program(
    "triple(?X, knows, ?Y) -> knows(?X, ?Y). "
    "knows(?X, ?Y) -> exists ?Z . contact(?Y, ?Z). "
    "contact(?X, ?Z), knows(?W, ?X) -> reachable(?W, ?X)."
)).materialise(
    [repro.parse_atom(f"triple(p{i}, knows, p{i + 1})") for i in range(20)]
)
assert len(warded.instance.with_predicate("reachable")) == 20
session = DeltaSession(closure, edges[:60])
session.push(edges[60:])
session.retract(edges[:10])
assert len(session.instance.with_predicate("path")) == 70 * 71 // 2
session.close()
query = "SELECT ?X WHERE { ?X rdf:type Person }"
graph = university_graph(n_departments=1, students_per_department=3)
answers = EntailmentView(graph).evaluate(query)
assert answers
with repro.MaterializedView(graph) as view:
    assert view.query(query) == answers
assert "numpy" not in sys.modules
print("ok")
"""


def test_engine_runs_where_numpy_cannot_be_imported(tmp_path):
    # The engine imports only the standard library: with a numpy package
    # first on the path whose import raises, every front door still works.
    fake = tmp_path / "numpy"
    fake.mkdir()
    (fake / "__init__.py").write_text('raise RuntimeError("numpy must not be imported")\n')
    assert run_script(NO_NUMPY_WORKLOAD, {}, first_on_path=str(tmp_path)) == "ok"
