"""Smoke tests of the layer ledger (``python -m pytest ledger -q``).

Every workload runs at toy size through the same code path as the recorded
runs; the tests check the output's shape against ``BENCHMARK.json`` and that
every oracle passes.  They are not part of the tier-1 suite (``testpaths``
stays ``tests``), because they boot servers and spawn child processes.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def ledger(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    """Run the ledger's command line; the finished process."""
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True
    )


@pytest.fixture(scope="module", params=[0, 1])
def report(request, tmp_path_factory):
    """One full ``--smoke`` run per seed."""
    out = tmp_path_factory.mktemp("ledger") / f"smoke-{request.param}.json"
    done = ledger("--smoke", "--seed", str(request.param), "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def test_every_declared_metric_is_reported_with_its_unit(report):
    assert sorted(report["workloads"]) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for entry in report["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}
            reported = {name: cell["unit"] for name, cell in entry[kind].items()}
            assert reported == declared


def test_every_oracle_passes_and_no_end_to_end_metric_is_zero(report):
    for name, entry in report["workloads"].items():
        for kind in ("end_to_end_run", "per_layer_run"):
            assert entry[kind]["correct"], name
            assert entry[kind]["failed"] == 0, name
            assert entry[kind]["attempted"] >= 1, name
        for metric, cell in entry["end_to_end"].items():
            assert cell["value"] > 0, (name, metric)
    assert report["config"]["mode"] == "batch"


def test_each_workload_feeds_its_own_layers(report):
    fed = {
        "lubm-cold": ("rdf.parser.parse_ms", "core.triqlite.evaluate_ms",
                      "translation.rules_per_query", "engine.facts_added"),
        "closure-184k": ("datalog.seminaive.evaluate_ms", "datalog.seminaive.stratum_ms",
                         "engine.triggers_fired"),
        "churn-social": ("engine.incremental.push_p50_ms",
                         "engine.incremental.retract_p50_ms",
                         "engine.incremental.recompute_ratio"),
        "serve-read": ("service.view.query_mean_ms", "service.http.overhead_mean_ms",
                       "sparql.evaluator.evaluate_ids_ms", "service.http.boot_s"),
        "serve-mixed": ("service.view.push_mean_ms", "service.view.retract_mean_ms",
                        "loadgen.write_p50_ms", "datalog.chase.run_ms"),
    }
    for name, metrics in fed.items():
        for metric in metrics:
            assert report["workloads"][name]["per_layer"][metric]["value"] > 0, (
                name, metric,
            )


def test_driver_contract_last_line():
    done = ledger("--workload", "closure-184k", "--seed", "3", "--seconds", "0.2",
                  "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    for cell in result["metrics"].values():
        assert sorted(cell) == ["unit", "value"]


def test_compare_holds_a_run_against_itself_and_flags_a_regression(report, tmp_path):
    same = tmp_path / "a.json"
    worse = tmp_path / "b.json"
    regressed = copy.deepcopy(report)
    regressed["workloads"]["serve-read"]["end_to_end"]["op_p50_ms"]["value"] *= 1.5
    same.write_text(json.dumps(report))
    worse.write_text(json.dumps(regressed))
    assert ledger("--compare", str(same), str(same)).returncode == 0
    flagged = ledger("--compare", str(same), str(worse))
    assert flagged.returncode == 1
    assert "MISS" in flagged.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache"),
    )
    done = ledger("--workload", "lubm-cold", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=str(tmp_path / "ledger" / "run.py"))
    assert done.returncode != 0
    assert done.stdout == ""
