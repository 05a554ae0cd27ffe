#!/usr/bin/env python
"""Single-runner benchmark harness for every ``bench_*.py`` scenario.

Runs all benchmark scenarios in-process with warmup and repeats, samples the
engine-core counters (:mod:`repro.engine.stats`) around each measured
section, and writes ``BENCH_engine_core.json`` in a stable schema that CI
diffs against the committed baseline.

Every scenario runs once, producing one record per scenario id.  The
harness is an **exact-counter gate**, not a wall-clock benchmark (that is
``ledger/``): the deterministic counters (facts added, triggers fired, nulls
invented, pivots skipped, and the retraction trio of facts retracted /
re-derived / nulls collected) must *equal* the committed baseline record,
and the run fails otherwise.  Wall times are measured, printed and written,
never gated.

The ``bench_*.py`` files stay plain pytest-benchmark suites; the harness
discovers their ``test_*`` functions, expands ``pytest.mark.parametrize``
marks itself, and injects a proxy ``benchmark`` fixture, so the same
scenarios run identically under ``pytest`` and under this runner — but here
with controlled warmup/repeat counts and no pytest overhead.  Only the
benchmarked callable is timed; scenario setup (ontology generation, graph
construction, translation that the test performs outside ``benchmark``)
stays out of the measured section.

Usage::

    python benchmarks/harness.py                      # full run, writes BENCH_engine_core.json
    python benchmarks/harness.py --quick              # 1 warmup + 3 repeats, writes nothing
    python benchmarks/harness.py --quick --baseline BENCH_engine_core.json
                                                      # CI counter gate: exact equality
    python benchmarks/harness.py --only theorem67     # substring filter
    python benchmarks/harness.py --quick --only lubm --profile profile.json
                                                      # per-plan step profiles
    python benchmarks/harness.py --list               # show scenario ids and exit

See ``benchmarks/README.md`` for the JSON schema and the CI contract.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import json
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(REPO_ROOT, "src")
for path in (SRC, BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.engine.stats import STATS  # noqa: E402
from repro.obs.profile import PROFILER  # noqa: E402

SCHEMA_VERSION = 12
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_engine_core.json")
#: Counters that must equal the baseline record: deterministic and
#: machine-independent.
GATED_COUNTERS = (
    "facts_added",
    "chase_steps",
    "nulls_invented",
    "pivots_skipped",
    # Schema v7: the DRed retraction trio.  Defined on sets (the over-deleted
    # closure, the restored survivors, the orphaned nulls), so the deletion
    # path's accounting does not depend on match order.
    "retractions",
    "rederived",
    "nulls_collected",
)


def _peak_rss_kb() -> Optional[int]:
    """The process high-water RSS in KiB (None where unavailable).

    ``ru_maxrss`` is a lifetime maximum, so per-record values are
    monotonically non-decreasing across a run; the per-scenario number
    answers "how much memory had the suite needed by the time this scenario
    finished", which is the regression-relevant shape for an in-process
    runner (a per-scenario reset is not possible without forking).
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return peak // 1024 if sys.platform == "darwin" else peak


class HarnessBenchmark:
    """Stand-in for the pytest-benchmark fixture.

    Times exactly one invocation of the benchmarked callable per test-function
    call (the harness drives warmup/repeats by re-invoking the test function),
    and snapshots the engine counters around the measured section.
    """

    def __init__(self) -> None:
        self.extra_info: Dict[str, Any] = {}
        self.wall_seconds: Optional[float] = None
        self.stats: Dict[str, int] = {}

    def _measure(self, fn: Callable, args: tuple, kwargs: dict) -> Any:
        # Flush collectable garbage from previous scenarios so a GC cycle
        # triggered by *their* allocations does not land inside this measured
        # section — the dominant source of run-to-run jitter for the
        # allocation-heavy scenarios.
        gc.collect()
        STATS.reset()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.wall_seconds = time.perf_counter() - start
        self.stats = STATS.snapshot()
        return result

    def __call__(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return self._measure(fn, args, kwargs)

    def pedantic(
        self,
        fn: Callable,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        rounds: int = 1,
        iterations: int = 1,
        warmup_rounds: int = 0,
    ) -> Any:
        return self._measure(fn, args, kwargs or {})


def _load_module(path: str):
    name = os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _param_id(value: Any) -> str:
    if isinstance(value, (list, tuple)):
        return "-".join(_param_id(v) for v in value)
    return str(value)


def _expand_parametrize(fn: Callable) -> List[Tuple[str, Dict[str, Any]]]:
    """Expand stacked ``pytest.mark.parametrize`` marks into (id, kwargs) pairs."""
    marks = [
        mark
        for mark in getattr(fn, "pytestmark", [])
        if getattr(mark, "name", None) == "parametrize"
    ]
    if not marks:
        return [("", {})]
    # Stacked marks multiply; pytest applies the closest decorator first, so
    # iterate in reverse to match its id order.
    axes: List[List[Tuple[str, Dict[str, Any]]]] = []
    for mark in reversed(marks):
        argnames, argvalues = mark.args[0], mark.args[1]
        names = [n.strip() for n in argnames.split(",")]
        cases: List[Tuple[str, Dict[str, Any]]] = []
        for value in argvalues:
            values = getattr(value, "values", None)
            if values is not None and hasattr(value, "marks"):  # pytest.param
                value = values if len(names) > 1 else values[0]
            if len(names) == 1:
                cases.append((_param_id(value), {names[0]: value}))
            else:
                cases.append(
                    (_param_id(value), dict(zip(names, value)))
                )
        axes.append(cases)
    expanded: List[Tuple[str, Dict[str, Any]]] = []
    for combo in itertools.product(*axes):
        ident = "-".join(part for part, _ in combo)
        kwargs: Dict[str, Any] = {}
        for _, case_kwargs in combo:
            kwargs.update(case_kwargs)
        expanded.append((ident, kwargs))
    return expanded


def discover_scenarios() -> List[Dict[str, Any]]:
    """All (file, function, params) scenarios of the ``bench_*.py`` suite."""
    scenarios: List[Dict[str, Any]] = []
    for filename in sorted(os.listdir(BENCH_DIR)):
        if not filename.startswith("bench_") or not filename.endswith(".py"):
            continue
        module = _load_module(os.path.join(BENCH_DIR, filename))
        for attr in sorted(dir(module)):
            if not attr.startswith("test_"):
                continue
            fn = getattr(module, attr)
            if not callable(fn):
                continue
            for ident, kwargs in _expand_parametrize(fn):
                scenario_id = f"{filename}::{attr}" + (f"[{ident}]" if ident else "")
                scenarios.append(
                    {"id": scenario_id, "file": filename, "fn": fn, "kwargs": kwargs}
                )
    return scenarios


def select_runs(
    scenarios: List[Dict[str, Any]], only: Optional[str]
) -> List[Dict[str, Any]]:
    """The scenarios to run.  ``--only`` is a substring of the record id, so
    any id printed by ``--list`` (or found in the baseline JSON) is a valid
    filter: ``--only theorem67`` selects the theorem67 scenarios, and a full
    record id selects exactly one run."""
    return [scenario for scenario in scenarios if not only or only in scenario["id"]]


def run_scenario(
    scenario: Dict[str, Any], warmup: int, repeats: int
) -> Dict[str, Any]:
    """Run one scenario ``warmup + repeats`` times."""
    runs: List[float] = []
    record: Dict[str, Any] = {"id": scenario["id"], "file": scenario["file"]}
    proxy = HarnessBenchmark()
    for i in range(warmup + repeats):
        proxy = HarnessBenchmark()
        scenario["fn"](benchmark=proxy, **scenario["kwargs"])
        if proxy.wall_seconds is None:
            raise RuntimeError(
                f"{scenario['id']} never invoked the benchmark fixture"
            )
        if i >= warmup:
            runs.append(proxy.wall_seconds)
    median = statistics.median(runs)
    last_stats = proxy.stats
    record.update(
        {
            "wall_seconds": {
                "median": round(median, 6),
                "min": round(min(runs), 6),
                "runs": [round(r, 6) for r in runs],
            },
            "facts_added": last_stats["facts_added"],
            "chase_steps": last_stats["triggers_fired"],
            "nulls_invented": last_stats["nulls_invented"],
            "pivots_skipped": last_stats["pivots_skipped"],
            # Schema v7: the retraction trio (0 for insert-only scenarios).
            "retractions": last_stats["retractions"],
            "rederived": last_stats["rederived"],
            "nulls_collected": last_stats["nulls_collected"],
            "batch_probe_groups": last_stats["batch_probe_groups"],
            # Schema v9: tombstone compactions run by retraction sessions.
            # Reported, never gated.
            "compactions": last_stats["compactions"],
            # Schema v5: the process peak RSS sampled after the scenario.
            "peak_rss_kb": _peak_rss_kb(),
            "facts_per_second": (
                round(last_stats["facts_added"] / median) if median > 0 else None
            ),
            # Schema v4: first-class streaming columns.  ``delta_rounds`` is
            # the number of incremental delta rounds a streaming scenario
            # executed; ``incremental_speedup`` is recompute-per-arrival wall
            # time over the *measured* incremental wall time (min run, the
            # least noise-sensitive estimate).  Both are None for
            # non-streaming scenarios.
            "delta_rounds": proxy.extra_info.get("delta_rounds"),
            # Schema v6: first-class concurrent-service columns.  The
            # service scenarios report queries-per-second and p50/p99
            # per-query latency through extra_info; both are None for every
            # other scenario.  Wall clock, so recorded and never gated.
            "qps": proxy.extra_info.get("qps"),
            "latency_ms": (
                {
                    "p50": proxy.extra_info["latency_p50_ms"],
                    "p99": proxy.extra_info["latency_p99_ms"],
                }
                if "latency_p50_ms" in proxy.extra_info
                else None
            ),
            "incremental_speedup": (
                round(proxy.extra_info["recompute_seconds"] / min(runs), 2)
                if proxy.extra_info.get("recompute_seconds") and min(runs) > 0
                else None
            ),
            "extra": {
                k: v
                for k, v in sorted(proxy.extra_info.items())
                if isinstance(v, (int, float, str, bool))
            },
        }
    )
    return record


def compare_to_baseline(
    results: List[Dict[str, Any]], baseline: Dict[str, Any]
) -> List[str]:
    """Messages for records whose gated values differ from the baseline.

    No wall time is compared across runs: the baseline may come from another
    machine, and an earlier speed-normalised wall gate failed on untouched
    records.  Wall time is the ledger's job (``ledger/run.py --compare``).
    The one clock-derived value gated is the within-run
    ``incremental_speedup`` ratio, at half its baseline.
    """
    baseline_by_id = {s["id"]: s for s in baseline.get("scenarios", [])}
    regressions: List[str] = []
    for record in results:
        base = baseline_by_id.get(record["id"])
        if base is None:
            continue
        # The engine counters are deterministic, so the gate is equality: more
        # triggers or facts is an algorithmic regression, fewer is a change in
        # semantics or in pivot skipping — either way the baseline is re-recorded
        # deliberately or the change is wrong.
        for counter in GATED_COUNTERS:
            if counter in base and record[counter] != base[counter]:
                regressions.append(
                    f"{record['id']}: {counter} {record[counter]} "
                    f"vs baseline {base[counter]}"
                )
        # incremental_speedup (schema v4) is a within-run ratio, so it needs
        # no machine normalisation; it gates streaming scenarios against the
        # incremental path degenerating toward recomputation.  Halving the
        # baseline ratio (or dropping below break-even) fails; smaller noise
        # on the unmeasured recompute probe does not.  Scenarios whose
        # *baseline* sits below break-even pin a deliberately adverse regime
        # (the churn-heavy social windows, where DRed degenerates by design
        # and the engine's guard rebuilds cold); those get the halving gate
        # only — the scenario's own in-test ceiling owns the absolute bound.
        now = record.get("incremental_speedup")
        then = base.get("incremental_speedup")
        if now is not None and then:
            floor = max(1.0, then * 0.5) if then >= 1.0 else then * 0.5
            if now < floor:
                regressions.append(
                    f"{record['id']}: incremental_speedup {now}x vs baseline {then}x"
                )
    return regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--quick", action="store_true", help="1 warmup + 3 repeats")
    parser.add_argument("--warmup", type=int, default=None, help="warmup runs per scenario")
    parser.add_argument("--repeats", type=int, default=None, help="measured runs per scenario")
    parser.add_argument("--only", default=None, help="substring filter on scenario ids")
    parser.add_argument("--list", action="store_true", help="list scenario ids and exit")
    parser.add_argument(
        "--output",
        default=None,
        help=f"JSON output path (default: {os.path.relpath(DEFAULT_OUTPUT, REPO_ROOT)}; "
        "suppressed when --baseline is given unless set explicitly)",
    )
    parser.add_argument(
        "--baseline", default=None, help="baseline JSON to diff against (CI gate)"
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="enable per-plan step profiling and write hot-rule/hot-step "
        "JSON here (profiled runs pay instrumentation overhead)",
    )
    args = parser.parse_args(argv)

    warmup = args.warmup if args.warmup is not None else 1
    repeats = args.repeats if args.repeats is not None else (3 if args.quick else 5)
    runs = select_runs(discover_scenarios(), args.only)
    if args.list:
        for scenario in runs:
            print(scenario["id"])
        return 0
    if not runs:
        print("no scenarios matched", file=sys.stderr)
        return 2

    if args.profile:
        PROFILER.enable()
    profiles: List[Dict[str, Any]] = []
    results: List[Dict[str, Any]] = []
    total_start = time.perf_counter()
    for scenario in runs:
        if args.profile:
            PROFILER.reset()
        record = run_scenario(scenario, warmup, repeats)
        results.append(record)
        if args.profile:
            profiles.append({"id": record["id"], "plans": PROFILER.snapshot(top=10)})
        wall = record["wall_seconds"]["median"]
        print(f"{record['id']:84s} {wall * 1000:9.2f} ms  "
              f"{record['facts_added']:>8d} facts")
    total_wall = time.perf_counter() - total_start
    if args.profile:
        PROFILER.disable()
        with open(args.profile, "w") as handle:
            json.dump(
                {"schema_version": 1, "scenarios": profiles},
                handle, indent=2, sort_keys=False,
            )
            handle.write("\n")
        print(f"wrote plan profiles to {os.path.relpath(args.profile, os.getcwd())}")

    document = {
        "schema_version": SCHEMA_VERSION,
        "mode": "quick" if args.quick else "full",
        "warmup": warmup,
        "repeats": repeats,
        "python": ".".join(map(str, sys.version_info[:3])),
        "scenario_count": len(results),
        "scenarios": results,
        "totals": {
            "wall_seconds_median_sum": round(
                sum(r["wall_seconds"]["median"] for r in results), 6
            ),
            "facts_added": sum(r["facts_added"] for r in results),
            "chase_steps": sum(r["chase_steps"] for r in results),
            "nulls_invented": sum(r["nulls_invented"] for r in results),
            "pivots_skipped": sum(r["pivots_skipped"] for r in results),
            "retractions": sum(r["retractions"] for r in results),
            "rederived": sum(r["rederived"] for r in results),
            "nulls_collected": sum(r["nulls_collected"] for r in results),
        },
    }
    print(f"\n{len(results)} records, "
          f"median-sum {document['totals']['wall_seconds_median_sum']:.3f}s, "
          f"harness wall {total_wall:.1f}s")

    # Only a full, unfiltered run may implicitly overwrite the committed
    # baseline; quick/filtered runs write only with an explicit --output.
    output = args.output
    if (
        output is None
        and args.baseline is None
        and not args.quick
        and not args.only
    ):
        output = DEFAULT_OUTPUT
    if output:
        with open(output, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=False)
            handle.write("\n")
        print(f"wrote {os.path.relpath(output, os.getcwd())}")

    if args.baseline:
        try:
            with open(args.baseline) as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot read baseline {args.baseline}: {error}", file=sys.stderr)
            return 2
        regressions = compare_to_baseline(results, baseline)
        missing = {s["id"] for s in baseline.get("scenarios", [])} - {
            r["id"] for r in results
        }
        if args.only is None and missing:
            print(f"warning: {len(missing)} baseline scenarios did not run: "
                  + ", ".join(sorted(missing)[:5]))
        if regressions:
            print(f"\nFAIL: {len(regressions)} regression(s) vs {args.baseline}:")
            for line in regressions:
                print("  " + line)
            return 1
        print(f"\nOK: every gated counter equals {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
