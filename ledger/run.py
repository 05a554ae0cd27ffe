#!/usr/bin/env python3
"""The layer ledger: five text-in -> answers-out workloads with per-layer attribution.

One workload, one process (the form the benchmark driver calls)::

    python3 ledger/run.py --workload lubm-cold --seed 0 --seconds 12 --trace 0

prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``
with every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  Without ``--workload`` the ledger runs all
five workloads, each traced and untraced in a child process, and prints the
whole table (``--out FILE`` keeps it; ``--compare A.json B.json`` judges two
such files against the bounds).  ``ledger/README.md`` defines every name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from estimate import median, percentile, ratio, round_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("lubm-cold", "closure-184k", "churn-social", "serve-read", "serve-mixed")
#: Spans the ledger opens only to delimit an operation; their self time is
#: harness time between layer calls, not a layer's.
HARNESS_SPANS = ("lubm-cold.query", "churn-social.batch", "serve.read")
#: Per-layer counts that must repeat bit for bit between two runs of one commit.
EXACT_COUNTS = (
    "engine.facts_added",
    "engine.triggers_fired",
    "engine.nulls_invented",
    "engine.pivots_skipped",
)
SETUP_REPEATS = 3
SMOKE_SECONDS = 0.3


def load_benchmark() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def build(name: str, seed: int, smoke: bool, workdir: str):
    """The workload object called ``name``."""
    from inprocess import ChurnSocial, Closure, LubmCold
    from served import Serve

    if name == "lubm-cold":
        return LubmCold(seed, smoke)
    if name == "closure-184k":
        return Closure(seed, smoke)
    if name == "churn-social":
        return ChurnSocial(seed, smoke)
    return Serve(seed, smoke, name == "serve-mixed", workdir, SRC)


def child_command(args, *extra: str) -> list:
    """This script again, with the engine options passed through."""
    command = [sys.executable, os.path.abspath(__file__), "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    if args.mode:
        command += ["--mode", args.mode]
    if args.workers:
        command += ["--workers", str(args.workers)]
    return command + list(extra)


def shm_segments() -> set:
    """The engine's shared-memory segments currently in ``/dev/shm``."""
    try:
        return {entry for entry in os.listdir("/dev/shm") if entry.startswith("repro-")}
    except OSError:
        return set()


def calib_spin_ms() -> float:
    """A fixed pure-Python spin: reported to show machine drift, never to normalise."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------


def measure_setup(args, workload) -> list:
    """``setup_s`` samples; leaves ``workload`` set up.

    In-process workloads are set up in fresh child processes (interpreter
    start, imports, input generation, program objects, toy warm-up), because
    a second set-up inside one process would skip everything that is cached.
    The served workloads boot their server once per sample.
    """
    repeats = 1 if args.smoke else SETUP_REPEATS
    samples = []
    if workload.served:
        for repeat in range(repeats):
            start = time.perf_counter()
            workload.setup()
            samples.append(time.perf_counter() - start)
            if repeat < repeats - 1:
                workload.teardown()
        return samples
    probe = child_command(args, "--workload", workload.name, "--setup-only")
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(probe, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    workload.setup()
    return samples


def summarise(workload, rounds) -> tuple:
    """End-to-end values (best of the rounds) plus what backs them.

    One estimator for every time and rate: the value of a round is a median
    (or a rate) over its operations, and the run reports the best round.
    On a shared machine the noise is one-sided (a neighbour only ever slows
    a round down) and lasts longer than a round, so the median of rounds
    moved by up to 27 % between runs of one commit where the best round
    moved by 7-16 % (``ledger/README.md``, "Estimator").
    """
    def latencies(current, classes=None):
        return [
            op[1] * 1e3
            for op in current.ops
            if (op[0] in classes if classes else op[0] not in workload.side_classes)
        ]

    slow = (workload.slow_class,)
    per_round = {
        "op_p50_ms": [median(latencies(r)) for r in rounds],
        "slow_op_p50_ms": [
            median(latencies(r, slow)) for r in rounds if latencies(r, slow)
        ],
        "ops_per_s": [
            ratio(
                sum(1 for op in r.ops if op[2] and op[0] not in workload.side_classes),
                r.wall,
            )
            for r in rounds
        ],
    }
    values = {
        name: (max if name == "ops_per_s" else min)(samples, default=0.0)
        for name, samples in per_round.items()
    }
    detail = {
        name: {"samples": len(samples), "round_spread": round_spread(samples)}
        for name, samples in per_round.items()
    }
    everything = [ms for r in rounds for ms in latencies(r)]
    detail["op_p50_ms"]["ops"] = len(everything)
    detail["op_p90_ms"] = percentile(everything, 0.90)
    return values, detail


def count_ops(rounds) -> tuple:
    """``(attempted, failed)`` over every op of every round."""
    ops = [op for current in rounds for op in current.ops]
    return len(ops), sum(1 for op in ops if not op[2])


def run_untraced(args, workload, spans) -> tuple:
    """Set-up (timed), the measured section, memory, the oracle."""
    setup_samples = measure_setup(args, workload)
    rounds = workload.measure(args.seconds, spans)
    peak_rss_mb = workload.peak_rss_mb()
    workload.verify()
    values, detail = summarise(workload, rounds)
    values["setup_s"] = median(setup_samples)
    values["peak_rss_mb"] = peak_rss_mb
    detail["setup_s"] = {
        "samples": len(setup_samples), "round_spread": round_spread(setup_samples),
    }
    return values, detail, count_ops(rounds)


def run_traced(args, workload, spans) -> tuple:
    """The per-layer run: a fixed amount of work, half of it under spans and TRACER.

    In-process workloads alternate untraced and traced steps (``--seconds``
    does not apply: a fixed count is what makes the engine's counters repeat
    bit for bit).  Served workloads put load on the server over HTTP for
    ``--seconds / 2`` with ``/metrics`` scraped before and after, then replay
    the head of the same schedule in this process under spans.
    """
    spin = [calib_spin_ms()]
    workload.setup()
    if workload.served:
        spans.enable()  # tells measure() to bracket the load with scrapes
        reference = traced = workload.measure(args.seconds / 2, spans)
        workload.replay(spans, reads=30 if args.smoke else 300,
                        write_pairs=2 if args.smoke else 20)
        spans.disable()
    else:
        units = min(workload.traced_units, 4) if args.smoke else workload.traced_units
        reference, traced = workload.measure_traced(units, spans)
    workload.verify()
    spin.append(calib_spin_ms())

    def per_op(rounds):
        ops = [op for r in rounds for op in r.ops if op[0] not in workload.side_classes]
        return ratio(sum(op[1] for op in ops), len(ops))

    layer = dict(workload.layer)
    self_ms = spans.self_times_ms()
    roots = sum(row[5] - row[4] for row in spans.rows if row[1] is None) / 1e6
    harness = sum(self_ms.get(name, 0.0) for name in HARNESS_SPANS)
    layer["trace.attributed_share"] = 1.0 - ratio(harness, roots)
    layer["trace.overhead_share"] = (
        0.0 if workload.served else ratio(per_op(traced), per_op(reference)) - 1.0
    )
    attempted, failed = count_ops(reference if workload.served else reference + traced)
    primary = [
        op[1] * 1e3 for r in reference for op in r.ops
        if op[0] not in workload.side_classes
    ]
    layer["loadgen.op_p90_ms"] = percentile(primary, 0.90)
    layer["loadgen.fail_share"] = ratio(failed, attempted)
    layer["loadgen.calib_spin_ms"] = sum(spin) / len(spin)
    detail = {
        "self_time_ms": {k: v for k, v in sorted(self_ms.items())
                         if not k.startswith("twin.")},
        "engine_events_dropped": spans.engine_events_dropped,
        "spans": len(spans.rows),
    }
    return layer, detail, (attempted, failed)


def run_workload(args) -> int:
    """The driver's contract: one workload, one JSON object on the last line."""
    from spans import Spans
    from repro.engine.mode import get_execution_mode, get_worker_count

    benchmark = load_benchmark()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    workload = build(args.workload, args.seed, args.smoke, workdir)
    spans = Spans()
    shm_before = shm_segments()
    try:
        if args.setup_only:
            workload.setup()
            return 0
        if args.trace:
            values, detail, (attempted, failed) = run_traced(args, workload, spans)
        else:
            values, detail, (attempted, failed) = run_untraced(args, workload, spans)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    leaked = shm_segments() - shm_before
    if leaked:
        print(f"ledger: leaked /dev/shm segments {sorted(leaked)}", file=sys.stderr)
        return 1
    if args.spans_out and args.trace:
        spans.write(args.spans_out)

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    unknown = set(values) - {metric["name"] for metric in declared}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)), "unit": metric["unit"],
        }
        for metric in declared
    }
    detail["config"] = {
        "mode": get_execution_mode(),
        "workers": get_worker_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    print(json.dumps({"workload": args.workload, "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# all five workloads, and the comparison of two such runs
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload, untraced then traced, one child process each."""
    benchmark = load_benchmark()
    seconds = SMOKE_SECONDS if args.smoke else (args.seconds or benchmark["run_seconds"])
    report = {"workloads": {}}
    for name in WORKLOADS:
        entry = report["workloads"][name] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            command = child_command(
                args, "--workload", name, "--seconds", str(seconds), "--trace", str(trace)
            )
            done = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True)
            detail_line, result_line = done.stdout.strip().splitlines()[-2:]
            result = json.loads(result_line)
            detail = json.loads(detail_line)["detail"]
            report["config"] = detail.pop("config")
            for metric, backing in detail.items():
                if metric in result["metrics"] and isinstance(backing, dict):
                    result["metrics"][metric].update(backing)
            entry[key] = result["metrics"]
            entry[f"{key}_run"] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
            }
            if trace:
                entry["self_time_ms"] = detail["self_time_ms"]
            else:
                entry["op_p90_ms"] = detail["op_p90_ms"]
    print_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    wrong = [
        name for name, entry in report["workloads"].items()
        if not (entry["end_to_end_run"]["correct"] and entry["per_layer_run"]["correct"])
    ]
    if wrong:
        print(f"ledger: oracle misses on {wrong}", file=sys.stderr)
    return 1 if wrong else 0


def print_report(report: dict) -> None:
    """Every metric by name, with its unit; end to end first, then per layer."""
    print(f"config: {json.dumps(report['config'], sort_keys=True)}")
    for name, entry in report["workloads"].items():
        run = entry["end_to_end_run"]
        print(f"\n== {name}: {run['attempted']} ops, {run['failed']} failed ==")
        for metric, cell in entry["end_to_end"].items():
            print(
                f"  {metric:<40}{cell['value']:>14.4f} {cell['unit']:<6}"
                f" n={cell.get('samples', 1)}"
                f" round_spread={cell.get('round_spread', 0.0):.3f}"
            )
        for metric, cell in entry["per_layer"].items():
            if cell["value"]:
                print(f"  {metric:<40}{cell['value']:>14.4f} {cell['unit']}")


def compare(path_a: str, path_b: str) -> int:
    """B against A: every (metric, workload) within its bound, exact counts equal."""
    benchmark = load_benchmark()
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        first, second = json.load(a), json.load(b)
    misses = 0
    print(f"{'workload':<14}{'metric':<26}{'A':>12}{'B':>12}{'worse by':>10}{'bound':>8}")
    for name in WORKLOADS:
        for metric in benchmark["end_to_end"]:
            a_value = first["workloads"][name]["end_to_end"][metric["name"]]["value"]
            b_value = second["workloads"][name]["end_to_end"][metric["name"]]["value"]
            change = (b_value - a_value) / a_value if a_value else 0.0
            worse = change if metric["better"] == "lower" else -change
            missed = worse > metric["bound"]
            misses += missed
            print(
                f"{name:<14}{metric['name']:<26}{a_value:>12.4f}{b_value:>12.4f}"
                f"{worse:>+10.3f}{metric['bound']:>8.2f}{'  MISS' if missed else ''}"
            )
        for count in EXACT_COUNTS:
            a_value = first["workloads"][name]["per_layer"][count]["value"]
            b_value = second["workloads"][name]["per_layer"][count]["value"]
            if a_value != b_value:
                misses += 1
                print(f"{name:<14}{count:<26}{a_value:>12.1f}{b_value:>12.1f}  NOT EXACT")
    print(f"{misses} miss(es)")
    return 1 if misses else 0


def main(argv=None) -> int:
    """Parse the command line and dispatch."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, same code path and JSON shape")
    parser.add_argument("--out", help="write the full report here (all-workloads run)")
    parser.add_argument("--spans-out", help="write the traced run's spans here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("row", "batch", "parallel"),
                        help="engine mode to try; recorded numbers use the default")
    parser.add_argument("--workers", type=int)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ledger: no library to measure at {SRC}", file=sys.stderr)
        return 2
    # The ledger measures the library's default configuration: whatever
    # REPRO_* the caller's shell holds is dropped, and only --mode/--workers
    # (echoed in the output's config block) put anything back.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    if args.mode:
        os.environ["REPRO_ENGINE_MODE"] = args.mode
    if args.workers:
        os.environ["REPRO_ENGINE_PARALLEL"] = str(args.workers)
    sys.path.insert(0, SRC)
    # A terminated run must still stop its server and remove its work files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else load_benchmark()["run_seconds"]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
