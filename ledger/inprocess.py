"""The three in-process workloads: ``lubm-cold``, ``closure-184k``, ``churn-social``.

Each workload object is built from ``(seed, smoke)`` and offers

* ``setup()`` — generate the inputs, build the program objects, run a
  toy-size warm-up; this is what ``setup_s`` times, in a fresh process;
* ``step(spans)`` — one unit of measured work (a pass over the query mix, a
  fixpoint, a push+retract batch), returning its op records;
* ``measure(seconds, spans)`` — steps grouped into rounds for ``seconds``;
* ``measure_traced(units, spans)`` — a fixed number of steps, alternately
  untraced (the reference) and traced, then ``self.layer`` is filled from
  the spans and the engine's counters;
* ``verify()`` — the oracle, run after memory has been read so the
  reference computation does not count towards ``peak_rss_mb``.

Every layer is timed from outside, around its public functions.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field

from repro.core.triqlite import TriQLiteQuery
from repro.datalog.semantics import INCONSISTENT
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.engine.incremental import DeltaSession, cold_equivalent
from repro.engine.stats import STATS
from repro.rdf.parser import parse_ntriples
from repro.sparql.parser import parse_sparql
from repro.translation import decode_answers, translate_under_entailment
from repro.translation.entailment_regime import EntailmentView

import inputs
from estimate import median, ratio
from spans import Spans

#: Recorder for replay that is not measured (warm-up, ramp, recompute probes).
_NO_SPANS = Spans()


@dataclass
class Round:
    """One round (or pass) of a measured section.

    ``ops`` holds ``[op class, seconds, correct]`` records; ``wall`` is the
    time the round took (for a closed loop in this process: the sum of its
    operations, so harness work between them is left out).
    """

    ops: list = field(default_factory=list)
    wall: float = 0.0


def timed_op(spans, name, call, *args):
    """Run one measured operation; ``(result, seconds)``."""
    spans.begin_op()
    start = time.perf_counter()
    with spans.span(name):
        result = call(*args)
    seconds = time.perf_counter() - start
    spans.end_op()
    return result, seconds


def rss_bytes() -> int:
    """This process's high-water resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


ENGINE_COUNTERS = (
    ("engine.facts_added", "facts_added"),
    ("engine.triggers_fired", "triggers_fired"),
    ("engine.nulls_invented", "nulls_invented"),
    ("engine.pivots_skipped", "pivots_skipped"),
    ("engine.batch_probe_groups", "batch_probe_groups"),
    ("engine.index.compactions", "compactions"),
)


def engine_layer(counters: dict, units: int, busy_s: float) -> dict:
    """``engine.*`` per measured unit, from what the engine's counters advanced by."""
    layer = {name: counters[key] / units for name, key in ENGINE_COUNTERS}
    layer["engine.facts_per_trigger"] = ratio(
        counters["facts_added"], counters["triggers_fired"]
    )
    layer["engine.facts_per_s"] = ratio(counters["facts_added"], busy_s)
    return layer


class InProcess:
    """What the three workloads that run inside the benchmark process share."""

    #: False: set-up is timed in fresh child processes, the traced run alternates steps.
    served = False
    #: Op classes that feed ``slow_op_p50_ms`` only, not ``op_p50_ms`` / ``ops_per_s``.
    side_classes = ()
    #: Rounds a measured section is cut into; 0 means one step per round.
    rounds_per_run = 0

    def __init__(self, seed: int, smoke: bool):
        self.seed, self.smoke = seed, smoke
        self.layer = {}

    def _round(self, ops) -> Round:
        wall = sum(op[1] for op in ops if op[0] not in self.side_classes)
        return Round(ops=ops, wall=wall)

    def measure(self, seconds: float, spans) -> list:
        """Steps until ``seconds`` of operations have run; at least one per round."""
        rounds = []
        if not self.rounds_per_run:
            busy = 0.0
            while busy < seconds or not rounds:
                rounds.append(self._round(self.step(spans)))
                busy += rounds[-1].wall
            return rounds
        share = seconds / self.rounds_per_run
        for _ in range(self.rounds_per_run):
            current = Round()
            while current.wall < share or not current.ops:
                ops = self.step(spans)
                if not ops:
                    break
                current.ops += ops
                current.wall += self._round(ops).wall
            if current.ops:
                rounds.append(current)
        return rounds

    def measure_traced(self, units: int, spans) -> tuple:
        """``units`` untraced and ``units`` traced steps, alternating.

        Alternation puts both halves on the same stretch of the input, so
        their per-op times compare (``trace.overhead_share``); a fixed count
        makes the traced half's engine counters repeat exactly.
        Returns ``(reference rounds, traced rounds)``.
        """
        reference, traced = [], []
        counters = dict.fromkeys(STATS.snapshot(), 0)
        rss_before = rss_bytes()
        for index in range(2 * units):
            if index % 2 == 0:
                reference.append(self._round(self.step(spans)))
                continue
            spans.enable()
            before = STATS.snapshot()
            traced.append(self._round(self.step(spans)))
            for key, value in STATS.snapshot().items():
                counters[key] += value - before[key]
            spans.disable()
        self.fill_layer(spans, units, counters, rss_bytes() - rss_before)
        return reference, traced

    def peak_rss_mb(self) -> float:
        """This process's high-water RSS: one workload per process, so it is the workload's."""
        return rss_bytes() / 2**20

    def teardown(self) -> None:
        """Nothing outlives the process."""


# ---------------------------------------------------------------------------
# lubm-cold
# ---------------------------------------------------------------------------


def cold_route(text: str, query_text: str, spans):
    """N-Triples text + SPARQL text in, decoded answers out: the paper-literal route."""
    with spans.span("rdf.parser.parse"):
        graph = parse_ntriples(text)
    with spans.span("rdf.graph.to_database"):
        database = graph.to_database()
    with spans.span("sparql.parser.parse"):
        query = parse_sparql(query_text)
    with spans.span("translation.translate"):
        translation = translate_under_entailment(query)
    with spans.span("core.triqlite.validate"):
        triq = TriQLiteQuery(
            translation.program, translation.answer_predicate, translation.arity
        )
    with spans.span("core.triqlite.evaluate"):
        result = triq.evaluate(database)
    with spans.span("translation.answers.decode"):
        if result is INCONSISTENT:
            return INCONSISTENT, translation
        return decode_answers(result, translation.answer_variables), translation


_COLD_SPANS = (
    ("rdf.parser.parse_ms", "rdf.parser.parse"),
    ("rdf.graph.to_database_ms", "rdf.graph.to_database"),
    ("sparql.parser.parse_ms", "sparql.parser.parse"),
    ("translation.translate_ms", "translation.translate"),
    ("core.triqlite.validate_ms", "core.triqlite.validate"),
    ("core.triqlite.evaluate_ms", "core.triqlite.evaluate"),
    ("translation.answers.decode_ms", "translation.answers.decode"),
)


class LubmCold(InProcess):
    """Every query of ``lubm-mix6`` from text, one full materialisation each."""

    name = "lubm-cold"
    op_span = "lubm-cold.query"
    slow_class = "student-join"
    traced_units = 2

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self._answers = []  # (query index, answers, op record) per measured op
        self._rules = []  # rules in each translated program

    def setup(self) -> None:
        """Generate graph and text; two toy passes (cold, then warm)."""
        self.graph, self.text = inputs.lubm_text(self.seed, self.smoke)
        _, toy = inputs.lubm_text(self.seed, smoke=True)
        passes = []
        for _ in range(2):
            start = time.perf_counter()
            for _, query_text in inputs.LUBM_MIX6:
                cold_route(toy, query_text, _NO_SPANS)
            passes.append(time.perf_counter() - start)
        self.cold_extra_ms = (passes[0] - passes[1]) * 1e3

    def step(self, spans) -> list:
        """One pass: each query of the mix once, in mix order."""
        ops = []
        for index, (label, query_text) in enumerate(inputs.LUBM_MIX6):
            gc.collect()
            (answers, translation), took = timed_op(
                spans, self.op_span, cold_route, self.text, query_text, spans
            )
            ops.append([label, took, True])
            self._answers.append((index, answers, ops[-1]))
            self._rules.append(len(translation.program))
        return ops

    def fill_layer(self, spans, passes, counters, rss_grown) -> None:
        """Per-pass layer totals: the sum over the six queries."""
        layer = self.layer
        for metric, span_name in _COLD_SPANS:
            layer[metric] = spans.total_ms(span_name) / passes
        layer["rdf.parser.triples_per_s"] = ratio(
            len(self.graph) * len(inputs.LUBM_MIX6),
            layer["rdf.parser.parse_ms"] / 1e3,
        )
        layer["translation.rules_per_query"] = sum(self._rules) / len(self._rules)
        evaluate = spans.durations_ms("core.triqlite.evaluate")
        layer["core.triqlite.evaluate_max_ms"] = max(
            median(evaluate[i :: len(inputs.LUBM_MIX6)])
            for i in range(len(inputs.LUBM_MIX6))
        )
        layer.update(engine_layer(counters, passes, sum(evaluate) / 1e3))
        layer["engine.rss_bytes_per_fact"] = ratio(
            rss_grown, counters["facts_added"] / (passes * len(inputs.LUBM_MIX6))
        )
        layer["engine.plan.cold_extra_ms"] = self.cold_extra_ms

    def verify(self) -> None:
        """Answers must equal the independent materialised-view route's."""
        view = EntailmentView(self.graph)
        expected = [view.evaluate(text) for _, text in inputs.LUBM_MIX6]
        for index, answers, op in self._answers:
            op[2] = answers == expected[index]


# ---------------------------------------------------------------------------
# closure-184k
# ---------------------------------------------------------------------------


class Closure(InProcess):
    """Cold semi-naive fixpoints of reachability over a layered DAG."""

    name = "closure-184k"
    op_span = "datalog.seminaive.evaluate"
    slow_class = "fixpoint"
    traced_units = 2

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self._counts = []  # (connected pairs, op record) per fixpoint

    def setup(self) -> None:
        """Graph, database and evaluator; two toy fixpoints (cold, then warm)."""
        self.graph = inputs.closure_graph(self.seed, self.smoke)
        start = time.perf_counter()
        self.database = self.graph.to_database()
        self.to_database_ms = (time.perf_counter() - start) * 1e3
        self.evaluator = SemiNaiveEvaluator(inputs.reachability_program())
        toy = inputs.closure_graph(self.seed, smoke=True).to_database()
        passes = []
        for _ in range(2):
            start = time.perf_counter()
            self.evaluator.evaluate(toy)
            passes.append(time.perf_counter() - start)
        self.cold_extra_ms = (passes[0] - passes[1]) * 1e3

    def step(self, spans) -> list:
        """One cold fixpoint."""
        # The previous result died with the previous call's frame; collecting
        # before the clock starts keeps the cost of freeing ~184 k facts out
        # of this op.
        gc.collect()
        result, took = timed_op(
            spans, self.op_span, self.evaluator.evaluate, self.database
        )
        op = ["fixpoint", took, True]
        self._counts.append((len(result.with_predicate("connected")), op))
        return [op]

    def fill_layer(self, spans, fixpoints, counters, rss_grown) -> None:
        """Per-fixpoint layer times and counts."""
        layer = self.layer
        evaluate_ms = spans.total_ms(self.op_span)
        layer["datalog.seminaive.evaluate_ms"] = evaluate_ms / fixpoints
        layer["datalog.seminaive.stratum_ms"] = (
            spans.total_ms("seminaive.stratum") / fixpoints
        )
        layer["datalog.seminaive.rule_firings"] = (
            spans.count("seminaive.rule") / fixpoints
        )
        layer["rdf.graph.to_database_ms"] = self.to_database_ms
        layer.update(engine_layer(counters, fixpoints, evaluate_ms / 1e3))
        layer["engine.rss_bytes_per_fact"] = ratio(
            rss_grown, counters["facts_added"] / fixpoints
        )
        layer["engine.plan.cold_extra_ms"] = self.cold_extra_ms

    def verify(self) -> None:
        """The pair count must equal the plain-reachability reference."""
        reference = inputs.closure_reference_count(self.graph)
        for pairs, op in self._counts:
            op[2] = pairs == reference


# ---------------------------------------------------------------------------
# churn-social
# ---------------------------------------------------------------------------

RETRACT_PHASES = (
    ("engine.incremental.retract.overdelete_ms", "retract.overdelete"),
    ("engine.incremental.retract.degenerate_ms", "retract.degenerate"),
    ("engine.incremental.retract.tombstone_ms", "retract.tombstone"),
    ("engine.incremental.retract.rederive_ms", "retract.rederive"),
    ("engine.incremental.retract.null_gc_ms", "retract.null_gc"),
)


class ChurnSocial(InProcess):
    """Incremental push + DRed retract over a sliding social window."""

    name = "churn-social"
    op_span = "churn-social.batch"
    slow_class = "retract"
    #: The retract half of each batch is also recorded on its own.
    side_classes = ("retract",)
    rounds_per_run = 6
    traced_units = 20

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.consistent = True
        self._ops = []
        self._traced_results = []  # (push result, retract result) of traced batches

    def setup(self) -> None:
        """Generate the stream and materialise the initial window."""
        self.program = inputs.social_program()
        self._ramp = 2 if self.smoke else inputs.CHURN_RAMP_BATCHES
        self.initial, self.batches = inputs.churn_stream(
            self.seed, self.smoke, batches=self._ramp + (40 if self.smoke else 160)
        )
        start = time.perf_counter()
        self.session = DeltaSession(self.program, self.initial)
        self.init_ms = (time.perf_counter() - start) * 1e3
        self.edb = dict.fromkeys(self.initial)
        self.next_batch = 0

    def _apply(self, spans):
        """Push then retract the next batch; ``(push result, retract result, retract seconds)``."""
        inserts, deletes = self.batches[self.next_batch]
        self.next_batch += 1
        with spans.span("engine.incremental.push"):
            pushed = self.session.push(inserts)
        retract_start = time.perf_counter()
        with spans.span("engine.incremental.retract"):
            retracted = self.session.retract(deletes)
        retract_s = time.perf_counter() - retract_start
        for atom in inserts:
            self.edb[atom] = None
        for atom in deletes:
            self.edb.pop(atom, None)
        self.consistent &= pushed.consistent and retracted.consistent
        return pushed, retracted, retract_s

    def step(self, spans) -> list:
        """One ``(push, retract)`` batch; the first call replays the ramp, untimed."""
        while self._ramp:
            self._apply(_NO_SPANS)
            self._ramp -= 1
        if self.next_batch >= len(self.batches):
            return []
        (pushed, retracted, retract_s), took = timed_op(
            spans, self.op_span, self._apply, spans
        )
        if spans.enabled:
            self._traced_results.append((pushed, retracted))
        ops = [["batch", took, True], ["retract", retract_s, True]]
        self._ops += ops
        return ops

    def fill_layer(self, spans, batches, counters, rss_grown) -> None:
        """Per-batch layer times, and what DRed did with its work."""
        layer = self.layer
        results = self._traced_results
        pushes = spans.durations_ms("engine.incremental.push")
        retracts = spans.durations_ms("engine.incremental.retract")
        layer["engine.incremental.init_ms"] = self.init_ms
        layer["engine.incremental.push_p50_ms"] = median(pushes)
        layer["engine.incremental.retract_p50_ms"] = median(retracts)
        rebuilt = sum(
            (pushed.rebuilt_from is not None) + (retracted.rebuilt_from is not None)
            for pushed, retracted in results
        )
        layer["engine.incremental.rebuilt_share"] = rebuilt / (2 * batches)
        overdeleted = sum(retracted.overdeleted for _, retracted in results)
        rederived = sum(retracted.rederived for _, retracted in results)
        layer["engine.incremental.overdeleted_per_retract"] = overdeleted / batches
        layer["engine.incremental.rederived_share"] = ratio(rederived, overdeleted)
        for metric, span_name in RETRACT_PHASES:
            layer[metric] = spans.total_ms(span_name) / batches
        layer["engine.incremental.rebuild_ms"] = spans.total_ms("delta.rebuild") / batches
        layer["engine.incremental.push.stratum_ms"] = (
            spans.total_ms("push.stratum") / batches
        )
        layer["datalog.seminaive.rule_firings"] = (
            spans.count("seminaive.rule") / batches
        )
        layer.update(
            engine_layer(counters, batches, (sum(pushes) + sum(retracts)) / 1e3)
        )
        layer["engine.incremental.recompute_ratio"] = self._recompute_ratio(
            samples=2 if self.smoke else 5
        )

    def _recompute_ratio(self, samples: int) -> float:
        """Cold recompute per batch over incremental per batch, on further batches."""
        incremental, cold = [], []
        for _ in range(samples):
            if self.next_batch >= len(self.batches):
                break
            start = time.perf_counter()
            self._apply(_NO_SPANS)
            incremental.append(time.perf_counter() - start)
            start = time.perf_counter()
            cold_equivalent(self.program, list(self.edb))
            cold.append(time.perf_counter() - start)
        return ratio(median(cold), median(incremental))

    def verify(self) -> None:
        """The maintained instance must equal a cold run over the surviving EDB."""
        cold = cold_equivalent(self.program, list(self.edb))
        correct = (
            self.consistent
            and cold is not INCONSISTENT
            and self.session.instance.sorted_atoms() == cold.sorted_atoms()
        )
        self.session.close()
        # The final-state oracle covers every batch: a miss fails them all.
        for op in self._ops:
            op[2] = correct
