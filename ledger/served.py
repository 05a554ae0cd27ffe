"""The two served workloads: ``serve-read`` and ``serve-mixed``.

The program under test is ``python -m repro.service --data <file>.nt`` in a
subprocess; this process is the load generator.  Readers are closed loops
(the next request leaves when the previous answer has been checked), the
writer of ``serve-mixed`` is an open loop on a fixed schedule whose latency
runs from each operation's due time.

The traced run cannot put spans inside the server, so it replays the head
of the same schedule in this process, through the public functions the
server's handlers call, with a span around each.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
import urllib.parse

from repro.engine.incremental import DeltaSession
from repro.owl.entailment_rules import owl2ql_core_program
from repro.rdf.parser import parse_ntriples
from repro.service.view import MaterializedView
from repro.sparql.evaluator import decode_id_mappings
from repro.sparql.parser import parse_sparql
from repro.translation.entailment_regime import EntailmentView

import inputs
from estimate import median, percentile, ratio
from inprocess import ENGINE_COUNTERS, RETRACT_PHASES, Round, engine_layer, timed_op

_BOOT_TIMEOUT_S = 120.0
_REQUEST_TIMEOUT_S = 60.0
#: A read answered 5xx, or 200 with a wrong answer, is sent again every 20 ms
#: for at most 1 s; its latency runs from the first send to the first correct 200.
_RETRY_EVERY_S = 0.020
_RETRY_FOR_S = 1.0
_WRITES_PER_S = 4
#: Status recorded for a request that died on the client side (reset, timeout).
_CLIENT_ERROR = 599


class Server:
    """The query service in a subprocess, on a port the kernel picked."""

    def __init__(self, data_path: str, workdir: str, src: str):
        self.data_path, self._workdir = data_path, workdir
        self._env = dict(os.environ, PYTHONPATH=src)
        self.process = None
        self.port = None

    def boot(self) -> float:
        """Start the server; seconds from spawn to the first healthy answer."""
        log_path = os.path.join(self._workdir, "server.log")
        start = time.perf_counter()
        with open(log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--data", self.data_path,
                 "--port", "0"],
                env=self._env, stdout=log, stderr=log, cwd=self._workdir,
            )
        deadline = start + _BOOT_TIMEOUT_S
        while self.port is None:
            if self.process.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                with open(log_path, encoding="utf-8") as log:
                    raise RuntimeError(f"server did not come up:\n{log.read()}")
            with open(log_path, encoding="utf-8") as log:
                for line in log:
                    if "listening on" in line:
                        self.port = int(line.rsplit(":", 1)[1])
            if self.port is None:
                time.sleep(0.005)
        client = Client(self.port)
        try:
            while client.call("GET", "/healthz")[0] != 200:
                if time.perf_counter() > deadline:
                    self.stop()
                    raise RuntimeError("server bound its port but never got healthy")
                time.sleep(0.005)
        finally:
            client.close()
        return time.perf_counter() - start

    def vm_hwm_mb(self) -> float:
        """The server's high-water resident set size, from ``/proc``."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Terminate the server and wait until it has gone."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None
        self.port = None


class Client:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int):
        self._port = port
        self._connection = None

    def call(self, method: str, path: str, body: bytes = None):
        """``(status, body)``; a client-side failure reads as status 599."""
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=_REQUEST_TIMEOUT_S
            )
        try:
            self._connection.request(method, path, body=body)
            response = self._connection.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError):
            self.close()
            return _CLIENT_ERROR, b""

    def close(self) -> None:
        """Drop the connection (the next call reconnects)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def scrape(client: Client) -> dict:
    """``GET /metrics`` as ``{series: value}``."""
    status, body = client.call("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    series = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    return series


def json_rows(mappings) -> frozenset:
    """Decoded mappings in the shape of the service's JSON rows, as a set."""
    return frozenset(
        frozenset((variable.name, constant.value) for variable, constant in m.items())
        for m in mappings
    )


class Serve:
    """``serve-read`` (two readers) or ``serve-mixed`` (one reader, one writer)."""

    served = True
    rounds_per_run = 6
    op_span = "serve.read"
    #: Writes feed ``slow_op_p50_ms`` only; ``op_p50_ms`` and ``ops_per_s`` are reads.
    side_classes = ("write",)

    def __init__(self, seed: int, smoke: bool, mixed: bool, workdir: str, src: str):
        self.seed, self.smoke, self.mixed = seed, smoke, mixed
        self.name = "serve-mixed" if mixed else "serve-read"
        self.slow_class = "write" if mixed else "grad-optional"
        self.readers = 1 if mixed else 2
        self.layer = {}
        self.server = Server(os.path.join(workdir, "graph.nt"), workdir, src)
        self._writes_done = 0
        self._reads = []  # (requests sent, 5xx answers, body bytes, wrong 200s) per read
        self._late = []  # how late each write left, seconds

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Generate the graph, write it as N-Triples, boot the server."""
        self.graph, self.text = inputs.lubm_text(self.seed, self.smoke)
        with open(self.server.data_path, "w", encoding="utf-8") as handle:
            handle.write(self.text)
        self.boot_s = self.server.boot()

    def teardown(self) -> None:
        """Stop the server (every exit path of the run calls this)."""
        self.server.stop()

    # -- the oracle ----------------------------------------------------------

    def _expected(self) -> list:
        """Base-graph answers per query, by the library's own view route."""
        view = EntailmentView(self.graph)
        return [json_rows(view.evaluate(text)) for _, text in inputs.LUBM_MIX6]

    def _read_correct(self, status: int, body: bytes, expected: frozenset) -> bool:
        if status != 200:
            return False
        document = json.loads(body)
        rows = document["answers"]
        got = {frozenset(row.items()) for row in rows}
        if not document["consistent"] or len(got) != len(rows):
            return False
        if document["cardinality"] != len(rows) or not expected <= got:
            return False
        extra = got - expected
        if extra and not self.mixed:
            return False
        return all(
            any(str(value).startswith("ldg") for _, value in row) for row in extra
        )

    # -- the load generator --------------------------------------------------

    def _reader(self, client, schedule, paths, expected, stop_at, ops, errors):
        try:
            while time.perf_counter() < stop_at:
                index = next(schedule)
                sends = answered_5xx = wrong_200 = 0
                start = time.perf_counter()
                while True:
                    status, body = client.call("GET", paths[index])
                    sends += 1
                    correct = self._read_correct(status, body, expected[index])
                    if correct:
                        break
                    wrong_200 += status == 200
                    answered_5xx += 500 <= status < _CLIENT_ERROR
                    if time.perf_counter() - start >= _RETRY_FOR_S:
                        break
                    time.sleep(_RETRY_EVERY_S)
                took = time.perf_counter() - start
                ops.append([inputs.LUBM_MIX6[index][0], took, correct])
                self._reads.append((sends, answered_5xx, len(body), wrong_200))
        except Exception as error:  # noqa: BLE001 - re-raised by measure() after join
            errors.append(error)

    def _writer(self, client, start_at, count, ops, errors):
        try:
            for k in range(count):
                due = start_at + k / _WRITES_PER_S
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self._late.append(max(0.0, time.perf_counter() - due))
                push = self._writes_done % 2 == 0
                batch = inputs.write_batch(self._writes_done // 2)
                body = json.dumps({"triples": batch}).encode()
                status, answer = client.call(
                    "POST", "/push" if push else "/retract", body
                )
                took = time.perf_counter() - due
                correct = False
                if status == 200:
                    document = json.loads(answer)
                    changed = document["new_edb" if push else "removed_edb"]
                    correct = document["consistent"] and changed == len(batch)
                ops.append(["write", took, correct])
                self._writes_done += 1
        except Exception as error:  # noqa: BLE001 - re-raised by measure() after join
            errors.append(error)

    def measure(self, seconds: float, spans) -> list:
        """Three rounds of load over HTTP; scrapes bracket them in the traced run."""
        expected = self._expected()
        paths = [
            "/query?q=" + urllib.parse.quote(text) for _, text in inputs.LUBM_MIX6
        ]
        clients = [Client(self.server.port) for _ in range(self.readers + 1)]
        control = clients[-1]
        schedules = [inputs.read_schedule(self.seed, k) for k in range(self.readers)]
        # One untimed pass over the mix (and one write pair) first: the
        # server's first requests pay lazy imports and cold caches.
        for path in paths:
            control.call("GET", path)
        if self.mixed:
            warm_errors = []
            self._writer(control, time.perf_counter(), 2, [], warm_errors)
            if warm_errors:
                raise warm_errors[0]
        before = scrape(control) if spans.enabled else None
        cpu_before, wall_before = time.process_time(), time.perf_counter()
        self._reads.clear()
        self._late.clear()
        rounds = []
        length = seconds / self.rounds_per_run
        try:
            for _ in range(self.rounds_per_run):
                ops, errors = [], []
                start = time.perf_counter()
                threads = [
                    threading.Thread(
                        target=self._reader,
                        args=(clients[k], schedules[k], paths, expected,
                              start + length, ops, errors),
                    )
                    for k in range(self.readers)
                ]
                if self.mixed:
                    # An even count per round: every pushed batch is retracted
                    # again, so the EDB is back at the base graph between rounds.
                    writes = max(2, int(length * _WRITES_PER_S) // 2 * 2)
                    threads.append(
                        threading.Thread(
                            target=self._writer,
                            args=(control, start, writes, ops, errors),
                        )
                    )
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                if errors:
                    raise errors[0]
                rounds.append(Round(ops=ops, wall=time.perf_counter() - start))
            busy = time.perf_counter() - wall_before
            cpu = time.process_time() - cpu_before
            if spans.enabled:
                self._fill_http_layer(
                    rounds, before, scrape(control), control, ratio(cpu, busy)
                )
            status, body = control.call("GET", "/stats")
            self.edb_restored = (
                status == 200 and json.loads(body)["edb_facts"] == len(self.graph)
            )
        finally:
            for client in clients:
                client.close()
        return rounds

    def _fill_http_layer(self, rounds, before, after, control, client_cpu_share):
        """What the server's own instruments and the generator saw during the load."""

        def grew(series):
            return after.get(series, 0.0) - before.get(series, 0.0)

        def mean_ms(histogram, labels):
            return 1e3 * ratio(
                grew(f"{histogram}_sum{labels}"), grew(f"{histogram}_count{labels}")
            )

        layer = self.layer
        reads = [op for r in rounds for op in r.ops if op[0] != "write"]
        writes = [op for r in rounds for op in r.ops if op[0] == "write"]
        layer["service.view.query_mean_ms"] = mean_ms(
            "repro_query_seconds", '{mode="U"}'
        )
        layer["service.view.push_mean_ms"] = mean_ms(
            "repro_write_seconds", '{op="push"}'
        )
        layer["service.view.retract_mean_ms"] = mean_ms(
            "repro_write_seconds", '{op="retract"}'
        )
        layer["service.view.slow_queries"] = grew("repro_slow_queries_total")
        layer["service.view.tombstone_ratio_max"] = max(
            (v for k, v in after.items()
             if k.startswith("repro_predicate_tombstone_ratio")),
            default=0.0,
        )
        client_mean_ms = 1e3 * ratio(sum(op[1] for op in reads), len(reads))
        layer["service.http.overhead_mean_ms"] = (
            client_mean_ms - layer["service.view.query_mean_ms"]
        )
        layer["service.http.bytes_out_per_read"] = ratio(
            sum(r[2] for r in self._reads), len(self._reads)
        )
        layer["service.http.boot_s"] = self.boot_s
        layer["service.http.read_5xx_share"] = ratio(
            sum(r[1] for r in self._reads), sum(r[0] for r in self._reads)
        )
        layer["service.http.read_wrong_200_share"] = ratio(
            sum(r[3] for r in self._reads), sum(r[0] for r in self._reads)
        )
        layer["service.http.read_retry_share"] = ratio(
            sum(1 for r in self._reads if r[0] > 1), len(self._reads)
        )
        read_ms = [op[1] * 1e3 for op in reads]
        write_ms = [op[1] * 1e3 for op in writes]
        layer["loadgen.read_p95_ms"] = percentile(read_ms, 0.95)
        layer["loadgen.write_p50_ms"] = median(write_ms)
        layer["loadgen.write_max_ms"] = max(write_ms, default=0.0)
        layer["loadgen.write_late_p95_ms"] = percentile(
            [s * 1e3 for s in self._late], 0.95
        )
        layer["loadgen.client_cpu_share"] = client_cpu_share
        counters = {
            key: grew(f"repro_engine_{key}_total") for _, key in ENGINE_COUNTERS
        }
        units = max(1, len(writes))
        busy_s = (
            grew('repro_write_seconds_sum{op="push"}')
            + grew('repro_write_seconds_sum{op="retract"}')
        )
        layer.update(engine_layer(counters, units, busy_s))

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM``."""
        return self.server.vm_hwm_mb()

    def verify(self) -> None:
        """Responses were checked as they arrived; the EDB must be back at its base size."""
        if not self.edb_restored:
            raise RuntimeError("serve: the EDB did not return to the base graph's size")

    # -- the traced, in-process replay ---------------------------------------

    def replay(self, spans, reads: int, write_pairs: int) -> None:
        """The head of the schedule through the handlers' public calls, with spans."""
        with spans.span("rdf.parser.parse"):
            graph = parse_ntriples(self.text)
        spans.begin_op()
        with spans.span("service.view.materialise"):
            view = MaterializedView(graph)
        spans.end_op()
        twin = DeltaSession(owl2ql_core_program(), graph.to_database())
        schedule = inputs.read_schedule(self.seed, 0)
        writes = 2 * write_pairs if self.mixed else 0
        write_every = max(1, reads // writes) if writes else 0
        answers = written = 0
        try:
            for i in range(reads):
                text = inputs.LUBM_MIX6[next(schedule)][1]
                rows, _ = timed_op(spans, self.op_span, _replay_read, view, text, spans)
                answers += rows
                if writes and i % write_every == write_every - 1 and written < writes:
                    batch = [tuple(t) for t in inputs.write_batch(written // 2)]
                    verb = "push" if written % 2 == 0 else "retract"
                    timed_op(spans, f"service.view.{verb}", getattr(view, verb), batch)
                    # The same write on a bare session, outside any op so its
                    # engine events are dropped: the difference of the two
                    # medians is what publication costs.
                    with spans.span(f"twin.{verb}"):
                        getattr(twin, verb)(batch)
                    written += 1
        finally:
            view.close()
            twin.close()
        self._fill_replay_layer(spans, reads, answers, written)

    def _fill_replay_layer(self, spans, reads, answers, written):
        # Every span of a served run comes from the replay: the load over
        # HTTP records none.
        durations = spans.durations_ms

        def per_read(span_name):
            return spans.total_ms(span_name) / reads

        layer = self.layer
        parse_ms = spans.total_ms("rdf.parser.parse")
        layer["rdf.parser.parse_ms"] = parse_ms
        layer["rdf.parser.triples_per_s"] = ratio(len(self.graph), parse_ms / 1e3)
        layer["datalog.chase.run_ms"] = spans.total_ms("chase.run")
        layer["datalog.chase.rounds"] = float(spans.count("chase.round"))
        layer["sparql.parser.parse_ms"] = per_read("sparql.parser.parse")
        layer["service.view.pin_ms"] = per_read("service.view.pin")
        layer["sparql.evaluator.evaluate_ids_ms"] = per_read(
            "sparql.evaluator.evaluate_ids"
        )
        layer["sparql.evaluator.decode_ms"] = per_read("sparql.evaluator.decode")
        layer["sparql.evaluator.answers_per_query"] = answers / reads
        layer["service.http.encode_ms"] = per_read("service.http.encode")
        if not written:
            return
        pushes = durations("service.view.push")
        retracts = durations("service.view.retract")
        layer["service.view.publish_ms"] = median(pushes) - median(
            durations("twin.push")
        )
        layer["engine.incremental.push_p50_ms"] = median(durations("twin.push"))
        layer["engine.incremental.retract_p50_ms"] = median(durations("twin.retract"))
        for metric, span_name in RETRACT_PHASES:
            layer[metric] = ratio(sum(durations(span_name)), len(retracts))
        layer["engine.incremental.rebuild_ms"] = ratio(
            sum(durations("delta.rebuild")), written
        )
        layer["engine.incremental.push.stratum_ms"] = ratio(
            sum(durations("push.stratum")), len(pushes)
        )


def _replay_read(view, text: str, spans) -> int:
    """One read as ``QueryService._query`` performs it; the number of rows."""
    with spans.span("sparql.parser.parse"):
        query = parse_sparql(text)
    with spans.span("service.view.pin"):
        pinned = view.read()
        snapshot = pinned.__enter__()
    try:
        with spans.span("sparql.evaluator.evaluate_ids"):
            ids = snapshot.query_ids(query, "U")
        with spans.span("sparql.evaluator.decode"):
            mappings = decode_id_mappings(ids)
    finally:
        pinned.__exit__(None, None, None)
    with spans.span("service.http.encode"):
        # The ledger's copy of the wire encoding (sorted JSON rows); the
        # server's own is private to repro.service.http.
        rows = [
            {variable.name: constant.value for variable, constant in m.items()}
            for m in mappings
        ]
        rows.sort(key=lambda row: sorted(row.items()))
        json.dumps(
            {"answers": rows, "cardinality": len(rows), "consistent": True,
             "mode": "U", "watermark": snapshot.watermark, "epoch": snapshot.epoch},
            separators=(",", ":"),
        ).encode()
    return len(rows)
