"""End-to-end tests for the asyncio HTTP query service.

A real server is bound to an ephemeral port and driven over real sockets
with ``urllib``: queries, a delta push, an epoch reset, and every error
path.  The semantic check is differential — after the pushes, every HTTP
answer set must equal a cold recompute
(:func:`evaluate_under_entailment` over the accumulated graph).
"""

import asyncio
import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.service import QueryService
from repro.sparql.parser import parse_sparql
from repro.translation.entailment_regime import evaluate_under_entailment
from repro.workloads.ontologies import university_graph

QUERY_TEXTS = (
    "SELECT ?X WHERE { ?X rdf:type Person }",
    "SELECT ?X WHERE { ?X rdf:type Student }",
    "SELECT ?X WHERE { ?X worksFor _:B }",
    "SELECT ?X ?Y WHERE { ?X takesCourse ?Y }",
)

PUSHES = (
    [["maria", "rdf:type", "Student"], ["maria", "takesCourse", "course_0_0"]],
    [["noel", "rdf:type", "Professor"]],
)


class ServiceClient:
    """A tiny blocking HTTP client against a server run on a daemon thread."""

    def __init__(self, graph):
        self.service = QueryService(graph, port=0, reader_threads=2)
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.service.start())
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        started.wait(timeout=30)
        self.base = f"http://127.0.0.1:{self.service.port}"

    def get(self, path):
        with urllib.request.urlopen(self.base + path, timeout=60) as response:
            return json.loads(response.read())

    def post(self, path, document):
        request = urllib.request.Request(
            self.base + path, data=json.dumps(document).encode(), method="POST"
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read())

    def query(self, text, mode="U"):
        return self.get(f"/query?q={urllib.parse.quote(text)}&mode={mode}")

    def close(self):
        asyncio.run_coroutine_threadsafe(self.service.stop(), self._loop).result(30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()


@pytest.fixture(scope="module")
def client():
    graph = university_graph(n_departments=1, students_per_department=3)
    service_client = ServiceClient(graph)
    service_client.graph = graph
    yield service_client
    service_client.close()


def oracle_rows(query_text, graph, mode):
    """The translated-engine answers, serialized the way the service does."""
    answers = evaluate_under_entailment(parse_sparql(query_text), graph, mode)
    rows = [
        {variable.name: constant.value for variable, constant in mapping.items()}
        for mapping in answers
    ]
    rows.sort(key=lambda row: sorted(row.items()))
    return rows


class TestEndToEnd:
    def test_healthz(self, client):
        health = client.get("/healthz")
        assert health["status"] == "ok"
        assert health["consistent"] is True
        assert health["watermark"] > 0

    def test_02_initial_answers_match_oracle(self, client):
        for text in QUERY_TEXTS:
            for mode in ("U", "All"):
                response = client.query(text, mode)
                assert response["answers"] == oracle_rows(
                    text, client.graph, mode
                ), (text, mode)
                assert response["cardinality"] == len(response["answers"])

    def test_03_pushes_then_answers_match_cold_recompute(self, client):
        watermark = client.get("/healthz")["watermark"]
        accumulated = client.graph.copy()
        for batch in PUSHES:
            response = client.post("/push", {"triples": batch})
            assert response["consistent"] is True
            assert response["watermark"] > watermark
            watermark = response["watermark"]
            accumulated.add_all(tuple(entry) for entry in batch)
        for text in QUERY_TEXTS:
            for mode in ("U", "All"):
                response = client.query(text, mode)
                assert response["answers"] == oracle_rows(
                    text, accumulated, mode
                ), (text, mode)
                assert response["watermark"] == watermark
        client.accumulated = accumulated

    def test_03b_retract_then_answers_match_cold_recompute(self, client):
        accumulated = client.accumulated
        batch = PUSHES[0]
        response = client.post("/retract", {"triples": batch})
        assert response["removed_edb"] == len(batch)
        assert response["overdeleted"] >= len(batch)
        for entry in batch:
            accumulated.discard(tuple(entry))
        for text in QUERY_TEXTS:
            for mode in ("U", "All"):
                answer = client.query(text, mode)
                assert answer["answers"] == oracle_rows(
                    text, accumulated, mode
                ), (text, mode)
        # Push the batch back so the later ordered tests see the full state.
        client.post("/push", {"triples": batch})
        for entry in batch:
            accumulated.add(tuple(entry))

    def test_04_rematerialize_preserves_answers(self, client):
        before = {text: client.query(text)["answers"] for text in QUERY_TEXTS}
        epoch = client.get("/healthz")["epoch"]
        response = client.post("/rematerialize", {})
        assert response["epoch"] == epoch + 1
        for text in QUERY_TEXTS:
            after = client.query(text)
            assert after["answers"] == before[text]
            assert after["epoch"] == epoch + 1

    def test_05_stats_counts_traffic(self, client):
        stats = client.get("/stats")
        # The push batches, plus the re-push at the end of the retract test.
        assert stats["pushes"] == len(PUSHES) + 1
        assert stats["retractions"] == 1
        assert stats["queries_served"] > 0
        assert stats["maintenance"]["term_table"]["constants"] > 0
        assert stats["engine"]["facts_added"] > 0

    def test_keep_alive_reuses_connection(self, client):
        # urllib opens a fresh connection per call; exercise keep-alive
        # explicitly with one raw socket carrying two requests.
        import socket

        with socket.create_connection(("127.0.0.1", client.service.port)) as sock:
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                data = b""
                while b"\r\n\r\n" not in data:
                    data += sock.recv(65536)
                head, _, rest = data.partition(b"\r\n\r\n")
                length = int(
                    [l for l in head.split(b"\r\n") if l.lower().startswith(b"content-length")][0]
                    .split(b":")[1]
                )
                while len(rest) < length:
                    rest += sock.recv(65536)
                assert json.loads(rest[:length])["status"] == "ok"


class TestErrorPaths:
    def _expect(self, client, status, call):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call()
        assert excinfo.value.status == status
        return json.loads(excinfo.value.read())

    def test_missing_query(self, client):
        body = self._expect(client, 400, lambda: client.get("/query"))
        assert "missing query" in body["error"]

    def test_bad_sparql(self, client):
        body = self._expect(client, 400, lambda: client.query("NOT SPARQL"))
        assert "parse error" in body["error"]

    def test_bad_mode(self, client):
        quoted = urllib.parse.quote(QUERY_TEXTS[0])
        body = self._expect(
            client, 400, lambda: client.get(f"/query?q={quoted}&mode=Z")
        )
        assert "mode" in body["error"]

    def test_unknown_endpoint(self, client):
        self._expect(client, 404, lambda: client.get("/missing"))

    def test_method_not_allowed(self, client):
        self._expect(client, 405, lambda: client.post("/query", {}))

    def test_malformed_push_body(self, client):
        body = self._expect(
            client, 400, lambda: client.post("/push", {"triples": [["just", "two"]]})
        )
        assert "triple" in body["error"]

    def test_push_not_json(self, client):
        def call():
            request = urllib.request.Request(
                client.base + "/push", data=b"not json", method="POST"
            )
            with urllib.request.urlopen(request, timeout=30):
                pass

        body = self._expect(client, 400, call)
        assert "JSON" in body["error"]

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"POST /push HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (b"POST /push HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"POST /push HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n", 413),
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431),
        ],
        ids=["request-line", "length-abc", "length-negative", "length-1tb", "header-70kb"],
    )
    def test_malformed_request_gets_its_status_then_close(
        self, client, request_bytes, status
    ):
        # Raw sockets: urllib cannot send these.  The server answers with
        # the documented status and closes; the service keeps serving.
        import socket

        watermark = client.get("/healthz")["watermark"]
        with socket.create_connection(
            ("127.0.0.1", client.service.port), timeout=30
        ) as sock:
            sock.sendall(request_bytes)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].startswith(f"HTTP/1.1 {status} ".encode())
        assert b"connection: close" in head.lower()
        assert "error" in json.loads(body)
        health = client.get("/healthz")
        assert health["status"] == "ok"
        assert health["watermark"] == watermark
