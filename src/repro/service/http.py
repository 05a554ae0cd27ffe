"""A stdlib-``asyncio`` HTTP front end for the materialized query service.

No web framework — the container has none, and the protocol surface is seven
endpoints over HTTP/1.1 with keep-alive (six JSON, one Prometheus text):

========  ==================  =================================================
method    path                behaviour
========  ==================  =================================================
GET       ``/healthz``        liveness + published watermark/epoch
GET       ``/stats``          :meth:`MaterializedView.stats` counters
GET       ``/metrics``        Prometheus text exposition (query latency
                              histograms, engine counters, index health)
GET       ``/query``          ``?q=<SPARQL>&mode=U|All`` → sorted answer rows
POST      ``/push``           body ``{"triples": [[s, p, o], ...]}`` → push
                              summary + new watermark
POST      ``/retract``        body ``{"triples": [[s, p, o], ...]}`` → DRed
                              deletion summary (over-deleted / re-derived /
                              nulls collected) + new watermark
POST      ``/rematerialize``  epoch reset (null-ID reclamation) → new epoch
========  ==================  =================================================

Threading model: the asyncio loop owns the sockets and parses requests.
Queries run on a small reader thread pool and writer operations (push,
retract, rematerialize) on a dedicated single-thread executor — the view's writer
lock makes the single writer a protocol invariant rather than a hope, and
readers interleave with the writer under snapshot isolation: every query
response carries the ``watermark`` (insertion-ordinal high-water mark) and
``epoch`` its answers were computed against.

Query answers are decoded only at this serialization boundary; everything
upstream of :func:`_serialize_answers` operates on interned integer IDs.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.datalog.semantics import INCONSISTENT
from repro.service.view import MaterializedView
from repro.sparql.parser import SPARQLParseError, parse_sparql
from repro.translation.entailment_regime import ACTIVE_DOMAIN_MODE, ALL_MODE

logger = logging.getLogger(__name__)

_MAX_BODY = 32 * 1024 * 1024
_MAX_HEADER = 64 * 1024


class HTTPError(Exception):
    """An error that maps onto an HTTP status line."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _serialize_answers(result) -> Tuple[bool, list]:
    """Decoded mappings → (consistent, deterministically sorted JSON rows)."""
    if result is INCONSISTENT:
        return False, []
    rows = [
        {variable.name: constant.value for variable, constant in mapping.items()}
        for mapping in result
    ]
    rows.sort(key=lambda row: sorted(row.items()))
    return True, rows


class QueryService:
    """The HTTP service: one :class:`MaterializedView`, many connections.

    Construct with an initial graph (or nothing), then either
    :meth:`run_forever` (blocking entry point used by ``python -m
    repro.service``) or ``await start()`` / ``await stop()`` from an
    existing event loop (used by the end-to-end tests).
    """

    def __init__(
        self,
        graph=None,
        host: str = "127.0.0.1",
        port: int = 0,
        reader_threads: int = 4,
    ):
        self.view = MaterializedView(graph)
        self.host = host
        self.port = port
        self._readers = ThreadPoolExecutor(
            max_workers=reader_threads, thread_name_prefix="repro-read"
        )
        self._writer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-write"
        )
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (resolves ``self.port`` when it was 0)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("query service listening on %s:%d", self.host, self.port)

    async def stop(self) -> None:
        """Close the socket, drain executors, release the view's engines."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._readers.shutdown(wait=True)
        self._writer.shutdown(wait=True)
        self.view.close()

    def run_forever(self) -> None:
        """Blocking entry point: serve until interrupted."""
        asyncio.run(self._serve_until_cancelled())

    async def _serve_until_cancelled(self) -> None:
        await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except HTTPError as exc:
                    # The stream position is unknown after a malformed
                    # request: answer it, then drop the connection.
                    self._write_response(
                        writer, exc.status, {"error": exc.message}, keep_alive=False
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                try:
                    status, payload = await self._dispatch(method, target, body)
                except HTTPError as exc:
                    status, payload = exc.status, {"error": exc.message}
                except Exception:  # noqa: BLE001 - a handler bug must not kill the server
                    logger.exception("unhandled error serving %s %s", method, target)
                    status, payload = 500, {"error": "internal server error"}
                self._write_response(writer, status, payload, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader):
        """Parse one HTTP/1.1 request; ``None`` on clean EOF between requests.

        A malformed request raises :class:`HTTPError`: 400 for a bad request
        line or ``Content-Length``, 413 for a body over ``_MAX_BODY``, 431
        for a header section over ``_MAX_HEADER``.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        except asyncio.LimitOverrunError:
            raise HTTPError(431, "request header section too large") from None
        if len(head) > _MAX_HEADER:
            raise HTTPError(431, "request header section too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise HTTPError(400, f"malformed request line {lines[0]!r}") from None
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise HTTPError(400, f"malformed Content-Length {raw_length!r}")
        length = int(raw_length)
        if length > _MAX_BODY:
            raise HTTPError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    def _write_response(writer, status: int, payload, keep_alive: bool) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 409: "Conflict",
                  413: "Payload Too Large", 431: "Request Header Fields Too Large",
                  500: "Internal Server Error"}.get(status, "OK")
        if isinstance(payload, str):
            # Prometheus text exposition (GET /metrics); everything else
            # on the protocol surface is JSON.
            content_type = "text/plain; version=0.0.4; charset=utf-8"
            body = payload.encode()
        else:
            content_type = "application/json"
            body = json.dumps(payload, separators=(",", ":")).encode()
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n".encode() + body
        )

    # -- routing -------------------------------------------------------------

    async def _dispatch(self, method: str, target: str, body: bytes):
        parts = urlsplit(target)
        path, query = parts.path.rstrip("/") or "/", parse_qs(parts.query)
        if path == "/healthz" and method == "GET":
            return 200, self._healthz()
        if path == "/stats" and method == "GET":
            return 200, self.view.stats()
        if path == "/metrics" and method == "GET":
            return 200, await self._metrics()
        if path == "/query" and method == "GET":
            return 200, await self._query(query)
        if path == "/push" and method == "POST":
            return 200, await self._push(body)
        if path == "/retract" and method == "POST":
            return 200, await self._retract(body)
        if path == "/rematerialize" and method == "POST":
            return 200, await self._rematerialize()
        if path in ("/healthz", "/stats", "/metrics", "/query", "/push",
                    "/retract", "/rematerialize"):
            raise HTTPError(405, f"{method} not allowed on {path}")
        raise HTTPError(404, f"no such endpoint {path}")

    # -- handlers ------------------------------------------------------------

    def _healthz(self) -> dict:
        snapshot = self.view.current
        return {
            "status": "ok",
            "watermark": snapshot.watermark,
            "epoch": snapshot.epoch,
            "consistent": snapshot.consistent,
        }

    async def _metrics(self) -> str:
        """Render the Prometheus exposition on a reader thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._readers, self.view.metrics_text)

    async def _query(self, params: dict) -> dict:
        texts = params.get("q")
        if not texts:
            raise HTTPError(400, "missing query parameter 'q'")
        mode = params.get("mode", [ACTIVE_DOMAIN_MODE])[0]
        if mode not in (ACTIVE_DOMAIN_MODE, ALL_MODE):
            raise HTTPError(400, f"mode must be 'U' or 'All', got {mode!r}")
        try:
            query = parse_sparql(texts[0])
        except SPARQLParseError as exc:
            raise HTTPError(400, f"SPARQL parse error: {exc}") from None
        loop = asyncio.get_running_loop()

        def evaluate():
            start = time.perf_counter()
            with self.view.read() as snapshot:
                result = snapshot.query(query, mode)
            self.view.record_query(
                mode, time.perf_counter() - start, texts[0], snapshot
            )
            return snapshot, result

        snapshot, result = await loop.run_in_executor(self._readers, evaluate)
        consistent, rows = _serialize_answers(result)
        return {
            "answers": rows,
            "cardinality": len(rows),
            "consistent": consistent,
            "mode": mode,
            "watermark": snapshot.watermark,
            "epoch": snapshot.epoch,
        }

    @staticmethod
    def _parse_triples(body: bytes, verb: str) -> list:
        try:
            document = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise HTTPError(400, f"{verb} body is not valid JSON: {exc}") from None
        triples = document.get("triples")
        if not isinstance(triples, list):
            raise HTTPError(
                400, f"{verb} body must be {{'triples': [[s, p, o], ...]}}"
            )
        facts = []
        for entry in triples:
            if not (isinstance(entry, list) and len(entry) == 3
                    and all(isinstance(part, str) for part in entry)):
                raise HTTPError(400, f"not an [s, p, o] string triple: {entry!r}")
            facts.append(tuple(entry))
        return facts

    async def _push(self, body: bytes) -> dict:
        facts = self._parse_triples(body, "push")
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(self._writer, self.view.push, facts)
        return {
            "batch_size": result.batch_size,
            "new_edb": result.new_edb,
            "derived": result.derived,
            "rebuilt_from": result.rebuilt_from,
            "rounds": result.rounds,
            "consistent": result.consistent,
            "watermark": self.view.watermark,
            "epoch": self.view.epoch,
        }

    async def _retract(self, body: bytes) -> dict:
        facts = self._parse_triples(body, "retract")
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(self._writer, self.view.retract, facts)
        return {
            "batch_size": result.batch_size,
            "removed_edb": result.removed_edb,
            "overdeleted": result.overdeleted,
            "rederived": result.rederived,
            "nulls_collected": result.nulls_collected,
            "rebuilt_from": result.rebuilt_from,
            "rounds": result.rounds,
            "consistent": result.consistent,
            "watermark": self.view.watermark,
            "epoch": self.view.epoch,
        }

    async def _rematerialize(self) -> dict:
        loop = asyncio.get_running_loop()
        epoch = await loop.run_in_executor(self._writer, self.view.rematerialize)
        return {
            "epoch": epoch,
            "watermark": self.view.watermark,
            "facts": len(self.view),
        }
