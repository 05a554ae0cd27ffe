"""The materialized-view query service.

Splits the long-lived-server story into two layers:

* :mod:`repro.service.view` — :class:`MaterializedView`, the storage layer:
  one core materialization driven by a single-writer
  :class:`~repro.engine.incremental.DeltaSession`, read through immutable
  published :class:`ViewSnapshot` objects (snapshot-isolated against the
  append-only predicate index), with :meth:`MaterializedView.rematerialize`
  as the term-table epoch valve.
* :mod:`repro.service.http` — :class:`QueryService`, a stdlib-``asyncio``
  HTTP/1.1 front end (``/query``, ``/push``, ``/rematerialize``, ``/stats``,
  ``/healthz``).

``python -m repro.service [--host H] [--port P] [--data FILE]`` boots a
server.  Programmatically::

    import repro

    with repro.MaterializedView(graph) as view:       # in-process, no HTTP
        view.push([("alice", "rdf:type", "Student")])
        people = view.query("SELECT ?X WHERE { ?X rdf:type Person }")

    repro.QueryService(graph, port=8377).run_forever()  # the HTTP server
"""

from repro.service.http import QueryService
from repro.service.view import MaterializedView, StaleSnapshotError, ViewSnapshot

__all__ = [
    "MaterializedView",
    "QueryService",
    "StaleSnapshotError",
    "ViewSnapshot",
]
