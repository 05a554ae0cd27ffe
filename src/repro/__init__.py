"""repro: a reproduction of "Expressive Languages for Querying the Semantic Web".

The library implements the TriQ 1.0 and TriQ-Lite 1.0 query languages of
Arenas, Gottlob and Pieris, together with every substrate they rest on: a
Datalog∃,¬s,⊥ engine (chase, semi-naive evaluation, stratification), the
guardedness/wardedness analysis, an RDF data model, the SPARQL algebra, OWL 2
QL core with its DL-Lite_R entailment, the SPARQL→Datalog translations, the
entailment-regime encodings, and a materialized-view query service.

Quickstart::

    import repro

    program = '''
        triple(?X, partOf, transportService) -> ts(?X).
        triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
        ts(?T), triple(?X, ?T, ?Y) -> connected(?X, ?Y).
        ts(?T), triple(?X, ?T, ?Z), connected(?Z, ?Y) -> connected(?X, ?Y).
    '''
    db = repro.Database([repro.parse_atom('triple(Oxford, A311, London)')])
    answers = repro.evaluate(program, "connected", db)

    # Incremental maintenance: push and retract facts, re-query.
    with repro.DeltaSession(program, db) as session:
        session.push([repro.parse_atom('triple(A311, partOf, transportService)')])
        connected = session.query("connected")

    # An OWL 2 QL entailment view over RDF triples, snapshot-isolated reads.
    with repro.MaterializedView() as view:
        view.push([("alice", "rdf:type", "Student"),
                   ("Student", "rdfs:subClassOf", "Person")])
        people = view.query("SELECT ?X WHERE { ?X rdf:type Person }")

The library takes no configuration.  See ``docs/api.md`` for the front
doors and the names removed in each breaking release.
"""

__version__ = "12.0.0"

# -- the data model ---------------------------------------------------------
from repro.datalog import (
    Atom,
    Constant,
    Constraint,
    Database,
    INCONSISTENT,
    Instance,
    Null,
    Program,
    Query,
    Rule,
    Variable,
    parse_atom,
    parse_program,
    parse_rule,
)

# -- query languages and analysis -------------------------------------------
from repro.analysis import classify_program
from repro.core import (
    TriQLiteQuery,
    TriQQuery,
    WardedEngine,
    evaluate,
    extract_proof_tree,
)

# -- streaming (imported last: builds on the datalog layer above) -----------
from repro.engine.incremental import DeltaSession, PushResult

__all__ = [
    "__version__",
    # Data model.
    "Atom",
    "Constant",
    "Constraint",
    "Database",
    "INCONSISTENT",
    "Instance",
    "Null",
    "Program",
    "Query",
    "Rule",
    "Variable",
    "parse_atom",
    "parse_program",
    "parse_rule",
    # Query languages and analysis.
    "TriQLiteQuery",
    "TriQQuery",
    "WardedEngine",
    "classify_program",
    "evaluate",
    "extract_proof_tree",
    # Streaming.
    "DeltaSession",
    "PushResult",
    # Service layer (lazy — see __getattr__).
    "MaterializedView",
    "QueryService",
]

# The service layer pulls in asyncio plumbing nobody pays for unless they
# serve; same lazy re-export pattern as repro.engine's incremental exports.
_SERVICE_EXPORTS = ("MaterializedView", "QueryService")


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from repro import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SERVICE_EXPORTS))
