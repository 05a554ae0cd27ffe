"""repro: a reproduction of "Expressive Languages for Querying the Semantic Web".

The library implements the TriQ 1.0 and TriQ-Lite 1.0 query languages of
Arenas, Gottlob and Pieris, together with every substrate they rest on: a
Datalog∃,¬s,⊥ engine (chase, semi-naive evaluation, stratification), the
guardedness/wardedness analysis, an RDF data model, the SPARQL algebra, OWL 2
QL core with its DL-Lite_R entailment, the SPARQL→Datalog translations, the
entailment-regime encodings, and a materialized-view query service.

Quickstart::

    import repro

    engine = repro.Engine(repro.EngineConfig(mode="batch"))
    program = '''
        triple(?X, partOf, transportService) -> ts(?X).
        triple(?X, partOf, ?Y), ts(?Y) -> ts(?X).
        ts(?T), triple(?X, ?T, ?Y) -> connected(?X, ?Y).
        ts(?T), triple(?X, ?T, ?Z), connected(?Z, ?Y) -> connected(?X, ?Y).
    '''
    db = repro.Database([repro.parse_atom('triple(Oxford, A311, London)')])
    answers = engine.evaluate(program, "connected", db)

Configuration is programmatic (:class:`Engine` / :class:`EngineConfig`); the
``REPRO_ENGINE_MODE`` environment variable remains supported as a lazy
fallback, read at first use.  See ``docs/api.md`` for the facade reference
and the deprecation table.
"""

__version__ = "3.0.0"

# -- the facade (start here) ------------------------------------------------
from repro.api import Engine, EngineConfig, configure

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
    # The facade — the supported entry points for new code.
    "Engine",
    "EngineConfig",
    "configure",
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
    # Deprecated shim (prefer Engine / EngineConfig).
    "set_execution_mode",
]

# The service layer pulls in asyncio plumbing nobody pays for unless they
# serve; same lazy re-export pattern as repro.engine's incremental exports.
_SERVICE_EXPORTS = ("MaterializedView", "QueryService")

# Legacy module-level configuration entry point, kept as a thin shim over
# the same state the facade writes.  New code should use Engine/EngineConfig
# (or repro.configure); it delegates unchanged so existing call sites and
# the env-var workflow keep working byte-identically.
_DEPRECATED_SHIMS = ("set_execution_mode",)


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from repro import service

        return getattr(service, name)
    if name in _DEPRECATED_SHIMS:
        from repro.engine import mode

        return getattr(mode, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SERVICE_EXPORTS) | set(_DEPRECATED_SHIMS))
