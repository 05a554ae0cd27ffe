"""The programmatic facade: :class:`EngineConfig` + :class:`Engine`.

Historically the engine was configured through environment variables
(``REPRO_ENGINE_MODE``, ``REPRO_COMPACT_RATIO``) read at import time — a
footgun for any caller that imported submodules before setting them.  This
module replaces that with explicit configuration::

    import repro

    engine = repro.Engine(repro.EngineConfig(mode="row"))
    answers = engine.evaluate(program_text, "connected", database)
    with engine.delta_session(program_text) as session:
        session.push(facts)

The environment variables still work — they are now *lazy fallbacks*, read
at the first evaluation that needs them and only when nothing was configured
programmatically (see :mod:`repro.engine.mode`).  The legacy module-level
setter (:func:`repro.engine.set_execution_mode`) remains as a thin shim
over the same state the facade writes; new code should construct an
:class:`Engine`.

One process, one engine configuration: the execution mode is process-global
state (plan caches and the interning table are shared), so
:class:`Engine` is a configuration *scope*, not an isolated instance —
constructing a second Engine with a different config reconfigures the
process, exactly like the env vars always did.  The class exists so that the
configuration is explicit, inspectable, and independent of import order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Union

from repro.core.evaluation import evaluate as _evaluate
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.datalog.semantics import evaluate_program
from repro.engine import index as _index
from repro.engine import mode as _mode

_VALID_MODES = (None, "row", "batch")


@dataclass(frozen=True)
class EngineConfig:
    """Everything the env vars used to configure, as one explicit value.

    ``None`` for any field means "keep the current setting" — which, when
    nothing was ever set, means the documented lazy env-var fallback.

    ========================  ==============================  ================
    field                     replaces                        default
    ========================  ==============================  ================
    ``mode``                  ``REPRO_ENGINE_MODE``           ``"batch"``
    ``compact_ratio``         ``REPRO_COMPACT_RATIO``         ``0.5``
    ========================  ==============================  ================

    ``mode`` selects the matcher behind the engines' one firing path (see
    :mod:`repro.engine.mode`).  ``compact_ratio`` is the tombstone fraction
    above which :meth:`DeltaSession.retract
    <repro.engine.incremental.DeltaSession.retract>` compacts a predicate's
    lanes (1.0 or higher disables compaction).
    """

    mode: Optional[str] = None
    compact_ratio: Optional[float] = None

    def __post_init__(self):
        if self.mode not in _VALID_MODES:
            raise ValueError(
                f"mode must be one of {_VALID_MODES[1:]} or None, got {self.mode!r}"
            )
        if self.compact_ratio is not None:
            _index.checked_compact_ratio(self.compact_ratio, "compact_ratio")

    @classmethod
    def from_env(cls, environ=None) -> "EngineConfig":
        """Snapshot the legacy environment variables into an explicit config.

        The migration helper for code moving off env-var configuration:
        ``Engine(EngineConfig.from_env())`` pins exactly what the lazy
        fallback would have resolved, immune to later ``os.environ`` edits.
        """
        environ = os.environ if environ is None else environ
        mode = environ.get("REPRO_ENGINE_MODE") or None
        ratio_raw = environ.get("REPRO_COMPACT_RATIO") or None
        ratio = (
            _index.checked_compact_ratio(ratio_raw, "REPRO_COMPACT_RATIO")
            if ratio_raw
            else None
        )
        return cls(mode=mode, compact_ratio=ratio)

    def with_overrides(self, **changes) -> "EngineConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


class Engine:
    """The library's front door: configure once, then evaluate/chase/serve.

    Construction applies the config to the process-global engine state (see
    the module docstring for why it is global).  All methods accept programs
    as rule text or :class:`~repro.datalog.program.Program` objects,
    mirroring the module-level functions they supersede.
    """

    def __init__(self, config: Optional[EngineConfig] = None, **kwargs):
        if config is not None and kwargs:
            raise TypeError("pass either a config object or field keywords, not both")
        self.config = config if config is not None else EngineConfig(**kwargs)
        self._apply()

    def _apply(self) -> None:
        if self.config.mode is not None:
            _mode.set_execution_mode(self.config.mode)
        if self.config.compact_ratio is not None:
            _index.set_compact_ratio(self.config.compact_ratio)

    # -- introspection -------------------------------------------------------

    @property
    def mode(self) -> str:
        """The execution mode actually in effect (resolves the lazy default)."""
        return _mode.get_execution_mode()

    # -- evaluation ----------------------------------------------------------

    @staticmethod
    def _as_program(program: Union[str, Program]) -> Program:
        return program if isinstance(program, Program) else parse_program(program)

    def evaluate(
        self,
        program: Union[str, Program],
        output_predicate: str,
        database: Iterable[Atom],
        output_arity: Optional[int] = None,
        chase_engine=None,
    ):
        """Answer tuples of the query, or ``INCONSISTENT`` (⊤).

        The facade form of :func:`repro.evaluate`: classifies the program
        (TriQ-Lite → warded engine, TriQ → chase + rewriting) and evaluates.
        """
        return _evaluate(
            program, output_predicate, database, output_arity, chase_engine
        )

    def chase(
        self,
        program: Union[str, Program],
        database: Iterable[Atom],
        chase_engine=None,
    ):
        """Materialise the stratified semantics; an Instance or ``INCONSISTENT``.

        The facade form of
        :func:`repro.datalog.semantics.evaluate_program`.
        """
        return evaluate_program(self._as_program(program), database, chase_engine)

    def delta_session(
        self,
        program: Union[str, Program],
        database: Iterable = (),
        **kwargs,
    ):
        """An incremental :class:`~repro.engine.incremental.DeltaSession`."""
        from repro.engine.incremental import DeltaSession

        return DeltaSession(self._as_program(program), database, **kwargs)

    def entailment_view(self, graph):
        """A :class:`~repro.translation.entailment_regime.EntailmentView`."""
        from repro.translation.entailment_regime import EntailmentView

        return EntailmentView(graph)

    def materialized_view(self, graph=None, program=None):
        """A :class:`~repro.service.MaterializedView` (no HTTP, in-process)."""
        from repro.service import MaterializedView

        return MaterializedView(graph, program)

    def serve(
        self,
        graph=None,
        host: str = "127.0.0.1",
        port: int = 8377,
        block: bool = True,
    ):
        """Boot the HTTP query service over ``graph``.

        With ``block=True`` (the default) this runs the server until
        interrupted.  With ``block=False`` it returns the unstarted
        :class:`~repro.service.QueryService` — call ``await service.start()``
        from your own event loop (the end-to-end tests drive it this way).
        """
        from repro.service import QueryService

        service = QueryService(graph, host=host, port=port)
        if block:
            service.run_forever()
        return service

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """A no-op: the engine holds no process-level resources.

        Kept, with the ``with`` form, so existing
        ``with repro.Engine(...) as engine:`` call sites keep working.
        """

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Engine(mode={self.mode!r}, config={self.config})"


def configure(config: Optional[EngineConfig] = None, **kwargs) -> Engine:
    """Apply a configuration to the process and return the Engine scope.

    ``repro.configure(mode="row")`` is the one-liner form of
    ``repro.Engine(EngineConfig(...))``.
    """
    return Engine(config, **kwargs)
