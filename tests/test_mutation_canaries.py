"""Mutation canaries: planted engine bugs must make the parity oracles fail.

The engine's correctness story leans on differential testing — batch
matcher vs depth-first oracle, warm vs cold, packed vs tuple — so the one
failure mode the
test tree cannot afford is an oracle that silently stopped discriminating.
Each canary here *plants* a seeded divergence at a load-bearing site, runs
the same differential assertion the real parity suites pin, and requires it
to **fail**; the clean configuration is asserted to pass immediately before
and after, so a red canary always means "the oracle went blind", never "the
engine broke".

Two mutations, one per batch-executor layer:

* **perturb one probe verdict** — :meth:`_BatchStep._extensions` is the
  packed bulk-extension loop of the batch executor; swallowing one surviving
  extension must break row/batch byte-parity;
* **drop one head fire** — :meth:`Instance.add_key` lands every engine's
  head facts; pretending the first genuinely-new fact was a duplicate (so
  only the first of the two runs loses it) must break the same parity.

The mutations are applied through ``monkeypatch`` fixture toggles.
"""

import pytest

from repro.datalog.database import Instance
from repro.engine.batch import _BatchStep
from repro.engine.incremental import DeltaSession
from repro.engine.stats import STATS
from test_engine_batch_parity import matcher
from test_engine_incremental_parity import TC_PROGRAM, edge


def edges(n):
    return [edge(f"n{i}", f"n{i + 1}") for i in range(n)]


# ---------------------------------------------------------------------------
# The oracle: the same differential assertion the parity suites pin
# ---------------------------------------------------------------------------


def oracle_row_vs_batch():
    """Row and batch executors: byte-identical atoms and gated counters."""
    es = edges(10)
    outcomes = {}
    for mode in ("row", "batch"):
        with matcher(mode):
            STATS.reset()
            session = DeltaSession(TC_PROGRAM, es[:6])
            session.push(es[6:])
            outcomes[mode] = (session.instance.sorted_atoms(), STATS.gated())
            session.close()
    assert outcomes["row"] == outcomes["batch"]


# ---------------------------------------------------------------------------
# The canaries
# ---------------------------------------------------------------------------


def test_perturbed_probe_verdict_is_caught(monkeypatch):
    oracle_row_vs_batch()  # clean: must pass
    original = _BatchStep._extensions
    state = {"perturbed": False}

    def mutant(self, cols, candidate_ids):
        result = original(self, cols, candidate_ids)
        if not state["perturbed"] and result:
            state["perturbed"] = True
            return result[1:]  # flip exactly one probe verdict: drop a survivor
        return result

    with monkeypatch.context() as m:
        m.setattr(_BatchStep, "_extensions", mutant)
        with pytest.raises(AssertionError):
            oracle_row_vs_batch()
    assert state["perturbed"], "the mutant kernel was never exercised"
    oracle_row_vs_batch()  # unplanted: must pass again


def test_dropped_head_fire_is_caught(monkeypatch):
    oracle_row_vs_batch()  # clean: must pass
    original = Instance.add_key
    state = {"dropped": False}

    def mutant(self, key):
        if not state["dropped"] and key not in self._keys:
            state["dropped"] = True
            return False  # swallow the first genuinely-new head fact
        return original(self, key)

    with monkeypatch.context() as m:
        m.setattr(Instance, "add_key", mutant)
        with pytest.raises(AssertionError):
            oracle_row_vs_batch()
    assert state["dropped"], "the mutant head-fire path was never exercised"
    oracle_row_vs_batch()  # unplanted: must pass again
