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

Three mutations: one per batch-executor layer, and one in the planner:

* **perturb one probe verdict** — :meth:`Step._extensions` is the packed
  bulk-extension loop of the matcher; swallowing one surviving extension
  must break matcher/oracle byte-parity;
* **drop one head fire** — :meth:`Instance.add_key` lands every engine's
  head facts; pretending the first genuinely-new fact was a duplicate (so
  only the first of the two runs loses it) must break the same parity;
* **a connection-blind join order** — :func:`repro.engine.plan._selectivity_order`
  scored without its ``connected`` term (the score before 11.0.1, which
  lets a constants-only atom outrank one that joins) must break the
  planner invariant of ``test_engine_plan``: no step is a cross product
  while an atom sharing a bound variable remains.

The mutations are applied through ``monkeypatch`` fixture toggles.
"""

import pytest

from repro.datalog.database import Instance
from repro.datalog.terms import Variable
from repro.engine import plan as plan_module
from repro.engine.batch import Step
from repro.engine.incremental import DeltaSession
from repro.engine.stats import STATS
from test_engine_batch_parity import matcher
from test_engine_incremental_parity import TC_PROGRAM, edge
from test_engine_plan import assert_planner_never_picks_a_disconnected_atom


def edges(n):
    return [edge(f"n{i}", f"n{i + 1}") for i in range(n)]


# ---------------------------------------------------------------------------
# The oracle: the same differential assertion the parity suites pin
# ---------------------------------------------------------------------------


def oracle_row_vs_batch():
    """Matcher and depth-first oracle: byte-identical atoms and gated counters."""
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
    original = Step._extensions
    state = {"perturbed": False}

    def mutant(self, cols, candidate_ids):
        result = original(self, cols, candidate_ids)
        if not state["perturbed"] and result:
            state["perturbed"] = True
            return result[1:]  # flip exactly one probe verdict: drop a survivor
        return result

    with monkeypatch.context() as m:
        m.setattr(Step, "_extensions", mutant)
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


def connection_blind_order(atoms, prebound, first):
    """``_selectivity_order`` without the ``connected`` term: most bound
    positions (constants included), then constants, then fewest fresh
    variables, then body order."""
    bound = set(prebound)
    order = []
    remaining = list(range(len(atoms)))
    if first is not None:
        order.append(first)
        remaining.remove(first)
        bound.update(atoms[first].variables)

    def score(i):
        terms = atoms[i].terms
        n_const = sum(1 for term in terms if not isinstance(term, Variable))
        fresh = {t for t in terms if isinstance(t, Variable) and t not in bound}
        n_bound = len(terms) - sum(1 for t in terms if t in fresh)
        return (n_bound, n_const, -len(fresh), -i)

    while remaining:
        best = max(remaining, key=score)
        order.append(best)
        remaining.remove(best)
        bound.update(atoms[best].variables)
    return order


def test_connection_blind_join_order_is_caught(monkeypatch):
    plan_module._drop_plan_caches()
    assert_planner_never_picks_a_disconnected_atom()  # clean: must pass
    state = {"called": False}

    def mutant(atoms, prebound, first):
        state["called"] = True
        return connection_blind_order(atoms, prebound, first)

    try:
        with monkeypatch.context() as m:
            m.setattr(plan_module, "_selectivity_order", mutant)
            plan_module._drop_plan_caches()
            with pytest.raises(AssertionError):
                assert_planner_never_picks_a_disconnected_atom()
    finally:
        plan_module._drop_plan_caches()  # no mutant plan outlives the test
    assert state["called"], "the mutant planner was never exercised"
    assert_planner_never_picks_a_disconnected_atom()  # unplanted: must pass again
