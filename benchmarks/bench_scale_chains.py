"""Scale series C — deep chains, layered reachability, and larger k-cliques.

The reachability and clique shapes of the paper's figures, scaled past them
(ROADMAP: "wider workloads"): a depth series whose transitive closure runs
hundreds of small delta rounds, a layered series whose rounds carry wide
deltas, and a k-clique series on denser graphs than the Example 4.3 sizes.
"""

import pytest

from repro.datalog.parser import parse_program
from repro.datalog.seminaive import SemiNaiveEvaluator
from repro.reductions.clique import contains_clique
from repro.workloads.graphs import chain_graph, layered_graph, random_undirected_graph

REACHABILITY = parse_program(
    """
    triple(?X, knows, ?Y) -> knows(?X, ?Y).
    knows(?X, ?Y) -> connected(?X, ?Y).
    connected(?X, ?Y), knows(?Y, ?Z) -> connected(?X, ?Z).
    """
)


@pytest.mark.parametrize("depth", [64, 128, 256])
def test_deep_chain_closure(benchmark, depth):
    database = chain_graph(depth, branches_per_node=1).to_database()
    evaluator = SemiNaiveEvaluator(REACHABILITY)

    result = benchmark.pedantic(lambda: evaluator.evaluate(database), rounds=1, iterations=1)
    # (i, j) chain pairs with i < j, plus every branch leaf reachable from
    # each chain prefix: depth * (depth + 1) connected pairs in total.
    pairs = sum(1 for atom in result if atom.predicate == "connected")
    assert pairs == depth * (depth + 1)
    benchmark.extra_info["depth"] = depth
    benchmark.extra_info["connected_pairs"] = pairs


@pytest.mark.parametrize("layers,width", [(6, 24), (8, 32)])
def test_layered_reachability(benchmark, layers, width):
    database = layered_graph(layers, width, out_degree=3, seed=1).to_database()
    evaluator = SemiNaiveEvaluator(REACHABILITY)

    result = benchmark.pedantic(lambda: evaluator.evaluate(database), rounds=1, iterations=1)
    pairs = sum(1 for atom in result if atom.predicate == "connected")
    assert pairs > width * layers  # reachability fans out across layers
    benchmark.extra_info["layers"] = layers
    benchmark.extra_info["width"] = width
    benchmark.extra_info["connected_pairs"] = pairs


@pytest.mark.parametrize("layers,width", [(12, 64)])
def test_closure_probe_184k(benchmark, layers, width):
    """The 184k-fact closure probe: bulk recursion over wide deltas.

    layered_graph(12, 64) materializes 184,498 facts (179,956 connected
    pairs) through rounds of wide deltas.
    """
    database = layered_graph(layers, width, out_degree=3, seed=1).to_database()
    evaluator = SemiNaiveEvaluator(REACHABILITY)

    result = benchmark.pedantic(lambda: evaluator.evaluate(database), rounds=1, iterations=1)
    pairs = sum(1 for atom in result if atom.predicate == "connected")
    assert pairs == 179956
    benchmark.extra_info["layers"] = layers
    benchmark.extra_info["width"] = width
    benchmark.extra_info["connected_pairs"] = pairs


@pytest.mark.parametrize("n,k,p", [(10, 3, 0.4), (12, 3, 0.3)])
def test_larger_cliques(benchmark, n, k, p):
    edges = random_undirected_graph(n, p, seed=n * 13 + k)

    found = benchmark.pedantic(lambda: contains_clique(edges, k), rounds=1, iterations=1)
    assert isinstance(found, bool)
    benchmark.extra_info["vertices"] = n
    benchmark.extra_info["k"] = k
    benchmark.extra_info["edges"] = len(edges)
