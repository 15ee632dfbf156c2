import random

import pytest

from mwis import (OracleBudgetError, OracleLimitError, OracleLimits,
                  brute_force, build_graph, is_independent, set_weight)
from conftest import (clique, cycle, enumerate_alpha, geometric_graph, random_graph,
                      remaining_weight_alpha)


def assert_optimal(g, alpha_ref):
    alpha, witness = brute_force(g)
    assert alpha == alpha_ref
    assert is_independent(g, witness)
    assert set_weight(g, witness) == alpha


def test_k3_takes_heaviest():
    alpha, witness = brute_force(clique([1, 2, 3]))
    assert alpha == 3
    assert witness == {2}


def test_edgeless_takes_everything():
    alpha, witness = brute_force(build_graph([], [2, 3, 4]))
    assert alpha == 9
    assert witness == {0, 1, 2}


def test_c5_unit_weights():
    alpha, witness = brute_force(cycle([1] * 5))
    assert alpha == 2
    assert len(witness) == 2


def test_empty_graph():
    assert brute_force(build_graph([], [])) == (0, set())


def test_agreement_with_enumeration():
    rng = random.Random(31337)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.1, 0.3, 0.6]))
        assert_optimal(g, enumerate_alpha(g)[0])
    # The clique-cover bound must stay sound where it is tight (complete
    # graphs: one clique), where it is loosest (edgeless graphs: a clique
    # per vertex) and where weights tie or vanish.
    for n in range(15):
        for g in (build_graph([], [rng.randint(1, 50) for _ in range(n)]),
                  clique([rng.randint(1, 50) for _ in range(n)]),
                  random_graph(rng, n, 0.3, wlo=0, whi=0),
                  random_graph(rng, n, 0.3, wlo=7, whi=7)):
            assert_optimal(g, enumerate_alpha(g)[0])


def test_witness_respects_dead_vertices():
    g = clique([5, 4, 3])
    g.remove_vertex(0)
    alpha, witness = brute_force(g)
    assert alpha == 4
    assert witness == {1}


def test_max_vertices_limit():
    g = build_graph([], [1] * 8)
    with pytest.raises(OracleLimitError):
        brute_force(g, OracleLimits(max_vertices=4))


def test_node_budget():
    rng = random.Random(7)
    g = random_graph(rng, 18, 0.2)
    with pytest.raises(OracleBudgetError):
        brute_force(g, OracleLimits(node_budget=3))


def test_alpha_matches_the_remaining_weight_search():
    rng = random.Random(2028)
    for trial in range(60):
        n = rng.randint(15, 30)
        if trial % 2:
            g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.2, 0.4]))
        else:
            g = geometric_graph(rng, n, rng.choice([2.5, 4, 6, 10]))
        assert_optimal(g, remaining_weight_alpha(g))


def test_sparse_graphs_at_the_limit_need_few_nodes():
    # Forty vertices, average degree 2.5-6, nothing reduced: the clique
    # cover proves each optimum in at most 759 nodes (median 180), where
    # the weight still available as the bound needed up to 6,453 (median
    # 1,331).
    rng = random.Random(5)
    limits = OracleLimits(max_vertices=40, node_budget=2_000)
    for _ in range(40):
        g = random_graph(rng, 40, rng.choice([2.5, 4, 6]) / 39)
        brute_force(g, limits)
