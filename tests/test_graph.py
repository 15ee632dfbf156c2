import random

import pytest

from mwis import (GraphError, build_graph, is_independent,
                  independence_violations, set_weight)
from conftest import clique, path, random_graph


def test_build_simple_edge():
    g = build_graph([(0, 1)], [3, 4])
    assert g.n_original == 2
    assert g.live_edges == 1
    assert g.weight == [3, 4]


def test_build_isolated_vertex():
    g = build_graph([], [7])
    assert g.live_count == 1
    assert g.live_edges == 0


def test_build_deduplicates_symmetric_pairs():
    g = build_graph([(0, 1), (1, 0)], [1, 1])
    assert g.live_edges == 1
    assert g.adj[0] == {1}


@pytest.mark.parametrize("edges,weights", [
    ([(0, 0)], [1]),            # self-loop
    ([(0, 2)], [1, 1]),         # endpoint out of range
])
def test_build_rejects_bad_edges(edges, weights):
    with pytest.raises(GraphError):
        build_graph(edges, weights)


def test_build_rejects_negative_weight():
    with pytest.raises(GraphError):
        build_graph([], [-1])


def test_remove_vertex_bookkeeping_triangle():
    g = clique([1, 1, 1])
    g.remove_vertex(0)
    assert g.live_count == 2
    assert g.live_edges == 1
    g.audit()


def test_remove_both_endpoints_empties_k2():
    g = build_graph([(0, 1)], [1, 1])
    g.remove_vertex(0)
    g.remove_vertex(1)
    assert g.is_empty
    assert g.live_edges == 0


def test_remove_dead_vertex_errors():
    g = build_graph([(0, 1)], [1, 1])
    g.remove_vertex(0)
    with pytest.raises(GraphError):
        g.remove_vertex(0)


def test_restore_round_trips():
    g = path([2, 3, 4])
    before = ([set(s) for s in g.adj], g.live_count, g.live_edges)
    snap = g.remove_vertex(1)
    g.restore_vertex(1, snap)
    assert ([set(s) for s in g.adj], g.live_count, g.live_edges) == before
    g.audit()


def test_is_independent_examples():
    g = path([5, 1, 5])
    assert is_independent(g, {0, 2})
    assert set_weight(g, {0, 2}) == 10
    k2 = build_graph([(0, 1)], [1, 1])
    assert not is_independent(k2, {0, 1})
    assert is_independent(k2, set())
    assert set_weight(k2, set()) == 0


def test_is_independent_rejects_dead_member():
    g = path([1, 1, 1])
    g.remove_vertex(0)
    assert not is_independent(g, {0, 2})


def test_violations_reports_offending_edges():
    g = path([1, 1, 1])
    assert independence_violations(g, {0, 1, 2}) == [(0, 1), (1, 2)]


def test_pairwise_check_agreement():
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 12), 0.4)
        members = {v for v in g.vertices() if rng.random() < 0.4}
        naive = all(v not in g.adj[u] for u in members for v in members if u != v)
        assert is_independent(g, members) == naive


def test_audit_catches_random_mutation_sequences():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, 12, 0.3)
        for _ in range(8):
            alive = g.vertices()
            if not alive:
                break
            op = rng.randrange(3)
            v = rng.choice(alive)
            if op == 0:
                g.remove_vertex(v)
            elif op == 1:
                g.set_vertex_weight(v, rng.randint(0, 50))
            else:
                others = [u for u in g.vertices() if u != v and u not in g.adj[v]]
                if others:
                    g.add_edge(v, rng.choice(others))
            g.audit()

