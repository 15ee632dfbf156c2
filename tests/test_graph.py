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



def test_compact_renumbers_the_live_subgraph_read_only():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)], [5, 6, 7, 8, 9])
    g.remove_vertex(0)
    g.remove_vertex(3)
    fold = g.add_vertex(4)
    g.add_edge(fold, 1)
    g.add_edge(fold, 4)
    kernel, ids = g.compact()
    assert ids == [1, 2, 4, 5]
    assert kernel.weight == [6, 7, 9, 4]
    assert kernel.adj == [(1, 2, 3), (0,), (0, 3), (0, 2)]
    assert (kernel.capacity, kernel.live_count, kernel.live_edges) == (4, 4, 4)
    kernel.audit()
    with pytest.raises(AttributeError):  # tuples take no edits
        kernel.add_edge(1, 2)
    mutable = kernel.copy()
    mutable.add_edge(1, 2)
    mutable.remove_vertex(0)
    mutable.audit()
    assert kernel.adj[1] == (0,) and kernel.live_count == 4

    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 30), rng.choice([0.1, 0.3]))
        for v in rng.sample(g.vertices(), rng.randint(0, g.live_count)):
            g.remove_vertex(v)
        kernel, ids = g.compact()
        kernel.audit()
        assert ids == g.vertices() and kernel.vertices() == list(range(len(ids)))
        assert kernel.weight == [g.weight[v] for v in ids]
        assert [(ids[u], ids[v]) for u, v in kernel.edges()] == g.edges()
        assert all(list(nbrs) == sorted(nbrs) for nbrs in kernel.adj)
