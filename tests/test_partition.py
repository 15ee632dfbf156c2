import itertools
import math
import random
import time

import pytest

from mwis import (PartitionPool, build_graph, edge_partition,
                  separator_from, validate_partition, vertex_separator)
from mwis.partition import SEPARATOR, max_block_size
from conftest import clique, geometric_graph, path, random_graph


def min_balanced_bisection_cut(g) -> int:
    """Exhaustive oracle: smallest cut over all balanced 2-partitions."""
    ids = g.vertices()
    cap = max_block_size(len(ids), 2, 0.0)
    best = len(g.edges()) + 1
    for size in range(len(ids) - cap, cap + 1):
        for left in itertools.combinations(ids, size):
            left = set(left)
            if len(ids) - len(left) > cap:
                continue
            cut = sum(1 for u, v in g.edges() if (u in left) != (v in left))
            best = min(best, cut)
    return best


def test_p4_bisection_matches_exhaustive_minimum(rng):
    g = path([1, 1, 1, 1])
    assert min_balanced_bisection_cut(g) == 1
    part = edge_partition(g, 2, 0.0, rng)
    assert validate_partition(g, part) == []
    assert len(part.cut_edges(g)) == 1
    assert sorted(len(b) for b in part.blocks()) == [2, 2]


def test_singleton_blocks_cut_everything(rng):
    g = clique([1, 1, 1, 1])
    part = edge_partition(g, 4, 0.0, rng)
    assert validate_partition(g, part) == []
    assert len(part.cut_edges(g)) == g.live_edges


def test_disconnected_cliques_split_cleanly(rng):
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    g = build_graph(edges, [1] * 6)
    part = edge_partition(g, 2, 0.0, rng)
    assert len(part.cut_edges(g)) == 0


def test_partition_argument_errors(rng):
    g = path([1, 1, 1])
    with pytest.raises(ValueError):
        edge_partition(g, 1, 0.0, rng)
    with pytest.raises(ValueError):
        edge_partition(g, 4, 0.0, rng)


def test_p3_separator_is_middle(rng):
    g = path([1, 1, 1])
    part = vertex_separator(g, 2, 0.0, rng)
    assert validate_partition(g, part) == []
    assert part.separator() == [1]
    assert part.block_of[0] != part.block_of[2]


def test_k4_separator_is_valid(rng):
    g = clique([1, 1, 1, 1])
    part = vertex_separator(g, 2, 0.5, rng)
    assert validate_partition(g, part) == []


def test_edgeless_graph_needs_no_separator(rng):
    g = build_graph([], [1, 1, 1, 1])
    part = vertex_separator(g, 2, 0.0, rng)
    assert part.separator() == []


def test_randomized_partition_contracts():
    rng = random.Random(271828)
    for _ in range(80):
        g = random_graph(rng, rng.randint(4, 30), rng.choice([0.1, 0.3, 0.6]))
        k = rng.choice([2, 3, 4, 8])
        if k > g.live_count:
            continue
        eps = rng.choice([0.0, 0.03, 0.1, 0.5])
        part = edge_partition(g, k, eps, rng)
        assert validate_partition(g, part) == []
        bound = (1 + eps) * math.ceil(g.live_count / k)
        assert all(len(b) <= bound for b in part.blocks())
        sep = separator_from(g, part)
        assert validate_partition(g, sep) == []
        assert sep.cut_edges(g) == []


def min_loop_separator(g, part):
    """Reference: ``separator_from`` as it was, taking the least remaining
    cut edge by ``min`` at every pick."""
    block_of = list(part.block_of)
    cut = part.cut_edges(g)
    incident = {}
    for e in cut:
        for v in e:
            incident.setdefault(v, set()).add(e)
    remaining = set(cut)
    while remaining:
        u, v = min(remaining)
        ku = (len(incident[u] & remaining), g.degree(u), -u)
        kv = (len(incident[v] & remaining), g.degree(v), -v)
        pick = u if ku >= kv else v
        block_of[pick] = SEPARATOR
        remaining -= incident[pick]
    return block_of


def test_separator_matches_the_min_loop():
    rng = random.Random(8128)
    for trial in range(40):
        n = rng.randint(10, 160)
        if trial % 2:
            g = geometric_graph(rng, n, rng.choice([4, 8]))
        else:
            g = random_graph(rng, n, rng.choice([0.03, 0.1, 0.3]))
        for v in rng.sample(g.vertices(), n // 10):
            g.remove_vertex(v)
        g = g.compact()[0]
        k = rng.choice([2, 3, 4, 8, 16])
        if k > g.live_count:
            continue
        part = edge_partition(g, k, rng.choice([0.0, 0.03, 0.1]), rng)
        assert separator_from(g, part).block_of == min_loop_separator(g, part)


def test_determinism_per_seed():
    g0 = random_graph(random.Random(1), 25, 0.2)
    a = edge_partition(g0, 4, 0.03, random.Random(9))
    b = edge_partition(g0, 4, 0.03, random.Random(9))
    assert a.block_of == b.block_of
    c = vertex_separator(g0, 4, 0.03, random.Random(9))
    d = vertex_separator(g0, 4, 0.03, random.Random(9))
    assert c.block_of == d.block_of


def test_pool_fills_to_capacity(rng):
    g = random_graph(random.Random(2), 30, 0.2)
    pool = PartitionPool(g, capacity=10)
    pool.fetch(want_separator=False, rng=rng)
    assert len(pool._entries) == 10


def test_pool_builds_separator_on_demand(rng):
    g = random_graph(random.Random(4), 16, 0.3)
    pool = PartitionPool(g, capacity=3)
    part = pool.fetch(want_separator=True, rng=rng, k=2)
    assert part.has_separator and part.k == 2
    assert validate_partition(g, part) == []


def test_pool_respects_block_bound(rng):
    g = random_graph(random.Random(5), 40, 0.15)
    pool = PartitionPool(g, capacity=8)
    for _ in range(8):
        part = pool.fetch(want_separator=False, rng=rng)
        assert 2 <= part.k <= 64


def test_pool_rejects_tiny_graph(rng):
    g = build_graph([], [1])
    pool = PartitionPool(g, capacity=2)
    with pytest.raises(ValueError):
        pool.fetch(want_separator=False, rng=rng)


def test_dump_lists_block_per_vertex(rng):
    g = path([1, 1, 1])
    part = vertex_separator(g, 2, 0.0, rng)
    lines = part.dump().splitlines()
    assert len(lines) == 3
    assert lines[1] == "-1"  # the middle sits in the separator


def _cross_degree(g, block_of, v, as_block, swapped=None):
    """Cut edges at v if it sat in ``as_block``; ``swapped`` simulates one
    other vertex having traded blocks with v."""
    count = 0
    for z in g.adj[v]:
        bz = block_of[z]
        if swapped is not None and z == swapped[0]:
            bz = swapped[1]
        if bz != as_block:
            count += 1
    return count


def pairwise_refine(g, block_of, sizes, cap, k, passes):
    """Reference: the refinement that rescans adjacency for every pair."""
    for _ in range(passes):
        moved = False
        for v in range(len(block_of)):
            b = block_of[v]
            counts = {}
            for u in g.adj[v]:
                bu = block_of[u]
                counts[bu] = counts.get(bu, 0) + 1
            here = counts.get(b, 0)
            best_gain, target = 0, None
            for t in range(k):
                if t == b or sizes[t] >= cap:
                    continue
                gain = counts.get(t, 0) - here
                if gain > best_gain:
                    best_gain, target = gain, t
            if target is not None and sizes[b] > 1:
                block_of[v] = target
                sizes[b] -= 1
                sizes[target] += 1
                moved = True

        boundary = [v for v in range(len(block_of))
                    if any(block_of[u] != block_of[v] for u in g.adj[v])]
        for i, u in enumerate(boundary):
            bu = block_of[u]
            for v in boundary[i + 1:]:
                bv = block_of[v]
                if bu == bv:
                    continue
                old = (_cross_degree(g, block_of, u, bu)
                       + _cross_degree(g, block_of, v, bv))
                new = (_cross_degree(g, block_of, u, bv, swapped=(v, bu))
                       + _cross_degree(g, block_of, v, bu, swapped=(u, bv)))
                if new < old:
                    block_of[u], block_of[v] = bv, bu
                    bu = bv
                    moved = True
        if not moved:
            break


@pytest.mark.parametrize("epsilon", [0.0, 0.03])
@pytest.mark.parametrize("k", [2, 4, 8, 16, 32])
def test_edge_partition_matches_pairwise_refine(k, epsilon, monkeypatch):
    for seed in range(4):
        g = geometric_graph(random.Random(seed), 150, 8) if seed % 2 else \
            random_graph(random.Random(seed), 120, 0.05)
        kept = edge_partition(g, k, epsilon, random.Random(seed))
        with monkeypatch.context() as m:
            m.setattr("mwis.partition._refine", pairwise_refine)
            ref = edge_partition(g, k, epsilon, random.Random(seed))
        assert kept.block_of == ref.block_of


def test_sixteen_way_partition_of_a_thousand_vertices_is_fast():
    # On a two-core x86-64 VM under CPython 3.11 this partition takes about
    # 0.04 s; with every pair test rescanning adjacency it took 0.6 s.
    g = geometric_graph(random.Random(1), 1000, 8)
    start = time.perf_counter()
    part = edge_partition(g, 16, 0.03, random.Random(2))
    assert time.perf_counter() - start < 0.2
    assert validate_partition(g, part) == []
