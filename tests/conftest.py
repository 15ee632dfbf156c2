"""Shared fixtures: graph builders and the naive enumeration oracle."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from mwis import WeightedGraph, build_graph


def random_graph(rng: random.Random, n: int, p: float,
                 wlo: int = 1, whi: int = 200) -> WeightedGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    weights = [rng.randint(wlo, whi) for _ in range(n)]
    return build_graph(edges, weights)


def graph_state(g: WeightedGraph) -> tuple:
    """Everything undo must restore, in comparable form."""
    return ([set(s) for s in g.adj], list(g.weight), list(g.alive),
            g.live_count, g.live_edges)


def enumerate_alpha(g: WeightedGraph) -> tuple[int, set[int]]:
    """Plain 2^n subset scan; the independent check on the exact solver."""
    ids = g.vertices()
    best_w, best_set = 0, set()
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            if any(v in g.adj[u] for i, u in enumerate(combo) for v in combo[i + 1:]):
                continue
            w = sum(g.weight[v] for v in combo)
            if w > best_w:
                best_w, best_set = w, set(combo)
    return best_w, best_set


def geometric_graph(rng: random.Random, n: int, avg_degree: float) -> WeightedGraph:
    """Uniform points in the unit square joined within a fixed radius."""
    radius = math.sqrt(avg_degree / (math.pi * n))
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if math.dist(pts[u], pts[v]) < radius]
    return build_graph(edges, [rng.randint(0, 200) for _ in range(n)])


def path(weights) -> WeightedGraph:
    n = len(weights)
    return build_graph([(i, i + 1) for i in range(n - 1)], weights)


def cycle(weights) -> WeightedGraph:
    n = len(weights)
    return build_graph([(i, (i + 1) % n) for i in range(n)], weights)


def clique(weights) -> WeightedGraph:
    n = len(weights)
    return build_graph([(u, v) for u in range(n) for v in range(u + 1, n)], weights)


def star(center_weight: int, leaf_weights) -> WeightedGraph:
    weights = [center_weight] + list(leaf_weights)
    return build_graph([(0, i + 1) for i in range(len(leaf_weights))], weights)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
