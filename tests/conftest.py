"""Shared fixtures: graph builders, two reference solvers for the exact
oracle (naive enumeration and a remaining-weight branch and bound) and a
reference max-flow network."""

from __future__ import annotations

import itertools
import math
import random
from collections import deque

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


def remaining_weight_alpha(g: WeightedGraph) -> int:
    """Include/exclude branch and bound on bitmasks, pruned by the weight
    still available: a reference for graphs too large to enumerate that
    shares no bound with ``brute_force``."""
    ids = g.vertices()
    index = {v: i for i, v in enumerate(ids)}
    w = [g.weight[v] for v in ids]
    closed = [1 << index[v] | sum(1 << index[u] for u in g.adj[v]) for v in ids]
    best = 0

    def dfs(avail: int, cur: int, rem: int) -> None:
        nonlocal best
        if cur + rem <= best:
            return
        if not avail:
            best = cur
            return
        i = max((i for i in range(len(ids)) if avail >> i & 1),
                key=lambda i: bin(closed[i] & avail).count("1"))
        taken = closed[i] & avail
        dfs(avail & ~taken, cur + w[i],
            rem - sum(w[j] for j in range(len(ids)) if taken >> j & 1))
        dfs(avail & ~(1 << i), cur, rem - w[i])

    dfs((1 << len(ids)) - 1, 0, sum(w))
    return best


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


class DinicNetwork:
    """Max flow by Dinic phases: BFS levels and an iterative DFS with current
    arcs.  The tests' flow reference, sharing no code with the package.

    ``min_cut_source_side`` after ``max_flow`` is the set reachable from the
    source in the residual network: the minimal minimum cut, the same for
    every maximum flow.
    """

    def __init__(self, n):
        self.n = n
        self.head = [[] for _ in range(n)]
        self.to = []
        self.cap = []

    def add_edge(self, u, v, capacity):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s, t):
        flow = 0
        while True:
            level = self._bfs_levels(s)
            if level[t] < 0:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, level, it)
                if pushed == 0:
                    break
                flow += pushed

    def _bfs_levels(self, s):
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level

    def _dfs(self, s, t, level, it):
        head, to, cap = self.head, self.to, self.cap
        path = []  # arcs from s to u
        u = s
        while u != t:
            arcs, i, want = head[u], it[u], level[u] + 1
            while i < len(arcs) and (cap[arcs[i]] <= 0 or level[to[arcs[i]]] != want):
                i += 1
            it[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
                continue
            level[u] = -1
            if not path:
                return 0
            u = to[path.pop() ^ 1]
            it[u] += 1
        pushed = min(cap[e] for e in path)
        for e in path:
            cap[e] -= pushed
            cap[e ^ 1] += pushed
        return pushed

    def min_cut_source_side(self, s):
        return {v for v, lv in enumerate(self._bfs_levels(s)) if lv >= 0}


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
