"""Exact max-flow min cuts over small integer-capacity networks.

Two solver stages need them.  The edge-separator combine repair
(minimum-weight cover of the conflict edges) builds an explicit
:class:`FlowNetwork`.  The critical-set reduction runs many times on one
slowly shrinking kernel, so :class:`DoubleCoverFlow` keeps its flow on
the bipartite double cover between calls and reads the arcs straight from
the graph's adjacency instead of building a network.  Capacities are plain
Python ints, so weights never overflow.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .graph import WeightedGraph


class FlowNetwork:
    """Directed flow network; ``add_edge`` creates the residual arc too."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        limit = sum(self.cap[e] for e in self.head[s]) + 1
        while True:
            level = self._bfs_levels(s, t)
            if level[t] < 0:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, limit, level, it)
                if pushed == 0:
                    break
                flow += pushed

    def _bfs_levels(self, s: int, t: int) -> list[int]:
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

    def _dfs(self, u: int, t: int, limit: int, level: list[int], it: list[int]) -> int:
        if u == t:
            return limit
        while it[u] < len(self.head[u]):
            e = self.head[u][it[u]]
            v = self.to[e]
            if self.cap[e] > 0 and level[v] == level[u] + 1:
                pushed = self._dfs(v, t, min(limit, self.cap[e]), level, it)
                if pushed > 0:
                    self.cap[e] -= pushed
                    self.cap[e ^ 1] += pushed
                    return pushed
            it[u] += 1
        level[u] = -1
        return 0

    def min_cut_source_side(self, s: int) -> set[int]:
        """Vertices reachable from ``s`` in the residual network.

        Call after :meth:`max_flow`; the returned side induces a minimum cut.
        """
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen


class DoubleCoverFlow:
    """Maximum flow on the bipartite double cover of a graph, kept warm.

    The network is implied by the graph and never stored.  The source
    feeds each left copy L_v with capacity w(v), each right copy R_v drains
    w(v) into the sink, and every edge {u, v} gives uncapacitated arcs
    L_u -> R_v and L_v -> R_u.  The flow lives in per-vertex maps:
    ``out[v][u]`` is the flow on L_v -> R_u and ``into[u][v]`` mirrors it
    (zero entries are deleted); ``sent[v]`` is the flow s -> L_v and
    ``received[u]`` the flow R_u -> t.

    The owner reports every vertex whose weight or adjacency changed,
    removed and new vertices included, through :meth:`invalidate`.  The
    next :meth:`min_cut` first drops every flow entry at such a vertex.
    What is left runs along unchanged edges between unchanged vertices and
    still respects every capacity, so it is a feasible flow, and Dinic
    augments from there instead of from zero.
    """

    __slots__ = ("out", "into", "sent", "received", "stale")

    def __init__(self):
        self.out: list[dict[int, int]] = []
        self.into: list[dict[int, int]] = []
        self.sent: list[int] = []
        self.received: list[int] = []
        self.stale: set[int] = set()

    def invalidate(self, vertices) -> None:
        """Mark vertices whose weight or adjacency changed since the last cut."""
        self.stale.update(vertices)

    def min_cut(self, g: WeightedGraph) -> set[int]:
        """Augment to a maximum flow on ``g``'s double cover.

        Returns the vertices whose left copy lies on the source side of
        the minimal minimum cut (the copies reachable from the source in
        the residual network) while their right copy does not.
        """
        self._repair(g)
        while True:
            lev_l, lev_r, t_level = self._levels(g)
            if t_level < 0:
                return {v for v, lv in enumerate(lev_l) if lv >= 0 and lev_r[v] < 0}
            self._blocking_flow(g, lev_l, lev_r, t_level)

    def _repair(self, g: WeightedGraph) -> None:
        grow = g.capacity - len(self.sent)
        if grow > 0:
            self.out.extend({} for _ in range(grow))
            self.into.extend({} for _ in range(grow))
            self.sent.extend([0] * grow)
            self.received.extend([0] * grow)
        out, into, sent, received = self.out, self.into, self.sent, self.received
        for x in self.stale:
            for u, f in out[x].items():
                received[u] -= f
                del into[u][x]
            for v, f in into[x].items():
                sent[v] -= f
                del out[v][x]
            out[x].clear()
            into[x].clear()
            sent[x] = received[x] = 0
        self.stale.clear()

    def _levels(self, g: WeightedGraph) -> tuple[list[int], list[int], int]:
        """BFS levels of the residual network (-1: not reached) and the
        sink's level, or -1 when the flow is maximum.  Left copies sit at
        odd levels, right copies at even ones; a search that reaches the
        sink stops there, one that does not labels every reachable copy."""
        adj, weight = g.adj, g.weight
        into, sent, received = self.into, self.sent, self.received
        lev_l = [-1] * len(adj)
        lev_r = [-1] * len(adj)
        layer = [v for v in g.vertices() if sent[v] < weight[v]]
        for v in layer:
            lev_l[v] = 1
        depth = 1
        while layer:
            rights = []
            for v in layer:
                for u in adj[v]:
                    if lev_r[u] < 0:
                        lev_r[u] = depth + 1
                        rights.append(u)
            depth += 2
            if any(received[u] < weight[u] for u in rights):
                return lev_l, lev_r, depth
            layer = []
            for u in rights:
                for v in into[u]:
                    if lev_l[v] < 0:
                        lev_l[v] = depth
                        layer.append(v)
        return lev_l, lev_r, -1

    def _blocking_flow(self, g: WeightedGraph, lev_l: list[int], lev_r: list[int],
                       t_level: int) -> None:
        """Saturate every shortest augmenting path (iterative DFS with
        current arcs; a dead-end copy gets level -1)."""
        adj, weight = g.adj, g.weight
        into, sent, received = self.into, self.sent, self.received
        arcs_l: dict[int, list[int]] = {}
        arcs_r: dict[int, list[int]] = {}
        for root in [v for v, lv in enumerate(lev_l) if lv == 1]:
            path = [root]  # L, R, L, R, ... copies
            while path:
                top = path[-1]
                if len(path) & 1:
                    arcs = arcs_l.get(top)
                    if arcs is None:
                        want = lev_l[top] + 1
                        arcs = arcs_l[top] = [u for u in adj[top] if lev_r[u] == want]
                    while arcs and lev_r[arcs[-1]] < 0:
                        arcs.pop()
                    if arcs:
                        path.append(arcs[-1])
                    else:
                        lev_l[top] = -1
                        path.pop()
                    continue
                if lev_r[top] + 1 == t_level and received[top] < weight[top]:
                    self._augment(path, weight)
                    if sent[root] == weight[root]:
                        break
                    path = [root]
                    continue
                arcs = arcs_r.get(top)
                if arcs is None:
                    want = lev_r[top] + 1
                    arcs = arcs_r[top] = [v for v in into[top] if lev_l[v] == want]
                flows = into[top]
                while arcs and (lev_l[arcs[-1]] < 0 or arcs[-1] not in flows):
                    arcs.pop()
                if arcs:
                    path.append(arcs[-1])
                else:
                    lev_r[top] = -1
                    path.pop()

    def _augment(self, path: list[int], weight: list[int]) -> None:
        """Push the bottleneck along s -> path -> t."""
        out, into, sent, received = self.out, self.into, self.sent, self.received
        root, last = path[0], path[-1]
        push = min(weight[root] - sent[root], weight[last] - received[last])
        for i in range(1, len(path) - 1, 2):
            push = min(push, into[path[i]][path[i + 1]])
        sent[root] += push
        received[last] += push
        for i in range(0, len(path), 2):
            v, u = path[i], path[i + 1]
            out[v][u] = out[v].get(u, 0) + push
            into[u][v] = into[u].get(v, 0) + push
        for i in range(1, len(path) - 1, 2):
            u, v = path[i], path[i + 1]
            left = into[u][v] - push
            if left:
                into[u][v] = out[v][u] = left
            else:
                del into[u][v], out[v][u]
