"""Mutable vertex-weighted undirected graph with removal/restore support.

The solver works on one shared graph: reductions delete or reweight
vertices, fold groups into fresh vertices, and occasionally rewire a
neighborhood; forcing deletes vertices; the evolutionary search reads a
:meth:`~WeightedGraph.compact` copy.  Every mutation is cheap to undo (the
kernelizer keeps snapshots), and vertex ids stay stable for the lifetime
of the graph.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class GraphError(ValueError):
    """Raised for structurally invalid graph operations."""


class WeightedGraph:
    """Undirected graph with non-negative integer vertex weights.

    Removed vertices keep their id, weight and a dead flag; adjacency sets
    only ever contain alive vertices, so neighbor iteration needs no
    filtering.  Fold vertices created by reductions are appended with fresh
    ids >= ``n_original``.
    """

    __slots__ = ("n_original", "adj", "weight", "alive", "live_count",
                 "live_edges")

    def __init__(self, weights: Sequence[int]):
        for w in weights:
            if w < 0:
                raise GraphError(f"negative weight {w}")
        self.n_original = len(weights)
        self.adj: list[set[int]] = [set() for _ in weights]
        self.weight: list[int] = list(weights)
        self.alive: list[bool] = [True] * len(weights)
        self.live_count = len(weights)
        self.live_edges = 0

    # -- queries ---------------------------------------------------------

    @property
    def capacity(self) -> int:
        return len(self.adj)

    @property
    def is_empty(self) -> bool:
        return self.live_count == 0

    def is_alive(self, v: int) -> bool:
        return 0 <= v < len(self.alive) and self.alive[v]

    def vertices(self) -> list[int]:
        """Alive vertex ids in ascending order."""
        return [v for v in range(len(self.alive)) if self.alive[v]]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighborhood_weight(self, v: int) -> int:
        return sum(self.weight[u] for u in self.adj[v])

    def total_weight(self) -> int:
        return sum(self.weight[v] for v in range(len(self.alive)) if self.alive[v])

    def edges(self) -> list[tuple[int, int]]:
        """Alive edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(len(self.alive)):
            if self.alive[u]:
                for v in self.adj[u]:
                    if u < v:
                        out.append((u, v))
        out.sort()
        return out

    # -- mutation --------------------------------------------------------

    def _check_alive(self, v: int) -> None:
        if not (0 <= v < len(self.alive)):
            raise GraphError(f"vertex {v} out of range")
        if not self.alive[v]:
            raise GraphError(f"vertex {v} is not alive")

    def remove_vertex(self, v: int) -> tuple[int, ...]:
        """Remove ``v``; returns its neighbor snapshot for later restore."""
        self._check_alive(v)
        snapshot = tuple(sorted(self.adj[v]))
        for u in snapshot:
            self.adj[u].discard(v)
        self.adj[v] = set()
        self.alive[v] = False
        self.live_count -= 1
        self.live_edges -= len(snapshot)
        return snapshot

    def restore_vertex(self, v: int, neighbors: Iterable[int]) -> None:
        """Bring a removed vertex back with exactly the given neighbors."""
        if self.alive[v]:
            raise GraphError(f"vertex {v} is already alive")
        nbrs = set(neighbors)
        self.adj[v] = nbrs
        for u in nbrs:
            self.adj[u].add(v)
        self.alive[v] = True
        self.live_count += 1
        self.live_edges += len(nbrs)

    def set_vertex_weight(self, v: int, w: int) -> None:
        self._check_alive(v)
        if w < 0:
            raise GraphError(f"negative weight {w} for vertex {v}")
        self.weight[v] = w

    def add_edge(self, u: int, v: int) -> None:
        self._check_alive(u)
        self._check_alive(v)
        if u == v:
            raise GraphError(f"self-loop at {u}")
        if v in self.adj[u]:
            raise GraphError(f"edge ({u}, {v}) already present")
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.live_edges += 1

    def remove_edge(self, u: int, v: int) -> None:
        self._check_alive(u)
        self._check_alive(v)
        if v not in self.adj[u]:
            raise GraphError(f"edge ({u}, {v}) not present")
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self.live_edges -= 1

    def add_vertex(self, w: int) -> int:
        """Append a fresh isolated vertex (used for fold products)."""
        if w < 0:
            raise GraphError(f"negative weight {w}")
        v = len(self.adj)
        self.adj.append(set())
        self.weight.append(w)
        self.alive.append(True)
        self.live_count += 1
        return v

    def pop_last_vertex(self) -> None:
        """Undo of :meth:`add_vertex`; the vertex must be last and isolated."""
        v = len(self.adj) - 1
        if self.adj[v]:
            raise GraphError(f"vertex {v} still has edges")
        if self.alive[v]:
            self.live_count -= 1
        self.adj.pop()
        self.weight.pop()
        self.alive.pop()

    def compact(self) -> tuple["WeightedGraph", list[int]]:
        """The live subgraph renumbered 0..k-1 in ascending id order, and
        ``ids`` with ``ids[i]`` the id here of vertex i.  Neighbor lists are
        sorted tuples, so it is read-only; its :meth:`copy` is mutable."""
        ids = self.vertices()
        new_id = {v: i for i, v in enumerate(ids)}
        g = WeightedGraph.__new__(WeightedGraph)
        g.n_original = len(ids)
        g.adj = [tuple(sorted(new_id[u] for u in self.adj[v])) for v in ids]
        g.weight = [self.weight[v] for v in ids]
        g.alive = [True] * len(ids)
        g.live_count = len(ids)
        g.live_edges = self.live_edges
        return g, ids

    def copy(self) -> "WeightedGraph":
        g = WeightedGraph.__new__(WeightedGraph)
        g.n_original = self.n_original
        g.adj = [set(s) for s in self.adj]
        g.weight = list(self.weight)
        g.alive = list(self.alive)
        g.live_count = self.live_count
        g.live_edges = self.live_edges
        return g

    # -- validation ------------------------------------------------------

    def audit(self) -> None:
        """Walk the structure and raise on any violated invariant."""
        n = len(self.adj)
        if not (len(self.weight) == len(self.alive) == n):
            raise GraphError("ragged internal arrays")
        live = 0
        entries = 0
        for v in range(n):
            if self.alive[v]:
                live += 1
                if self.weight[v] < 0:
                    raise GraphError(f"negative weight at {v}")
                for u in self.adj[v]:
                    if u == v:
                        raise GraphError(f"self-loop at {v}")
                    if not self.alive[u]:
                        raise GraphError(f"dead neighbor {u} listed at {v}")
                    if v not in self.adj[u]:
                        raise GraphError(f"asymmetric edge ({v}, {u})")
                entries += len(self.adj[v])
            elif self.adj[v]:
                raise GraphError(f"dead vertex {v} has neighbors")
        if live != self.live_count:
            raise GraphError(f"live_count {self.live_count} != {live}")
        if entries != 2 * self.live_edges:
            raise GraphError(f"live_edges {self.live_edges} != {entries // 2}")


def build_graph(edges: Iterable[tuple[int, int]], weights: Sequence[int]) -> WeightedGraph:
    """Build a graph from an edge list, deduplicating symmetric pairs."""
    g = WeightedGraph(weights)
    n = g.n_original
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise GraphError(f"self-loop at {u}")
        if v not in g.adj[u]:
            g.adj[u].add(v)
            g.adj[v].add(u)
            g.live_edges += 1
    return g


def independence_violations(g: WeightedGraph, members: Iterable[int]) -> list[tuple[int, int]]:
    """Edges of ``g`` with both endpoints in ``members`` (u < v, sorted)."""
    mem = set(members)
    bad = set()
    for v in mem:
        if not g.is_alive(v):
            continue
        for u in g.adj[v]:
            if u in mem:
                bad.add((min(u, v), max(u, v)))
    return sorted(bad)


def is_independent(g: WeightedGraph, members: Iterable[int]) -> bool:
    """True iff every member is alive and no edge joins two members."""
    mem = set(members)
    for v in mem:
        if not g.is_alive(v):
            return False
        if any(u in mem for u in g.adj[v]):
            return False
    return True


def set_weight(g: WeightedGraph, members: Iterable[int]) -> int:
    """Total weight of a vertex set."""
    return sum(g.weight[v] for v in set(members))
