"""Balanced k-way partitions and vertex separators of the current kernel.

Blocks are grown by multi-source BFS from random seeds under a hard size
cap, then polished by a bounded boundary-refinement sweep.  A vertex
separator is extracted from an edge partition by covering every cut edge;
separator vertices are exempt from the balance bound.  A small pool keeps
partitions of assorted block counts ready for the combine operators; it
lives for one evolve call, during which the graph (a ``compact()`` copy,
so every id is live) does not change.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

from .graph import WeightedGraph

SEPARATOR = -1

POOL_BLOCK_CHOICES = (2, 4, 8, 16, 32, 64)
# Imbalance bound of every pool partition: blocks hold at most 3% more
# than an even share.
POOL_EPSILON = 0.03


@dataclass(frozen=True)
class Partition:
    """Immutable block assignment over the vertices of one graph.

    ``block_of[v]`` is vertex v's block in ``0..k-1`` or ``SEPARATOR``.
    ``max_block_size`` is the balance bound the blocks were built under.
    """

    k: int
    block_of: list[int]
    max_block_size: int
    has_separator: bool

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, b in enumerate(self.block_of):
            if b != SEPARATOR:
                out[b].append(v)
        return out

    def separator(self) -> list[int]:
        return [v for v, b in enumerate(self.block_of) if b == SEPARATOR]

    def dump(self) -> str:
        """Debug dump: one block id per vertex in id order (-1 =
        separator)."""
        return "".join(f"{b}\n" for b in self.block_of)

    def cut_edges(self, g: WeightedGraph) -> list[tuple[int, int]]:
        """Edges joining two distinct non-separator blocks."""
        out = []
        for u, v in g.edges():
            bu, bv = self.block_of[u], self.block_of[v]
            if bu != bv and bu != SEPARATOR and bv != SEPARATOR:
                out.append((u, v))
        return out


def max_block_size(n: int, k: int, epsilon: float) -> int:
    """Balance bound: (1 + epsilon) * ceil(n / k), floored to an int."""
    return int((1.0 + epsilon) * math.ceil(n / k) + 1e-9)


def validate_partition(g: WeightedGraph, part: Partition) -> list[str]:
    """All balance/coverage/separator violations, empty when valid."""
    if len(part.block_of) != g.capacity:
        return [f"{len(part.block_of)} labels for {g.capacity} vertices"]
    problems = []
    sizes = [0] * part.k
    for v, b in enumerate(part.block_of):
        if b == SEPARATOR:
            if not part.has_separator:
                problems.append(f"separator label on {v} in an edge partition")
        elif 0 <= b < part.k:
            sizes[b] += 1
        else:
            problems.append(f"vertex {v} labeled with unknown block {b}")
    bound = part.max_block_size
    for b, size in enumerate(sizes):
        if size > bound:
            problems.append(f"block {b} has {size} vertices, bound {bound}")
    if part.has_separator:
        for u, v in part.cut_edges(g):
            problems.append(f"cross-block edge ({u}, {v}) survives the separator")
    return problems


def edge_partition(g: WeightedGraph, k: int, epsilon: float,
                   rng: random.Random) -> Partition:
    """Balanced k-way partition targeting a small edge cut."""
    n = g.capacity
    if g.live_count != n:
        raise ValueError(f"{n - g.live_count} dead ids; partition g.compact()[0]")
    if k < 2:
        raise ValueError(f"need at least 2 blocks, got {k}")
    if k > n:
        raise ValueError(f"{k} blocks exceed {n} vertices")
    cap = max_block_size(n, k, epsilon)

    # Until every vertex is claimed, SEPARATOR marks the unclaimed ones.
    block_of = [SEPARATOR] * n
    sizes = [0] * k
    frontiers: list[deque[int]] = [deque() for _ in range(k)]
    for b, seed in enumerate(rng.sample(range(n), k)):
        block_of[seed] = b
        sizes[b] += 1
        frontiers[b].append(seed)

    # Round-robin region growing: each block claims the unassigned
    # neighbors of one frontier vertex per turn, up to its cap.
    active = True
    while active:
        active = False
        for b in range(k):
            while frontiers[b]:
                v = frontiers[b].popleft()
                claimed = False
                for u in sorted(g.adj[v]):
                    if block_of[u] == SEPARATOR and sizes[b] < cap:
                        block_of[u] = b
                        sizes[b] += 1
                        frontiers[b].append(u)
                        claimed = True
                if claimed:
                    active = True
                    break

    # Strand leftovers (blocked frontiers, other components) by adjacency,
    # falling back to the emptiest block.
    for v in range(n):
        if block_of[v] != SEPARATOR:
            continue
        counts = [0] * k
        for u in g.adj[v]:
            b = block_of[u]
            if b != SEPARATOR:
                counts[b] += 1
        choices = [b for b in range(k) if sizes[b] < cap]
        b = max(choices, key=lambda b: (counts[b], -sizes[b], -b))
        block_of[v] = b
        sizes[b] += 1

    _refine(g, block_of, sizes, cap, k, passes=2)
    return Partition(k=k, block_of=block_of, max_block_size=cap, has_separator=False)


def _refine(g: WeightedGraph, block_of: list[int], sizes: list[int],
            cap: int, k: int, passes: int) -> None:
    """Bounded local refinement: single moves, then cross-block swaps.

    Moves respect the size cap; swaps keep sizes unchanged, which matters
    at epsilon=0 where every block is full.  The swap phase tries every
    pair of boundary vertices in two different blocks, in id order, and
    takes each pair whose trade shrinks the cut.  Both phases read one
    table of per-block neighbor counts, built once and updated on every
    move and swap, so one move or pair test costs O(k) or constant time.
    """
    adj = g.adj
    counts = [[0] * k for _ in block_of]
    for v, b in enumerate(block_of):
        for u in adj[v]:
            counts[u][b] += 1

    def relabel(x: int, old: int, new: int) -> None:
        block_of[x] = new
        for z in adj[x]:
            cz = counts[z]
            cz[old] -= 1
            cz[new] += 1

    for _ in range(passes):
        moved = False
        for v, b in enumerate(block_of):
            cv = counts[v]
            here = cv[b]
            best_gain, target = 0, None
            for t in range(k):
                if t == b or sizes[t] >= cap:
                    continue
                gain = cv[t] - here
                if gain > best_gain:
                    best_gain, target = gain, t
            if target is not None and sizes[b] > 1:
                relabel(v, b, target)
                sizes[b] -= 1
                sizes[target] += 1
                moved = True

        boundary = [v for v, b in enumerate(block_of) if counts[v][b] < len(adj[v])]
        for i, u in enumerate(boundary):
            bu = block_of[u]
            cu = counts[u]
            adj_u = adj[u]
            for v in boundary[i + 1:]:
                bv = block_of[v]
                if bu == bv:
                    continue
                cv = counts[v]
                # Change in the cut when u and v trade blocks.  The counts
                # alone would score an edge u-v as healed at both ends, but
                # it stays cut.
                delta = cu[bu] - cu[bv] + cv[bv] - cv[bu]
                if v in adj_u:
                    delta += 2
                if delta < 0:
                    relabel(u, bu, bv)
                    relabel(v, bv, bu)
                    bu = bv
                    moved = True
        if not moved:
            break


def separator_from(g: WeightedGraph, part: Partition) -> Partition:
    """Turn an edge partition into a vertex separator.

    Every cut edge gets covered by moving one endpoint into the separator;
    the endpoint with the higher remaining cut degree wins, with graph
    degree and then lower id breaking ties (hubs make better separators).
    """
    block_of = list(part.block_of)
    cut = part.cut_edges(g)
    incident: dict[int, set[tuple[int, int]]] = {}
    for e in cut:
        for v in e:
            incident.setdefault(v, set()).add(e)
    remaining = set(cut)
    for u, v in cut:  # sorted, so each uncovered edge is the least remaining
        if (u, v) not in remaining:
            continue
        ku = (len(incident[u] & remaining), g.degree(u), -u)
        kv = (len(incident[v] & remaining), g.degree(v), -v)
        pick = u if ku >= kv else v
        block_of[pick] = SEPARATOR
        remaining -= incident[pick]
    return Partition(k=part.k, block_of=block_of, max_block_size=part.max_block_size,
                     has_separator=True)


def vertex_separator(g: WeightedGraph, k: int, epsilon: float,
                     rng: random.Random) -> Partition:
    """Balanced k blocks plus a separator with no edges between blocks."""
    return separator_from(g, edge_partition(g, k, epsilon, rng))


@dataclass
class _PoolEntry:
    edge: Partition
    sep: Partition | None = None


@dataclass
class PartitionPool:
    """Cache of up to ``capacity`` partitions of one unchanging graph.

    Block counts are drawn from the ``POOL_BLOCK_CHOICES`` that fit the
    graph (``evolve`` passes ``SolverConfig.pool_size``); every partition is
    built under the ``POOL_EPSILON`` balance bound.
    """

    g: WeightedGraph
    capacity: int
    _entries: list[_PoolEntry] = field(default_factory=list)

    def _fill(self, rng: random.Random) -> None:
        choices = [k for k in POOL_BLOCK_CHOICES if k <= self.g.live_count]
        if not choices:
            raise ValueError(f"no block count fits a graph of {self.g.live_count} vertices")
        self._entries = [
            _PoolEntry(edge_partition(self.g, k, POOL_EPSILON, rng))
            for k in (rng.choice(choices) for _ in range(self.capacity))
        ]

    def fetch(self, want_separator: bool, rng: random.Random,
              k: int | None = None) -> Partition:
        """Uniformly random pool entry matching the request.

        An empty pool fills first; a missing block count is built on demand
        and replaces a random entry.
        """
        if not self._entries:
            self._fill(rng)
        matching = [e for e in self._entries if k is None or e.edge.k == k]
        if not matching:
            entry = _PoolEntry(edge_partition(self.g, k, POOL_EPSILON, rng))
            self._entries[rng.randrange(len(self._entries))] = entry
        else:
            entry = matching[rng.randrange(len(matching))]
        if not want_separator:
            return entry.edge
        if entry.sep is None:
            entry.sep = separator_from(self.g, entry.edge)
        return entry.sep
