"""Exact reference solver for small instances.

Plain include/exclude branch and bound on bitmasks, pruned by a greedy
weighted clique cover of the vertices still available.  Deliberately free
of any reduction logic so it stays an independent check of the kernelizer
and the memetic search; ``solve`` also calls it to finish a kernel within
the default limits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import WeightedGraph


class OracleLimitError(ValueError):
    """Input exceeds the configured exact-search limits."""


class OracleBudgetError(RuntimeError):
    """Search-tree node budget exhausted before the optimum was proven."""


@dataclass(frozen=True)
class OracleLimits:
    max_vertices: int = 40
    node_budget: int = 10_000_000


def brute_force(g: WeightedGraph, limits: OracleLimits | None = None) -> tuple[int, set[int]]:
    """Maximum weight of an independent set plus one witness achieving it."""
    limits = limits or OracleLimits()
    ids = g.vertices()
    n = len(ids)
    if n > limits.max_vertices:
        raise OracleLimitError(f"{n} alive vertices exceed limit {limits.max_vertices}")
    if n == 0:
        return 0, set()

    # Bits are numbered heaviest first (ties: lower id), so the lowest set
    # bit of a mask is its heaviest vertex.
    order = sorted(ids, key=lambda v: (-g.weight[v], v))
    index = {v: i for i, v in enumerate(order)}
    w = [g.weight[v] for v in order]
    adj = [0] * n
    for v in order:
        for u in g.adj[v]:
            adj[index[v]] |= 1 << index[u]
    closed = [adj[i] | 1 << i for i in range(n)]

    # Greedy heavy-first start gives the initial lower bound.
    best_mask = 0
    used = 0
    for i in range(n):
        if not used >> i & 1:
            best_mask |= 1 << i
            used |= closed[i]
    best = [sum(w[i] for i in range(n) if best_mask >> i & 1), best_mask]

    nodes = [0]
    budget = limits.node_budget

    def pick(avail: int) -> int:
        # Branch on the max-degree vertex within the available set.
        top, top_deg = -1, -1
        m = avail
        while m:
            lsb = m & -m
            i = lsb.bit_length() - 1
            d = (closed[i] & avail).bit_count()
            if d > top_deg:
                top, top_deg = i, d
            m -= lsb
        return top

    def covered(avail: int, need: int) -> bool:
        """Whether a greedy clique cover of ``avail`` weighs at most ``need``:
        an independent set meets each clique at most once, so then no set
        in ``avail`` weighs more.  The heaviest vertex left starts a clique,
        which takes each candidate adjacent to all its members, heaviest
        first, and adds its starter's weight."""
        bound = 0
        rest = avail
        while rest:
            lsb = rest & -rest
            i = lsb.bit_length() - 1
            bound += w[i]
            if bound > need:
                return False
            clique = lsb
            cand = rest & adj[i]
            while cand:
                lsb = cand & -cand
                clique |= lsb
                cand &= adj[lsb.bit_length() - 1]
            rest &= ~clique
        return True

    def dfs(avail: int, cur_w: int, cur_mask: int) -> None:
        nodes[0] += 1
        if nodes[0] > budget:
            raise OracleBudgetError(f"node budget {budget} exhausted")
        if avail == 0:
            if cur_w > best[0]:
                best[0], best[1] = cur_w, cur_mask
            return
        if covered(avail, best[0] - cur_w):
            return
        i = pick(avail)
        dfs(avail & ~closed[i], cur_w + w[i], cur_mask | (1 << i))
        dfs(avail & ~(1 << i), cur_w, cur_mask)

    dfs((1 << n) - 1, 0, 0)
    witness = {order[i] for i in range(n) if best[1] >> i & 1}
    return best[0], witness
