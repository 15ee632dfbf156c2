"""Exact reference solver for small instances.

Plain include/exclude branch and bound on bitmasks with the trivial
remaining-weight bound.  Deliberately free of any reduction logic so it
stays an independent check of the kernelizer and the memetic search;
``solve`` also calls it to finish a kernel within the default limits.
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
    max_vertices: int = 30
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

    index = {v: i for i, v in enumerate(ids)}
    w = [g.weight[v] for v in ids]
    closed = [1 << i for i in range(n)]
    for v in ids:
        i = index[v]
        for u in g.adj[v]:
            closed[i] |= 1 << index[u]

    # Greedy heavy-first start gives the initial lower bound.
    best_mask = 0
    used = 0
    for i in sorted(range(n), key=lambda i: (-w[i], i)):
        if not used & (1 << i):
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
            d = bin(closed[i] & avail).count("1")
            if d > top_deg:
                top, top_deg = i, d
            m -= lsb
        return top

    def dfs(avail: int, cur_w: int, cur_mask: int, rem_w: int) -> None:
        nodes[0] += 1
        if nodes[0] > budget:
            raise OracleBudgetError(f"node budget {budget} exhausted")
        if cur_w + rem_w <= best[0]:
            return
        if avail == 0:
            if cur_w > best[0]:
                best[0], best[1] = cur_w, cur_mask
            return
        i = pick(avail)
        removed = closed[i] & avail
        rem_removed = 0
        m = removed
        while m:
            lsb = m & -m
            rem_removed += w[lsb.bit_length() - 1]
            m -= lsb
        dfs(avail & ~removed, cur_w + w[i], cur_mask | (1 << i), rem_w - rem_removed)
        dfs(avail & ~(1 << i), cur_w, cur_mask, rem_w - w[i])

    dfs((1 << n) - 1, 0, 0, sum(w))
    witness = {ids[i] for i in range(n) if best[1] >> i & 1}
    return best[0], witness
