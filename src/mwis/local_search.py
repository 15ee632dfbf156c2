"""Weighted local search over independent sets.

Two neighborhoods, explored by variable neighborhood descent: swaps that
insert one vertex and evict its (lighter) solution neighbors, and swaps
that trade one solution vertex for two non-adjacent neighbors of it.
Both accept strictly improving moves only, so the solution weight is
monotone along every trajectory.  :class:`SearchState` keeps each
vertex's count and weight of solution neighbors, and :func:`vnd` tests
every move from those tallies first: it calls the move function only
for an insertion that improves, or for a member whose 1-tight neighbors
together outweigh it.  :func:`vnd` draws no random numbers: its queue
starts with the improving insertions only, and a vertex joins it when it
or a neighbor flips, so a descent costs in proportion to what moves
rather than to the graph.  The graph is a ``compact()`` copy: every id
is live.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import compress

from .graph import WeightedGraph


class SearchState:
    """An independent set plus per-vertex solution-neighbor tallies.

    ``tight[v]`` counts v's solution neighbors and ``nbw[v]`` sums their
    weights; both are kept up to date by :meth:`add` and :meth:`drop`, so
    a move test reads them in constant time.  A vertex is *free* when it
    is outside the solution and none of its neighbors are inside; free
    vertices can be added without repair.  The graph must have no dead
    ids and must not change while a state is in use.
    """

    __slots__ = ("g", "in_sol", "tight", "nbw", "weight")

    def __init__(self, g: WeightedGraph, members=()):
        cap = g.capacity
        if g.live_count != cap:
            raise ValueError(f"{cap - g.live_count} dead ids; search g.compact()[0]")
        self.g = g
        self.in_sol = in_sol = [False] * cap
        self.tight = tight = [0] * cap
        self.nbw = nbw = [0] * cap
        adj, weight = g.adj, g.weight
        total = 0
        for v in sorted(set(members)):
            if not 0 <= v < cap:
                raise ValueError(f"vertex {v} is out of range")
            if tight[v]:
                raise ValueError(f"members are not independent near {v}")
            in_sol[v] = True
            w = weight[v]
            total += w
            for u in adj[v]:
                tight[u] += 1
                nbw[u] += w
        self.weight = total

    def members(self) -> set[int]:
        return set(compress(range(len(self.in_sol)), self.in_sol))

    def free(self) -> list[int]:
        """The free vertices in id order."""
        in_sol, tight = self.in_sol, self.tight
        return [v for v in range(len(in_sol)) if not in_sol[v] and not tight[v]]

    def add(self, v: int) -> None:
        if self.in_sol[v] or self.tight[v]:
            raise ValueError(f"vertex {v} is not free")
        self.in_sol[v] = True
        w = self.g.weight[v]
        self.weight += w
        tight, nbw = self.tight, self.nbw
        for u in self.g.adj[v]:
            tight[u] += 1
            nbw[u] += w

    def drop(self, v: int) -> None:
        if not self.in_sol[v]:
            raise ValueError(f"vertex {v} is not in the solution")
        self.in_sol[v] = False
        w = self.g.weight[v]
        self.weight -= w
        tight, nbw = self.tight, self.nbw
        for u in self.g.adj[v]:
            tight[u] -= 1
            nbw[u] -= w

    def force_insert(self, v: int) -> None:
        """Put v into the solution, evicting its solution neighbors."""
        if self.in_sol[v]:
            return
        for u in self.g.adj[v]:
            if self.in_sol[u]:
                self.drop(u)
        self.add(v)

    def audit(self) -> None:
        """Raise when tightness, neighbor weight or the weight cache drifted."""
        g = self.g
        total = 0
        for v in range(g.capacity):
            if self.in_sol[v]:
                total += g.weight[v]
            t = sum(1 for u in g.adj[v] if self.in_sol[u])
            if t != self.tight[v]:
                raise AssertionError(f"tightness drift at {v}: {self.tight[v]} != {t}")
            w = sum(g.weight[u] for u in g.adj[v] if self.in_sol[u])
            if w != self.nbw[v]:
                raise AssertionError(f"neighbor-weight drift at {v}: {self.nbw[v]} != {w}")
            if self.in_sol[v] and t:
                raise AssertionError(f"solution vertex {v} has solution neighbors")
        if total != self.weight:
            raise AssertionError(f"weight drift: {self.weight} != {total}")


def maximize_greedy(state: SearchState) -> None:
    """Add free vertices, heaviest first (ties: lower id), until maximal."""
    tight = state.tight
    # Adding only ever shrinks the free set, so one pass in heaviest-first
    # order picks what a fresh maximum at every step would.  The reverse
    # sort is stable, so ties keep id order.
    for v in sorted(state.free(), key=state.g.weight.__getitem__, reverse=True):
        if not tight[v]:
            state.add(v)


def omega_one_swap(state: SearchState, v: int) -> list[int]:
    """Insert v and evict its solution neighbors when strictly improving.

    Returns the vertices that changed sides, v first; empty when the move
    does not improve.
    """
    g = state.g
    if state.in_sol[v] or g.weight[v] <= state.nbw[v]:
        return []
    evicted = sorted(u for u in g.adj[v] if state.in_sol[u])
    for u in evicted:
        state.drop(u)
    state.add(v)
    return [v] + evicted


def _find_one_two_pair(state: SearchState, v: int) -> tuple[int, int] | None:
    """Two non-adjacent neighbors of v, each tight only through v, that
    together outweigh it."""
    g = state.g
    cands = sorted((u for u in g.adj[v] if not state.in_sol[u] and state.tight[u] == 1),
                   key=lambda u: (-g.weight[u], u))
    need = g.weight[v]
    for i, x in enumerate(cands):
        wx = g.weight[x]
        for y in cands[i + 1:]:
            if wx + g.weight[y] <= need:
                break  # candidates are weight-sorted; later y are no heavier
            if y not in g.adj[x]:
                return x, y
    return None


def one_two_swap(state: SearchState, v: int) -> list[int]:
    """Trade v for two of its 1-tight neighbors when strictly improving.

    Returns the vertices that changed sides, v first; empty when the move
    does not improve.
    """
    if not state.in_sol[v]:
        return []
    pair = _find_one_two_pair(state, v)
    if pair is None:
        return []
    x, y = pair
    state.drop(v)
    state.add(x)
    state.add(y)
    return [v, x, y]


def vnd(state: SearchState, max_iterations: int = 15_000) -> int:
    """Descend through both neighborhoods until locally optimal or capped.

    Insertion swaps are exhausted first; any two-for-one success returns
    to them.  Every attempted move counts against ``max_iterations``.
    The insertion queue starts with the vertices that improve on
    insertion, largest gain first (ties: lower id); every other vertex
    is queued when it or a neighbor flips, which is the only way its
    tallies change, so no improving insertion is missed.  Each attempt
    is tested from the kept tallies first (see the module docstring), so
    most cost no call.  Returns the number of attempts spent.
    """
    g = state.g
    adj, weight = g.adj, g.weight
    in_sol, tight, nbw = state.in_sol, state.tight, state.nbw
    ids = range(len(in_sol))
    gainers = sorted((v for v in ids if not in_sol[v] and weight[v] > nbw[v]),
                     key=lambda v: nbw[v] - weight[v])
    queue = deque(gainers)
    inq = [False] * len(in_sol)
    for v in gainers:
        inq[v] = True
    attempts = 0

    def requeue_around(flipped) -> None:
        affected = set(flipped)
        for f in flipped:
            affected.update(adj[f])
        for u in sorted(affected):
            if not inq[u]:
                inq[u] = True
                queue.append(u)

    while attempts < max_iterations:
        # First neighborhood: single-vertex insertion swaps off the queue.
        while queue and attempts < max_iterations:
            v = queue.popleft()
            inq[v] = False
            if in_sol[v]:
                continue
            attempts += 1
            if weight[v] > nbw[v]:
                requeue_around(omega_one_swap(state, v))
        if attempts >= max_iterations:
            break
        # Second neighborhood: first improving two-for-one trade.  A
        # member's neighbors are all outside the set and weights are
        # non-negative, so a trade needs two 1-tight neighbors that
        # together outweigh it.
        traded = False
        for v in compress(ids, in_sol):
            if attempts >= max_iterations:
                break
            attempts += 1
            ones = [weight[u] for u in adj[v] if tight[u] == 1]
            if len(ones) < 2 or sum(ones) <= weight[v]:
                continue
            flipped = one_two_swap(state, v)
            if flipped:
                requeue_around(flipped)
                traded = True
                break
        if not traded and not queue:
            break
    return attempts


def perturb(state: SearchState, strength: int, rng: random.Random) -> None:
    """Force random outside vertices into the solution, then re-maximalize."""
    if strength < 1:
        raise ValueError("perturbation strength must be at least 1")
    outside = [v for v, inside in enumerate(state.in_sol) if not inside]
    for v in rng.sample(outside, min(strength, len(outside))):
        state.force_insert(v)
    maximize_greedy(state)
