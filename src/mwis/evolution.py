"""Population management and the partition-based combine loop.

Individuals are maximal independent sets of the current kernel.  Each
round draws one of four combine operators (block exchange across a vertex
separator, its multi-way scored variant, cover exchange across an edge
partition with exact bipartite repair, and its multi-way greedy-repair
variant), improves the offspring with local search, optionally mutates
it, and offers it to the population under a similarity-based replacement
rule.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

from .graph import WeightedGraph, is_independent
from .local_search import SearchState, maximize_greedy, perturb, vnd
from .maxflow import FlowNetwork
from .partition import Partition, PartitionPool, SEPARATOR

if TYPE_CHECKING:
    from .solver import SolverConfig

# Offers without an entry on merit after which ``replace`` forces the
# offspring in over the most similar member.
FORCE_AFTER = 100


class InitStrategy(Enum):
    RANDOM_MWIS = "random_mwis"
    GREEDY_WEIGHT_MWIS = "greedy_weight_mwis"
    GREEDY_DEGREE_MWIS = "greedy_degree_mwis"
    GREEDY_WEIGHT_VC = "greedy_weight_vc"
    GREEDY_DEGREE_VC = "greedy_degree_vc"


@dataclass(frozen=True)
class Individual:
    """One maximal independent set of the kernel, with cached weight."""

    members: frozenset[int]
    weight: int

    def intersection_size(self, other: "Individual") -> int:
        return len(self.members & other.members)


def _individual_from_state(state: SearchState) -> Individual:
    return Individual(frozenset(state.members()), state.weight)


def make_individual(g: WeightedGraph, members) -> Individual:
    """Wrap an independent set as an individual (validates independence)."""
    if not is_independent(g, members):
        raise ValueError("members are not an independent set")
    mem = frozenset(members)
    return Individual(mem, sum(g.weight[v] for v in mem))


# -- initial constructors ----------------------------------------------------

def build_initial(g: WeightedGraph, strategy: InitStrategy,
                  rng: random.Random) -> Individual:
    """One maximal independent set built by the named constructor."""
    if g.live_count == 0:
        raise ValueError("graph is empty")
    if strategy is InitStrategy.RANDOM_MWIS:
        state = SearchState(g)
        maximize_greedy(state, "uniform_random", rng)
        return _individual_from_state(state)
    if strategy is InitStrategy.GREEDY_WEIGHT_MWIS:
        state = SearchState(g)
        maximize_greedy(state, "by_weight")
        return _individual_from_state(state)
    if strategy is InitStrategy.GREEDY_DEGREE_MWIS:
        return _greedy_degree_mwis(g)
    if strategy is InitStrategy.GREEDY_WEIGHT_VC:
        return _cover_complement(g, by_weight=True)
    if strategy is InitStrategy.GREEDY_DEGREE_VC:
        return _cover_complement(g, by_weight=False)
    raise ValueError(f"unknown strategy {strategy}")


def _greedy_degree_mwis(g: WeightedGraph) -> Individual:
    """Take the free vertex of smallest residual degree until maximal."""
    state = SearchState(g)
    residual = {v: g.degree(v) for v in g.vertices()}
    labeled: set[int] = set()
    heap = [(residual[v], v) for v in sorted(residual)]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if v in labeled or d != residual[v]:
            continue
        labeled.add(v)
        state.add(v)
        for u in sorted(g.adj[v]):
            if u not in labeled:
                labeled.add(u)
                for z in g.adj[u]:
                    if z not in labeled:
                        residual[z] -= 1
                        heapq.heappush(heap, (residual[z], z))
    return _individual_from_state(state)


def _cover_complement(g: WeightedGraph, by_weight: bool) -> Individual:
    """Grow a vertex cover greedily, complement it, then re-maximalize.

    ``by_weight`` picks the lightest useful vertex each step; otherwise the
    vertex covering the most still-uncovered edges wins.
    """
    uncov = {v: g.degree(v) for v in g.vertices()}
    cover: set[int] = set()
    if by_weight:
        heap = [(g.weight[v], v) for v in sorted(uncov) if uncov[v] > 0]
    else:
        heap = [(-uncov[v], v) for v in sorted(uncov) if uncov[v] > 0]
    heapq.heapify(heap)
    while heap:
        key, v = heapq.heappop(heap)
        if v in cover or uncov[v] == 0:
            continue
        if not by_weight and -key != uncov[v]:
            continue  # stale priority entry
        cover.add(v)
        for u in g.adj[v]:
            if u not in cover:
                uncov[u] -= 1
                if not by_weight and uncov[u] > 0:
                    heapq.heappush(heap, (-uncov[u], u))
        uncov[v] = 0
    state = SearchState(g, (v for v in g.vertices() if v not in cover))
    maximize_greedy(state, "by_weight")
    return _individual_from_state(state)


@dataclass
class Population:
    """Fixed-size pool of individuals plus a stagnation counter."""

    individuals: list[Individual]
    stagnation: int = 0

    def __len__(self) -> int:
        return len(self.individuals)

    def best(self) -> Individual:
        return max(self.individuals, key=lambda ind: ind.weight)


def initial_population(g: WeightedGraph, size: int, rng: random.Random) -> Population:
    """Fill a population, drawing a constructor uniformly per individual."""
    strategies = list(InitStrategy)
    individuals = [build_initial(g, rng.choice(strategies), rng) for _ in range(size)]
    return Population(individuals)


def tournament_select(pop: Population, rng: random.Random) -> Individual:
    """Heavier of two uniformly drawn members."""
    a = pop.individuals[rng.randrange(len(pop.individuals))]
    b = pop.individuals[rng.randrange(len(pop.individuals))]
    return a if a.weight >= b.weight else b


# -- combine operators --------------------------------------------------------

def _finish(g: WeightedGraph, members: set[int], ls_iterations: int,
            rng: random.Random) -> Individual:
    """Maximalize by weight, then improve with one local-search descent."""
    state = SearchState(g, members)
    maximize_greedy(state, "by_weight")
    vnd(state, ls_iterations, rng)
    return _individual_from_state(state)


def _block_weights(g: WeightedGraph, part: Partition, vertices) -> list[int]:
    """Weight of ``vertices`` inside each block of ``part`` (one pass)."""
    out = [0] * part.k
    block_of, weight = part.block_of, g.weight
    for v in vertices:
        b = block_of.get(v, SEPARATOR)
        if b != SEPARATOR:
            out[b] += weight[v]
    return out


def _split_blocks(part: Partition) -> list[set[int]]:
    out: list[set[int]] = [set() for _ in range(part.k)]
    for v, b in part.block_of.items():
        if b != SEPARATOR:
            out[b].add(v)
    return out


def combine_vertex_separator(g: WeightedGraph, part: Partition,
                             first: Individual, second: Individual,
                             ls_iterations: int,
                             rng: random.Random | None = None
                             ) -> tuple[Individual, Individual]:
    """Exchange whole separator blocks between two parents.

    With no edges between blocks, both raw offspring are independent before
    any repair; separator vertices only re-enter through maximization.
    """
    if part.k != 2 or not part.has_separator:
        raise ValueError("needs a 2-way partition with a separator")
    v1, v2 = _split_blocks(part)
    raw1 = (first.members & v1) | (second.members & v2)
    raw2 = (second.members & v1) | (first.members & v2)
    return (_finish(g, set(raw1), ls_iterations, rng),
            _finish(g, set(raw2), ls_iterations, rng))


def combine_multiway_vertex_separator(g: WeightedGraph, part: Partition,
                                      parents: Sequence[Individual],
                                      ls_iterations: int,
                                      rng: random.Random | None = None) -> Individual:
    """Give each separator block to the parent weighing most inside it."""
    if not part.has_separator:
        raise ValueError("needs a partition with a separator")
    if len(parents) != part.k:
        raise ValueError(f"need {part.k} parents, got {len(parents)}")
    inside = [_block_weights(g, part, parent.members) for parent in parents]
    winners = [max(range(len(parents)), key=lambda i: (inside[i][b], -i))
               for b in range(part.k)]
    block_of = part.block_of
    raw = {v for b, i in enumerate(winners) for v in parents[i].members
           if block_of.get(v, SEPARATOR) == b}
    return _finish(g, raw, ls_iterations, rng)


def _min_weight_bipartite_cover(g: WeightedGraph, edges: list[tuple[int, int]],
                                left: set[int]) -> set[int]:
    """Exact minimum-weight vertex cover of a bipartite edge set via min cut."""
    left_ids = sorted({x for e in edges for x in e if x in left})
    right_ids = sorted({x for e in edges for x in e if x not in left})
    li = {v: i for i, v in enumerate(left_ids)}
    ri = {v: i + len(left_ids) for i, v in enumerate(right_ids)}
    s = len(left_ids) + len(right_ids)
    t = s + 1
    net = FlowNetwork(t + 1)
    inf = sum(g.weight[v] for v in left_ids + right_ids) + 1
    for v in left_ids:
        net.add_edge(s, li[v], g.weight[v])
    for v in right_ids:
        net.add_edge(ri[v], t, g.weight[v])
    for u, v in edges:
        a, b = (u, v) if u in left else (v, u)
        net.add_edge(li[a], ri[b], inf)
    net.max_flow(s, t)
    side = net.min_cut_source_side(s)
    cover = {v for v in left_ids if li[v] not in side}
    cover |= {v for v in right_ids if ri[v] in side}
    return cover


def _uncovered_edges(g: WeightedGraph, free: set[int]) -> list[tuple[int, int]]:
    """Sorted edges (u, v), u < v, with both ends in ``free``, the alive
    vertices outside a cover; only their neighborhoods are scanned."""
    return sorted((u, v) for u in free for v in g.adj[u] if u < v and v in free)


def exchanged_covers(g: WeightedGraph, part: Partition,
                     first: Individual, second: Individual) -> list[set[int]]:
    """Both cover exchanges across a 2-way edge partition, repaired.

    Works on the complements (vertex covers); edges of the cut left
    uncovered by the exchange induce a bipartite graph, repaired with an
    exact minimum-weight cover.  Each returned set covers every alive edge.
    """
    if part.k != 2 or part.has_separator:
        raise ValueError("needs a plain 2-way edge partition")
    v1, v2 = _split_blocks(part)
    alive = set(g.vertices())
    c1 = alive - first.members
    c2 = alive - second.members
    out = []
    for cover in ((c1 & v1) | (c2 & v2), (c2 & v1) | (c1 & v2)):
        uncovered = _uncovered_edges(g, alive - cover)
        if uncovered:
            cover = cover | _min_weight_bipartite_cover(g, uncovered, v1)
        out.append(cover)
    return out


def combine_edge_separator(g: WeightedGraph, part: Partition,
                           first: Individual, second: Individual,
                           ls_iterations: int,
                           rng: random.Random | None = None
                           ) -> tuple[Individual, Individual]:
    """Exchange cover blocks across a 2-way edge partition and repair."""
    alive = set(g.vertices())
    covers = exchanged_covers(g, part, first, second)
    o1, o2 = (_finish(g, alive - c, ls_iterations, rng) for c in covers)
    return o1, o2


def combine_multiway_edge_separator(g: WeightedGraph, part: Partition,
                                    parents: Sequence[Individual],
                                    ls_iterations: int,
                                    rng: random.Random | None = None) -> Individual:
    """Give each block to the parent with the lightest cover inside it.

    Cut edges left uncovered are repaired greedily: scan edges in id order
    and take the endpoint with the smaller weight per still-uncovered
    incident edge.
    """
    if part.has_separator:
        raise ValueError("needs an edge partition, not a separator")
    if len(parents) != part.k:
        raise ValueError(f"need {part.k} parents, got {len(parents)}")
    alive = set(g.vertices())
    # A parent's cover inside a block weighs the block less its members there.
    block_w = _block_weights(g, part, part.block_of)
    inside = [_block_weights(g, part, parent.members) for parent in parents]
    winners = [min(range(len(parents)), key=lambda i: (block_w[b] - inside[i][b], i))
               for b in range(part.k)]
    cover = {v for v, b in part.block_of.items()
             if b != SEPARATOR and v not in parents[winners[b]].members}

    uncovered = _uncovered_edges(g, alive - cover)
    if uncovered:
        udeg: dict[int, int] = {}
        for u, v in uncovered:
            udeg[u] = udeg.get(u, 0) + 1
            udeg[v] = udeg.get(v, 0) + 1
        for u, v in uncovered:
            if u in cover or v in cover:
                continue
            # weight-to-uncovered-degree ratio, compared exactly.
            pick = u if (g.weight[u] * udeg[v], u) <= (g.weight[v] * udeg[u], v) else v
            cover.add(pick)
    return _finish(g, alive - cover, ls_iterations, rng)


# -- mutation and replacement --------------------------------------------------

def mutate(g: WeightedGraph, offspring: Individual, rng: random.Random,
           strength: int, ls_iterations: int) -> Individual:
    """Force random vertices into the solution, then descend again."""
    state = SearchState(g, offspring.members)
    perturb(state, strength, rng)
    vnd(state, ls_iterations, rng)
    return _individual_from_state(state)


def replace(pop: Population, offspring: Individual) -> bool:
    """Offer the offspring to the population; True iff membership changed.

    Duplicates are rejected.  Normally the offspring may only evict a
    strictly lighter member, choosing the most similar one by intersection
    size.  Once the population stalled for ``FORCE_AFTER`` offers, the
    offspring is forced over the most similar member instead (the current
    best member stays protected).
    """
    inds = pop.individuals
    if any(ind.members == offspring.members for ind in inds):
        pop.stagnation += 1
        return False
    lighter = [i for i, ind in enumerate(inds) if ind.weight < offspring.weight]
    if lighter:
        victim = max(lighter, key=lambda i: (offspring.intersection_size(inds[i]), -i))
        inds[victim] = offspring
        pop.stagnation = 0
        return True
    if pop.stagnation >= FORCE_AFTER and len(inds) > 1:
        best = max(range(len(inds)), key=lambda i: (inds[i].weight, -i))
        candidates = [i for i in range(len(inds)) if i != best]
        victim = max(candidates, key=lambda i: (offspring.intersection_size(inds[i]), -i))
        inds[victim] = offspring
        pop.stagnation = 0
        return True
    pop.stagnation += 1
    return False


# -- the evolve loop -------------------------------------------------------------

_COMBINE_KINDS = ("vertex_separator", "multiway_vertex_separator",
                  "edge_separator", "multiway_edge_separator")


def evolve(g: WeightedGraph, pop: Population, rng: random.Random,
           config: SolverConfig, deadline: float | None = None,
           on_improve: Callable[[int, int], None] | None = None) -> Population:
    """Run combine/mutate/replace rounds on ``pop`` until the budget is spent.

    Reads ``unsuccessful_limit``, ``ls_iterations``, ``mutation_prob``,
    ``pool_size`` and ``max_blocks`` from ``config``.  Stops after
    ``unsuccessful_limit`` consecutive offers that did not enter the
    population on merit (forced inserts do not reset the counter), or once
    ``time.monotonic()`` reaches ``deadline``.
    """
    if g.live_count < 2:
        return pop
    pool = PartitionPool(g, capacity=config.pool_size, max_blocks=config.max_blocks)
    ls_iterations = config.ls_iterations

    best_weight = pop.best().weight
    unsuccessful = 0
    strength = 1
    rounds = 0
    while unsuccessful < config.unsuccessful_limit:
        if deadline is not None and time.monotonic() >= deadline:
            break
        rounds += 1
        kind = _COMBINE_KINDS[rng.randrange(len(_COMBINE_KINDS))]
        if kind == "vertex_separator":
            part = pool.fetch(want_separator=True, rng=rng, k=2)
            parents = [tournament_select(pop, rng) for _ in range(2)]
            pair = combine_vertex_separator(g, part, *parents,
                                            ls_iterations=ls_iterations, rng=rng)
            offspring = max(pair, key=lambda ind: ind.weight)
        elif kind == "edge_separator":
            part = pool.fetch(want_separator=False, rng=rng, k=2)
            parents = [tournament_select(pop, rng) for _ in range(2)]
            pair = combine_edge_separator(g, part, *parents,
                                          ls_iterations=ls_iterations, rng=rng)
            offspring = max(pair, key=lambda ind: ind.weight)
        elif kind == "multiway_vertex_separator":
            part = pool.fetch(want_separator=True, rng=rng)
            parents = [tournament_select(pop, rng) for _ in range(part.k)]
            offspring = combine_multiway_vertex_separator(
                g, part, parents, ls_iterations=ls_iterations, rng=rng)
        else:
            part = pool.fetch(want_separator=False, rng=rng)
            parents = [tournament_select(pop, rng) for _ in range(part.k)]
            offspring = combine_multiway_edge_separator(
                g, part, parents, ls_iterations=ls_iterations, rng=rng)

        if rng.random() < config.mutation_prob:
            offspring = mutate(g, offspring, rng, strength=strength,
                               ls_iterations=ls_iterations)

        forcing = pop.stagnation >= FORCE_AFTER
        changed = replace(pop, offspring)
        if changed and not forcing:
            unsuccessful = 0
        else:
            unsuccessful += 1

        new_best = pop.best().weight
        if new_best > best_weight:
            best_weight = new_best
            strength = 1
            if on_improve is not None:
                on_improve(rounds, best_weight)
        elif not changed:
            strength = min(strength * 2, 4)
    return pop
