"""Population management and the partition-based combine loop.

Individuals are maximal independent sets of the current kernel.  Each
round draws one of four combine operators, all one block exchange: each
block of a partition takes one parent's members, and the edges left
between taken vertices get one of three repairs (none across a vertex
separator, an exact bipartite cover across a 2-way edge partition, a
greedy cover across a k-way one).  The offspring is improved with local
search, optionally mutated, and offered to the population under a
similarity-based replacement rule.
"""

from __future__ import annotations

import heapq
import random
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Literal, Sequence

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
    # Copied from a set, a frozenset's table is sized for its members; one
    # built from an iterator can be twice as large, and populations keep it.
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


def initial_population(g: WeightedGraph, size: int, rng: random.Random,
                       deadline: float | None = None) -> Population:
    """Fill a population, drawing a constructor uniformly per individual.

    Stops early, with at least two individuals, once ``time.monotonic()``
    reaches ``deadline``.
    """
    strategies = list(InitStrategy)
    individuals: list[Individual] = []
    for _ in range(size):
        if len(individuals) >= 2 and deadline is not None and time.monotonic() >= deadline:
            break
        individuals.append(build_initial(g, rng.choice(strategies), rng))
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


def _exchange(g: WeightedGraph, part: Partition, parents: Sequence[Individual],
              owners: Sequence[int], repair: Callable[..., set[int]] | None) -> set[int]:
    """Members of ``parents[owners[b]]`` inside each block b, repaired.

    Each parent is independent inside a block, so only cut edges can join
    two taken vertices, and a separator leaves none: ``repair`` is None
    there.  Otherwise ``repair(g, conflicts, block_of)`` gets the sorted
    edges (u, v), u < v, left inside the set, and the cover it returns
    leaves the set.
    """
    block_of = part.block_of
    members: set[int] = set()
    for i, parent in enumerate(parents):
        if i not in owners:
            continue
        members.update(v for v in parent.members
                       if (b := block_of.get(v, SEPARATOR)) != SEPARATOR and owners[b] == i)
    if repair is not None:
        conflicts = sorted((u, v) for u in members for v in g.adj[u]
                           if u < v and v in members)
        if conflicts:
            members -= repair(g, conflicts, block_of)
    return members


def _heaviest_owners(g: WeightedGraph, part: Partition,
                     parents: Sequence[Individual]) -> list[int]:
    """Per block, the parent weighing most inside it; ties go to the lowest
    index."""
    block_of, weight = part.block_of, g.weight
    inside = [[0] * part.k for _ in parents]
    for row, parent in zip(inside, parents):
        for v in parent.members:
            b = block_of.get(v, SEPARATOR)
            if b != SEPARATOR:
                row[b] += weight[v]
    # index() finds the first maximum, so ties go to the lowest index.
    return [col.index(max(col)) for col in zip(*inside)]


def _min_weight_bipartite_cover(g: WeightedGraph, edges: list[tuple[int, int]],
                                block_of: dict[int, int]) -> set[int]:
    """Exact minimum-weight vertex cover of the cut edges of a 2-way
    partition, via min cut."""
    left = sorted({x for e in edges for x in e if block_of[x] == 0})
    right = sorted({x for e in edges for x in e if block_of[x] != 0})
    node = {v: i for i, v in enumerate(left + right)}
    s, t = len(node), len(node) + 1
    net = FlowNetwork(t + 1)
    inf = sum(g.weight[v] for v in node) + 1
    for v in left:
        net.add_edge(s, node[v], g.weight[v])
    for v in right:
        net.add_edge(node[v], t, g.weight[v])
    for u, v in edges:
        a, b = (u, v) if block_of[u] == 0 else (v, u)
        net.add_edge(node[a], node[b], inf)
    net.max_flow(s, t)
    side = net.min_cut_source_side(s)
    return {v for v in left if node[v] not in side} | {v for v in right if node[v] in side}


def _greedy_cover(g: WeightedGraph, edges: list[tuple[int, int]],
                  block_of: dict[int, int]) -> set[int]:
    """Scan ``edges`` in order and cover each still-uncovered one by the
    endpoint of smaller weight per uncovered incident edge."""
    udeg = Counter(x for e in edges for x in e)
    cover: set[int] = set()
    for u, v in edges:
        if u not in cover and v not in cover:
            # weight-to-uncovered-degree ratio, compared exactly.
            cover.add(u if (g.weight[u] * udeg[v], u) <= (g.weight[v] * udeg[u], v) else v)
    return cover


def combine_vertex_separator(g: WeightedGraph, part: Partition,
                             first: Individual, second: Individual,
                             ls_iterations: int, rng: random.Random
                             ) -> tuple[Individual, Individual]:
    """Exchange whole separator blocks between two parents.

    With no edges between blocks, both raw offspring are independent before
    any repair; separator vertices only re-enter through maximization.
    """
    if part.k != 2 or not part.has_separator:
        raise ValueError("needs a 2-way partition with a separator")
    parents = (first, second)
    o1, o2 = (_finish(g, _exchange(g, part, parents, owners, None), ls_iterations, rng)
              for owners in ((0, 1), (1, 0)))
    return o1, o2


def combine_multiway_vertex_separator(g: WeightedGraph, part: Partition,
                                      parents: Sequence[Individual],
                                      ls_iterations: int, rng: random.Random) -> Individual:
    """Give each separator block to the parent weighing most inside it."""
    if not part.has_separator:
        raise ValueError("needs a partition with a separator")
    if len(parents) != part.k:
        raise ValueError(f"need {part.k} parents, got {len(parents)}")
    owners = _heaviest_owners(g, part, parents)
    return _finish(g, _exchange(g, part, parents, owners, None), ls_iterations, rng)


def combine_edge_separator(g: WeightedGraph, part: Partition,
                           first: Individual, second: Individual,
                           ls_iterations: int, rng: random.Random
                           ) -> tuple[Individual, Individual]:
    """Exchange blocks across a 2-way edge partition; the cut edges left
    inside an offspring are repaired with an exact minimum-weight cover."""
    if part.k != 2 or part.has_separator:
        raise ValueError("needs a plain 2-way edge partition")
    parents = (first, second)
    o1, o2 = (_finish(g, _exchange(g, part, parents, owners, _min_weight_bipartite_cover),
                      ls_iterations, rng) for owners in ((0, 1), (1, 0)))
    return o1, o2


def combine_multiway_edge_separator(g: WeightedGraph, part: Partition,
                                    parents: Sequence[Individual],
                                    ls_iterations: int, rng: random.Random) -> Individual:
    """Give each block to the parent weighing most inside it, which is the
    one with the lightest cover there, and repair the cut greedily."""
    if part.has_separator:
        raise ValueError("needs an edge partition, not a separator")
    if len(parents) != part.k:
        raise ValueError(f"need {part.k} parents, got {len(parents)}")
    owners = _heaviest_owners(g, part, parents)
    return _finish(g, _exchange(g, part, parents, owners, _greedy_cover), ls_iterations, rng)


# -- mutation and replacement --------------------------------------------------

def mutate(g: WeightedGraph, offspring: Individual, rng: random.Random,
           strength: int, ls_iterations: int) -> Individual:
    """Force random vertices into the solution, then descend again."""
    state = SearchState(g, offspring.members)
    perturb(state, strength, rng)
    vnd(state, ls_iterations, rng)
    return _individual_from_state(state)


def replace(pop: Population, offspring: Individual) -> Literal["merit", "forced"] | None:
    """Offer the offspring to the population; say how it entered, if at all.

    Duplicates are rejected (None).  The offspring enters on ``"merit"``
    when it can evict a strictly lighter member, choosing the most similar
    one by intersection size.  Otherwise, once the population stalled for
    ``FORCE_AFTER`` offers, it is ``"forced"`` over the most similar member
    (the current best member stays protected).
    """
    inds = pop.individuals
    if any(ind.members == offspring.members for ind in inds):
        pop.stagnation += 1
        return None
    entry, victims = "merit", [i for i, ind in enumerate(inds) if ind.weight < offspring.weight]
    if not victims and pop.stagnation >= FORCE_AFTER and len(inds) > 1:
        best = max(range(len(inds)), key=lambda i: (inds[i].weight, -i))
        entry, victims = "forced", [i for i in range(len(inds)) if i != best]
    if not victims:
        pop.stagnation += 1
        return None
    inds[max(victims, key=lambda i: (offspring.intersection_size(inds[i]), -i))] = offspring
    pop.stagnation = 0
    return entry


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
        pair = not kind.startswith("multiway")
        part = pool.fetch(want_separator=kind.endswith("vertex_separator"), rng=rng,
                          k=2 if pair else None)
        parents = [tournament_select(pop, rng) for _ in range(part.k)]
        # Looked up at each call, so a wrapper set on the module is used.
        combine = globals()[f"combine_{kind}"]
        if pair:
            offspring = max(combine(g, part, *parents, ls_iterations=ls_iterations, rng=rng),
                            key=lambda ind: ind.weight)
        else:
            offspring = combine(g, part, parents, ls_iterations=ls_iterations, rng=rng)

        if rng.random() < config.mutation_prob:
            offspring = mutate(g, offspring, rng, strength=strength,
                               ls_iterations=ls_iterations)

        entry = replace(pop, offspring)
        if entry == "merit":
            unsuccessful = 0
        else:
            unsuccessful += 1

        new_best = pop.best().weight
        if new_best > best_weight:
            best_weight = new_best
            strength = 1
            if on_improve is not None:
                on_improve(rounds, best_weight)
        elif entry is None:
            strength = min(strength * 2, 4)
    return pop
