"""Heuristic vertex forcing between exact-reduction rounds.

When the exact rules stall, the population is mined for vertices likely
to belong to a heavy solution; the top-rated ones are taken like any
reduction take (banked, deleted with their closed neighborhoods and
journaled as one event), which reopens the reduction space.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .evolution import Population
from .graph import WeightedGraph
from .reductions import ReductionEvent, _take

if TYPE_CHECKING:
    from .solver import SolverConfig

# Rank placed above every finite weight/degree ratio (degree-0 vertices
# are always safe to take).
_INFINITE_RANK = Fraction(2**63)


class SelectionStrategy(Enum):
    WEIGHT = "weight"
    DEGREE = "degree"
    WEIGHT_OVER_DEGREE = "weight_over_degree"
    HYBRID = "hybrid"
    SOLUTION_PARTICIPATION = "solution_participation"


def _participation(count: int, w: int, pop: Population) -> Fraction:
    """Participation ``count`` with ties broken toward heavier vertices; a
    zero-weight vertex ranks below every positive-weight one."""
    if w == 0:
        return Fraction(count) - (len(pop.individuals) + 2)
    return Fraction(count) - Fraction(1, w)


def rate(kind: SelectionStrategy, g: WeightedGraph, pop: Population,
         v: int) -> Fraction:
    """Deterministic score of one vertex; selection always takes the argmax.

    Degree scores are negated so smaller degrees rank higher; the
    participation score breaks count ties by subtracting 1/w(v).
    """
    if kind is SelectionStrategy.WEIGHT:
        return Fraction(g.weight[v])
    if kind is SelectionStrategy.DEGREE:
        return Fraction(-g.degree(v))
    if kind is SelectionStrategy.WEIGHT_OVER_DEGREE:
        d = g.degree(v)
        if d == 0:
            return _INFINITE_RANK + g.weight[v]
        return Fraction(g.weight[v], d)
    if kind is SelectionStrategy.HYBRID:
        return Fraction(g.weight[v] - g.neighborhood_weight(v))
    if kind is SelectionStrategy.SOLUTION_PARTICIPATION:
        count = sum(1 for ind in pop.individuals if v in ind.members)
        return _participation(count, g.weight[v], pop)
    raise ValueError(f"unknown strategy {kind}")


def heuristic_reduce(g: WeightedGraph, pop: Population, config: SolverConfig,
                     events: list[ReductionEvent]) -> set[int]:
    """Force the top-rated vertices into the solution; return them.

    Reads ``config.selection`` and ``config.selection_fraction``.  The
    first four strategies rate only the fittest individual's vertices and
    force the top fraction of them (one vertex when the fraction is None),
    so any forced subset is pairwise non-adjacent; participation rates the
    whole graph and forces a single vertex.  The forced set is one take: an
    event (rule None) appended to ``events`` banks its weight in ``g``.
    """
    if not pop.individuals:
        raise ValueError("population is empty")
    kind, fraction = config.selection, config.selection_fraction
    if kind is SelectionStrategy.SOLUTION_PARTICIPATION:
        candidates = g.vertices()
        take = 1
        # One pass over the population instead of one per candidate.
        counts = Counter(v for ind in pop.individuals for v in ind.members)

        def score(v: int) -> Fraction:
            return _participation(counts[v], g.weight[v], pop)
    else:
        candidates = sorted(pop.best().members)
        if fraction is None:
            take = 1
        else:
            take = max(1, int(fraction * len(candidates)))

        def score(v: int) -> Fraction:
            return rate(kind, g, pop, v)

    ranked = sorted(candidates, key=lambda v: (-score(v), v))
    forced = set(ranked[:take])
    _take(g, None, forced, events)
    return forced
