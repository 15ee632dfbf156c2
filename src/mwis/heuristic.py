"""Heuristic vertex forcing between exact-reduction rounds.

When the exact rules stall, the population is mined for vertices likely
to belong to a heavy solution; the top-ranked ones are taken like any
reduction take (banked, deleted with their closed neighborhoods and
journaled as one event), which reopens the reduction space.

Each strategy ranks vertices by one exact sort key (:func:`rate`), highest
first, ties to the lower id: weight ``w(v)``, degree ``-deg(v)``, hybrid
``w(v) - w(N(v))``, weight/degree with every isolated vertex (always safe
to take) above every ratio ``w(v)/deg(v)``, and participation by positive
weight, then the number of individuals holding the vertex, then weight.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .evolution import Population
from .graph import WeightedGraph
from .reductions import ReductionEvent, _take

if TYPE_CHECKING:
    from .solver import SolverConfig


class SelectionStrategy(Enum):
    """Forcing strategies; each value is the ``mwis solve --selection`` name."""

    WEIGHT = "weight"
    DEGREE = "degree"
    WEIGHT_OVER_DEGREE = "weight-degree"
    HYBRID = "hybrid"
    SOLUTION_PARTICIPATION = "participation"


def rate(kind: SelectionStrategy, g: WeightedGraph,
         pop: Population) -> Callable[[int], object]:
    """The sort key of ``kind``; forcing takes the largest.

    Keys compare exactly: ints for weight, degree (negated, so smaller
    degrees rank higher) and hybrid; ``(isolated, w or w/deg)`` for
    weight/degree, so an isolated vertex outranks every ratio; and
    ``(w > 0, count, w)`` for participation, which counts the population
    once.  Equal keys go to the lower id.
    """
    w = g.weight
    if kind is SelectionStrategy.WEIGHT:
        return w.__getitem__
    if kind is SelectionStrategy.DEGREE:
        return lambda v: -g.degree(v)
    if kind is SelectionStrategy.WEIGHT_OVER_DEGREE:
        def ratio(v: int) -> tuple[bool, object]:
            d = g.degree(v)
            return (True, w[v]) if d == 0 else (False, Fraction(w[v], d))
        return ratio
    if kind is SelectionStrategy.HYBRID:
        return lambda v: w[v] - g.neighborhood_weight(v)
    if kind is SelectionStrategy.SOLUTION_PARTICIPATION:
        counts = Counter(v for ind in pop.individuals for v in ind.members)
        return lambda v: (w[v] > 0, counts[v], w[v])
    raise ValueError(f"unknown strategy {kind}")


def heuristic_reduce(g: WeightedGraph, pop: Population, config: SolverConfig,
                     events: list[ReductionEvent]) -> set[int]:
    """Force the top-ranked vertices into the solution; return them.

    Reads ``config.selection`` and ``config.selection_fraction``.  The
    first four strategies rank only the fittest individual's vertices and
    force the top fraction of them (one vertex when the fraction is None),
    so any forced subset is pairwise non-adjacent; participation ranks the
    whole graph and forces a single vertex.  The forced set is one take: an
    event (rule None) appended to ``events`` banks its weight in ``g``.
    """
    if not pop.individuals:
        raise ValueError("population is empty")
    kind, fraction = config.selection, config.selection_fraction
    if kind is SelectionStrategy.SOLUTION_PARTICIPATION:
        candidates = g.vertices()
        take = 1
    else:
        candidates = sorted(pop.best().members)
        if fraction is None:
            take = 1
        else:
            take = max(1, int(fraction * len(candidates)))
    # Candidates come in ascending id order and a reversed sort is stable,
    # so equal keys keep the lower id first.
    ranked = sorted(candidates, key=rate(kind, g, pop), reverse=True)
    forced = set(ranked[:take])
    _take(g, None, forced, events)
    return forced
