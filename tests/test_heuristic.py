import random
from fractions import Fraction

import pytest

from mwis import (InitStrategy, Population, SelectionStrategy, SolverConfig,
                  build_graph, build_initial, exact_reduce, heuristic_reduce,
                  is_independent, make_individual, rate, undo_event)
from conftest import graph_state, random_graph, star


def two_individual_population(g, first, second):
    return Population([make_individual(g, first), make_individual(g, second)])


def greedy_population(g, rng):
    """One greedy individual of g's kernel in g's own ids, as solve maps a
    population built on the compact copy back before forcing."""
    kernel, ids = g.compact()
    ind = build_initial(kernel, InitStrategy.GREEDY_WEIGHT_MWIS, rng)
    return Population([make_individual(g, {ids[v] for v in ind.members})])


def test_rate_hybrid_formula():
    g = star(5, [1, 2])
    pop = Population([make_individual(g, {0})])
    assert rate(SelectionStrategy.HYBRID, g, pop)(0) == Fraction(2)


def test_rate_participation_formula():
    # Count dominates weight, equal counts go to the heavier vertex, and a
    # zero-weight vertex ranks below every positive-weight one.
    g = build_graph([], [1, 100, 4, 0])
    pop = Population([make_individual(g, {0, 1, 2, 3})] * 3
                     + [make_individual(g, {0, 2, 3})] * 2)
    score = [rate(SelectionStrategy.SOLUTION_PARTICIPATION, g, pop)(v) for v in range(4)]
    assert score[0] > score[1]  # five appearances against three
    assert score[0] < score[2]  # five each, weight 1 against 4
    assert score[3] < score[1]  # five appearances at weight 0, three at 100


def test_rate_weight_argmax():
    g = build_graph([], [9, 3])
    pop = Population([make_individual(g, {0, 1})])
    assert rate(SelectionStrategy.WEIGHT, g, pop)(0) > \
        rate(SelectionStrategy.WEIGHT, g, pop)(1)


def test_rate_degree_is_negated():
    g = star(1, [1, 1])
    pop = Population([make_individual(g, {1, 2})])
    assert rate(SelectionStrategy.DEGREE, g, pop)(1) > \
        rate(SelectionStrategy.DEGREE, g, pop)(0)


def test_rate_weight_over_degree_handles_isolated():
    g = build_graph([(0, 1)], [6, 3, 2])
    pop = Population([make_individual(g, {0, 2})])
    isolated, six, three = (rate(SelectionStrategy.WEIGHT_OVER_DEGREE, g, pop)(v)
                            for v in (2, 0, 1))
    assert isolated > six > three


def test_weight_over_degree_forces_an_isolated_vertex_above_any_ratio():
    # Vertex 0's ratio is 2**64, yet the isolated vertex 2 still ranks first.
    g = build_graph([(0, 1)], [2**64, 1, 1])
    pop = Population([make_individual(g, {0, 2})])
    forced = heuristic_reduce(
        g, pop, SolverConfig(selection=SelectionStrategy.WEIGHT_OVER_DEGREE), [])
    assert forced == {2}


def parent_ranking(g, pop, kind):
    """Candidates in the order the Fraction scores ranked them before the
    sort keys: a verbatim copy of that scoring, with 2**63 as the rank of an
    isolated vertex."""
    infinite_rank = Fraction(2**63)

    def participation(count, w):
        if w == 0:
            return Fraction(count) - (len(pop.individuals) + 2)
        return Fraction(count) - Fraction(1, w)

    def score(v):
        if kind is SelectionStrategy.WEIGHT:
            return Fraction(g.weight[v])
        if kind is SelectionStrategy.DEGREE:
            return Fraction(-g.degree(v))
        if kind is SelectionStrategy.WEIGHT_OVER_DEGREE:
            d = g.degree(v)
            if d == 0:
                return infinite_rank + g.weight[v]
            return Fraction(g.weight[v], d)
        if kind is SelectionStrategy.HYBRID:
            return Fraction(g.weight[v] - g.neighborhood_weight(v))
        count = sum(1 for ind in pop.individuals if v in ind.members)
        return participation(count, g.weight[v])

    if kind is SelectionStrategy.SOLUTION_PARTICIPATION:
        candidates = g.vertices()
    else:
        candidates = sorted(pop.best().members)
    return sorted(candidates, key=lambda v: (-score(v), v))


def random_independent_set(g, rng):
    chosen = set()
    for v in rng.sample(g.vertices(), g.live_count):
        if (not chosen or rng.random() < 0.8) and not chosen & set(g.adj[v]):
            chosen.add(v)
    return chosen


def test_sort_keys_force_what_the_fraction_scores_forced():
    rng = random.Random(1919)
    for case in range(2000):
        whi = rng.choice([1, 3, 3, 300])
        g = random_graph(rng, rng.randint(1, 30), rng.choice([0.05, 0.15, 0.4]), 0, whi)
        pop = Population([make_individual(g, random_independent_set(g, rng))
                          for _ in range(rng.randint(1, 6))])
        for kind in SelectionStrategy:
            ranked = parent_ranking(g, pop, kind)
            keyed = sorted(sorted(ranked), key=rate(kind, g, pop), reverse=True)
            assert keyed == ranked, (case, kind)
            participation = kind is SelectionStrategy.SOLUTION_PARTICIPATION
            for fraction in (None, 0.1, 0.5, 1.0):
                take = 1 if fraction is None or participation else \
                    max(1, int(fraction * len(ranked)))
                forced = heuristic_reduce(g.copy(), pop, SolverConfig(
                    selection=kind, selection_fraction=fraction), [])
                assert forced == set(ranked[:take]), (case, kind, fraction)


def test_weight_selection_forces_heaviest():
    # two disjoint edges; fittest individual holds 0 (weight 9) and 2 (weight 3)
    g = build_graph([(0, 1), (2, 3)], [9, 1, 3, 1])
    pop = two_individual_population(g, {0, 2}, {1, 3})
    events = []
    forced = heuristic_reduce(g, pop, SolverConfig(selection=SelectionStrategy.WEIGHT), events)
    assert forced == {0} and events[-1].decided == (0,)
    assert not g.is_alive(0) and not g.is_alive(1)
    assert g.is_alive(2) and g.is_alive(3)


def test_fraction_takes_top_half():
    g = build_graph([], [9, 7, 5, 3])
    pop = Population([make_individual(g, {0, 1, 2, 3})])
    events = []
    forced = heuristic_reduce(
        g, pop, SolverConfig(selection=SelectionStrategy.WEIGHT,
                             selection_fraction=0.5), events)
    assert forced == {0, 1} and events[-1].decided == (0, 1)
    assert g.live_count == 2


def test_participation_forces_single_vertex():
    g = build_graph([], [5])
    pop = Population([make_individual(g, {0})])
    events = []
    forced = heuristic_reduce(
        g, pop, SolverConfig(selection=SelectionStrategy.SOLUTION_PARTICIPATION),
        events)
    assert forced == {0} and events[-1].decided == (0,)
    assert g.is_empty


def test_participation_rates_whole_graph():
    # vertex 2 is in no solution member but everything else participates less
    g = build_graph([(0, 1)], [5, 5, 1])
    pop = Population([make_individual(g, {0, 2}), make_individual(g, {0, 2})])
    events = []
    forced = heuristic_reduce(
        g, pop, SolverConfig(selection=SelectionStrategy.SOLUTION_PARTICIPATION),
        events)
    assert forced == {0}  # highest participation, then weight tie-break
    assert events[-1].decided == (0,)


def test_forced_sets_stay_globally_independent(rng):
    for _ in range(25):
        g = random_graph(rng, rng.randint(6, 16), 0.3)
        original = g.copy()
        pop = greedy_population(g, rng)
        events = []
        while g.live_count:
            before = g.live_count
            heuristic_reduce(g, pop, SolverConfig(selection=SelectionStrategy.HYBRID), events)
            assert g.live_count < before  # strict progress
            assert is_independent(original, {v for ev in events for v in ev.decided})
            if g.live_count:
                pop = greedy_population(g, rng)


def test_empty_population_rejected():
    g = build_graph([], [1])
    with pytest.raises(ValueError):
        heuristic_reduce(g, Population([]), SolverConfig(), [])


def test_forcing_is_one_journaled_take():
    # Forcing after an exact reduce, where weights are discounted and fold
    # vertices live: one event banks the forced weights the working graph
    # holds at that moment, and undoing it restores that graph exactly.
    rng = random.Random(97)
    checked = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(10, 24), 0.3, wlo=80, whi=120)
        events = exact_reduce(g).events
        if not g.live_count:
            continue
        pop = greedy_population(g, rng)
        before, count, weight = graph_state(g), len(events), list(g.weight)
        forced = heuristic_reduce(
            g, pop, SolverConfig(selection=SelectionStrategy.WEIGHT,
                                 selection_fraction=0.5), events)
        assert len(events) == count + 1
        ev = events[-1]
        assert ev.rule is None and ev.decided == tuple(sorted(forced))
        assert ev.offset_delta == sum(weight[v] for v in forced)
        assert not any(g.is_alive(v) for v in forced)
        undo_event(g, ev)
        assert graph_state(g) == before
        g.audit()
        checked += 1
    assert checked >= 20


def test_bad_fraction_rejected():
    with pytest.raises(ValueError, match="fraction must be in"):
        SolverConfig(selection=SelectionStrategy.WEIGHT, selection_fraction=0.0)
    with pytest.raises(ValueError, match="fraction must be in"):
        SolverConfig(selection=SelectionStrategy.WEIGHT, selection_fraction=1.5)
