from fractions import Fraction

import pytest

from mwis import (Population, SelectionStrategy, SolverConfig, build_graph,
                  heuristic_reduce, is_independent, make_individual, rate)
from conftest import random_graph, star


def two_individual_population(g, first, second):
    return Population([make_individual(g, first), make_individual(g, second)])


def test_rate_hybrid_formula():
    g = star(5, [1, 2])
    pop = Population([make_individual(g, {0})])
    assert rate(SelectionStrategy.HYBRID, g, pop, 0) == Fraction(2)


def test_rate_participation_formula():
    g = build_graph([], [4, 1])
    inds = [make_individual(g, {0, 1})] * 200 + [make_individual(g, {1})] * 50
    pop = Population(list(inds))
    score = rate(SelectionStrategy.SOLUTION_PARTICIPATION, g, pop, 0)
    assert score == Fraction(200) - Fraction(1, 4)


def test_rate_weight_argmax():
    g = build_graph([], [9, 3])
    pop = Population([make_individual(g, {0, 1})])
    assert rate(SelectionStrategy.WEIGHT, g, pop, 0) > \
        rate(SelectionStrategy.WEIGHT, g, pop, 1)


def test_rate_degree_is_negated():
    g = star(1, [1, 1])
    pop = Population([make_individual(g, {1, 2})])
    assert rate(SelectionStrategy.DEGREE, g, pop, 1) > \
        rate(SelectionStrategy.DEGREE, g, pop, 0)


def test_rate_weight_over_degree_handles_isolated():
    g = build_graph([(0, 1)], [6, 3, 2])
    pop = Population([make_individual(g, {0, 2})])
    assert rate(SelectionStrategy.WEIGHT_OVER_DEGREE, g, pop, 0) == Fraction(6, 1)
    isolated = rate(SelectionStrategy.WEIGHT_OVER_DEGREE, g, pop, 2)
    assert isolated > Fraction(10**9)


def test_weight_selection_forces_heaviest():
    # two disjoint edges; fittest individual holds 0 (weight 9) and 2 (weight 3)
    g = build_graph([(0, 1), (2, 3)], [9, 1, 3, 1])
    pop = two_individual_population(g, {0, 2}, {1, 3})
    sink: set[int] = set()
    forced = heuristic_reduce(g, pop, SolverConfig(selection=SelectionStrategy.WEIGHT), sink)
    assert forced == {0} == sink
    assert not g.is_alive(0) and not g.is_alive(1)
    assert g.is_alive(2) and g.is_alive(3)


def test_fraction_takes_top_half():
    g = build_graph([], [9, 7, 5, 3])
    pop = Population([make_individual(g, {0, 1, 2, 3})])
    sink: set[int] = set()
    forced = heuristic_reduce(
        g, pop, SolverConfig(selection=SelectionStrategy.WEIGHT,
                             selection_fraction=0.5), sink)
    assert forced == {0, 1}
    assert g.live_count == 2


def test_participation_forces_single_vertex():
    g = build_graph([], [5])
    pop = Population([make_individual(g, {0})])
    sink: set[int] = set()
    forced = heuristic_reduce(
        g, pop, SolverConfig(selection=SelectionStrategy.SOLUTION_PARTICIPATION),
        sink)
    assert forced == {0}
    assert g.is_empty


def test_participation_rates_whole_graph():
    # vertex 2 is in no solution member but everything else participates less
    g = build_graph([(0, 1)], [5, 5, 1])
    pop = Population([make_individual(g, {0, 2}), make_individual(g, {0, 2})])
    sink: set[int] = set()
    forced = heuristic_reduce(
        g, pop, SolverConfig(selection=SelectionStrategy.SOLUTION_PARTICIPATION),
        sink)
    assert forced == {0}  # highest participation, then weight tie-break


def test_forced_sets_stay_globally_independent(rng):
    from mwis import InitStrategy, build_initial

    for _ in range(25):
        g = random_graph(rng, rng.randint(6, 16), 0.3)
        original = g.copy()
        pop = Population([build_initial(g, InitStrategy.GREEDY_WEIGHT_MWIS, rng)])
        sink: set[int] = set()
        while g.live_count:
            before = g.live_count
            forced = heuristic_reduce(
                g, pop, SolverConfig(selection=SelectionStrategy.HYBRID), sink)
            assert g.live_count < before  # strict progress
            assert is_independent(original, sink)
            if g.live_count:
                pop = Population([build_initial(
                    g, InitStrategy.GREEDY_WEIGHT_MWIS, rng)])


def test_empty_population_rejected():
    g = build_graph([], [1])
    with pytest.raises(ValueError):
        heuristic_reduce(g, Population([]), SolverConfig(), set())


def test_bad_fraction_rejected():
    with pytest.raises(ValueError, match="fraction must be in"):
        SolverConfig(selection=SelectionStrategy.WEIGHT, selection_fraction=0.0)
    with pytest.raises(ValueError, match="fraction must be in"):
        SolverConfig(selection=SelectionStrategy.WEIGHT, selection_fraction=1.5)
