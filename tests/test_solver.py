import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest

from mwis import (ORDERING_PRESETS, OracleLimits, RoundStats, SolverConfig,
                  brute_force, build_graph, exact_reduce, is_independent,
                  parse_metis, solve, verify)
from conftest import cycle, path, random_graph, star


FAST = dict(population_size=40, unsuccessful_limit=80, pool_size=6)
# The benchmark's road-forcing settings: short evolves, then forcing.
ROAD_FORCING = dict(ordering="baseline", population_size=30, pool_size=4,
                    unsuccessful_limit=20, selection_fraction=0.1)


def test_empty_graph():
    result = solve(build_graph([], []), SolverConfig(time_limit=5, **FAST))
    assert result.weight == 0
    assert result.solution == set()
    assert result.rounds == 0


def test_p3_solved_by_reduction_alone():
    result = solve(path([5, 1, 5]), SolverConfig(time_limit=5, **FAST))
    assert result.weight == 10
    assert result.solution == {0, 2}
    # The emptied graph is finished exactly: one round, nothing evolved.
    assert result.kernel_trace == [RoundStats(0, 10, 0)]


def test_fixture_zoo_hits_optimum():
    fixtures = [
        cycle([1] * 5),
        cycle([3, 1, 4, 1, 5, 9, 2]),
        path([2, 9, 4, 9, 2]),
        star(10, [1, 2, 3, 4]),
        star(2, [5, 5, 5]),
    ]
    for i, g in enumerate(fixtures):
        alpha, _ = brute_force(g)
        result = solve(g, SolverConfig(time_limit=5, seed=i, **FAST))
        assert result.weight == alpha
        assert is_independent(g, result.solution)


def test_random_instances_match_oracle():
    rng = random.Random(860)
    for trial in range(30):
        g = random_graph(rng, rng.randint(10, 20), rng.choice([0.1, 0.2, 0.4]))
        alpha, _ = brute_force(g)
        result = solve(g, SolverConfig(time_limit=5, seed=trial, **FAST))
        assert is_independent(g, result.solution)
        assert result.weight == sum(g.weight[v] for v in result.solution)
        assert result.weight == alpha


PETERSEN = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
PETERSEN_WEIGHTS = [10 + 3 * v % 5 for v in range(10)]  # optimum 50


def shifted_petersens(copies: int):
    """Heavy isolated vertex 0 beside ``copies`` Petersen graphs on 1.."""
    return build_graph([(10 * c + u + 1, 10 * c + v + 1) for c in range(copies)
                        for u, v in PETERSEN], [100] + PETERSEN_WEIGHTS * copies)


# No rule reduces a Petersen graph, so this many copies keep a kernel above
# the size that ``solve`` finishes exactly.
ABOVE_EXACT = OracleLimits().max_vertices // 10 + 1


@pytest.mark.parametrize("stop_at_poll", [1, 2, None])
def test_solve_maps_shifted_kernel_ids_back(stop_at_poll):
    # Vertex 0 is isolated and heavy, so the first reduction takes it and
    # each kernel vertex sits one id lower in the searched compact copy
    # than in the working graph.  The Petersen copies keep the kernel above
    # the size that is finished exactly.  Stopping at the first poll ends
    # on the greedy kernel fallback, at the second on the evolved
    # population.
    g = shifted_petersens(ABOVE_EXACT)
    polls = []

    def should_stop() -> bool:
        polls.append(1)
        return len(polls) == stop_at_poll

    result = solve(g, SolverConfig(time_limit=30, seed=1, **FAST), should_stop=should_stop)
    assert 0 in result.solution and is_independent(g, result.solution)
    assert all(result.solution & g.adj[v] for v in g.vertices() if v not in result.solution)
    if stop_at_poll != 1:
        assert result.kernel_trace[0].kernel_vertices == 10 * ABOVE_EXACT
        petersen, _ = brute_force(build_graph(PETERSEN, PETERSEN_WEIGHTS))
        assert petersen == 50 and result.weight == 100 + ABOVE_EXACT * petersen


def test_input_graph_is_not_mutated():
    g = path([5, 1, 5])
    before = ([set(s) for s in g.adj], list(g.weight), g.live_count)
    solve(g, SolverConfig(time_limit=5, **FAST))
    assert ([set(s) for s in g.adj], list(g.weight), g.live_count) == before


def test_determinism_same_seed():
    rng = random.Random(99)
    g = random_graph(rng, 24, 0.2)
    cfg = SolverConfig(time_limit=30, seed=7, **FAST)
    a = solve(g, cfg)
    b = solve(g, cfg)
    assert a.solution == b.solution
    assert a.weight == b.weight
    assert a.rounds == b.rounds


def test_trace_and_rounds_accounting():
    rng = random.Random(4)
    # dense-ish weights chosen so the kernel usually survives reduction
    for trial in range(10):
        g = random_graph(rng, 22, 0.5, wlo=90, whi=110)
        result = solve(g, SolverConfig(time_limit=10, seed=trial, **FAST))
        assert is_independent(g, result.solution)
        for stats in result.kernel_trace:
            assert stats.kernel_vertices > 0
            assert stats.offset >= 0
            assert stats.best_evolve_weight > 0


def test_progress_events_emitted():
    rng = random.Random(12)
    g = random_graph(rng, 22, 0.5, wlo=90, whi=110)
    seen = []
    solve(g, SolverConfig(time_limit=10, **FAST),
          progress=lambda kind, payload: seen.append(kind))
    assert "reduced" in seen or not seen  # silent only if instantly empty


def test_should_stop_cuts_the_run_short():
    rng = random.Random(13)
    g = random_graph(rng, 30, 0.4, wlo=90, whi=110)
    result = solve(g, SolverConfig(time_limit=60, **FAST), should_stop=lambda: True)
    assert is_independent(g, result.solution)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(population_size=0)
    with pytest.raises(ValueError, match=", ".join(sorted(ORDERING_PRESETS))):
        SolverConfig(ordering="bogus")
    with pytest.raises(ValueError):
        SolverConfig(time_limit=0)
    with pytest.raises(ValueError, match="time_limit"):
        SolverConfig(time_limit=float("nan"))


@pytest.mark.parametrize("mutation_prob", [0.0, 1.0])
def test_solve_hands_each_setting_to_its_layer(monkeypatch, mutation_prob):
    # A setting dropped on the way down falls back to its default and the
    # solve still succeeds, so only a spy sees it.
    from mwis import evolution, solver

    pools, calls, forced = [], Counter(), []

    def pool(g, capacity, _cls=evolution.PartitionPool):
        pools.append(capacity)
        return _cls(g, capacity=capacity)

    def counted(name):
        def wrapper(*args, _fn=getattr(evolution, name), **kwargs):
            calls[name] += 1
            return _fn(*args, **kwargs)
        return wrapper

    def heuristic_reduce(g, pop, config, events, _fn=solver.heuristic_reduce):
        want = max(1, int(config.selection_fraction * len(pop.best().members)))
        forced.append((len(_fn(g, pop, config, events)), want))

    monkeypatch.setattr(evolution, "MUTATION_PROB", mutation_prob)
    monkeypatch.setattr(evolution, "PartitionPool", pool)
    monkeypatch.setattr(evolution, "mutate", counted("mutate"))
    monkeypatch.setattr(evolution, "replace", counted("replace"))
    monkeypatch.setattr(solver, "heuristic_reduce", heuristic_reduce)
    # Its kernels keep 50, 42 and 32 vertices; the first two are above the
    # 40 that ``solve`` finishes exactly, so two rounds evolve and force.
    g = random_graph(random.Random(12), 50, 0.2, wlo=90, whi=110)
    config = SolverConfig(seed=3, population_size=12, unsuccessful_limit=30,
                          pool_size=3, selection_fraction=0.2)
    result = solve(g, config)

    assert result.rounds >= 2 and len(forced) == result.rounds
    assert pools and set(pools) == {3}
    # evolution.MUTATION_PROB is read when each offspring is made.
    assert calls["replace"] > 0
    assert calls["mutate"] == (calls["replace"] if mutation_prob else 0)
    assert all(n == want for n, want in forced) and max(n for n, _ in forced) > 1


def test_verify_accepts_valid_solution():
    g = path([5, 1, 5])
    report = verify(g, [0, 2])
    assert report.ok
    assert report.weight == 10
    assert report.lines() == ["OK, weight=10"]


def test_verify_flags_adjacent_pair():
    g = path([5, 1, 5])
    report = verify(g, [0, 1])
    assert not report.ok
    assert report.violations == [(0, 1)]
    assert any("(0, 1)" in line for line in report.lines())


def test_verify_flags_duplicates_and_range():
    g = path([5, 1, 5])
    report = verify(g, [0, 0, 9])
    assert not report.ok
    assert report.duplicates == [0]
    assert report.out_of_range == [9]


def test_solve_beats_every_initial_construction():
    from mwis import InitStrategy, build_initial

    rng = random.Random(73)
    for trial in range(10):
        g = random_graph(rng, rng.randint(12, 24), rng.choice([0.15, 0.35]))
        result = solve(g, SolverConfig(time_limit=5, seed=trial, **FAST))
        for strategy in InitStrategy:
            ind = build_initial(g.copy(), strategy, random.Random(trial))
            assert result.weight >= ind.weight


def test_trace_offsets_never_decrease():
    rng = random.Random(41)
    for trial in range(8):
        g = random_graph(rng, 26, 0.5, wlo=90, whi=110)
        result = solve(g, SolverConfig(time_limit=10, seed=trial, **FAST))
        offsets = [s.offset for s in result.kernel_trace]
        assert offsets == sorted(offsets)


def test_result_is_at_least_every_rounds_full_weight(monkeypatch):
    # The first kernels keep more vertices than ``solve`` finishes exactly;
    # forcing shrinks them until one is small enough for ``brute_force``,
    # which ends the solve.  Forcing is heuristic, so an earlier round can
    # still be heavier than that exact one (seed 11 here is); the heaviest
    # round is returned.
    from mwis import solver

    kernels = []

    def spy(kernel, *args, _fn=solver.brute_force):
        kernels.append(kernel)
        return _fn(kernel, *args)

    monkeypatch.setattr(solver, "brute_force", spy)
    limit = OracleLimits().max_vertices
    n = limit + 10
    multi_round = 0
    for seed in range(16):
        kernels.clear()
        g = random_graph(random.Random(seed), n, 8 / (n - 1), wlo=90, whi=110)
        result = solve(g, SolverConfig(seed=seed, population_size=30, pool_size=4,
                                       unsuccessful_limit=20, selection_fraction=0.1))
        assert verify(g, result.solution).ok
        assert result.weight == sum(g.weight[v] for v in result.solution)
        full = [s.offset + s.best_evolve_weight for s in result.kernel_trace]
        assert result.weight == max(full), seed
        *_, last = result.kernel_trace
        [kernel] = kernels
        assert last.kernel_vertices == kernel.capacity <= limit < result.kernel_trace[0].kernel_vertices
        assert last.best_evolve_weight == brute_force(kernel)[0]
        assert result.rounds == len(full) - 1 and not result.proven_optimal
        multi_round += result.rounds >= 2
    assert multi_round >= 12


def test_budget_exhausted_finish_falls_back_to_the_evolve_path(monkeypatch):
    from mwis import OracleBudgetError, solver

    calls = []

    def exhausted(kernel, *args):
        # An emptied kernel is answered before any search, as brute_force does.
        calls.append(kernel.capacity)
        if kernel.capacity == 0:
            return 0, set()
        raise OracleBudgetError("node budget exhausted")

    monkeypatch.setattr(solver, "brute_force", exhausted)
    g = shifted_petersens(1)
    result = solve(g, SolverConfig(time_limit=30, seed=1, **FAST))
    assert verify(g, result.solution).ok and not result.proven_optimal
    assert calls[0] == result.kernel_trace[0].kernel_vertices == 10
    assert len(calls) == len(result.kernel_trace) == result.rounds + 1 >= 2
    assert result.weight == 150


def test_proven_optimal_results_are_optimal():
    # The Petersen kernel of 10 vertices is finished exactly, its witness
    # mapped back through the shifted ids: weight 150, of which the kernel
    # optimum, reported in the "solved" event, is 50.
    events = []
    result = solve(shifted_petersens(1), SolverConfig(time_limit=30, seed=1, **FAST),
                   progress=lambda kind, payload: events.append((kind, payload)))
    assert result.proven_optimal and result.weight == 150
    assert result.kernel_trace[0].kernel_vertices == 10
    assert [kind for kind, _ in events] == ["reduced", "solved"]
    assert events[1][1] == dict(round=0, kernel_vertices=10, weight=50)
    assert not solve(shifted_petersens(ABOVE_EXACT), SolverConfig(seed=1, **FAST)).proven_optimal
    rng = random.Random(2207)
    graphs = [path([5, 1, 5]), star(10, [1, 2, 3, 4])]
    graphs += [random_graph(rng, rng.randint(20, OracleLimits().max_vertices),
                            rng.choice([0.1, 0.2, 0.3]),
                            wlo=90, whi=110) for _ in range(30)]
    for seed, g in enumerate(graphs):
        result = solve(g, SolverConfig(seed=seed, **FAST))
        assert verify(g, result.solution).ok
        assert result.proven_optimal and result.weight == brute_force(g)[0]
        assert result.rounds == 0 and len(result.kernel_trace) <= 1


def _benchmark_instances():
    """The benchmark's instance generators, loaded from their file."""
    path = Path(__file__).resolve().parent.parent / "benchmark" / "instances.py"
    spec = importlib.util.spec_from_file_location("benchmark_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _emptied_after_forcing():
    # Its first kernel keeps 51 vertices.  Forcing the whole fittest
    # solution, a maximal independent set, leaves nothing for the next
    # reduce, so the last round finishes an empty kernel.
    g = parse_metis(_benchmark_instances().geometric(60, 10, 1))
    return g, dict(pool_size=4, ordering="weight", selection_fraction=1.0, seed=3)


@pytest.mark.parametrize("instance, stop_at_poll", [
    pytest.param(lambda: (path([5, 1, 5]), FAST), None, id="reductions-alone"),
    pytest.param(lambda: (shifted_petersens(1), FAST), None, id="exact-finish"),
    pytest.param(lambda: (shifted_petersens(ABOVE_EXACT), FAST), 1, id="greedy-fallback"),
    pytest.param(lambda: (shifted_petersens(ABOVE_EXACT), FAST), 2, id="cut-after-evolve"),
    pytest.param(_emptied_after_forcing, None, id="emptied-after-forcing"),
])
def test_every_solve_keeps_the_round_invariants(instance, stop_at_poll):
    g, settings = instance()
    polls, events = [], []

    def should_stop() -> bool:
        polls.append(1)
        return len(polls) == stop_at_poll

    result = solve(g, SolverConfig(**settings), should_stop=should_stop,
                   progress=lambda kind, payload: events.append((kind, payload)))
    assert verify(g, result.solution).ok
    trace = result.kernel_trace
    assert len(trace) == result.rounds + 1
    assert result.weight == max(s.offset + s.best_evolve_weight for s in trace)
    first_reduce = next(payload for kind, payload in events if kind == "reduced")
    assert trace[0].kernel_vertices == first_reduce["kernel_vertices"]
    cut_short = len(polls) == stop_at_poll
    assert (events[-1][0] == "solved") == (not cut_short)
    if instance is _emptied_after_forcing:
        assert result.rounds >= 1
        assert events[-2:] == [
            ("reduced", dict(round=result.rounds, kernel_vertices=0, offset=trace[-1].offset)),
            ("solved", dict(round=result.rounds, kernel_vertices=0, weight=0))]


def test_road_forcing_config_is_optimal_on_most_small_geometric_graphs():
    # The optimum is the first kernel's offset plus its brute-force weight;
    # those kernels have 40-59 vertices.  The solver found it on 18 of the
    # 20 graphs, in about 1 s on a two-core x86-64 VM with CPython 3.11;
    # the bound leaves one instance for a change of search trajectory.
    generate = _benchmark_instances().geometric
    optimal = 0
    for i in range(20):
        g = parse_metis(generate(60, 10, 50000 + i))
        kernel = exact_reduce(g.copy(), ORDERING_PRESETS["baseline"])
        alpha, _ = brute_force(kernel.graph, OracleLimits(max_vertices=64))
        result = solve(g, SolverConfig(seed=50000 + i, **ROAD_FORCING))
        assert verify(g, sorted(result.solution)).ok
        assert result.weight <= kernel.offset + alpha
        optimal += result.weight == kernel.offset + alpha
    assert optimal >= 17, optimal


def test_disjoint_small_components_reach_their_summed_optimum():
    # Forty random components of 24 vertices: each is small enough for
    # brute_force, so the optimum of their union is known, while the union
    # keeps a first kernel of several hundred vertices that must evolve and
    # be forced.  The road-forcing settings reached the optimum in about
    # 2 s on a two-core x86-64 VM with CPython 3.11.
    rng = random.Random(12)
    parts = [random_graph(rng, 24, 6 / 23, 1, 100) for _ in range(40)]
    optimum = sum(brute_force(part)[0] for part in parts)
    g = build_graph([(24 * i + u, 24 * i + v) for i, part in enumerate(parts)
                     for u, v in part.edges()],
                    [w for part in parts for w in part.weight])
    result = solve(g, SolverConfig(seed=1, **ROAD_FORCING))
    assert verify(g, sorted(result.solution)).ok
    assert 0.999 * optimum <= result.weight <= optimum
    assert result.kernel_trace[0].kernel_vertices > OracleLimits().max_vertices
