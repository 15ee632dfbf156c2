"""Acceptance gate: one test per criterion, each printing a PASS line.

Every quantitative bound is pinned here; nothing is deferred to later
calibration.  Expected values come from the exact oracle computed inside
each test, never hand-invented.
"""

import itertools
import math
import random

import pytest

from mwis import (GraphFormatError, InitStrategy, Partition, SEPARATOR,
                  SearchState, SolverConfig, brute_force, build_graph,
                  build_initial, combine_edge_separator,
                  combine_multiway_edge_separator,
                  combine_multiway_vertex_separator, combine_vertex_separator,
                  edge_partition, evolve, exact_reduce, initial_population,
                  is_independent, parse_metis, reconstruct,
                  run_ordering_experiment, separator_from, solve,
                  validate_partition, verify, vertex_separator, vnd, write_metis)
from mwis.evolution import _exchange, _min_weight_bipartite_cover
from mwis.local_search import _find_one_two_pair
from mwis.reductions import ORDERING_EXPERIMENTS, ORDERING_PRESETS, Rule
from mwis.cli import main as cli_main
from conftest import clique, cycle, path, random_graph, star


def report(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num} ({label}): PASS")


def sample_small_graph(rng: random.Random):
    n = rng.randint(4, 16)
    p = rng.choice([0.1, 0.2, 0.4])
    return random_graph(rng, n, p, wlo=1, whi=200)


# -- criteria 1 + 2: reduction soundness and reconstruction ---------------------

def test_criterion_1_and_2_reduction_soundness_and_reconstruction():
    rng = random.Random(0xACCE901)
    lone = [(r,) for r in Rule]
    presets = list(ORDERING_PRESETS.values())
    checked = 0
    for _ in range(2000):
        g0 = sample_small_graph(rng)
        alpha0, _ = brute_force(g0)
        for ordering in lone + presets:
            g = g0.copy()
            kernel = exact_reduce(g, ordering)
            alpha_k, witness = brute_force(kernel.graph)
            assert kernel.offset + alpha_k == alpha0  # exact, tolerance 0
            rebuilt = reconstruct(kernel, witness)
            assert is_independent(g0, rebuilt)
            assert sum(g0.weight[v] for v in rebuilt) == alpha0
            checked += 1
    assert checked == 2000 * 18
    report(1, "reduction soundness, 2000 graphs x 18 configurations")
    report(2, "reconstruction exactness on every criterion-1 instance")


# -- criterion 3: solver optimality at desk scale --------------------------------

SOLVE_CFG = dict(time_limit=5.0, population_size=100, unsuccessful_limit=200,
                 pool_size=8)


def test_criterion_3_solver_optimality():
    # ``solve`` finishes these kernels of at most 20 vertices exactly, so the
    # memetic search is also run on each compact kernel directly, as a round
    # of ``solve`` runs it on a larger one, and held to the 95% bound.
    rng = random.Random(0xACCE903)
    optimal = 0
    for trial in range(200):
        n = rng.randint(10, 20)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.4]))
        alpha, _ = brute_force(g)
        config = SolverConfig(seed=trial, **SOLVE_CFG)
        result = solve(g, config)
        assert is_independent(g, result.solution)  # valid on 100%
        assert result.weight == sum(g.weight[v] for v in result.solution)
        assert result.weight == alpha
        kernel = exact_reduce(g.copy(), ORDERING_PRESETS[config.ordering])
        compact, ids = kernel.graph.compact()
        members, evolved = set(), 0
        if compact.capacity:
            search = random.Random(trial)
            pop = initial_population(compact, config.population_size, search)
            best = evolve(compact, pop, search, config).best()
            members, evolved = {ids[v] for v in best.members}, best.weight
        rebuilt = reconstruct(kernel, members)
        assert is_independent(g, rebuilt)  # valid on 100%
        assert sum(g.weight[v] for v in rebuilt) == kernel.offset + evolved
        optimal += (kernel.offset + evolved == alpha)
    assert optimal >= 190, f"only {optimal}/200 optimal"  # >= 95%

    fixtures = [cycle([1] * 5), cycle([2, 7, 1, 8, 2, 8, 1]),
                path([3, 1, 4, 1, 5]), path([9, 2, 6, 5, 3, 5, 8]),
                star(10, [1, 2, 3]), star(1, [6, 6, 6, 6])]
    for i, g in enumerate(fixtures):
        alpha, _ = brute_force(g)
        result = solve(g, SolverConfig(seed=i, **SOLVE_CFG))
        assert result.weight == alpha  # 100% on the fixture zoo
    report(3, f"solver optimality {optimal}/200 random + fixtures 6/6")


# -- criterion 4: local-search local optimality -----------------------------------

def no_improving_move(state: SearchState) -> bool:
    g = state.g
    for v in g.vertices():
        if not state.in_sol[v]:
            if g.weight[v] > sum(g.weight[u] for u in g.adj[v] if state.in_sol[u]):
                return False
        elif _find_one_two_pair(state, v) is not None:
            return False
    return True


def all_connected_graphs(n: int):
    """Every labeled connected graph on n vertices, as edge tuples."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen, stack = {0}, [0]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) == n:
            yield edges


def named_catalog(rng: random.Random):
    yield path([rng.randint(1, 50) for _ in range(8)])
    yield path([rng.randint(1, 50) for _ in range(10)])
    yield cycle([rng.randint(1, 50) for _ in range(7)])
    yield cycle([rng.randint(1, 50) for _ in range(10)])
    yield star(rng.randint(1, 50), [rng.randint(1, 50) for _ in range(9)])
    yield clique([rng.randint(1, 50) for _ in range(8)])
    grid = [(r * 5 + c, r * 5 + c + 1) for r in range(2) for c in range(4)]
    grid += [(c, c + 5) for c in range(5)]
    yield build_graph(grid, [rng.randint(1, 50) for _ in range(10)])
    petersen = [(i, (i + 1) % 5) for i in range(5)]
    petersen += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    petersen += [(i, i + 5) for i in range(5)]
    yield build_graph(petersen, [rng.randint(1, 50) for _ in range(10)])


def test_criterion_4_local_search_optimality():
    rng = random.Random(0xACCE904)
    tested = 0
    for n in range(1, 6):  # exhaustive: every labeled connected graph, n <= 5
        for edges in all_connected_graphs(n):
            g = build_graph(edges, [rng.randint(1, 30) for _ in range(n)])
            state = SearchState(g, build_initial(g, InitStrategy.RANDOM_MWIS, rng).members)
            before = state.weight
            vnd(state)
            assert state.weight >= before  # monotone
            assert no_improving_move(state)
            tested += 1
    for g in named_catalog(rng):  # named connected graphs up to n = 10
        for _ in range(3):
            state = SearchState(g, build_initial(g, InitStrategy.RANDOM_MWIS, rng).members)
            before = state.weight
            vnd(state)
            assert state.weight >= before
            assert no_improving_move(state)
            tested += 1
    report(4, f"local optimality on {tested} trajectories")


# -- criterion 5: combine validity ---------------------------------------------------

def random_kernel(rng: random.Random):
    """The compact copy of a reduced random graph with at least 4 vertices."""
    while True:
        g = random_graph(rng, rng.randint(12, 26), rng.choice([0.35, 0.5, 0.65]),
                         wlo=80, whi=120)
        exact_reduce(g)
        if g.live_count >= 4:
            return g.compact()[0]


def assert_valid_offspring(g, ind):
    assert is_independent(g, ind.members)
    assert not SearchState(g, ind.members).free()  # maximal


def test_criterion_5_combine_validity():
    rng = random.Random(0xACCE905)
    per_op = 500
    graphs = [random_kernel(rng) for _ in range(40)]

    for trial in range(per_op):  # vertex separator, 2-way
        g = graphs[trial % len(graphs)]
        part = vertex_separator(g, 2, 0.1, rng)
        parents = [build_initial(g, rng.choice(list(InitStrategy)), rng)
                   for _ in range(2)]
        v1 = {v for v, b in enumerate(part.block_of) if b == 0}
        v2 = {v for v, b in enumerate(part.block_of) if b == 1}
        raw1 = (parents[0].members & v1) | (parents[1].members & v2)
        raw2 = (parents[1].members & v1) | (parents[0].members & v2)
        assert is_independent(g, raw1) and is_independent(g, raw2)  # pre-maximization
        for off in combine_vertex_separator(g, part, *parents):
            assert_valid_offspring(g, off)

    for trial in range(per_op):  # multi-way vertex separator
        g = graphs[(trial + 7) % len(graphs)]
        k = rng.choice([2, 3, 4])
        if k > g.live_count:
            k = 2
        part = vertex_separator(g, k, 0.1, rng)
        parents = [build_initial(g, rng.choice(list(InitStrategy)), rng)
                   for _ in range(k)]
        off = combine_multiway_vertex_separator(g, part, parents)
        assert_valid_offspring(g, off)

    for trial in range(per_op):  # edge separator with exact repair
        g = graphs[(trial + 13) % len(graphs)]
        part = edge_partition(g, 2, 0.1, rng)
        parents = [build_initial(g, rng.choice(list(InitStrategy)), rng)
                   for _ in range(2)]
        for owners in ((0, 1), (1, 0)):  # repaired, before maximization
            raw = _exchange(g, part, parents, owners, _min_weight_bipartite_cover)
            assert is_independent(g, raw)
        for off in combine_edge_separator(g, part, *parents):
            assert_valid_offspring(g, off)

    for trial in range(per_op):  # multi-way edge separator, greedy repair
        g = graphs[(trial + 23) % len(graphs)]
        k = rng.choice([2, 3, 4])
        if k > g.live_count:
            k = 2
        part = edge_partition(g, k, 0.1, rng)
        parents = [build_initial(g, rng.choice(list(InitStrategy)), rng)
                   for _ in range(k)]
        off = combine_multiway_edge_separator(g, part, parents)
        assert_valid_offspring(g, off)

    report(5, f"combine validity, {per_op} invocations per operator")


# -- criterion 6: partition contracts ---------------------------------------------

def test_criterion_6_partition_contracts():
    rng = random.Random(0xACCE906)
    trials = 0
    for _ in range(150):
        g = random_graph(rng, rng.randint(4, 40), rng.choice([0.08, 0.2, 0.5]))
        k = rng.choice([2, 3, 4, 6, 8, 12])
        if k > g.live_count:
            continue
        eps = rng.choice([0.0, 0.03, 0.1, 0.3])
        part = edge_partition(g, k, eps, rng)
        assert validate_partition(g, part) == []
        bound = (1 + eps) * math.ceil(g.live_count / k)
        assert all(len(b) <= bound for b in part.blocks())
        sep = separator_from(g, part)
        assert validate_partition(g, sep) == []
        blocks = sep.block_of
        for u, v in g.edges():  # zero cross-block alive edges
            bu, bv = blocks[u], blocks[v]
            assert bu == bv or SEPARATOR in (bu, bv)
        trials += 1
    assert trials >= 100
    report(6, f"partition contracts over {trials} randomized trials")


# -- criterion 7: determinism ---------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    rng = random.Random(0xACCE907)
    flags = ["--time-limit", "30", "--population-size", "60",
             "--unsuccessful-limit", "100", "--pool-size", "6"]
    for idx in range(10):
        n = rng.randint(12, 28)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
        instance = tmp_path / f"fixture{idx}.graph"
        instance.write_text(write_metis(g), encoding="utf-8")
        outs = []
        for run in range(2):
            out = tmp_path / f"fixture{idx}.run{run}.sol"
            rc = cli_main(["solve", str(instance), "--seed", str(idx),
                           "--output", str(out)] + flags)
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"fixture {idx} not reproducible"
        report_ids = [int(line) for line in outs[0].decode().split()]
        assert verify(g, report_ids).ok
    report(7, "byte-identical reruns on 10 fixtures")


# -- criterion 8: ordering harness ------------------------------------------------------

def test_criterion_8_ordering_harness():
    rng = random.Random(0xACCE908)
    g = random_graph(rng, 16, 0.3)
    disable_one = ORDERING_EXPERIMENTS["disable-one"]
    preset_sweep = ORDERING_EXPERIMENTS["preset-sweep"]
    rows = run_ordering_experiment(g, disable_one)
    assert len(rows) == len(ORDERING_PRESETS["baseline"])
    rows = run_ordering_experiment(g, preset_sweep)
    assert len(rows) == len(ORDERING_PRESETS)

    orderings = [*disable_one.values(), *preset_sweep.values()]
    for _ in range(40):
        g0 = sample_small_graph(rng)
        alpha0, _ = brute_force(g0)
        for ordering in orderings:
            g = g0.copy()
            kernel = exact_reduce(g, ordering)
            alpha_k, _ = brute_force(kernel.graph)
            assert kernel.offset + alpha_k == alpha0
    # Context, not asserted: on the original corpus the best permutation
    # traded a ~2.9x reduction time for a ~1.0023x geometric-mean weight
    # gain over the baseline ordering; desk-scale instances cannot
    # reproduce corpus-scale ratios.
    report(8, f"ordering harness: {len(disable_one)} + {len(preset_sweep)} sound rows")


# -- criterion 9: format fidelity ---------------------------------------------------------

def test_criterion_9_format_fidelity():
    rng = random.Random(0xACCE909)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 40), rng.choice([0.05, 0.2, 0.5]))
        text = write_metis(g)
        h = parse_metis(text)
        assert h.weight == g.weight[:h.capacity]
        assert [sorted(s) for s in h.adj] == [sorted(s) for s in g.adj]
        assert write_metis(h) == text  # canonical fixpoint

    malformed = [
        "3 1 10\n5 2\n1\n5\n",            # asymmetric adjacency
        "2 2 10\n3 2\n4 1\n",             # wrong edge count
        "2 1 10\n3 2\n4 x\n",             # non-integer token
        "2 1 7\n3 2\n4 1\n",              # unsupported fmt
        "2 1 10\n3 1\n4 1\n",             # self-loop
        "2 1 10\n3 5\n4 1\n",             # neighbor out of range
        "2 1 10\n-3 2\n4 1\n",            # negative weight
        "2 0 10\n3\n",                    # missing vertex line
        "",                               # empty file
    ]
    for text in malformed:
        with pytest.raises(GraphFormatError):
            parse_metis(text)
    report(9, "format fidelity: 100 round-trips + malformed classes rejected")
