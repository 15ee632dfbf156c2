import heapq
import random
import time
import weakref
from collections import Counter

import pytest

from mwis import evolution
from mwis import (Individual, InitStrategy, Partition, Population, SEPARATOR,
                  SearchState, SolverConfig, brute_force, build_graph,
                  build_initial, combine_edge_separator,
                  combine_multiway_edge_separator,
                  combine_multiway_vertex_separator, combine_vertex_separator,
                  edge_partition, evolve, exact_reduce, initial_population, is_independent,
                  make_individual, maximize_greedy, mutate, replace, separator_from,
                  tournament_select)
from mwis.evolution import FORCE_AFTER
from conftest import DinicNetwork, geometric_graph, path, random_graph, star


def manual_partition(g, block_of, k=2, has_separator=False):
    assert len(block_of) == g.capacity == g.live_count
    cap = g.live_count  # loose bound; balance is not under test here
    return Partition(k=k, block_of=list(block_of), max_block_size=cap,
                     has_separator=has_separator)


def assert_maximal(g, ind):
    assert is_independent(g, ind.members)
    assert not SearchState(g, ind.members).free()


# -- initial constructors ------------------------------------------------------

def test_greedy_weight_on_p3(rng):
    g = path([5, 1, 5])
    ind = build_initial(g, InitStrategy.GREEDY_WEIGHT_MWIS, rng)
    assert ind.members == frozenset({0, 2})
    assert ind.weight == 10


def test_greedy_degree_prefers_leaves(rng):
    g = star(9, [2, 2, 2])
    ind = build_initial(g, InitStrategy.GREEDY_DEGREE_MWIS, rng)
    assert ind.members == frozenset({1, 2, 3})


def test_random_on_edgeless_takes_all(rng):
    g = build_graph([], [1, 2, 3])
    ind = build_initial(g, InitStrategy.RANDOM_MWIS, rng)
    assert ind.members == frozenset({0, 1, 2})


@pytest.mark.parametrize("strategy", list(InitStrategy))
def test_all_strategies_build_maximal_sets(strategy):
    rng = random.Random(17)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 16), rng.choice([0.15, 0.4]))
        ind = build_initial(g, strategy, rng)
        assert_maximal(g, ind)
        assert ind.weight == sum(g.weight[v] for v in ind.members)


def test_vc_strategies_complement_real_covers(rng):
    for _ in range(10):
        g = random_graph(rng, 12, 0.3)
        for strategy in (InitStrategy.GREEDY_WEIGHT_VC, InitStrategy.GREEDY_DEGREE_VC):
            ind = build_initial(g, strategy, rng)
            cover = set(g.vertices()) - ind.members
            assert all(u in cover or v in cover for u, v in g.edges())


def old_cover_complement(g, by_weight):
    """Reference: ``_cover_complement`` as it was, with one lazy heap for
    both orders."""
    uncov = {v: g.degree(v) for v in g.vertices()}
    cover = set()
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
    maximize_greedy(state)
    return evolution._individual_from_state(state)


def test_cover_complement_matches_the_heap():
    # Weights 0-3 tie many vertices; reduced kernels are searched compacted.
    rng = random.Random(404)
    graphs = [random_graph(rng, rng.randint(1, 40), rng.choice([0.05, 0.2, 0.5]),
                           0, rng.choice([3, 50])) for _ in range(250)]
    kernels = [exact_reduce(geometric_graph(rng, 100, 20)).graph.compact()[0]
               for _ in range(12)]
    assert sum(k.live_count > 0 for k in kernels) >= 6
    for g in graphs + kernels:
        for by_weight in (True, False):
            assert evolution._cover_complement(g, by_weight) == old_cover_complement(g, by_weight)


# -- tournament ------------------------------------------------------------------

def test_tournament_prefers_heavier(rng):
    g = build_graph([], [3, 7])
    pop = Population([make_individual(g, {0}), make_individual(g, {1})])
    picks = {tournament_select(pop, rng).weight for _ in range(40)}
    assert 7 in picks  # heavier wins whenever both are drawn
    assert all(w in (3, 7) for w in picks)


def test_tournament_singleton(rng):
    g = build_graph([], [3])
    pop = Population([make_individual(g, {0})])
    assert tournament_select(pop, rng).weight == 3


# -- combines ----------------------------------------------------------------------

def test_vertex_separator_combine_p3():
    g = path([5, 1, 5])
    part = manual_partition(g, [0, SEPARATOR, 1], has_separator=True)
    left = make_individual(g, {0})
    right = make_individual(g, {2})
    o1, o2 = combine_vertex_separator(g, part, left, right)
    assert o1.members == frozenset({0, 2})
    assert o1.weight == 10
    assert_maximal(g, o2)


def test_vertex_separator_identical_parents():
    g = path([5, 1, 5])
    part = manual_partition(g, [0, SEPARATOR, 1], has_separator=True)
    ind = make_individual(g, {0, 2})
    o1, o2 = combine_vertex_separator(g, part, ind, ind)
    assert o1.members == ind.members == o2.members


def test_vertex_separator_empty_parents():
    g = path([5, 1, 5])
    part = manual_partition(g, [0, SEPARATOR, 1], has_separator=True)
    empty = Individual(frozenset(), 0)
    o1, _ = combine_vertex_separator(g, part, empty, empty)
    assert_maximal(g, o1)  # maximization alone fills the offspring


def test_multiway_vertex_separator_blockwise_winners():
    # 4-block path of K2s; each block has a distinct winning parent
    g = build_graph([(0, 1), (2, 3), (4, 5), (6, 7)], [9, 1, 9, 1, 9, 1, 9, 1])
    block_of = [0, 0, 1, 1, 2, 2, 3, 3]
    part = manual_partition(g, block_of, k=4, has_separator=True)
    parents = [make_individual(g, {0, 3, 5, 7}),
               make_individual(g, {1, 2, 5, 7}),
               make_individual(g, {1, 3, 4, 7}),
               make_individual(g, {1, 3, 5, 6})]
    off = combine_multiway_vertex_separator(g, part, parents)
    assert off.members == frozenset({0, 2, 4, 6})
    assert off.weight == 36


def test_multiway_vertex_separator_k2_reduces_to_heavier_restriction():
    g = path([5, 1, 5])
    part = manual_partition(g, [0, SEPARATOR, 1], k=2, has_separator=True)
    a = make_individual(g, {0, 2})
    b = make_individual(g, {1})
    off = combine_multiway_vertex_separator(g, part, [a, b])
    assert off.members == frozenset({0, 2})


def test_multiway_identical_parents_reproduce():
    g = path([5, 1, 5])
    part = manual_partition(g, [0, SEPARATOR, 1], k=2, has_separator=True)
    ind = make_individual(g, {0, 2})
    off = combine_multiway_vertex_separator(g, part, [ind, ind])
    assert off.members == ind.members


def test_edge_separator_combine_k2():
    g = build_graph([(0, 1)], [1, 9])
    part = manual_partition(g, [0, 1], k=2)
    light = make_individual(g, {0})
    heavy = make_individual(g, {1})
    o1, o2 = combine_edge_separator(g, part, light, heavy)
    for o in (o1, o2):
        assert_maximal(g, o)
    assert max(o1.weight, o2.weight) == 9


def test_edge_separator_repair_picks_lighter_endpoint():
    # both endpoints of the single cut edge are outside the exchanged covers
    g = build_graph([(0, 1)], [2, 7])
    part = manual_partition(g, [0, 1], k=2)
    all_in = make_individual(g, {0})  # cover {1}
    other = make_individual(g, {1})   # cover {0}
    o1, o2 = combine_edge_separator(g, part, all_in, other)
    # cover exchange leaves (0,1) uncovered in one offspring; min-weight
    # repair adds vertex 0 (weight 2), keeping 1 (weight 7) in the solution
    assert frozenset({1}) in (o1.members, o2.members)


def test_multiway_edge_separator_direct_union():
    g = build_graph([(0, 1), (2, 3)], [9, 1, 9, 1])
    part = manual_partition(g, [0, 0, 1, 1], k=2)
    a = make_individual(g, {0, 2})
    off = combine_multiway_edge_separator(g, part, [a, a])
    assert off.members == frozenset({0, 2})


def test_multiway_edge_separator_greedy_repair_triangle():
    # each block's winning cover is empty inside it, so the whole triangle
    # is initially uncovered and the greedy repair has to rebuild a cover
    g = build_graph([(0, 1), (1, 2), (0, 2)], [5, 6, 7])
    part = manual_partition(g, [0, 1, 2], k=3)
    parents = [make_individual(g, {0}), make_individual(g, {1}),
               make_individual(g, {2})]
    off = combine_multiway_edge_separator(g, part, parents)
    assert_maximal(g, off)
    assert off.members == frozenset({2})  # repair covers with {0, 1}


def kxk_vertex_separator(g, part, parents):
    """Reference: score every block against every parent by set intersection."""
    raw = set()
    for block in map(set, part.blocks()):
        scores = [sum(g.weight[v] for v in parent.members & block) for parent in parents]
        winner = max(range(len(parents)), key=lambda i: (scores[i], -i))
        raw |= parents[winner].members & block
    return evolution._finish(g, raw)


def kxk_edge_separator(g, part, parents):
    """Reference: score every block against every parent by set difference,
    then the same greedy repair."""
    alive = set(g.vertices())
    cover = set()
    for block in map(set, part.blocks()):
        scores = [sum(g.weight[v] for v in block - parent.members) for parent in parents]
        winner = min(range(len(parents)), key=lambda i: (scores[i], i))
        cover |= block - parents[winner].members
    free = alive - cover
    uncovered = sorted((u, v) for u, v in g.edges() if u in free and v in free)
    udeg = Counter(x for e in uncovered for x in e)
    for u, v in uncovered:
        if u not in cover and v not in cover:
            cover.add(u if (g.weight[u] * udeg[v], u) <= (g.weight[v] * udeg[u], v) else v)
    return evolution._finish(g, alive - cover)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_multiway_combines_match_kxk_scoring(k):
    # Narrow weights make parents tie inside blocks, so the tie-breaks count.
    rng = random.Random(k)
    for trial in range(12):
        g = geometric_graph(rng, rng.randint(40, 90), 6)
        if trial % 2:
            g = build_graph(g.edges(), [rng.randint(0, 3) for _ in range(g.capacity)])
        for v in rng.sample(g.vertices(), 5):
            g.remove_vertex(v)
        g = g.compact()[0]
        parents = initial_population(g, k, rng).individuals
        if trial % 3 == 0:
            parents[-1] = parents[0]
        edge_part = edge_partition(g, k, 0.03, rng)
        sep_part = separator_from(g, edge_part)
        for combine, reference, part in (
                (combine_multiway_edge_separator, kxk_edge_separator, edge_part),
                (combine_multiway_vertex_separator, kxk_vertex_separator, sep_part)):
            assert combine(g, part, parents) == reference(g, part, parents)


def test_combine_refuses_wrong_partition_kind():
    g = path([1, 1, 1])
    edge_part = manual_partition(g, [0, 0, 1], k=2)
    ind = make_individual(g, {0, 2})
    with pytest.raises(ValueError):
        combine_vertex_separator(g, edge_part, ind, ind)
    sep_part = manual_partition(g, [0, SEPARATOR, 1], k=2,
                                has_separator=True)
    with pytest.raises(ValueError):
        combine_edge_separator(g, sep_part, ind, ind)


# -- the four operators as separate bodies ---------------------------------------
# The combine operators as they were before they shared one block exchange,
# kept as the reference for it.

def _old_block_weights(g, part, vertices):
    out = [0] * part.k
    for v in vertices:
        b = part.block_of[v]
        if b != SEPARATOR:
            out[b] += g.weight[v]
    return out


def _old_split_blocks(part):
    out = [set() for _ in range(part.k)]
    for v, b in enumerate(part.block_of):
        if b != SEPARATOR:
            out[b].add(v)
    return out


def _old_uncovered_edges(g, free):
    return sorted((u, v) for u in free for v in g.adj[u] if u < v and v in free)


def _old_min_weight_bipartite_cover(g, edges, left):
    left_ids = sorted({x for e in edges for x in e if x in left})
    right_ids = sorted({x for e in edges for x in e if x not in left})
    li = {v: i for i, v in enumerate(left_ids)}
    ri = {v: i + len(left_ids) for i, v in enumerate(right_ids)}
    s = len(left_ids) + len(right_ids)
    t = s + 1
    net = DinicNetwork(t + 1)
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


def old_vertex_separator(g, part, first, second):
    v1, v2 = _old_split_blocks(part)
    raw1 = (first.members & v1) | (second.members & v2)
    raw2 = (second.members & v1) | (first.members & v2)
    return (evolution._finish(g, set(raw1)),
            evolution._finish(g, set(raw2)))


def old_multiway_vertex_separator(g, part, parents):
    inside = [_old_block_weights(g, part, parent.members) for parent in parents]
    winners = [max(range(len(parents)), key=lambda i: (inside[i][b], -i))
               for b in range(part.k)]
    raw = {v for b, i in enumerate(winners) for v in parents[i].members
           if part.block_of[v] == b}
    return evolution._finish(g, raw)


def old_exchanged_covers(g, part, first, second):
    v1, v2 = _old_split_blocks(part)
    alive = set(g.vertices())
    c1 = alive - first.members
    c2 = alive - second.members
    out = []
    for cover in ((c1 & v1) | (c2 & v2), (c2 & v1) | (c1 & v2)):
        uncovered = _old_uncovered_edges(g, alive - cover)
        if uncovered:
            cover = cover | _old_min_weight_bipartite_cover(g, uncovered, v1)
        out.append(cover)
    return out


def old_edge_separator(g, part, first, second):
    alive = set(g.vertices())
    covers = old_exchanged_covers(g, part, first, second)
    o1, o2 = (evolution._finish(g, alive - c) for c in covers)
    return o1, o2


def old_multiway_edge_separator(g, part, parents):
    alive = set(g.vertices())
    block_w = _old_block_weights(g, part, range(g.capacity))
    inside = [_old_block_weights(g, part, parent.members) for parent in parents]
    winners = [min(range(len(parents)), key=lambda i: (block_w[b] - inside[i][b], i))
               for b in range(part.k)]
    cover = {v for v, b in enumerate(part.block_of)
             if b != SEPARATOR and v not in parents[winners[b]].members}
    uncovered = _old_uncovered_edges(g, alive - cover)
    if uncovered:
        udeg = {}
        for u, v in uncovered:
            udeg[u] = udeg.get(u, 0) + 1
            udeg[v] = udeg.get(v, 0) + 1
        for u, v in uncovered:
            if u in cover or v in cover:
                continue
            pick = u if (g.weight[u] * udeg[v], u) <= (g.weight[v] * udeg[u], v) else v
            cover.add(pick)
    return evolution._finish(g, alive - cover)


def _equivalence_kernels(rng, trials=30):
    """Compact copies of geometric graphs with vertices removed and of
    reduced random graphs; weights 0-3 (ties) or 1-200."""
    for trial in range(trials):
        whi = (3, 200)[trial % 2]
        wlo = 0 if whi == 3 else 1
        if trial % 3 == 2:
            g = random_graph(rng, rng.randint(40, 80), 0.08, wlo=wlo, whi=whi)
            exact_reduce(g)
        elif trial % 3 == 1:
            g = random_graph(rng, rng.randint(20, 40), 0.15, wlo=wlo, whi=whi)
        else:
            g = geometric_graph(rng, rng.randint(40, 90), 6)
            g = build_graph(g.edges(), [rng.randint(wlo, whi) for _ in range(g.capacity)])
            for v in rng.sample(g.vertices(), 5):
                g.remove_vertex(v)
        if g.live_count >= 8:
            yield g.compact()[0]


def _parents(g, k, rng, trial):
    parents = initial_population(g, k, rng).individuals
    if trial % 3 == 0:
        parents[-1] = parents[0]
    if trial % 4 == 1:
        parents[rng.randrange(k)] = Individual(frozenset(), 0)
    return parents


def test_block_exchange_matches_the_four_operator_bodies(monkeypatch):
    rng = random.Random(2017)
    compared, repaired = Counter(), Counter()
    for name in ("_min_weight_bipartite_cover", "_greedy_cover"):
        def counted(*args, _name=name, _fn=getattr(evolution, name)):
            cover = _fn(*args)
            repaired[_name] += bool(cover)
            return cover
        monkeypatch.setattr(evolution, name, counted)
    # Kernels are drawn until every floor below is met, so the floors do not
    # hold by the luck of one draw sequence; the cap bounds the time.
    for trial, g in enumerate(_equivalence_kernels(rng, trials=90)):
        # Half the cases polish through one small memo per kernel, which
        # must answer as a fresh _finish does, across a clear included.
        memo = evolution.FinishMemo(g, 6)
        for k in (2, 2, 3, 4, 8):
            edge_part = edge_partition(g, k, 0.03, rng)
            sep_part = separator_from(g, edge_part)
            cases = [(combine_multiway_edge_separator, old_multiway_edge_separator,
                      edge_part, [_parents(g, k, rng, trial)]),
                     (combine_multiway_vertex_separator, old_multiway_vertex_separator,
                      sep_part, [_parents(g, k, rng, trial)])]
            if k == 2:
                cases += [(combine_edge_separator, old_edge_separator,
                           edge_part, _parents(g, 2, rng, trial)),
                          (combine_vertex_separator, old_vertex_separator,
                           sep_part, _parents(g, 2, rng, trial))]
            for combine, reference, part, args in cases:
                via = memo if rng.random() < 0.5 else None
                got = combine(g, part, *args, memo=via)
                assert got == reference(g, part, *args), (combine.__name__, k)
                compared[combine.__name__] += 1
                compared["memo"] += via is not None
        if len(compared) == 5 and min(compared.values()) >= 30 \
                and len(repaired) == 2 and min(repaired.values()) >= 30:
            break
    assert len(compared) == 5 and min(compared.values()) >= 30, compared
    assert min(repaired.values()) >= 30 and len(repaired) == 2, repaired


def old_heaviest_owners(g, part, parents):
    """Reference: ``_heaviest_owners`` as it was, with a keyed max per block."""
    block_of, weight = part.block_of, g.weight
    inside = [[0] * part.k for _ in parents]
    for row, parent in zip(inside, parents):
        for v in parent.members:
            b = block_of[v]
            if b != SEPARATOR:
                row[b] += weight[v]
    return [max(range(len(parents)), key=lambda i: inside[i][b]) for b in range(part.k)]


@pytest.mark.parametrize("k", [2, 3, 8])
def test_heaviest_owners_match_the_keyed_max(k):
    # Weights 0-3 and repeated or empty parents tie blocks between parents.
    rng = random.Random(300 + k)
    tied = 0
    for trial, g in enumerate(_equivalence_kernels(rng)):
        edge_part = edge_partition(g, k, 0.03, rng)
        for part in (edge_part, separator_from(g, edge_part)):
            parents = _parents(g, k, rng, trial)
            owners = evolution._heaviest_owners(g, part, parents)
            assert owners == old_heaviest_owners(g, part, parents)
            for b, i in enumerate(owners):
                block = {v for v, c in enumerate(part.block_of) if c == b}
                scores = [sum(g.weight[v] for v in p.members & block) for p in parents]
                tied += scores.count(scores[i]) > 1
    assert tied >= 20, tied


# -- mutation, replacement, evolve ---------------------------------------------------

def test_mutate_preserves_validity(rng):
    for _ in range(20):
        g = random_graph(rng, 10, 0.3)
        ind = build_initial(g, InitStrategy.GREEDY_WEIGHT_MWIS, rng)
        out = mutate(g, ind, rng, strength=2)
        assert_maximal(g, out)


def test_replace_rejects_duplicate():
    g = build_graph([], [5, 4, 3])
    pop = Population([make_individual(g, {0}), make_individual(g, {1})])
    assert not replace(pop, make_individual(g, {0}))
    assert pop.stagnation == 1


def test_replace_rejects_lighter_than_minimum():
    g = build_graph([(0, 1), (1, 2)], [5, 4, 5])
    pop = Population([make_individual(g, {0, 2})])
    assert not replace(pop, make_individual(g, {1}))


def test_replace_evicts_most_similar_lighter_member():
    g = build_graph([(0, 1)], [5, 5, 3, 3, 4])
    a = make_individual(g, {0, 2, 3})     # weight 11, |off & a| = 2
    b = make_individual(g, {1, 2})        # weight 8,  |off & b| = 0
    c = make_individual(g, {1, 3})        # weight 8,  |off & c| = 1
    pop = Population([a, b, c])
    off = make_individual(g, {0, 3, 4})   # weight 12: all members are lighter
    assert replace(pop, off)
    assert pop.individuals == [off, b, c]  # a evicted: largest intersection


def test_replace_forcing_spares_best():
    g = build_graph([], [9, 4, 3])
    best = make_individual(g, {0, 1, 2})
    weak = make_individual(g, {1})
    pop = Population([best, weak], stagnation=FORCE_AFTER)
    off = make_individual(g, {2})  # lighter than both members
    assert replace(pop, off) == "forced"
    assert best in pop.individuals
    assert off in pop.individuals


def test_armed_forcing_still_admits_on_merit(monkeypatch, rng):
    g = build_graph([], [9, 2, 3])
    pop = Population([make_individual(g, {0}), make_individual(g, {1})],
                     stagnation=FORCE_AFTER)
    heavier = make_individual(g, {0, 2})  # beats both members
    assert replace(pop, heavier) == "merit"
    assert pop.individuals[0] == heavier and pop.stagnation == 0

    # evolve counts that entry as a success: with a limit of one
    # unsuccessful offer, a merit entry lets it make a second offer.
    g = random_graph(rng, 14, 0.3)
    pop = initial_population(g, 4, rng)
    pop.stagnation = FORCE_AFTER
    entries = iter(["merit", None])
    offers = []

    def replace_stub(pop, offspring):
        offers.append(offspring)
        return next(entries)

    monkeypatch.setattr(evolution, "replace", replace_stub)
    evolve(g, pop, rng, SolverConfig(unsuccessful_limit=1, pool_size=2))
    assert len(offers) == 2


def test_initial_population_size_and_validity(rng):
    g = random_graph(rng, 12, 0.3)
    pop = initial_population(g, 40, rng)
    assert len(pop) == 40
    for ind in pop.individuals:
        assert_maximal(g, ind)


def test_initial_population_builds_each_rng_free_constructor_once(monkeypatch):
    # Only RANDOM_MWIS draws from rng, so every other constructor is built
    # at most once per call and repeated; the population and the rng state
    # after it equal those of a population built slot by slot.
    g = geometric_graph(random.Random(8), 60, 6)
    strategies = list(InitStrategy)
    rng = random.Random(3)
    slot_by_slot = [build_initial(g, rng.choice(strategies), rng) for _ in range(30)]
    after = rng.getstate()
    built = Counter()

    def spy(graph, strategy, r, _fn=evolution.build_initial):
        built[strategy] += 1
        return _fn(graph, strategy, r)

    monkeypatch.setattr(evolution, "build_initial", spy)
    rng = random.Random(3)
    assert initial_population(g, 30, rng).individuals == slot_by_slot
    assert rng.getstate() == after
    rng_free = [s for s in strategies if s is not InitStrategy.RANDOM_MWIS]
    assert all(built[s] == 1 for s in rng_free), built
    assert sum(built.values()) < 30


def test_initial_population_stops_at_the_deadline(rng):
    # A passed deadline leaves two individuals; one that does not bite
    # changes nothing, the random draws included.
    g = random_graph(rng, 12, 0.3)
    assert len(initial_population(g, 40, rng, deadline=0.0)) == 2
    state = rng.getstate()
    pop = initial_population(g, 40, rng, deadline=time.monotonic() + 3600)
    after = rng.getstate()
    rng.setstate(state)
    assert initial_population(g, 40, rng).individuals == pop.individuals
    assert rng.getstate() == after


def test_evolve_zero_budget_returns_population_unchanged(rng):
    g = random_graph(rng, 10, 0.3)
    pop = initial_population(g, 10, rng)
    before = list(pop.individuals)
    evolve(g, pop, rng, SolverConfig(), deadline=0.0)
    assert pop.individuals == before


def test_evolve_single_vertex_kernel(rng):
    g = build_graph([], [7])
    pop = initial_population(g, 5, rng)
    out = evolve(g, pop, rng, SolverConfig(unsuccessful_limit=10))
    assert out.best().members == frozenset({0})


def test_evolve_p4_reaches_optimum():
    g = build_graph([(0, 1), (1, 2), (2, 3)], [1, 9, 9, 1])
    alpha, _ = brute_force(g)
    rng = random.Random(5)
    pop = initial_population(g, 20, rng)
    evolve(g, pop, rng, SolverConfig(unsuccessful_limit=80))
    assert pop.best().weight == alpha == 10


def test_evolve_population_invariants_hold(rng):
    g = random_graph(rng, 14, 0.3)
    pop = initial_population(g, 15, rng)
    size = len(pop)
    best_before = pop.best().weight
    evolve(g, pop, rng, SolverConfig(unsuccessful_limit=40))
    assert len(pop) == size
    assert pop.best().weight >= best_before
    for ind in pop.individuals:
        assert_maximal(g, ind)


def test_evolve_emits_improvements(rng):
    g = random_graph(rng, 16, 0.25)
    pop = initial_population(g, 12, rng)
    seen = []
    evolve(g, pop, rng, SolverConfig(unsuccessful_limit=60),
           on_improve=lambda it, w: seen.append((it, w)))
    assert all(w2 > w1 for (_, w1), (_, w2) in zip(seen, seen[1:]))


def _kernels():
    """Compact copies of reduced random graphs and of geometric graphs with
    vertices removed, as solve hands kernels to evolve."""
    for seed in range(3):
        g = random_graph(random.Random(seed), 70, 0.08, wlo=0)
        exact_reduce(g)
        yield g.compact()[0]
        rng = random.Random(100 + seed)
        g = geometric_graph(rng, 120, 8)
        for v in rng.sample(range(120), 12):
            g.remove_vertex(v)
        yield g.compact()[0]


def test_evolve_only_reads_the_kernel(monkeypatch):
    # Partitions and individuals carry no graph state of their own; this is
    # the invariant that makes that safe.
    calls = Counter()
    for name in ("combine_vertex_separator", "combine_multiway_vertex_separator",
                 "combine_edge_separator", "combine_multiway_edge_separator",
                 "mutate"):
        def counted(*args, _name=name, _fn=getattr(evolution, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(evolution, name, counted)
    for g in _kernels():
        assert g.live_count > 20
        before = ([set(a) for a in g.adj], list(g.weight), list(g.alive),
                  g.live_count, g.live_edges)
        rng = random.Random(g.live_count)
        pop = initial_population(g, 12, rng)
        evolve(g, pop, rng, SolverConfig(unsuccessful_limit=40, pool_size=4))
        after = ([set(a) for a in g.adj], list(g.weight), list(g.alive),
                 g.live_count, g.live_edges)
        assert after == before
    assert len(calls) == 5 and min(calls.values()) >= 10


def test_evolve_calls_the_combines_bound_in_the_module(monkeypatch):
    # A tracer wraps combine_* functions where the module namespace binds
    # them; evolve must look each one up there at every call.
    g = geometric_graph(random.Random(3), 80, 6)
    config = SolverConfig(unsuccessful_limit=40, pool_size=4)

    def run():
        rng = random.Random(9)
        pop = initial_population(g, 10, rng)
        evolve(g, pop, rng, config)
        return pop.individuals, rng.getstate()

    plain = run()
    calls = Counter()
    for name in ("combine_vertex_separator", "combine_multiway_vertex_separator",
                 "combine_edge_separator", "combine_multiway_edge_separator"):
        def counted(*args, _name=name, _fn=getattr(evolution, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(evolution, name, counted)
    assert run() == plain
    assert len(calls) == 4 and min(calls.values()) >= 5, calls


class _RecordingMemo(evolution.FinishMemo):
    """A ``FinishMemo`` that records its size after every lookup."""

    made: list = []

    def __init__(self, g, limit):
        super().__init__(g, limit)
        self.sizes = []
        _RecordingMemo.made.append(self)

    def finish(self, g, members):
        out = super().finish(g, members)
        self.sizes.append(len(self.table))
        return out


class _FreshFinish(evolution.FinishMemo):
    """A ``FinishMemo`` that remembers nothing: every lookup recomputes."""

    def finish(self, g, members):
        return evolution._finish(g, members)


def _memo_runs(monkeypatch, memo_class):
    """Population and rng state after one evolve per kernel, polishing
    through ``memo_class``; the limit is 6 * 2 = 12 entries."""
    monkeypatch.setattr(evolution, "FinishMemo", memo_class)
    config = SolverConfig(unsuccessful_limit=40, population_size=6, pool_size=2)
    out = []
    for g in _kernels():
        rng = random.Random(g.live_count)
        pop = initial_population(g, 10, rng)
        evolve(g, pop, rng, config)
        out.append((pop.individuals, rng.getstate()))
    return out


def test_evolve_memo_changes_no_offspring_and_no_draw(monkeypatch):
    _RecordingMemo.made = []
    memoized = _memo_runs(monkeypatch, _RecordingMemo)
    assert memoized == _memo_runs(monkeypatch, _FreshFinish)
    sizes = [m.sizes for m in _RecordingMemo.made]
    assert len(sizes) == 6
    # A lookup that leaves the size as it was is a hit; one that shrinks
    # it follows a clear.
    hits = sum(b == a for s in sizes for a, b in zip(s, s[1:]))
    clears = sum(b < a for s in sizes for a, b in zip(s, s[1:]))
    assert hits >= 50 and clears >= 3, (hits, clears)


def test_evolve_memo_never_exceeds_population_times_pool(monkeypatch):
    _RecordingMemo.made = []
    _memo_runs(monkeypatch, _RecordingMemo)
    assert all(m.limit == 12 for m in _RecordingMemo.made)
    assert max(max(m.sizes) for m in _RecordingMemo.made) == 12


def test_memo_answers_for_its_own_graph_and_dies_with_evolve(monkeypatch):
    # The same ids and the same exchanged set on two graphs: each memo
    # gives its own graph's polish and refuses the other graph.
    heavy_ends = path([5, 1, 5])
    heavy_middle = path([1, 9, 1])
    first = evolution.FinishMemo(heavy_ends, 4)
    second = evolution.FinishMemo(heavy_middle, 4)
    for _ in range(2):  # the second lookup is a hit
        assert first.finish(heavy_ends, {1}).members == frozenset({0, 2})
        assert second.finish(heavy_middle, {1}).members == frozenset({1})
    with pytest.raises(ValueError):
        first.finish(heavy_middle, {1})

    # Each evolve makes its own memo, and nothing keeps it once it returns.
    alive = []

    class Watched(evolution.FinishMemo):
        def __init__(self, g, limit):
            super().__init__(g, limit)
            alive.append(weakref.ref(self))

    monkeypatch.setattr(evolution, "FinishMemo", Watched)
    module_state = dict(vars(evolution))
    for g in list(_kernels())[:2]:
        rng = random.Random(4)
        evolve(g, initial_population(g, 8, rng), rng,
               SolverConfig(unsuccessful_limit=20, pool_size=2))
    assert len(alive) == 2 and all(ref() is None for ref in alive)
    assert dict(vars(evolution)) == module_state
