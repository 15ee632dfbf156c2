import itertools
import random
from collections import deque

import pytest

from mwis import (InitStrategy, SearchState, brute_force, build_graph,
                  build_initial, edge_partition, maximize_greedy, omega_one_swap,
                  one_two_swap, perturb, vnd)
from mwis.local_search import _find_one_two_pair
from conftest import clique, cycle, geometric_graph, path, random_graph, star


def no_improving_move_exists(state) -> bool:
    """Exhaustive scan over every documented move at the current state."""
    g = state.g
    for v in g.vertices():
        if not state.in_sol[v]:
            tight_w = sum(g.weight[u] for u in g.adj[v] if state.in_sol[u])
            if g.weight[v] > tight_w:
                return False
        else:
            ones = [u for u in g.adj[v] if not state.in_sol[u] and state.tight[u] == 1]
            for x, y in itertools.combinations(ones, 2):
                if y not in g.adj[x] and g.weight[x] + g.weight[y] > g.weight[v]:
                    return False
    return True


def test_maximize_by_weight_p3():
    state = SearchState(path([5, 1, 5]))
    maximize_greedy(state)
    assert state.members() == {0, 2}
    assert state.weight == 10


def test_maximize_fixpoint_on_maximal_input():
    g = path([5, 1, 5])
    state = SearchState(g, {0, 2})
    maximize_greedy(state)
    assert state.members() == {0, 2}


def test_maximize_k3_takes_heaviest():
    state = SearchState(clique([1, 2, 3]))
    maximize_greedy(state)
    assert state.members() == {2}
    assert state.weight == 3


def _p3_without_its_last_vertex():
    g = build_graph([(0, 1), (1, 2)], [5, 1, 5])
    g.remove_vertex(2)
    return g


# The search runs on compact() copies; a graph with a dead id is refused
# when the state or the partition is built, so no move can reach one.
def test_add_refuses_a_dead_vertex():
    g = _p3_without_its_last_vertex()
    with pytest.raises(ValueError, match="1 dead ids"):
        SearchState(g).add(2)
    kernel, ids = g.compact()
    state = SearchState(kernel)
    state.add(0)
    assert state.members() == {0} and state.weight == 5 and ids == [0, 1]
    state.audit()


def test_force_insert_refuses_a_dead_vertex():
    g = _p3_without_its_last_vertex()
    with pytest.raises(ValueError, match="1 dead ids"):
        SearchState(g, {1}).force_insert(2)
    kernel, ids = g.compact()
    state = SearchState(kernel, {1})
    state.force_insert(0)
    assert state.members() == {0} and state.weight == 5 and ids == [0, 1]
    state.audit()


def test_edge_partition_refuses_a_dead_vertex(rng):
    g = _p3_without_its_last_vertex()
    with pytest.raises(ValueError, match="1 dead ids"):
        edge_partition(g, 2, 0.0, rng)
    kernel, _ = g.compact()
    assert edge_partition(kernel, 2, 0.0, rng).block_of in ([0, 1], [1, 0])


def test_omega_one_swap_on_p3():
    g = path([5, 1, 5])
    state = SearchState(g, {1})
    assert omega_one_swap(state, 0)
    assert state.weight == 5
    maximize_greedy(state)
    assert state.weight == 10


def test_omega_one_swap_refuses_heavier_neighborhood():
    g = path([5, 1, 5])
    state = SearchState(g, {0, 2})
    assert not omega_one_swap(state, 1)


def test_omega_one_swap_on_free_vertex_is_insertion():
    g = build_graph([], [4])
    state = SearchState(g)
    assert omega_one_swap(state, 0)
    assert state.members() == {0}


def test_one_two_swap_star():
    g = star(3, [2, 2])
    state = SearchState(g, {0})
    assert one_two_swap(state, 0)
    assert state.members() == {1, 2}
    assert state.weight == 4


def test_one_two_swap_no_improvement_on_optimal_p3():
    g = path([1, 1, 1])
    state = SearchState(g, {0, 2})
    assert not one_two_swap(state, 0)
    assert not one_two_swap(state, 2)


def test_one_two_swap_clique_neighbors():
    # v's 1-tight neighbors form a clique: no independent pair to insert
    g = build_graph([(0, 1), (0, 2), (1, 2)], [3, 2, 2])
    state = SearchState(g, {0})
    assert not one_two_swap(state, 0)


def test_vnd_c5_reaches_two_vertices():
    g = cycle([1] * 5)
    state = SearchState(g, {0})
    vnd(state)
    assert state.weight == 2 == brute_force(g)[0]


def test_vnd_keeps_optimal_input():
    g = path([5, 1, 5])
    state = SearchState(g, {0, 2})
    vnd(state)
    assert state.members() == {0, 2}


def test_vnd_zero_budget_is_noop():
    g = path([5, 1, 5])
    state = SearchState(g, {1})
    spent = vnd(state, max_iterations=0)
    assert spent == 0
    assert state.members() == {1}


def test_vnd_monotone_and_locally_optimal(rng):
    # Odd trials drop members of the maximal start, so free vertices wait
    # in the first queue alongside the swaps.
    for trial in range(60):
        g = random_graph(rng, rng.randint(3, 12), rng.choice([0.2, 0.4, 0.7]))
        state = SearchState(g, build_initial(g, InitStrategy.RANDOM_MWIS, rng).members)
        for v in sorted(state.members()) if trial % 2 else ():
            if rng.random() < 0.5:
                state.drop(v)
        before = state.weight
        vnd(state)
        state.audit()
        assert state.weight >= before
        assert no_improving_move_exists(state)


def test_perturb_rejects_zero_strength(rng):
    state = SearchState(path([1, 1, 1]))
    with pytest.raises(ValueError):
        perturb(state, 0, rng)


def test_perturb_can_reach_flip(rng):
    g = build_graph([(0, 1)], [1, 9])
    seen = set()
    for seed in range(20):
        state = SearchState(g, {0})
        perturb(state, 1, random.Random(seed))
        state.audit()
        seen.add(frozenset(state.members()))
    assert frozenset({1}) in seen  # forced flip reachable
    for mem in seen:
        assert mem in (frozenset({0}), frozenset({1}))


def test_perturb_empty_graph(rng):
    g = build_graph([], [])
    state = SearchState(g)
    perturb(state, 1, rng)
    assert state.members() == set()


def test_tightness_invariants_after_operations(rng):
    for _ in range(30):
        g = random_graph(rng, 10, 0.35)
        state = SearchState(g, build_initial(g, InitStrategy.RANDOM_MWIS, rng).members)
        state.audit()
        outside = [v for v in g.vertices() if not state.in_sol[v]]
        for v in outside[:3]:
            omega_one_swap(state, v)
            state.audit()
        for v in sorted(state.members())[:3]:
            one_two_swap(state, v)
            state.audit()
        perturb(state, 2, rng)
        state.audit()


def rescanning_vnd(state, max_iterations=15_000):
    """Reference: the descent that sums the evicted weights on every attempt."""
    g = state.g

    def gain(v):
        return g.weight[v] - sum(g.weight[u] for u in g.adj[v] if state.in_sol[u])

    order = sorted((v for v in range(g.capacity)
                    if g.alive[v] and not state.in_sol[v] and gain(v) > 0),
                   key=lambda v: (-gain(v), v))
    queue = deque(order)
    inq = set(order)
    attempts = 0

    def requeue_around(flipped):
        affected = set(flipped)
        for f in flipped:
            affected.update(g.adj[f])
        for u in sorted(affected):
            if g.alive[u] and u not in inq:
                inq.add(u)
                queue.append(u)

    while attempts < max_iterations:
        while queue and attempts < max_iterations:
            v = queue.popleft()
            inq.discard(v)
            if not g.alive[v] or state.in_sol[v]:
                continue
            attempts += 1
            evicted = [u for u in g.adj[v] if state.in_sol[u]]
            if g.weight[v] > sum(g.weight[u] for u in evicted):
                for u in sorted(evicted):
                    state.drop(u)
                state.add(v)
                requeue_around([v] + evicted)
        if attempts >= max_iterations:
            break
        traded = False
        for v in sorted(state.members()):
            if attempts >= max_iterations:
                break
            attempts += 1
            pair = _find_one_two_pair(state, v)
            if pair is not None:
                x, y = pair
                state.drop(v)
                state.add(x)
                state.add(y)
                requeue_around([v, x, y])
                traded = True
                break
        if not traded and not queue:
            break
    return attempts


def max_scan_greedy(state):
    """Reference: the heaviest free vertex (ties: lower id), found afresh."""
    while state.free():
        state.add(max(state.free(), key=lambda u: (state.g.weight[u], -u)))


def test_vnd_matches_rescanning_reference():
    # Weights 0..3 make a member's 1-tight total equal its weight often,
    # the boundary of the test that skips a two-for-one attempt.
    rng = random.Random(4242)
    for trial in range(60):
        n = rng.randint(5, 120)
        if trial % 3 == 0:
            g = random_graph(rng, n, rng.choice([0.05, 0.15, 0.4]), wlo=0, whi=50)
        elif trial % 3 == 1:
            g = geometric_graph(rng, n, rng.choice([4, 8, 12]))
        else:
            g = random_graph(rng, n, rng.choice([0.05, 0.15, 0.4]), wlo=0, whi=3)
        for v in rng.sample(range(n), n // 8):
            g.remove_vertex(v)
        g = g.compact()[0]
        start = SearchState(g, build_initial(g, InitStrategy.RANDOM_MWIS, rng).members)
        cap = rng.choice([15_000, rng.randint(0, 3 * n)])
        kept, ref = SearchState(g, start.members()), SearchState(g, start.members())
        spent = vnd(kept, cap)
        assert spent == rescanning_vnd(ref, cap)
        assert kept.members() == ref.members()
        assert (kept.weight, kept.tight, kept.nbw) == (ref.weight, ref.tight, ref.nbw)
        kept.audit()


def test_greedy_by_weight_matches_max_scan():
    rng = random.Random(77)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 60), rng.choice([0.05, 0.2, 0.5]), wlo=0, whi=9)
        members = [v for v in g.vertices() if rng.random() < 0.1]
        members = [v for i, v in enumerate(members) if not g.adj[v] & set(members[:i])]
        kept, ref = SearchState(g, members), SearchState(g, members)
        maximize_greedy(kept)
        max_scan_greedy(ref)
        assert kept.members() == ref.members()
        assert not kept.free()


def test_kept_tallies_survive_random_operations():
    rng = random.Random(1312)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 25), rng.choice([0.1, 0.3, 0.6]), wlo=0, whi=30)
        state = SearchState(g)
        state.audit()
        for _ in range(30):
            v = rng.choice(g.vertices())
            op = rng.randrange(5)
            if op == 0 and v in state.free():
                state.add(v)
            elif op == 1 and state.in_sol[v]:
                state.drop(v)
            elif op == 2:
                state.force_insert(v)
            elif op == 3:
                vnd(state, rng.randint(0, 40))
            else:
                perturb(state, rng.randint(1, 3), rng)
            state.audit()
