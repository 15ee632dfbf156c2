"""Worked examples and properties for every reduction rule.

Frozen expected values were derived from the enumeration oracle; each
example also re-checks the offset identity against brute force.
"""

import collections
import itertools
import random

import pytest

from mwis import (Kernel, ORDERING_EXPERIMENTS, ORDERING_PRESETS, Rule, SolverConfig,
                  brute_force, build_graph, exact_reduce, is_independent, reconstruct,
                  run_ordering_experiment, set_weight, solve, undo_event, verify)
from mwis.reductions import (ReductionEvent,
                             _add_edge, _is_clique, _new_vertex, _rm, _set_w,
                             apply_basic_single_edge, apply_cwis,
                             apply_degree_one, apply_domination,
                             apply_extended_single_edge,
                             apply_isolated_clique,
                             apply_neighborhood_folding,
                             apply_neighborhood_removal,
                             apply_simplicial_transfer, apply_triangle,
                             apply_twin, apply_v_shape, apply_v_shape_min,
                             critical_set, _resolve)
from mwis import reductions
from mwis.maxflow import DoubleCoverFlow
from conftest import (DinicNetwork, clique, cycle, geometric_graph, graph_state, path,
                      random_graph, star)


def check_identity(original, kernel: Kernel):
    """offset + alpha_w(kernel) == alpha_w(original), via the oracle."""
    alpha0, _ = brute_force(original)
    alpha_k, witness = brute_force(kernel.graph)
    assert kernel.offset + alpha_k == alpha0
    rebuilt = reconstruct(kernel, witness)
    assert is_independent(original, rebuilt)
    assert sum(original.weight[v] for v in rebuilt) == alpha0


# -- neighborhood removal ----------------------------------------------------

def test_neighborhood_removal_star():
    g = star(5, [2, 2])
    events = []
    assert apply_neighborhood_removal(g, 0, events)
    assert g.is_empty
    assert events[0].offset_delta == 5
    assert events[0].decided == (0,)


def test_neighborhood_removal_isolated():
    g = build_graph([], [7])
    events = []
    assert apply_neighborhood_removal(g, 0, events)
    assert events[0].offset_delta == 7


def test_neighborhood_removal_refuses_triangle():
    g = clique([3, 3, 3])
    assert not apply_neighborhood_removal(g, 0, [])


# -- degree one ---------------------------------------------------------------

def test_degree_one_case1():
    g = build_graph([(0, 1)], [4, 3])
    events = []
    assert apply_degree_one(g, 0, events)
    assert g.is_empty
    assert events[0].offset_delta == 4
    assert events[0].decided == (0,)


def test_degree_one_case2_weight_transfer():
    g = build_graph([(0, 1)], [2, 5])
    original = g.copy()
    events = []
    assert apply_degree_one(g, 0, events)
    assert g.vertices() == [1]
    assert g.weight[1] == 3
    assert events[0].offset_delta == 2
    kernel = Kernel(g, events)
    # optimal kernel solution {u} reconstructs to {u}: 2 + 3 = 5
    assert reconstruct(kernel, {1}) == {1}
    # empty kernel solution falls back to the pendant vertex
    assert reconstruct(kernel, set()) == {0}
    check_identity(original, kernel)


def test_degree_one_needs_degree_one():
    g = path([1, 1, 1])
    assert not apply_degree_one(g, 1, [])


# -- triangle ------------------------------------------------------------------

def triangle_graph(wv, wx, wy):
    return build_graph([(0, 1), (0, 2), (1, 2)], [wv, wx, wy])


def test_triangle_case1():
    g = triangle_graph(5, 2, 3)
    original = g.copy()
    events = []
    assert apply_triangle(g, 0, events)
    assert g.is_empty
    assert events[0].offset_delta == 5
    check_identity(original, Kernel(g, events))


def test_triangle_case2():
    g = triangle_graph(2, 2, 3)
    original = g.copy()
    events = []
    assert apply_triangle(g, 0, events)
    assert g.vertices() == [2]
    assert g.weight[2] == 1
    assert events[0].offset_delta == 2
    check_identity(original, Kernel(g, events))  # alpha_w = 3


def test_triangle_case3():
    g = triangle_graph(1, 2, 3)
    original = g.copy()
    events = []
    assert apply_triangle(g, 0, events)
    assert g.vertices() == [1, 2]
    assert (g.weight[1], g.weight[2]) == (1, 2)
    assert events[0].offset_delta == 1
    check_identity(original, Kernel(g, events))  # alpha_w = 3


# -- v-shape -------------------------------------------------------------------

def v_shape_graph(wx, wv, wy):
    # path x - v - y with v in the middle
    return build_graph([(0, 1), (1, 2)], [wx, wv, wy])


def test_v_shape_case1a_takes_middle():
    g = v_shape_graph(1, 5, 2)
    events = []
    assert apply_v_shape(g, 1, events)
    assert g.is_empty
    assert events[0].offset_delta == 5


def test_v_shape_case1b_folds():
    g = v_shape_graph(2, 3, 2)
    original = g.copy()
    events = []
    assert apply_v_shape(g, 1, events)
    fold = events[0].rebuild[1]
    assert fold is not None and g.vertices() == [fold]
    assert g.weight[fold] == 1
    assert g.degree(fold) == 0
    assert events[0].offset_delta == 3
    kernel = Kernel(g, events)
    assert reconstruct(kernel, {fold}) == {0, 2}  # total 4
    check_identity(original, kernel)


def test_v_shape_min_detaches_and_discounts():
    g = v_shape_graph(2, 1, 3)
    original = g.copy()
    events = []
    assert not apply_v_shape(g, 1, events)
    assert apply_v_shape_min(g, 1, events)
    assert (g.weight[0], g.weight[2]) == (1, 2)
    assert g.degree(1) == 0 and g.weight[1] == 1
    assert events[0].offset_delta == 1
    check_identity(original, Kernel(g, events))  # alpha_w = 5 preserved


def test_v_shape_min_adds_middle_back_when_neighbors_absent():
    # x and y share a heavy outside neighbor: optimal kernel solution
    # avoids both, so the rewired middle vertex must rejoin on rebuild.
    g = build_graph([(0, 1), (1, 2), (0, 3), (2, 3)], [5, 1, 5, 100])
    original = g.copy()
    events = []
    assert apply_v_shape_min(g, 1, events)
    kernel = Kernel(g, events)
    rebuilt = reconstruct(kernel, brute_force(g)[1])
    assert rebuilt == {1, 3}
    check_identity(original, kernel)


def test_v_shape_min_skips_zero_weight():
    g = v_shape_graph(2, 0, 3)
    assert not apply_v_shape_min(g, 1, [])


# -- isolated clique -----------------------------------------------------------

def test_isolated_clique_takes_heaviest():
    g = triangle_graph(5, 3, 2)
    events = []
    assert apply_isolated_clique(g, 0, events)
    assert g.is_empty
    assert events[0].offset_delta == 5


def test_isolated_clique_degree_zero():
    g = build_graph([], [1])
    assert apply_isolated_clique(g, 0, [])


def test_isolated_clique_refuses_lighter_vertex():
    g = triangle_graph(2, 3, 2)
    assert not apply_isolated_clique(g, 0, [])


# -- single edge rules -----------------------------------------------------------

def test_basic_single_edge_drops_dominated_endpoint():
    g = build_graph([(0, 1), (0, 2)], [5, 1, 3])  # u=0, v=1, w=2
    original = g.copy()
    events = []
    assert apply_basic_single_edge(g, 0, 1, events)
    assert g.vertices() == [0, 2]
    assert events[0].offset_delta == 0
    check_identity(original, Kernel(g, events))  # alpha stays 5


def test_basic_single_edge_k2_tie():
    g = build_graph([(0, 1)], [3, 3])
    original = g.copy()
    events = []
    assert apply_basic_single_edge(g, 0, 1, events)
    check_identity(original, Kernel(g, events))  # alpha stays 3


def test_basic_single_edge_refuses_heavier_target():
    g = build_graph([(0, 1)], [3, 4])
    assert not apply_basic_single_edge(g, 0, 1, [])


def test_basic_single_edge_matches_full_sum():
    # The early exits must fire exactly when the whole exclusive
    # neighbourhood sum allows it; weights 0-3 make ties common.
    rng = random.Random(4242)
    firings = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 14), rng.choice([0.2, 0.4, 0.7]),
                         wlo=0, whi=rng.choice([3, 50]))
        for u, v in g.edges():
            for a, b in ((u, v), (v, u)):
                exclusive = sum(g.weight[z] for z in g.adj[a] if z != b and z not in g.adj[b])
                expected = g.weight[b] + exclusive <= g.weight[a]
                work = g.copy()
                assert apply_basic_single_edge(work, a, b, []) == expected
                assert work.is_alive(b) != expected
                firings += expected
    assert firings >= 200


def test_extended_single_edge_removes_common_neighborhood():
    g = triangle_graph(1, 3, 2)  # u=0, v=1, z=2
    original = g.copy()
    events = []
    assert apply_extended_single_edge(g, 0, 1, events)
    assert g.vertices() == [0, 1]
    check_identity(original, Kernel(g, events))  # alpha stays 3


def test_extended_single_edge_refusals():
    g = triangle_graph(1, 1, 5)
    assert not apply_extended_single_edge(g, 0, 1, [])
    h = path([1, 1, 1])  # edge (0,1) has no common neighbor
    assert not apply_extended_single_edge(h, 0, 1, [])


# -- domination -------------------------------------------------------------------

def test_domination_k3_removes_lightest():
    g = clique([1, 2, 3])
    original = g.copy()
    events = []
    assert apply_domination(g, 0, 1, events)
    assert g.vertices() == [1, 2]
    check_identity(original, Kernel(g, events))  # alpha stays 3


def test_domination_p3_ends_incomparable():
    g = path([1, 1, 1])
    assert not apply_domination(g, 0, 2, [])  # ends are not even adjacent
    assert not apply_domination(g, 0, 1, [])  # an end does not cover the middle


def test_domination_tie_removes_one_endpoint():
    g = build_graph([(0, 1)], [2, 2])
    original = g.copy()
    events = []
    assert apply_domination(g, 0, 1, events)
    assert g.vertices() == [1]
    check_identity(original, Kernel(g, events))  # alpha stays 2


def test_basic_single_edge_subsumes_domination_and_extended_single_edge():
    # Domination (u, v) removes u when N[v] is inside N[u] and w(u) <= w(v):
    # basic single edge (v, u) with an empty exclusive neighbourhood.
    # Extended single edge (u, v) removes each common neighbour z only when
    # w(N(v) - u) <= w(v), and then basic single edge (v, z) holds.
    rng = random.Random(1515)
    fired = collections.Counter()
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 12), rng.choice([0.3, 0.6, 0.9]),
                         0, rng.choice([3, 20]))
        for u, v in g.edges():
            for a, b in ((u, v), (v, u)):
                dominated = g.copy()
                if apply_domination(dominated, a, b, []):
                    fired[Rule.DOMINATION] += 1
                    h = g.copy()
                    assert apply_basic_single_edge(h, b, a, [])
                    assert h.vertices() == dominated.vertices()
                if apply_extended_single_edge(g.copy(), a, b, []):
                    fired[Rule.EXTENDED_SINGLE_EDGE] += 1
                    for z in g.adj[a] & g.adj[b]:
                        assert apply_basic_single_edge(g.copy(), b, z, [])
    assert len(fired) == 2 and min(fired.values()) >= 100, fired


def test_only_best_perm_lets_the_subsumed_edge_rules_fire(monkeypatch):
    # The scheduler re-queues both ends of an edge whenever anything the
    # edge rules read changes, so once basic single edge drains its queue
    # the two rules it subsumes find nothing.  Only best_perm queues
    # domination before it; without basic single edge both rules fire.
    # exact_reduce does not even attempt a rule that basic single edge
    # precedes: counting wrappers bound in the module namespace, where it
    # reads the apply_* functions, see no call of it.
    subsumed = {Rule.DOMINATION, Rule.EXTENDED_SINGLE_EDGE}
    attempted = set()

    def counting(rule, apply):
        def wrapper(*args):
            attempted.add(rule)
            return apply(*args)
        return wrapper

    for rule in subsumed:
        name = f"apply_{rule.value}"
        monkeypatch.setattr(reductions, name, counting(rule, getattr(reductions, name)))
    rng = random.Random(1616)
    graphs = [random_graph(rng, rng.randint(5, 30), rng.choice([0.1, 0.3, 0.6]),
                           0, rng.choice([3, 20])) for _ in range(60)]
    graphs += [geometric_graph(rng, rng.randint(20, 60), 6) for _ in range(60)]
    orderings = {name: ORDERING_PRESETS[name] for name in sorted(ORDERING_PRESETS)}
    without = "baseline-without-basic_single_edge"
    orderings[without] = ORDERING_EXPERIMENTS["disable-one"][without]
    seen, tried = {}, {}
    for name, ordering in orderings.items():
        attempted.clear()
        seen[name] = {ev.rule for g in graphs
                      for ev in exact_reduce(g.copy(), ordering).events} & subsumed
        tried[name] = set(attempted)
    expected = {"baseline": set(), "best_perm": {Rule.DOMINATION}, "time": set(),
                "time_weight": set(), "weight": set(),
                "baseline-without-basic_single_edge": subsumed}
    assert seen == expected
    assert tried == expected


def reduce_queuing_every_rule(g, seq):
    """exact_reduce as it was before it left the subsumed edge rules out:
    every rule of the ordering gets a queue and is attempted.  CWIS runs only
    while a flag is up that every firing raises, as the scheduler once
    kept it; the cursor reaches CWIS again only after a firing, so the flag
    never holds it back."""
    events = []
    queued = [rule for rule in seq if rule is not Rule.CWIS]
    slot = [queued.index(rule) if rule is not Rule.CWIS else -1 for rule in seq]
    attempts = [_resolve(rule) for rule in queued]
    sched = reductions._Scheduler(g, len(queued))
    alive = g.alive
    pending = True
    i = 0
    while i < len(seq):
        s = slot[i]
        fired = False
        if s < 0:
            if pending:
                pending = False
                fired = apply_cwis(g, events, sched.flow)
        else:
            queue, flags, attempt = sched.queues[s], sched.queued[s], attempts[s]
            while queue:
                c = queue.popleft()
                flags[c] = 0
                if alive[c] and attempt(g, c, events):
                    fired = True
                    break
        if fired:
            sched.mark_event(events[-1])
            pending = True
            i = 0
        else:
            i += 1
    return Kernel(g, events)


def identity_test_graphs(rng):
    """Random graphs of 0-60 vertices at mixed densities and conftest
    geometric graphs, about a third of each with weights in 0-3 so that ties
    are common."""
    graphs = []
    for _ in range(120):
        whi = rng.choice([3, 30, 200])
        graphs.append(random_graph(rng, rng.randint(0, 60),
                                   rng.choice([0.03, 0.08, 0.15, 0.3, 0.6]), 0, whi))
    for _ in range(90):
        g = geometric_graph(rng, rng.randint(1, 60), rng.choice([3, 6, 10]))
        if rng.random() < 1 / 3:
            g = build_graph(g.edges(), [rng.randint(0, 3) for _ in range(g.capacity)])
        graphs.append(g)
    return graphs


def test_exact_reduce_matches_the_loop_that_queues_every_rule():
    # Leaving out the rules basic single edge subsumes must change no event
    # and no kernel, under every preset and under an ordering without basic
    # single edge, where both rules are queued and fire.
    rng = random.Random(1717)
    graphs = identity_test_graphs(rng)
    orderings = {name: ORDERING_PRESETS[name] for name in sorted(ORDERING_PRESETS)}
    without = "baseline-without-basic_single_edge"
    orderings[without] = ORDERING_EXPERIMENTS["disable-one"][without]
    fired = {name: collections.Counter() for name in orderings}
    for g in graphs:
        for name, ordering in orderings.items():
            ref, new = g.copy(), g.copy()
            ref_events = reduce_queuing_every_rule(ref, ordering).events
            new_events = exact_reduce(new, ordering).events
            assert ([(ev.rule, ev.undo_ops, ev.offset_delta, ev.decided, ev.rebuild)
                     for ev in new_events]
                    == [(ev.rule, ev.undo_ops, ev.offset_delta, ev.decided, ev.rebuild)
                        for ev in ref_events]), name
            assert graph_state(new) == graph_state(ref), name
            fired[name].update(ev.rule for ev in ref_events)
    # The graphs reach the cases where the ordering matters.
    assert fired["best_perm"][Rule.DOMINATION] >= 20
    without = fired["baseline-without-basic_single_edge"]
    assert min(without[Rule.DOMINATION], without[Rule.EXTENDED_SINGLE_EDGE]) >= 20


# -- twin ----------------------------------------------------------------------------

def k23(wu, wv, wp, wq, wr):
    # u=0, v=1 twins over p=2, q=3, r=4
    edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    return build_graph(edges, [wu, wv, wp, wq, wr])


def test_twin_case1_takes_both():
    g = k23(3, 3, 1, 1, 1)
    events = []
    assert apply_twin(g, 0, 1, events)
    assert g.is_empty
    assert events[0].offset_delta == 6
    assert events[0].decided == (0, 1)


def test_twin_case2_folds():
    g = k23(2, 3, 2, 2, 2)
    original = g.copy()
    events = []
    assert apply_twin(g, 0, 1, events)
    fold = events[0].rebuild[1]
    assert g.vertices() == [fold]
    assert g.weight[fold] == 1
    assert events[0].offset_delta == 5
    kernel = Kernel(g, events)
    assert reconstruct(kernel, {fold}) == {2, 3, 4}  # total 6
    check_identity(original, kernel)


def test_twin_no_fold_with_adjacent_neighbors():
    g = k23(2, 3, 2, 2, 2)
    g.add_edge(2, 3)
    assert not apply_twin(g, 0, 1, [])


# -- simplicial transfer -----------------------------------------------------------

def test_simplicial_transfer_triangle():
    g = triangle_graph(3, 2, 5)  # v=0, a=1, b=2
    original = g.copy()
    events = []
    assert apply_simplicial_transfer(g, 0, events)
    assert g.vertices() == [2]
    assert g.weight[2] == 2
    assert events[0].offset_delta == 3
    kernel = Kernel(g, events)
    assert reconstruct(kernel, {2}) == {2}  # total 5
    check_identity(original, kernel)


def test_simplicial_transfer_uniform_clique():
    g = clique([4, 4, 4])
    events = []
    assert apply_simplicial_transfer(g, 0, events)
    assert g.is_empty
    assert events[0].offset_delta == 4


def test_simplicial_transfer_needs_clique_neighborhood():
    g = path([1, 1, 1])
    assert not apply_simplicial_transfer(g, 1, [])


# -- critical set -----------------------------------------------------------------

def test_cwis_star():
    g = star(10, [1, 1, 1])
    chosen, value = critical_set(g)
    assert chosen == {0} and value == 7
    events = []
    assert apply_cwis(g, events)
    assert g.is_empty
    assert events[0].offset_delta == 10


def test_cwis_c4_is_noop():
    g = cycle([1, 1, 1, 1])
    chosen, value = critical_set(g)
    assert value <= 0 or not chosen
    assert not apply_cwis(g, [])


def test_cwis_isolated_vertices():
    g = build_graph([], [2, 3])
    events = []
    assert apply_cwis(g, events)
    assert events[0].offset_delta == 5
    assert events[0].decided == (0, 1)


def test_cwis_zero_surplus_flag():
    g = cycle([1, 1, 1, 1])
    events = []
    # Nonempty independent sets of surplus zero exist here ({0, 2}), but the
    # critical set read from the minimal min cut is empty, so nothing fires.
    assert critical_set(g) == (set(), 0)
    assert not apply_cwis(g, events)
    assert events == []
    assert (g.adj, g.weight, g.alive) == (cycle([1, 1, 1, 1]).adj, [1] * 4, [True] * 4)


def cold_critical_set(g):
    """Reference: a fresh double-cover network solved from zero flow."""
    ids = g.vertices()
    n = len(ids)
    index = {v: i for i, v in enumerate(ids)}
    net = DinicNetwork(2 * n + 2)
    s, t = 2 * n, 2 * n + 1
    for v in ids:
        net.add_edge(s, index[v], g.weight[v])
        net.add_edge(n + index[v], t, g.weight[v])
    for v in ids:
        for u in sorted(g.adj[v]):
            net.add_edge(index[v], n + index[u], g.total_weight() + 1)
    net.max_flow(s, t)
    side = net.min_cut_source_side(s)
    chosen = {v for v in ids if index[v] in side and n + index[v] not in side}
    boundary = set()
    for v in chosen:
        boundary |= g.adj[v]
    boundary -= chosen
    return chosen, sum(g.weight[v] for v in chosen) - sum(g.weight[v] for v in boundary)


def random_test_graph(rng, n, p):
    """Random graph with some zero weights and some isolated vertices."""
    g = random_graph(rng, n, p, wlo=0, whi=30)
    for v in rng.sample(range(n), n // 10):
        for u in sorted(g.adj[v]):
            g.remove_edge(v, u)
    return g


def test_critical_set_matches_cold_reference():
    rng = random.Random(5150)
    for _ in range(150):
        g = random_test_graph(rng, rng.randint(0, 40), rng.choice([0.05, 0.1, 0.2, 0.4]))
        assert critical_set(g) == cold_critical_set(g)
        flow = DoubleCoverFlow()
        assert critical_set(g, flow) == cold_critical_set(g)
        assert critical_set(g, flow) == cold_critical_set(g)  # unchanged graph


def test_nonempty_critical_set_has_positive_surplus():
    # The minimal min cut is the smallest set of best surplus, and the empty
    # set already reaches surplus zero, so no zero-surplus set comes back
    # and CWIS fires exactly when the set is nonempty.  Count the graphs
    # where a nonempty independent set ties the empty one at surplus zero,
    # so the check is known to meet that case.
    rng = random.Random(2718)
    ties = 0
    for _ in range(1500):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.1, 0.25, 0.4, 0.6]),
                         wlo=0, whi=rng.choice([1, 2, 4]))
        chosen, value = critical_set(g)
        assert (not chosen and value == 0) or (chosen and value > 0)
        surpluses = []
        for r in range(1, g.live_count + 1):
            for combo in itertools.combinations(g.vertices(), r):
                if is_independent(g, combo):
                    outside = set().union(*(g.adj[v] for v in combo))
                    surpluses.append(set_weight(g, combo) - set_weight(g, outside))
        ties += max(surpluses) == 0
    assert ties >= 50


def test_warm_critical_set_survives_rule_firings():
    # Every firing reports its touched vertices to the flow, as the reduce
    # loop does; the warm answer must match a cold solve after each one.
    queued = [r for r in Rule if r is not Rule.CWIS]
    rng = random.Random(8086)
    for _ in range(25):
        g = random_test_graph(rng, rng.randint(20, 50), rng.choice([0.06, 0.1, 0.15]))
        flow = DoubleCoverFlow()
        events = []
        assert critical_set(g, flow) == cold_critical_set(g)
        flow.audit(g)
        for _ in range(300):
            if g.is_empty:
                break
            if rng.random() < 0.1:
                fired = apply_cwis(g, events, flow)
            else:
                fired = _resolve(rng.choice(queued))(g, rng.choice(g.vertices()), events)
            if fired:
                flow.invalidate(events[-1].touched())
                assert critical_set(g, flow) == cold_critical_set(g)
                flow.audit(g)


@pytest.mark.parametrize("tied_weights", [False, True])
@pytest.mark.parametrize("preset", sorted(ORDERING_PRESETS))
def test_exact_reduce_matches_cold_critical_set(preset, tied_weights, monkeypatch):
    # Weights in 0-2 make many independent sets tie at surplus zero, where
    # the minimal min cut must still come back empty on both paths.
    rng = random.Random(preset)
    g = geometric_graph(rng, 200, 8)
    if tied_weights:
        g = build_graph(g.edges(), [rng.randint(0, 2) for _ in range(g.capacity)])
    cold_calls = []

    def cold(h, flow=None):
        cold_calls.append(h.live_count)
        return cold_critical_set(h)

    runs = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr("mwis.reductions.critical_set", cold)
        work, events = g.copy(), []
        exact_reduce(work, ORDERING_PRESETS[preset], events)
        runs.append(([(ev.rule, ev.decided, ev.offset_delta) for ev in events],
                     work.adj, work.weight, work.alive))
    assert cold_calls and runs[0] == runs[1]


# -- neighborhood folding -----------------------------------------------------------

def test_neighborhood_folding_path():
    g = v_shape_graph(2, 3, 2)
    original = g.copy()
    events = []
    assert apply_neighborhood_folding(g, 1, events)
    fold = events[0].rebuild[1]
    assert g.vertices() == [fold]
    assert g.weight[fold] == 1
    assert events[0].offset_delta == 3
    kernel = Kernel(g, events)
    assert reconstruct(kernel, {fold}) == {0, 2}  # total 4
    check_identity(original, kernel)


def test_neighborhood_folding_refusals():
    g = star(1, [1, 1, 1])
    assert not apply_neighborhood_folding(g, 0, [])  # 3 - 1 >= 1
    h = triangle_graph(2, 3, 2)
    assert not apply_neighborhood_folding(h, 0, [])  # neighbors adjacent


# -- exact_reduce -------------------------------------------------------------------

def test_exact_reduce_path_to_empty():
    g = path([5, 1, 5])
    kernel = exact_reduce(g)
    assert g.is_empty
    assert kernel.offset == 10
    assert reconstruct(kernel, set()) == {0, 2}


def test_exact_reduce_c5_identity():
    g = cycle([1] * 5)
    original = g.copy()
    kernel = exact_reduce(g, ORDERING_PRESETS["baseline"])
    check_identity(original, kernel)  # offset + alpha(kernel) == 2


def test_exact_reduce_empty_graph():
    g = build_graph([], [])
    kernel = exact_reduce(g)
    assert kernel.offset == 0
    assert kernel.graph.is_empty


def test_exact_reduce_kernel_has_no_applicable_rule():
    rng = random.Random(4242)
    for _ in range(20):
        g = random_graph(rng, rng.randint(6, 14), 0.3)
        exact_reduce(g, ORDERING_PRESETS["baseline"], [])
        # no single rule fires on the kernel anymore
        for rule in Rule:
            h = g.copy()
            events = []
            exact_reduce(h, (rule,), events)
            assert not events, f"{rule.value} still applicable"
        # and a second full pass leaves the kernel untouched
        before = (g.live_count, g.live_edges, list(g.weight))
        exact_reduce(g, ORDERING_PRESETS["baseline"], [])
        assert (g.live_count, g.live_edges, list(g.weight)) == before


def test_decided_in_is_independent_in_original():
    rng = random.Random(77)
    for _ in range(30):
        g = random_graph(rng, rng.randint(5, 14), 0.25)
        original = g.copy()
        kernel = exact_reduce(g)
        decided = kernel.decided_in()
        assert is_independent(original, decided)


def components(g):
    """The live vertices of each connected component of g, sorted."""
    seen, out = set(), []
    for s in g.vertices():
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            for u in g.adj[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        out.append(sorted(comp))
    return out


def alpha_by_components(g):
    """alpha_w(g) and an optimal set, by brute force on each component."""
    alpha, best = 0, set()
    for comp in components(g):
        index = {v: i for i, v in enumerate(comp)}
        sub = build_graph([(index[u], index[v]) for u in comp for v in g.adj[u] if u < v],
                          [g.weight[v] for v in comp])
        a, witness = brute_force(sub)
        alpha += a
        best.update(comp[i] for i in witness)
    return alpha, best


def test_master_identity_on_a_thousand_vertex_union_of_components():
    # Rules never join two components, so every kernel component stays
    # within the oracle's reach and alpha_w of the whole graph is known.
    rng = random.Random(1919)
    edges, weights = [], []
    for _ in range(70):
        k, base = rng.randint(8, 20), len(weights)
        p, whi = rng.choice([0.15, 0.3, 0.5]), rng.choice([3, 200])
        edges += [(base + u, base + v) for u in range(k) for v in range(u + 1, k)
                  if rng.random() < p]
        weights += [rng.randint(0, whi) for _ in range(k)]
    original = build_graph(edges, weights)
    alpha0 = alpha_by_components(original)[0]
    kernel_sizes = []
    for name in ORDERING_PRESETS:
        g = original.copy()
        kernel = exact_reduce(g, ORDERING_PRESETS[name])
        alpha_k, witness = alpha_by_components(g)
        assert kernel.offset + alpha_k == alpha0, name
        rebuilt = reconstruct(kernel, witness)
        assert is_independent(original, rebuilt), name
        assert set_weight(original, rebuilt) == alpha0, name
        kernel_sizes.append(g.live_count)
    assert original.live_count > 900 and min(kernel_sizes) > 100, kernel_sizes


def two_colouring(g):
    """The side, 0 or 1, of every live vertex of g; fails on an odd cycle."""
    side = {}
    for s in g.vertices():
        if s in side:
            continue
        side[s], stack = 0, [s]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if u not in side:
                    side[u] = 1 - side[v]
                    stack.append(u)
                assert side[u] != side[v], f"odd cycle through the edge {v}-{u}"
    return side


def koenig(g):
    """alpha_w of a bipartite g and an optimal set: the total weight less a
    minimum weight vertex cover, the min cut of source -> side 0 -> side 1
    -> sink with uncapacitated edges (Koenig)."""
    side, live = two_colouring(g), g.vertices()
    s, t = g.capacity, g.capacity + 1
    net = DinicNetwork(g.capacity + 2)
    total = sum(g.weight[v] for v in live)
    for v in live:
        if side[v]:
            net.add_edge(v, t, g.weight[v])
        else:
            net.add_edge(s, v, g.weight[v])
            for u in g.adj[v]:
                net.add_edge(v, u, total + 1)
    cover = net.max_flow(s, t)
    reached = net.min_cut_source_side(s)
    return total - cover, {v for v in live if (v in reached) != side[v]}


def test_master_identity_on_thousand_vertex_bipartite_graphs():
    # Every rule keeps a bipartite graph bipartite: folds land on the side
    # opposite the folded vertex, v-shape rewirings join only vertices of
    # opposite sides, and a simplicial vertex has degree at most 1.  So
    # Koenig gives alpha_w of every kernel through the flow engine.  The
    # critical-set rule empties these graphs under every preset, so each
    # preset also runs without it, which leaves kernels of about 450.
    rng = random.Random(2718)
    for trial in range(2):
        half = 500
        pairs = set()
        while len(pairs) < 4 * half:
            pairs.add((rng.randrange(half), half + rng.randrange(half)))
        original = build_graph(sorted(pairs), [rng.randint(1, 100) for _ in range(2 * half)])
        alpha0, best = koenig(original)
        assert is_independent(original, best) and set_weight(original, best) == alpha0
        for preset, rules in ORDERING_PRESETS.items():
            without_cwis = tuple(r for r in rules if r is not Rule.CWIS)
            for label, ordering in ((preset, rules), (f"{preset}-without-cwis", without_cwis)):
                g = original.copy()
                kernel = exact_reduce(g, ordering)
                alpha_k, witness = koenig(g)
                name = (trial, label)
                assert kernel.offset + alpha_k == alpha0, name
                rebuilt = reconstruct(kernel, witness)
                assert is_independent(original, rebuilt), name
                assert set_weight(original, rebuilt) == alpha0, name
    polls = []
    config = SolverConfig(time_limit=60, seed=3, population_size=20, pool_size=4,
                          unsuccessful_limit=20)
    result = solve(original, config, should_stop=lambda: polls.append(1) or len(polls) > 3)
    assert result.weight == alpha0
    assert verify(original, sorted(result.solution)).ok


def random_forest(rng, n, trees):
    """A forest of ``trees`` random recursive trees on n vertices in all,
    weights 0-100; each vertex hangs from an earlier one of its tree."""
    cuts = sorted(rng.sample(range(1, n), trees - 1))
    edges = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        edges += [(rng.randrange(lo, v), v) for v in range(lo + 1, hi)]
    return build_graph(edges, [rng.randint(0, 100) for _ in range(n)])


def forest_alpha(g):
    """alpha_w of a forest by the tree DP: in[v] = w(v) + sum out[c] and
    out[v] = sum max(in[c], out[c]) over v's children c."""
    take, skip, seen, alpha = list(g.weight), [0] * g.capacity, set(), 0
    for root in g.vertices():
        if root in seen:
            continue
        order, parent = [root], {root: None}
        seen.add(root)
        for v in order:
            for u in g.adj[v]:
                if u != parent[v]:
                    assert u not in seen, f"cycle through {u}"
                    seen.add(u)
                    parent[u] = v
                    order.append(u)
        for v in reversed(order):
            p = parent[v]
            if p is not None:
                take[p] += skip[v]
                skip[p] += max(take[v], skip[v])
        alpha += max(take[root], skip[root])
    return alpha


def test_master_identity_on_ten_thousand_vertex_forests():
    # The rules empty a forest, so the offset alone is alpha_w and the
    # reconstruction of the empty kernel solution must reach it.
    rng = random.Random(1010)
    for _ in range(20):
        small = random_forest(rng, 24, 3)
        assert forest_alpha(small) == brute_force(small)[0]
    original = random_forest(rng, 10_000, 40)
    alpha0 = forest_alpha(original)
    for preset in ORDERING_PRESETS:
        g = original.copy()
        kernel = exact_reduce(g, ORDERING_PRESETS[preset])
        assert g.live_count == 0, preset
        assert kernel.offset == alpha0, preset
        rebuilt = reconstruct(kernel, set())
        assert is_independent(original, rebuilt), preset
        assert set_weight(original, rebuilt) == alpha0, preset
    small = random_forest(rng, 2_000, 8)
    polls = []
    config = SolverConfig(time_limit=60, seed=5, population_size=20, pool_size=4,
                          unsuccessful_limit=20)
    result = solve(small, config, should_stop=lambda: polls.append(1) or len(polls) > 3)
    assert result.weight == forest_alpha(small)
    assert verify(small, sorted(result.solution)).ok


def test_reconstruct_rejects_dependent_solution():
    g = path([1, 5, 1])
    kernel = exact_reduce(g.copy())
    bad_kernel = Kernel(path([1, 5, 1]), [])
    with pytest.raises(ValueError):
        reconstruct(bad_kernel, {0, 1})


# -- undo fidelity -------------------------------------------------------------------

def test_undo_restores_exact_state():
    rng = random.Random(2024)
    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 14), rng.choice([0.15, 0.35]), wlo=0, whi=30)
        before = graph_state(g)
        events = []
        exact_reduce(g, ORDERING_PRESETS[rng.choice(list(ORDERING_PRESETS))], events)
        for ev in reversed(events):
            undo_event(g, ev)
        assert graph_state(g) == before
        g.audit()


def test_termination_measure_decreases():
    # every firing lowers (live_count, total live weight) lexicographically:
    # net vertex removals, or a discount rewrite banking at least 1
    rng = random.Random(321)
    for _ in range(40):
        g = random_graph(rng, rng.randint(5, 13), 0.3, wlo=0, whi=20)
        events = []
        exact_reduce(g, ORDERING_PRESETS["baseline"], events)
        for ev in events:
            removed = sum(1 for op in ev.undo_ops if op[0] == "rm")
            added = sum(1 for op in ev.undo_ops if op[0] == "nv")
            if removed - added <= 0:
                assert ev.rule is Rule.V_SHAPE_MIN
                assert ev.offset_delta >= 1


# -- shared moves against the per-rule bodies ------------------------------------
# The rule bodies as they were before take, simplicial cash-in and fold were
# shared, kept as the reference for the rules now routed through them.

def _old_two_neighbors(g, v):
    a, b = sorted(g.adj[v])
    if (g.weight[a], a) <= (g.weight[b], b):
        return a, b
    return b, a


def old_neighborhood_removal(g, v, events):
    if g.weight[v] < g.neighborhood_weight(v):
        return False
    ops = []
    for u in sorted(g.adj[v]):
        _rm(g, u, ops)
    _rm(g, v, ops)
    events.append(ReductionEvent(Rule.NEIGHBORHOOD_REMOVAL, ops,
                                 offset_delta=g.weight[v], decided=(v,)))
    return True


def old_degree_one(g, v, events):
    if g.degree(v) != 1:
        return False
    (u,) = g.adj[v]
    wv = g.weight[v]
    ops = []
    if wv >= g.weight[u]:
        _rm(g, v, ops)
        _rm(g, u, ops)
        events.append(ReductionEvent(Rule.DEGREE_ONE, ops, offset_delta=wv, decided=(v,)))
    else:
        _rm(g, v, ops)
        _set_w(g, u, g.weight[u] - wv, ops)
        events.append(ReductionEvent(Rule.DEGREE_ONE, ops, offset_delta=wv,
                                     rebuild=("if_absent_take", (u,), v)))
    return True


def old_triangle(g, v, events):
    if g.degree(v) != 2:
        return False
    x, y = _old_two_neighbors(g, v)
    if y not in g.adj[x]:
        return False
    wv, wx, wy = g.weight[v], g.weight[x], g.weight[y]
    ops = []
    if wv >= wy:
        _rm(g, v, ops)
        _rm(g, x, ops)
        _rm(g, y, ops)
        events.append(ReductionEvent(Rule.TRIANGLE, ops, offset_delta=wv, decided=(v,)))
    elif wv >= wx:
        _rm(g, v, ops)
        _rm(g, x, ops)
        _set_w(g, y, wy - wv, ops)
        events.append(ReductionEvent(Rule.TRIANGLE, ops, offset_delta=wv,
                                     rebuild=("if_absent_take", (y,), v)))
    else:
        _rm(g, v, ops)
        _set_w(g, x, wx - wv, ops)
        _set_w(g, y, wy - wv, ops)
        events.append(ReductionEvent(Rule.TRIANGLE, ops, offset_delta=wv,
                                     rebuild=("if_absent_take", (x, y), v)))
    return True


def old_v_shape(g, v, events):
    if g.degree(v) != 2:
        return False
    x, y = _old_two_neighbors(g, v)
    if y in g.adj[x]:
        return False
    wv, wx, wy = g.weight[v], g.weight[x], g.weight[y]
    if wv < wx:
        return False
    ops = []
    if wv >= wy:
        if wv >= wx + wy:
            _rm(g, v, ops)
            _rm(g, x, ops)
            _rm(g, y, ops)
            events.append(ReductionEvent(Rule.V_SHAPE, ops, offset_delta=wv, decided=(v,)))
        else:
            outside = sorted((g.adj[x] | g.adj[y]) - {v, x, y})
            _rm(g, v, ops)
            _rm(g, x, ops)
            _rm(g, y, ops)
            fold = _new_vertex(g, wx + wy - wv, ops)
            for u in outside:
                _add_edge(g, fold, u, ops)
            events.append(ReductionEvent(Rule.V_SHAPE, ops, offset_delta=wv,
                                         rebuild=("fold", fold, (x, y), (v,))))
    else:
        gained = sorted(g.adj[y] - g.adj[x] - {v, x})
        _rm(g, v, ops)
        for u in gained:
            _add_edge(g, x, u, ops)
        _set_w(g, y, wy - wv, ops)
        events.append(ReductionEvent(Rule.V_SHAPE, ops, offset_delta=wv,
                                     rebuild=("if_absent_take", (x, y), v)))
    return True


def old_isolated_clique(g, v, events):
    nbrs = g.adj[v]
    if nbrs and g.weight[v] < max(g.weight[u] for u in nbrs):
        return False
    if not _is_clique(g, nbrs):
        return False
    ops = []
    for u in sorted(nbrs):
        _rm(g, u, ops)
    _rm(g, v, ops)
    events.append(ReductionEvent(Rule.ISOLATED_CLIQUE, ops,
                                 offset_delta=g.weight[v], decided=(v,)))
    return True


def old_twin(g, u, v, events):
    if u == v or g.degree(u) != 3 or g.degree(v) != 3 or g.adj[u] != g.adj[v]:
        return False
    p, q, r = sorted(g.adj[u])
    w_pair = g.weight[u] + g.weight[v]
    w_nbrs = g.weight[p] + g.weight[q] + g.weight[r]
    ops = []
    if w_pair >= w_nbrs:
        for z in (p, q, r):
            _rm(g, z, ops)
        _rm(g, u, ops)
        _rm(g, v, ops)
        events.append(ReductionEvent(Rule.TWIN, ops, offset_delta=w_pair,
                                     decided=tuple(sorted((u, v)))))
        return True
    if w_pair <= w_nbrs - min(g.weight[p], g.weight[q], g.weight[r]):
        return False
    if not is_independent(g, (p, q, r)):
        return False
    outside = sorted((g.adj[p] | g.adj[q] | g.adj[r]) - {u, v, p, q, r})
    for z in (p, q, r):
        _rm(g, z, ops)
    _rm(g, u, ops)
    _rm(g, v, ops)
    fold = _new_vertex(g, w_nbrs - w_pair, ops)
    for z in outside:
        _add_edge(g, fold, z, ops)
    events.append(ReductionEvent(Rule.TWIN, ops, offset_delta=w_pair,
                                 rebuild=("fold", fold, (p, q, r), tuple(sorted((u, v))))))
    return True


def old_simplicial_transfer(g, v, events):
    nbrs = g.adj[v]
    if not _is_clique(g, nbrs):
        return False
    wv = g.weight[v]
    light = sorted(u for u in nbrs if g.weight[u] <= wv)
    heavy = sorted(u for u in nbrs if g.weight[u] > wv)
    ops = []
    for u in light:
        _rm(g, u, ops)
    _rm(g, v, ops)
    for u in heavy:
        _set_w(g, u, g.weight[u] - wv, ops)
    if heavy:
        ev = ReductionEvent(Rule.SIMPLICIAL_TRANSFER, ops, offset_delta=wv,
                            rebuild=("if_absent_take", tuple(heavy), v))
    else:
        ev = ReductionEvent(Rule.SIMPLICIAL_TRANSFER, ops, offset_delta=wv, decided=(v,))
    events.append(ev)
    return True


def old_cwis(g, events):
    chosen, value = critical_set(g)
    if not chosen:
        return False
    doomed = set()
    for v in chosen:
        doomed.update(g.adj[v])
    doomed -= chosen
    total = sum(g.weight[v] for v in chosen)
    ops = []
    for u in sorted(doomed):
        _rm(g, u, ops)
    for v in sorted(chosen):
        _rm(g, v, ops)
    events.append(ReductionEvent(Rule.CWIS, ops, offset_delta=total,
                                 decided=tuple(sorted(chosen))))
    return True


def old_neighborhood_folding(g, v, events):
    nbrs = sorted(g.adj[v])
    if not nbrs or not is_independent(g, nbrs):
        return False
    wv = g.weight[v]
    w_nbrs = sum(g.weight[u] for u in nbrs)
    if w_nbrs <= wv or w_nbrs - min(g.weight[u] for u in nbrs) >= wv:
        return False
    outside = set()
    for u in nbrs:
        outside.update(g.adj[u])
    outside -= set(nbrs)
    outside.discard(v)
    ops = []
    for u in nbrs:
        _rm(g, u, ops)
    _rm(g, v, ops)
    fold = _new_vertex(g, w_nbrs - wv, ops)
    for u in sorted(outside):
        _add_edge(g, fold, u, ops)
    events.append(ReductionEvent(Rule.NEIGHBORHOOD_FOLDING, ops, offset_delta=wv,
                                 rebuild=("fold", fold, tuple(nbrs), (v,))))
    return True


VERTEX_RULES_AND_REFERENCES = [
    (apply_neighborhood_removal, old_neighborhood_removal),
    (apply_degree_one, old_degree_one),
    (apply_triangle, old_triangle),
    (apply_v_shape, old_v_shape),
    (apply_isolated_clique, old_isolated_clique),
    (apply_simplicial_transfer, old_simplicial_transfer),
    (apply_neighborhood_folding, old_neighborhood_folding),
]


def reference_test_graph(rng):
    """Small random graph with zero and tied weights.  About half of them
    get a planted pair of degree-three twins.  Their three neighbours are
    made independent half the time and, half the time, reweighted to 1-12
    so that they outweigh the pair by at most the lightest of them, which
    spans the take, fold and refuse cases."""
    n = rng.randint(1, 12)
    p = rng.choice([0.1, 0.2, 0.35, 0.6])
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    whi = rng.choice([1, 2, 3, 12])
    weights = [rng.randint(0, whi) for _ in range(n)]
    if n >= 5 and rng.random() < 0.5:
        u, v, *nbrs = rng.sample(range(n), 5)
        edges = {e for e in edges if u not in e and v not in e}
        edges |= {tuple(sorted((c, z))) for c in (u, v) for z in nbrs}
        if rng.random() < 0.5:
            edges -= {tuple(sorted(e)) for e in itertools.combinations(nbrs, 2)}
        if rng.random() < 0.5:
            for z in nbrs:
                weights[z] = rng.randint(1, 12)
            pair = sum(weights[z] for z in nbrs) - rng.randint(0, min(weights[z] for z in nbrs))
            weights[u] = rng.randint(0, pair)
            weights[v] = pair - weights[u]
    return build_graph(sorted(edges), weights)


def _as_sets(script):
    return tuple(frozenset(x) if isinstance(x, tuple) else x for x in script)


def _fire_both(g, rule, reference, args, seen):
    a, b = g.copy(), g.copy()
    ev_a, ev_b = [], []
    fired = rule(a, *args, ev_a)
    assert fired == reference(b, *args, ev_b), (rule.__name__, args)
    assert graph_state(a) == graph_state(b), (rule.__name__, args)
    if fired:
        (ea,), (eb,) = ev_a, ev_b
        assert (ea.rule, ea.offset_delta, ea.decided) == (eb.rule, eb.offset_delta, eb.decided)
        assert _as_sets(ea.rebuild) == _as_sets(eb.rebuild)
        seen[rule.__name__, ea.rebuild[0] if ea.rebuild else "take",
             len(ea.rebuild[1]) if ea.rebuild[:1] == ("if_absent_take",) else 0] += 1
        undo_event(a, ea)
        assert graph_state(a) == graph_state(g)


def test_shared_moves_match_the_per_rule_bodies():
    rng = random.Random(1789)
    seen = collections.Counter()
    for _ in range(400):
        g = reference_test_graph(rng)
        for v in g.vertices():
            for rule, reference in VERTEX_RULES_AND_REFERENCES:
                _fire_both(g, rule, reference, (v,), seen)
        for u, v in itertools.permutations(g.vertices(), 2):
            _fire_both(g, apply_twin, old_twin, (u, v), seen)
        _fire_both(g, apply_cwis, old_cwis, (), seen)
    # every branch of every rebuilt rule is met, ties and zero weights included
    branches = {
        ("apply_neighborhood_removal", "take", 0), ("apply_degree_one", "take", 0),
        ("apply_degree_one", "if_absent_take", 1), ("apply_triangle", "take", 0),
        ("apply_triangle", "if_absent_take", 1), ("apply_triangle", "if_absent_take", 2),
        ("apply_v_shape", "take", 0), ("apply_v_shape", "fold", 0),
        ("apply_v_shape", "if_absent_take", 2), ("apply_isolated_clique", "take", 0),
        ("apply_simplicial_transfer", "take", 0),
        ("apply_simplicial_transfer", "if_absent_take", 1),
        ("apply_simplicial_transfer", "if_absent_take", 2),
        ("apply_neighborhood_folding", "fold", 0), ("apply_twin", "take", 0),
        ("apply_twin", "fold", 0), ("apply_cwis", "take", 0),
    }
    assert {key for key, count in seen.items() if count >= 10} >= branches, seen


# -- journal completeness ------------------------------------------------------------

VERTEX_RULES = (apply_neighborhood_removal, apply_degree_one, apply_triangle, apply_v_shape,
                apply_v_shape_min, apply_isolated_clique, apply_simplicial_transfer,
                apply_neighborhood_folding)
PAIR_RULES = (apply_basic_single_edge, apply_extended_single_edge, apply_domination,
              apply_twin)


def _state_diff(before, after):
    """Between two ``graph_state`` snapshots: the vertices whose adjacency,
    weight or alive flag changed; the removed, reweighted and appended
    vertices; and the edges between alive vertices added or removed."""
    (adj0, w0, alive0, *_), (adj1, w1, alive1, *_) = before, after
    appended = set(range(len(adj0), len(adj1)))
    touched = {v for v in range(len(adj0))
               if (adj0[v], w0[v], alive0[v]) != (adj1[v], w1[v], alive1[v])}
    dropped = {v for v in range(len(adj0))
               if (alive0[v] and not alive1[v]) or w0[v] != w1[v]}

    def edges(adj, alive):
        return {(u, v) for u in range(len(adj)) if alive[u] for v in adj[u] if u < v}

    return touched | appended, dropped | appended, edges(adj0, alive0) ^ edges(adj1, alive1)


def test_journal_names_every_change_a_firing_makes():
    # The warm critical-set flow drops the flow at ev.changed() after each
    # firing and nowhere else, so the undo journal must record every vertex
    # and edge a rule changes.  Each step tries one random rule on its live
    # arguments in random order until it fires, on one graph in sequence,
    # so later firings meet folded, rewired and reweighted vertices.
    rng = random.Random(4242)
    fired = collections.Counter()
    for _ in range(400):
        g = reference_test_graph(rng)
        cwis_step = rng.randrange(8)
        for step in range(8):
            live = g.vertices()
            rule = apply_cwis if step == cwis_step else rng.choice(VERTEX_RULES + PAIR_RULES)
            if rule is apply_cwis:
                candidates = [()]
            elif rule in VERTEX_RULES:
                candidates = [(v,) for v in live]
            elif rule is apply_twin:
                candidates = [(u, v) for u in live for v in live
                              if u != v and g.adj[u] == g.adj[v]]
            else:
                candidates = [(u, v) for u in live for v in sorted(g.adj[u])]
            rng.shuffle(candidates)
            for args in candidates:
                before, events = graph_state(g), []
                if rule(g, *args, events):
                    break
                assert graph_state(g) == before and not events
            else:
                continue
            (ev,) = events
            fired[rule.__name__] += 1
            touched, dropped, edges = _state_diff(before, graph_state(g))
            assert touched <= ev.touched(), (rule.__name__, touched - ev.touched())
            assert dropped <= ev.changed(), (rule.__name__, dropped - ev.changed())
            assert all(u in ev.changed() or v in ev.changed() for u, v in edges), rule.__name__
    rules = {rule.__name__ for rule in VERTEX_RULES + PAIR_RULES + (apply_cwis,)}
    # The rarest, apply_v_shape_min, fires 10 times.
    assert set(fired) == rules and min(fired.values()) >= 8, fired


# -- early-exit guards against the full sums -----------------------------------------
# old_neighborhood_removal, old_isolated_clique and old_neighborhood_folding
# above still test the whole neighborhood sum, the heaviest mate and
# is_independent of the sorted neighborhood, as the rules did before their
# guards exited early.  The extended single edge rule as it was then, and
# domination as it was before its covering test became a set difference:

def old_extended_single_edge(g, u, v, events):
    if v not in g.adj[u]:
        return False
    common = g.adj[u] & g.adj[v]
    if not common:
        return False
    if g.weight[v] < g.neighborhood_weight(v) - g.weight[u]:
        return False
    ops = []
    for z in sorted(common):
        _rm(g, z, ops)
    events.append(ReductionEvent(Rule.EXTENDED_SINGLE_EDGE, ops))
    return True


def old_domination(g, u, v, events):
    if v not in g.adj[u] or g.weight[u] > g.weight[v]:
        return False
    if g.degree(u) < g.degree(v):
        return False
    adj_u = g.adj[u]
    if any(z != u and z not in adj_u for z in g.adj[v]):
        return False
    ops = []
    _rm(g, u, ops)
    events.append(ReductionEvent(Rule.DOMINATION, ops))
    return True


def test_early_exit_guards_match_the_full_sums():
    # Weights 0-3 make a room of exactly zero, which must fire, common.
    rng = random.Random(6174)
    seen = collections.Counter()
    ties = collections.Counter()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.15, 0.3, 0.5, 0.8]),
                         wlo=0, whi=3)
        for v in g.vertices():
            nbr_weights = [g.weight[u] for u in g.adj[v]]
            ties["removal"] += bool(nbr_weights) and g.weight[v] == sum(nbr_weights)
            ties["clique"] += bool(nbr_weights) and g.weight[v] == max(nbr_weights)
            for rule, reference in ((apply_neighborhood_removal, old_neighborhood_removal),
                                    (apply_isolated_clique, old_isolated_clique),
                                    (apply_neighborhood_folding, old_neighborhood_folding)):
                _fire_both(g, rule, reference, (v,), seen)
        for a, b in g.edges():
            for u, v in ((a, b), (b, a)):
                ties["extended"] += (g.weight[u] + g.weight[v] == g.neighborhood_weight(v)
                                     and not g.adj[u].isdisjoint(g.adj[v]))
                _fire_both(g, apply_extended_single_edge, old_extended_single_edge,
                           (u, v), seen)
                _fire_both(g, apply_domination, old_domination, (u, v), seen)
    assert min(ties.values()) >= 100, ties
    fired = {name: count for (name, _, _), count in seen.items()}
    assert min(fired.values()) >= 50 and len(fired) == 5, seen


def test_exact_reduce_calls_the_rules_bound_in_the_module(monkeypatch):
    # A tracer wraps apply_* functions where the module namespace binds
    # them; exact_reduce must route every attempt through what is bound
    # there when it starts.  The attempt counts are those of a reduce loop
    # that looked each rule up on every attempt.
    rng = random.Random(1)
    g = geometric_graph(rng, 200, 10)
    ordering = ORDERING_PRESETS["weight"]
    plain, plain_events = g.copy(), []
    exact_reduce(plain, ordering, plain_events)
    calls, fired = collections.Counter(), collections.Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            result = fn(*args)
            fired[name] += result
            return result
        return wrapper

    for name in ("apply_basic_single_edge", "apply_isolated_clique"):
        monkeypatch.setattr(f"mwis.reductions.{name}",
                            counting(name, getattr(reductions, name)))
    work, events = g.copy(), []
    exact_reduce(work, ordering, events)
    assert graph_state(work) == graph_state(plain) and work.live_count == 18
    assert ([(ev.rule, ev.decided, ev.offset_delta, ev.rebuild) for ev in events]
            == [(ev.rule, ev.decided, ev.offset_delta, ev.rebuild) for ev in plain_events])
    by_rule = collections.Counter(ev.rule for ev in events)
    assert fired == {"apply_basic_single_edge": by_rule[Rule.BASIC_SINGLE_EDGE],
                     "apply_isolated_clique": by_rule[Rule.ISOLATED_CLIQUE]}
    assert calls == {"apply_basic_single_edge": 4909, "apply_isolated_clique": 2062}


# -- orderings ------------------------------------------------------------------------

def test_presets_are_permutations():
    for name, seq in ORDERING_PRESETS.items():
        assert sorted(r.value for r in seq) == sorted(r.value for r in Rule), name


def test_baseline_prefix_and_best_perm_suffix():
    base = ORDERING_PRESETS["baseline"]
    assert base[0] is Rule.NEIGHBORHOOD_REMOVAL
    assert base[1] is Rule.DEGREE_ONE
    best = ORDERING_PRESETS["best_perm"]
    assert best[-3:] == (Rule.BASIC_SINGLE_EDGE, Rule.EXTENDED_SINGLE_EDGE,
                         Rule.NEIGHBORHOOD_FOLDING)


def test_disable_one_drops_each_baseline_rule_in_turn():
    base = ORDERING_PRESETS["baseline"]
    family = ORDERING_EXPERIMENTS["disable-one"]
    assert list(family) == [f"baseline-without-{rule.value}" for rule in base]
    for rule, rules in zip(base, family.values()):
        assert rules == tuple(r for r in base if r is not rule)
    assert ORDERING_EXPERIMENTS["preset-sweep"] is ORDERING_PRESETS


def test_exact_reduce_empty_ordering_applies_no_rule():
    g = path([5, 1, 5])
    kernel = exact_reduce(g, ())
    assert kernel.events == [] and g.live_count == 3


def test_experiment_disable_one_rows(rng):
    g = random_graph(rng, 14, 0.3)
    rows = run_ordering_experiment(g, ORDERING_EXPERIMENTS["disable-one"])
    assert len(rows) == 13
    assert len({row.label for row in rows}) == 13
    for row in rows:
        assert len(row.rules) == 12


def test_experiment_preset_sweep_rows(rng):
    g = random_graph(rng, 14, 0.3)
    rows = run_ordering_experiment(g, ORDERING_EXPERIMENTS["preset-sweep"])
    assert [row.label for row in rows] == \
        ["baseline", "time", "weight", "time_weight", "best_perm"]
    for row in rows:
        assert 0.0 <= row.kernel_ratio <= 1.0


def test_experiment_rows_are_sound(rng):
    g = random_graph(rng, 12, 0.3)
    alpha0, _ = brute_force(g)
    for row in run_ordering_experiment(g, ORDERING_EXPERIMENTS["disable-one"]):
        pass  # rows computed on copies; original untouched
    assert brute_force(g)[0] == alpha0
