"""Max-flow networks: deep augmenting paths, shortest augmenting paths
against the reference Dinic network in ``conftest``, the warm double-cover
flow's invariants, how much whole-kernel work the warm flow does, how often
its check finds the flow short, and its cuts against the Dinic phases it
used to run."""

import random
from contextlib import contextmanager

import pytest

from mwis import (InitStrategy, build_graph, build_initial, exact_reduce, is_independent,
                  ordering_preset, reconstruct)
from mwis.maxflow import DoubleCoverFlow, FlowNetwork
from mwis.reductions import (ReductionEvent, Rule, _add_edge, _new_vertex, _rm, _rm_edge,
                             _Scheduler, _set_w, _take, critical_set)
from conftest import DinicNetwork, geometric_graph, path, random_graph


def dinic_levels(flow, g):
    """BFS levels of the residual network from ``spare_l``, for the copies
    reached only, and the sink's level, or -1 when the flow is maximum.
    Left copies sit at odd levels, right copies at even ones."""
    adj, into, spare_r = g.adj, flow.into, flow.spare_r
    layer = list(flow.spare_l)
    lev_l = dict.fromkeys(layer, 1)
    lev_r = {}
    depth = 1
    while layer:
        rights = []
        for v in layer:
            for u in adj[v]:
                if u not in lev_r:
                    lev_r[u] = depth + 1
                    rights.append(u)
        depth += 2
        if not spare_r.isdisjoint(rights):
            return lev_l, lev_r, depth
        layer = []
        for u in rights:
            for v in into[u]:
                if v not in lev_l:
                    lev_l[v] = depth
                    layer.append(v)
    return lev_l, lev_r, -1


def dinic_blocking_flow(flow, g, lev_l, lev_r, t_level):
    """Saturate every shortest augmenting path (iterative DFS with current
    arcs; a dead-end copy gets level -1)."""
    adj, weight = g.adj, g.weight
    into, sent, spare_r = flow.into, flow.sent, flow.spare_r
    arcs_l, arcs_r = {}, {}
    for root in [v for v, lv in lev_l.items() if lv == 1]:
        path = [root]  # L, R, L, R, ... copies
        while path:
            top = path[-1]
            if len(path) & 1:
                arcs = arcs_l.get(top)
                if arcs is None:
                    want = lev_l[top] + 1
                    arcs = arcs_l[top] = [u for u in adj[top] if lev_r.get(u) == want]
                while arcs and lev_r[arcs[-1]] < 0:
                    arcs.pop()
                if arcs:
                    path.append(arcs[-1])
                else:
                    lev_l[top] = -1
                    path.pop()
                continue
            if lev_r[top] + 1 == t_level and top in spare_r:
                flow._augment(path, weight)
                if sent[root] == weight[root]:
                    break
                path = [root]
                continue
            arcs = arcs_r.get(top)
            if arcs is None:
                want = lev_r[top] + 1
                arcs = arcs_r[top] = [v for v in into[top] if lev_l.get(v) == want]
            flows = into[top]
            while arcs and (lev_l[arcs[-1]] < 0 or arcs[-1] not in flows):
                arcs.pop()
            if arcs:
                path.append(arcs[-1])
            else:
                lev_r[top] = -1
                path.pop()


def dinic_min_cut(g):
    """The critical set by Dinic phases from the zero flow: a reference
    that shares only ``_repair`` and ``_augment`` with
    ``DoubleCoverFlow.min_cut``, which starts from a greedy symmetric flow
    and augments by bidirectional searches only."""
    flow = DoubleCoverFlow()
    flow._repair(g)
    while True:
        lev_l, lev_r, t_level = dinic_levels(flow, g)
        if t_level < 0:
            return {v for v in lev_l if v not in lev_r}
        dinic_blocking_flow(flow, g, lev_l, lev_r, t_level)


@contextmanager
def failed_checks():
    """Note each ``_source_side`` check that finds an augmenting path, which
    sends ``min_cut`` to search again from every copy in ``spare_l``."""
    failed = []
    source_side = DoubleCoverFlow._source_side

    def noting_source_side(self, h):
        cut = source_side(self, h)
        if cut is None:
            failed.append(1)
        return cut

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DoubleCoverFlow, "_source_side", noting_source_side)
        yield failed


def test_flow_network_deep_chain():
    # One augmenting path through 5000 nodes: deeper than the interpreter's
    # recursion limit, so the path walk must not recurse per node.
    n = 5000
    net = FlowNetwork(n)
    for i in range(n - 1):
        net.add_edge(i, i + 1, 7 if i != 2500 else 3)
    assert net.max_flow(0, n - 1) == 3
    assert net.min_cut_source_side(0) == set(range(2501))


def test_flow_network_flow_equals_cut_capacity():
    # Random networks with parallel and opposite arcs: the flow equals the
    # capacity leaving the returned source side, so both are optimal.
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(4, 30)
        net = FlowNetwork(n)
        arcs = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 9))
                for _ in range(rng.randint(0, 4 * n))]
        for u, v, c in arcs:
            if u != v:
                net.add_edge(u, v, c)
        flow = net.max_flow(0, n - 1)
        side = net.min_cut_source_side(0)
        assert n - 1 not in side
        assert flow == sum(c for u, v, c in arcs if u != v and u in side and v not in side)


def test_flow_network_matches_dinic():
    # Random networks with parallel and opposite arcs, zero capacities and
    # often a sink out of reach from the start: the same flow value and the
    # same source side, which is the minimal minimum cut after any maximum
    # flow.
    rng = random.Random(2024)
    unreachable = 0
    for _ in range(1200):
        n = rng.randint(2, 14)
        s, t = rng.sample(range(n), 2)
        arcs = [(rng.randrange(n), rng.randrange(n), rng.choice([0, 0, 1, 2, 3, 5, 9]))
                for _ in range(rng.randint(0, 6 * n))]
        arcs += [(v, u, c) for u, v, c in arcs if rng.random() < 0.2]  # opposite arcs
        arcs += [a for a in arcs if rng.random() < 0.1]  # parallel arcs
        net, ref = FlowNetwork(n), DinicNetwork(n)
        for u, v, c in arcs:
            if u != v:
                net.add_edge(u, v, c)
                ref.add_edge(u, v, c)
        unreachable += t not in net.min_cut_source_side(s)
        assert net.max_flow(s, t) == ref.max_flow(s, t)
        assert net.min_cut_source_side(s) == ref.min_cut_source_side(s)
    assert 100 < unreachable < 1100


def test_audit_catches_a_broken_flow():
    g = random_graph(random.Random(3), 30, 0.2)
    flow = DoubleCoverFlow()
    flow.min_cut(g)
    flow.audit(g)
    v = next(v for v in g.vertices() if flow.out[v])
    u = next(iter(flow.out[v]))
    for corrupt in ("sent", "mirror", "over", "dead"):
        broken = DoubleCoverFlow()
        broken.min_cut(g)
        h = g.copy()
        if corrupt == "sent":
            broken.sent[v] += 1
        elif corrupt == "mirror":
            broken.into[u][v] += 1
        elif corrupt == "over":
            h.set_vertex_weight(v, 0)
        else:
            h.remove_vertex(u)
        with pytest.raises(AssertionError):
            broken.audit(h)


def test_warm_flow_ends_most_calls_after_one_search():
    # The targeted re-augmentation leaves a maximum flow, so the check
    # mostly runs its one forward walk only to prove it: 133 walks for 133
    # calls here, the cold call's among them, since its searches from the
    # greedy start finish the flow and its first check passes.
    g = geometric_graph(random.Random(1), 200, 8)
    counts = {"min_cut": 0, "walks": 0}
    min_cut, source_side = DoubleCoverFlow.min_cut, DoubleCoverFlow._source_side

    def counted_min_cut(self, h):
        counts["min_cut"] += 1
        return min_cut(self, h)

    def counted_source_side(self, *args):
        counts["walks"] += 1
        return source_side(self, *args)

    mp = pytest.MonkeyPatch()
    mp.setattr(DoubleCoverFlow, "min_cut", counted_min_cut)
    mp.setattr(DoubleCoverFlow, "_source_side", counted_source_side)
    try:
        exact_reduce(g, ordering_preset("weight"), [])
    finally:
        mp.undo()
    assert counts["min_cut"] >= 20
    assert counts["walks"] < 1.5 * counts["min_cut"]


class CountingList(list):
    """A list that counts its item reads."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_warm_flow_searches_stay_local():
    # Re-augmentation works where the event changed the graph: on the graph
    # of the test above, its searches read 11.9 neighbour sets of g.adj per
    # min_cut: 8.8 in the warm calls, and 3.0 in the one cold call's
    # searches from its greedy start.  Invalidating both ends of each added
    # or removed edge, every neighbour of a removed vertex, or searching
    # from one end only makes the warm calls read 20%, 152% and 90% more.
    g = geometric_graph(random.Random(1), 200, 8)
    counts = {"min_cut": 0, "adj": 0}
    min_cut, search = DoubleCoverFlow.min_cut, DoubleCoverFlow._search

    def counted_min_cut(self, h):
        counts["min_cut"] += 1
        return min_cut(self, h)

    def counted_search(self, h, *args):
        adj, h.adj = h.adj, CountingList(h.adj)
        try:
            return search(self, h, *args)
        finally:
            counts["adj"] += h.adj.reads
            h.adj = adj

    mp = pytest.MonkeyPatch()
    mp.setattr(DoubleCoverFlow, "min_cut", counted_min_cut)
    mp.setattr(DoubleCoverFlow, "_search", counted_search)
    try:
        exact_reduce(g, ordering_preset("weight"), [])
    finally:
        mp.undo()
    assert counts["min_cut"] >= 20
    assert counts["adj"] <= 12 * counts["min_cut"]


def test_warm_cut_after_a_many_root_take():
    # Forcing takes up to 25 pairwise non-adjacent vertices in one event,
    # here ranked as the hybrid strategy ranks them: hundreds of copies are
    # freed at once.  The warm cut must equal the cold one, the searches
    # from the freed copies must finish the flow, so that the first check
    # passes, and they read 3.0 neighbour sets of g.adj per freed copy (a
    # one-ended search reads 19% more).
    rng = random.Random(1500)
    counts = {"freed": 0, "adj": 0, "failed": 0}
    repair, search = DoubleCoverFlow._repair, DoubleCoverFlow._search

    def counted_repair(self, h):
        lefts, rights = repair(self, h)
        counts["freed"] += len(lefts) + len(rights)
        return lefts, rights

    def counted_search(self, h, *args):
        adj, h.adj = h.adj, CountingList(h.adj)
        try:
            return search(self, h, *args)
        finally:
            counts["adj"] += h.adj.reads
            h.adj = adj

    for _ in range(3):
        g = geometric_graph(rng, 1500, 8)
        flow = DoubleCoverFlow()
        flow.min_cut(g)
        for _ in range(2):
            taken = []
            for v in sorted(g.vertices(),
                            key=lambda v: (g.neighborhood_weight(v) - g.weight[v], v)):
                if len(taken) == 25:
                    break
                if g.adj[v].isdisjoint(taken):
                    taken.append(v)
            events = []
            _take(g, None, taken, events)
            flow.invalidate(events[0].changed())
            with pytest.MonkeyPatch.context() as mp, failed_checks() as failed:
                mp.setattr(DoubleCoverFlow, "_repair", counted_repair)
                mp.setattr(DoubleCoverFlow, "_search", counted_search)
                warm = flow.min_cut(g)
            counts["failed"] += len(failed)
            assert warm == critical_set(g)[0]
            flow.audit(g)
    assert counts["freed"] >= 1000
    assert counts["failed"] == 0
    assert counts["adj"] <= 6 * counts["freed"]


def test_removal_frees_only_the_flow_partners():
    # Removing x drops the flow on x's own arcs and nothing else: the freed
    # copies are x's and those of the vertices that shared flow with x, and
    # every other flow entry stays.  The scheduler's own invalidation is used.
    rng = random.Random(17)
    checked = 0
    for _ in range(30):
        g = geometric_graph(rng, 60, 6)
        sched = _Scheduler(g, 0)
        flow = sched.flow
        flow.min_cut(g)
        x = max(g.vertices(), key=lambda v: (len(g.adj[v]) - len(flow.out[v]), v))
        if not flow.out[x] and not flow.into[x]:
            continue
        lefts = {x} | set(flow.into[x])
        rights = {x} | set(flow.out[x])
        kept = {(v, u, f) for v in g.vertices() if v != x
                for u, f in flow.out[v].items() if u != x}
        ops = []
        _rm(g, x, ops)
        sched.mark_event(ReductionEvent(Rule.DOMINATION, ops))
        assert flow._repair(g) == (lefts, rights)
        assert kept == {(v, u, f) for v in range(g.capacity) for u, f in flow.out[v].items()}
        flow.min_cut(g)
        flow.audit(g)
        checked += 1
    assert checked >= 20


def test_warm_and_cold_flows_agree_under_every_undo_op():
    # Random journaled edits of every undo-op kind, each invalidated with
    # exactly what the reduce loop passes (ReductionEvent.changed).  New
    # augmenting paths start or end at the copies that invalidation frees,
    # so re-augmentation mostly leaves a maximum flow: the first check finds
    # an augmenting path in 29 of the 480 warm calls, and one more pass of
    # searches from every spare_l copy finishes each of them.
    rng = random.Random(4242)
    kinds = ("rm", "raise", "cut", "ea", "er", "nv")
    seen = set()
    counts = {"warm": 0, "phases": 0}
    min_cut = DoubleCoverFlow.min_cut

    def counted_min_cut(self, h):
        counts["warm"] += 1
        return min_cut(self, h)

    for _ in range(4):
        g = geometric_graph(rng, 120, 6)
        flow = DoubleCoverFlow()
        critical_set(g, flow)
        for _ in range(120):
            if g.live_count < 10:
                break
            ops = []
            for kind in rng.sample(kinds, rng.randint(1, 3)):
                live = g.vertices()
                v = rng.choice(live)
                if kind == "rm":
                    _rm(g, v, ops)
                elif kind == "raise":
                    _set_w(g, v, g.weight[v] + rng.randint(1, 60), ops)
                elif kind == "cut":
                    _set_w(g, v, rng.randint(0, g.weight[v]), ops)
                elif kind == "ea":
                    u = rng.choice(live)
                    if u == v or u in g.adj[v]:
                        continue
                    _add_edge(g, v, u, ops)
                elif kind == "er":
                    if not g.adj[v]:
                        continue
                    _rm_edge(g, v, rng.choice(sorted(g.adj[v])), ops)
                else:
                    fold = _new_vertex(g, rng.randint(0, 200), ops)
                    for u in rng.sample(live, min(len(live), rng.randint(0, 5))):
                        _add_edge(g, fold, u, ops)
                seen.add(kind)
            flow.invalidate(ReductionEvent(Rule.CWIS, ops).changed())
            with pytest.MonkeyPatch.context() as mp, failed_checks() as failed:
                mp.setattr(DoubleCoverFlow, "min_cut", counted_min_cut)
                warm = critical_set(g, flow)
            counts["phases"] += bool(failed)
            assert warm == critical_set(g)
            flow.audit(g)
    assert seen == set(kinds)
    assert counts["warm"] >= 400
    assert counts["phases"] <= 0.15 * counts["warm"]


def test_warm_cut_reads_only_the_copies_it_reaches():
    # A warm call after a local edit must not scan the capacity: 20 000
    # alive zero-weight vertices sit beside a small weighted path.
    n = 20_000
    g = build_graph([(i, i + 1) for i in range(9)], [5, 1, 4, 1, 3, 9, 2, 6, 5, 3] + [0] * (n - 10))
    flow = DoubleCoverFlow()
    cold = critical_set(g, flow)
    assert cold == critical_set(g)
    ops = []
    _set_w(g, 3, 7, ops)
    flow.invalidate(ReductionEvent(Rule.CWIS, ops).changed())
    lists = g.adj, g.weight, g.alive
    g.adj, g.weight, g.alive = (CountingList(x) for x in lists)
    try:
        chosen = flow.min_cut(g)
        reads = sum(x.reads for x in (g.adj, g.weight, g.alive))
    finally:
        g.adj, g.weight, g.alive = lists
    assert chosen == critical_set(g)[0]
    assert reads < 200


def test_zero_flow_cuts_match_dinic_on_random_graphs():
    # 1000 small graphs whose weights are often 0, 1 or tied.  Each flow
    # starts at zero through a warm call with no roots, so only the check
    # and the passes of searches from every spare_l copy build it; then it
    # is balanced as a cold call balances its flow, and cut warm after
    # three vertex removals: the minimal minimum cut is unique, so every
    # cut must equal the Dinic one.  The balanced flow carries the same
    # both ways on every edge, give or take one unit, and audit() sees
    # every copy within its weight.  In 893 graphs the zero flow is not
    # maximum, so the passes build it.
    rng = random.Random(1313)
    built = 0
    for _ in range(1000):
        n = rng.randint(0, 40)
        p = rng.uniform(0.05, 0.4)
        common = (0, 1, rng.randint(2, 200))
        weights = [rng.choice(common) if rng.random() < 0.5 else rng.randint(0, 200)
                   for _ in range(n)]
        g = build_graph([(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < p], weights)
        flow = DoubleCoverFlow()
        flow._repair(g)
        with failed_checks() as failed:
            flow.min_cut(g)
        built += bool(failed)
        flow._balance(g)
        for step in range(4):
            if step:
                live = g.vertices()
                if not live:
                    break
                ops = []
                _rm(g, rng.choice(live), ops)
                flow.invalidate(ReductionEvent(Rule.CWIS, ops).changed())
            assert flow.min_cut(g) == dinic_min_cut(g)
            flow.audit(g)
            if not step:
                assert all(abs(f - flow.out[u].get(v, 0)) <= 1
                           for v in g.vertices() for u, f in flow.out[v].items())
    assert built >= 850


def test_zero_flow_cut_of_a_five_vertex_graph():
    # From the zero flow, one pass of searches from every spare_l copy must
    # reach the maximum and the cut {4}; a cold call's greedy start would
    # not need the pass here.
    g = build_graph([(0, 1), (0, 3), (1, 3), (2, 3), (2, 4)], [96, 138, 5, 136, 161])
    flow = DoubleCoverFlow()
    flow._repair(g)
    with failed_checks() as failed:
        cut = flow.min_cut(g)
    assert failed
    assert cut == dinic_min_cut(g) == {4}
    flow.audit(g)


def test_medium_kernel_has_an_empty_critical_set_and_rebuilds():
    # A 2000-vertex graph through the weight ordering, which ends with CWIS
    # finding nothing more to take: a cold cut of the kernel must be empty
    # and equal the Dinic one, and a greedy kernel solution must rebuild to
    # an independent set of the original graph worth offset + its weight.
    original = geometric_graph(random.Random(2000), 2000, 8)
    g = original.copy()
    kernel = exact_reduce(g, ordering_preset("weight"))
    assert 0 < g.live_count < original.live_count
    assert critical_set(g) == (set(), 0)
    assert dinic_min_cut(g) == set()
    compacted, ids = g.compact()
    greedy = build_initial(compacted, InitStrategy.GREEDY_WEIGHT_MWIS, random.Random(0))
    chosen = {ids[v] for v in greedy.members}
    rebuilt = reconstruct(kernel, chosen)
    assert is_independent(original, rebuilt)
    assert (sum(original.weight[v] for v in rebuilt)
            == kernel.offset + sum(g.weight[v] for v in chosen))


def test_cold_cut_from_the_greedy_start_passes_its_first_check():
    # The first min_cut fills the zero flow greedily and symmetrically and
    # finishes it with the warm calls' searches.  On a long weighted path,
    # a random bipartite graph, a star whose centre outweighs its leaves and
    # road-like graphs the check then passes at once, and the cut equals the
    # Dinic one, the flow passes audit() and ends balanced for the warm
    # calls.
    rng = random.Random(2020)
    n = 5000
    half = 300
    bipartite = {(rng.randrange(half), half + rng.randrange(half)) for _ in range(4 * half)}
    leaves = [rng.randint(1, 100) for _ in range(59)]
    graphs = [
        path([rng.randint(1, 100) for _ in range(n)]),
        build_graph(sorted(bipartite), [rng.randint(1, 100) for _ in range(2 * half)]),
        build_graph([(0, v) for v in range(1, 60)], [sum(leaves) + 1] + leaves),
    ]
    graphs += [geometric_graph(rng, 300, 8) for _ in range(4)]
    for g in graphs:
        flow = DoubleCoverFlow()
        with failed_checks() as failed:
            cut = flow.min_cut(g)
        assert not failed
        assert cut == dinic_min_cut(g)
        flow.audit(g)
        assert all(abs(f - flow.out[u].get(v, 0)) <= 1
                   for v in g.vertices() for u, f in flow.out[v].items())


def test_warm_cut_after_many_added_edges_needs_a_pass():
    # 600 random edges added in one event to a 3000-vertex road-like graph:
    # one end of each is invalidated, and the searches from the freed copies
    # leave paths between other copies open, so the check fails at least
    # once and the passes from every spare_l copy finish the flow.
    rng = random.Random(77)
    g = geometric_graph(rng, 3000, 6)
    flow = DoubleCoverFlow()
    flow.min_cut(g)
    ops = []
    live = g.vertices()
    while len(ops) < 600:
        v, u = rng.sample(live, 2)
        if u not in g.adj[v]:
            _add_edge(g, v, u, ops)
    flow.invalidate(ReductionEvent(Rule.CWIS, ops).changed())
    with failed_checks() as failed:
        cut = flow.min_cut(g)
    assert failed
    assert cut == dinic_min_cut(g)
    flow.audit(g)
