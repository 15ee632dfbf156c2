"""Max-flow networks: deep augmenting paths, the warm double-cover flow's
invariants, and how much whole-kernel work the warm flow does."""

import random

import pytest

from mwis import build_graph, exact_reduce, ordering_preset
from mwis.maxflow import DoubleCoverFlow, FlowNetwork
from mwis.reductions import (ReductionEvent, Rule, _add_edge, _new_vertex, _rm, _rm_edge,
                             _Scheduler, _set_w, critical_set)
from conftest import geometric_graph, random_graph


def test_flow_network_deep_chain():
    # One augmenting path through 5000 nodes: deeper than the interpreter's
    # recursion limit, so the DFS must not recurse per node.
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
    # The targeted re-augmentation leaves a maximum flow, so the Dinic loop
    # mostly runs its one whole-kernel BFS only to prove it: 139 BFS runs
    # for 133 calls here, against 419 when Dinic phases repair the flow.
    g = geometric_graph(random.Random(1), 200, 8)
    counts = {"min_cut": 0, "levels": 0}
    min_cut, levels = DoubleCoverFlow.min_cut, DoubleCoverFlow._levels

    def counted_min_cut(self, h):
        counts["min_cut"] += 1
        return min_cut(self, h)

    def counted_levels(self, *args):
        counts["levels"] += 1
        return levels(self, *args)

    mp = pytest.MonkeyPatch()
    mp.setattr(DoubleCoverFlow, "min_cut", counted_min_cut)
    mp.setattr(DoubleCoverFlow, "_levels", counted_levels)
    try:
        exact_reduce(g, ordering_preset("weight"), [])
    finally:
        mp.undo()
    assert counts["min_cut"] >= 20
    assert counts["levels"] < 1.5 * counts["min_cut"]


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
    # of the test above, its searches read 8.0 neighbour sets of g.adj per
    # min_cut (9.6 when both ends of each added or removed edge are
    # invalidated).  Invalidating every neighbour of a removed vertex raised
    # that to 23.8, a one-ended search to 17.5, and the two together to 30.4.
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
    # so re-augmentation mostly leaves a maximum flow and the Dinic check
    # runs a phase after 51 of the 480 warm calls; when added edges are not
    # invalidated, after 104.
    rng = random.Random(4242)
    kinds = ("rm", "raise", "cut", "ea", "er", "nv")
    seen = set()
    counts = {"warm": 0, "phases": 0}
    min_cut, blocking_flow = DoubleCoverFlow.min_cut, DoubleCoverFlow._blocking_flow

    def counted_min_cut(self, h):
        counts["warm"] += 1
        return min_cut(self, h)

    def counted_blocking_flow(self, *args):
        counts["phases"] += 1
        return blocking_flow(self, *args)

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
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(DoubleCoverFlow, "min_cut", counted_min_cut)
                mp.setattr(DoubleCoverFlow, "_blocking_flow", counted_blocking_flow)
                warm = critical_set(g, flow)
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
