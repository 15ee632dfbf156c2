"""Max-flow networks: deep augmenting paths, the warm double-cover flow's
invariants, and how much whole-kernel work the warm flow does."""

import random

import pytest

from mwis import build_graph, exact_reduce, ordering_preset
from mwis.maxflow import DoubleCoverFlow, FlowNetwork
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
