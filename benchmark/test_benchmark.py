"""Small-size checks of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest -q benchmark``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mwis  # noqa: E402
from mwis import SolverConfig, parse_metis  # noqa: E402

import instances  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def small(name: str, n: int, k: int = 1) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], n=n, instances=k)


@pytest.mark.parametrize("family", sorted(instances.GENERATORS))
def test_generators_are_deterministic(family):
    a = instances.generate(family, 120, 6, seed=7)
    assert a == instances.generate(family, 120, 6, seed=7)
    assert a != instances.generate(family, 120, 6, seed=8)
    g = parse_metis(a)
    assert g.capacity == 120
    assert 4 <= 2 * g.live_edges / g.capacity <= 8
    assert all(1 <= g.weight[v] <= 200 for v in g.vertices())
    assert instances.text_hash(a) == instances.text_hash(a)


def test_stop_after_first_evolve_returns_population_best():
    # should_stop is polled after each exact_reduce and after each evolve,
    # so answering True at the second poll ends the solve on the evolved
    # population instead of the greedy kernel fallback.
    wl = run.Workload("gnm", n=80, avg_degree=8, instances=1, memory_instances=0,
                      config=dict(population_size=10, pool_size=2,
                                  unsuccessful_limit=5),
                      stop_at_poll=2)
    inst = run.make_instances(wl, seed=3)[0]
    polls = []

    def should_stop() -> bool:
        polls.append(1)
        return len(polls) >= wl.stop_at_poll

    config = SolverConfig(time_limit=run.TIME_LIMIT, seed=inst.seed, **wl.config)
    result = mwis.solve(inst.graph, config, should_stop=should_stop)
    assert len(polls) == 2 and result.rounds == 0
    [stats] = result.kernel_trace
    assert stats.kernel_vertices > 0
    assert result.weight == stats.offset + stats.best_evolve_weight
    assert run.Gate([inst]).run(wl, 0) is not None


@pytest.fixture(scope="module")
def traced_runs():
    """One small traced run per workload: (gate, spans, metrics)."""
    out = {}
    for name, n in (("road-reduce", 150), ("road-forcing", 100)):
        wl = small(name, n, k=2)
        gate = run.Gate(run.make_instances(wl, seed=1))
        run.solve_loop(wl, gate, 0.0, 2)
        tracer = layers.Tracer()
        tracer.install()
        try:
            run.solve_loop(wl, gate, 0.0, 2, tracer=tracer)
        finally:
            tracer.uninstall()
        rounds = sum(r.rounds for r in gate.reference.values())
        out[name] = (gate, tracer.spans, layers.layer_metrics(tracer.spans, 2, rounds))
    return out


def test_traced_and_untraced_runs_agree(traced_runs):
    for gate, _, _ in traced_runs.values():
        assert gate.attempted == 4 and gate.failed == 0


def test_top_level_spans_cover_solve(traced_runs):
    for name, (_, spans, metrics) in traced_runs.items():
        assert metrics["solver.top_level_coverage"] >= 0.9, name
        roots = [s for s in spans if s[0] == layers.ROOT]
        assert len(roots) == 2 and all(s[3] == -1 for s in roots)


def test_self_times_are_never_negative(traced_runs):
    for _, spans, metrics in traced_runs.values():
        assert min(layers.self_times(spans)) >= -1e-6
        for name, value in metrics.items():
            assert value >= 0, name


def test_layers_separate_as_designed(traced_runs):
    _, _, reduce_ = traced_runs["road-reduce"]
    assert reduce_["partition.edge_partition.calls"] == 0
    assert reduce_["reductions.cwis.calls"] > 1
    _, _, forcing = traced_runs["road-forcing"]
    assert forcing["solver.rounds"] >= 1 and forcing["heuristic.forced"] > 0
    assert forcing["evolution.offspring"] > 0 and forcing["partition.edge_partition.calls"] > 0


def test_wrappers_reach_every_namespace_and_leave_no_patch():
    before = {id(m): dict(vars(m)) for m in layers._mwis_modules()}
    tracer = layers.Tracer()
    tracer.install()
    try:
        for mod in (mwis, mwis.evolution, mwis.local_search):
            assert getattr(mod.vnd, layers.WRAPPED_MARK, False), mod.__name__
        assert getattr(mwis.solver.maximize_greedy, layers.WRAPPED_MARK, False)
        assert getattr(mwis.solver.exact_reduce, layers.WRAPPED_MARK, False)
        assert getattr(mwis.maxflow.FlowNetwork.max_flow, layers.WRAPPED_MARK, False)
    finally:
        tracer.uninstall()
    assert layers.leftover_patches() == []
    for mod in layers._mwis_modules():
        assert all(vars(mod)[k] is v for k, v in before[id(mod)].items()), mod.__name__


def test_solves_are_timed_against_the_reference_loop():
    wl = small("road-reduce", 60, k=2)
    gate = run.Gate(run.make_instances(wl, seed=4))
    samples = run.solve_loop(wl, gate, 0.0, 3, setup_every=1)
    assert gate.attempted == 3 and gate.failed == 0
    assert [len(s) for s in samples.parse_s] == [3, 3]
    assert min(min(s) for s in samples.parse_s) > 0
    assert [len(s) for s in samples.seconds] == [len(s) for s in samples.in_ref] == [2, 1]
    # seconds / in_ref gives back the reference time, tens of milliseconds.
    ratios = [s / r for secs, in_ref in zip(samples.seconds, samples.in_ref)
              for s, r in zip(secs, in_ref)]
    assert all(0 < x < 1 for x in ratios)


def test_benchmark_json_names_the_runner_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_memory_peak_grows_with_the_solve():
    peaks = []
    for n in (100, 300):
        wl = small("road-reduce", n)
        gate = run.Gate(run.make_instances(wl, seed=2))
        peaks.append(gate.run(wl, 0, memory=True).peak_kib)
        assert gate.run(wl, 0).peak_kib is None and gate.failed == 0
    assert 0 < peaks[0] < peaks[1]
