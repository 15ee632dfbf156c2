"""Work-budgeted end-to-end benchmark of ``mwis.solve``.

Usage (from the repository root):

    python3 benchmark/run.py --workload road-reduce --seed 0 --seconds 60 --trace 0
    python3 benchmark/run.py --workload all            # every workload, one table
    python3 benchmark/run.py --workload all --trace 1  # per-layer tables

Each workload generates a fixed number of instances from ``--seed`` and
hands them to the solver as METIS text.  The first ``memory_instances``
are solved once under ``tracemalloc``; then every instance is solved
once, and the instances are solved again round-robin while the next solve
is expected to end within ``--seconds`` of the start; at least one repeat
compares the answer across solves.  Every solve runs under a work budget
(``SolverConfig`` sizes plus the ``should_stop`` hook), never under the
time limit, so its output is fixed by the seed.

The host's speed drifts by up to a factor of two over seconds to minutes,
so each solve is timed against a fixed reference loop run just before
and just after it (``reference_s``).  With ``--trace 0`` the last stdout
line reports the end-to-end metrics: ``solve_ref`` is the mean over
instances of each one's median solve time in reference-loop units,
``setup_s`` the mean over texts of each one's fastest parse (every text
is parsed before every ``SETUP_EVERY``-th solve), ``solve_peak_kib`` the
mean ``tracemalloc`` peak of the memory solves, ``best_weight`` and
``kernel_vertices`` means over instances.  With
``--trace 1`` one untraced solve of every instance is followed by one
traced solve of each, and the last line reports the per-layer metrics.
A solve that raises, fails ``verify``, misreports its weight, changes its
answer between repeats (or between the traced and untraced runs) or comes
near the time limit counts as failed; the process then exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "mwis" / "__init__.py").is_file():
    sys.exit(f"benchmark: no solver sources under {ROOT / 'src' / 'mwis'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import mwis  # noqa: E402
from mwis import SolverConfig, verify  # noqa: E402

import instances  # noqa: E402
import layers  # noqa: E402

# Far above any run; a solve that gets within NEAR_LIMIT of it fails.
TIME_LIMIT = 3600.0
NEAR_LIMIT = 0.5
# Every text of the run is parsed once more before every SETUP_EVERY-th
# solve.
SETUP_EVERY = 4
# Items the reference loop processes; it takes about 10 ms on the reference
# host in its fast phases.
REFERENCE_ITEMS = 60_000
TRACE_DIR = ROOT / ".bench_trace"


@dataclass(frozen=True)
class Workload:
    family: str
    n: int
    avg_degree: float
    instances: int
    # Solved once more each under tracemalloc, which slows a solve about
    # fivefold, for solve_peak_kib.
    memory_instances: int
    config: dict = field(default_factory=dict)
    # should_stop answers True from this poll on; solve polls once after
    # each exact_reduce and once after each evolve.  None: run until the
    # graph is gone.
    stop_at_poll: int | None = None


# One instance's solve time varies between instances with a coefficient of
# variation of 0.3 (road-reduce) to 0.5 (road-forcing), so each run
# averages over many small instances; the sizes keep one pass over them
# inside a run while the host is slow.  The memory peak of one road-reduce
# solve varies by 0.3% between instances and that of one road-forcing solve
# by 11%.
WORKLOADS = {
    # CWIS second in the ordering rebuilds a whole-kernel flow network after
    # every firing.  Stopping at the first poll finishes the kernel
    # greedily, so evolve never runs.
    "road-reduce": Workload(
        "geometric", n=350, avg_degree=8, instances=80, memory_instances=1,
        config=dict(ordering="weight"),
        stop_at_poll=1),
    # Many short evolves on kernels that shrink round by round while the
    # graph capacity stays put; forcing and repeated reduce cycles run here.
    "road-forcing": Workload(
        "geometric", n=60, avg_degree=10, instances=120, memory_instances=8,
        config=dict(ordering="baseline", population_size=30, pool_size=4,
                    unsuccessful_limit=20, selection_fraction=0.1)),
}

# Metric name -> unit, as BENCHMARK.json lists them.
END_TO_END = {m["name"]: m["unit"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


@dataclass
class Instance:
    seed: int
    text: str
    graph: mwis.WeightedGraph

    @property
    def row(self) -> dict:
        return {"instance_seed": self.seed, "hash": instances.text_hash(self.text),
                "n": self.graph.capacity, "m": self.graph.live_edges}


@dataclass(frozen=True)
class Outcome:
    seconds: float
    weight: int
    kernel_vertices: int
    rounds: int
    solution_hash: str
    # tracemalloc peak of the solve call, when it was measured.
    peak_kib: float | None = None


def make_instances(wl: Workload, seed: int) -> list[Instance]:
    out = []
    for i in range(wl.instances):
        inst_seed = seed * 1000 + i
        text = instances.generate(wl.family, wl.n, wl.avg_degree, inst_seed)
        out.append(Instance(inst_seed, text, mwis.parse_metis(text)))
    return out


class SolveFailure(RuntimeError):
    """A solve whose output failed the correctness gate."""


def solve_once(wl: Workload, inst: Instance, tracer: layers.Tracer | None = None,
               memory: bool = False) -> Outcome:
    polls = 0
    kernels: list[int] = []

    def should_stop() -> bool:
        nonlocal polls
        polls += 1
        return wl.stop_at_poll is not None and polls >= wl.stop_at_poll

    def progress(kind: str, payload: dict) -> None:
        if kind == "reduced":
            kernels.append(payload["kernel_vertices"])

    config = SolverConfig(time_limit=TIME_LIMIT, seed=inst.seed, **wl.config)
    graph = inst.graph
    if tracer is not None:
        # The parse is traced as its own span, outside the solve.
        graph = mwis.metis_io.parse_metis(inst.text)
        sid = tracer.begin(layers.ROOT)
    if memory:
        tracemalloc.start()
    t0 = time.perf_counter()
    try:
        result = mwis.solver.solve(graph, config, progress, should_stop)
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(sid)
        if memory:
            peak_kib = tracemalloc.get_traced_memory()[1] / 1024
            tracemalloc.stop()
    # Live vertices after the first exact_reduce; no "reduced" event means
    # the graph vanished.
    kernel = kernels[0] if kernels else 0
    problems = check(inst, result, seconds)
    if result.kernel_trace and result.kernel_trace[0].kernel_vertices != kernel:
        problems.append(f"kernel_trace[0] disagrees with the first reduce: "
                        f"{result.kernel_trace[0].kernel_vertices} != {kernel}")
    if problems:
        raise SolveFailure("; ".join(problems))
    digest = hashlib.sha256(mwis.format_solution(result.solution).encode()).hexdigest()
    return Outcome(seconds, result.weight, kernel, result.rounds, digest[:16],
                   peak_kib if memory else None)


def check(inst: Instance, result, seconds: float) -> list[str]:
    problems = []
    report = verify(inst.graph, sorted(result.solution))
    if not report.ok:
        problems.append("verify: " + " | ".join(report.lines()[:3]))
    recomputed = sum(inst.graph.weight[v] for v in result.solution)
    if recomputed != result.weight:
        problems.append(f"weight {result.weight} != recomputed {recomputed}")
    if seconds >= NEAR_LIMIT * TIME_LIMIT:
        problems.append(f"solve took {seconds:.1f} s, near the {TIME_LIMIT:.0f} s limit")
    return problems


class Gate:
    """Counts attempted and failed solves; holds each instance's reference answer."""

    def __init__(self, insts: list[Instance]):
        self.insts = insts
        self.reference: dict[int, Outcome] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, wl: Workload, i: int, tracer: layers.Tracer | None = None,
            memory: bool = False) -> Outcome | None:
        self.attempted += 1
        try:
            out = solve_once(wl, self.insts[i], tracer, memory)
        except Exception:  # counted and reported; never aborts the run
            self._fail(i, traceback.format_exc())
            return None
        ref = self.reference.setdefault(i, out)
        same = (ref.weight, ref.kernel_vertices, ref.solution_hash) == \
               (out.weight, out.kernel_vertices, out.solution_hash)
        if not same:
            self._fail(i, f"answer changed between repeats: {ref} vs {out}")
            return None
        return out

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        print(json.dumps({"failure": why, **self.insts[i].row}), file=sys.stderr)


def reference_s() -> float:
    """Seconds the host takes for a fixed pure-Python loop of the dict, set
    and list work the solver itself is made of."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    seen: set[int] = set()
    order: list[int] = []
    for i in range(REFERENCE_ITEMS):
        key = i * 7919 % 1009
        counts[key] = counts.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
        order.append(key)
    return time.perf_counter() - t0


@dataclass
class Samples:
    """What ``solve_loop`` measured, one list per instance."""
    seconds: list[list[float]]
    # Each solve's seconds over the mean of the reference loops around it.
    in_ref: list[list[float]]
    parse_s: list[list[float]]


def solve_loop(wl: Workload, gate: Gate, deadline: float, min_solves: int,
               setup_every: int = 0, tracer: layers.Tracer | None = None
               ) -> Samples:
    """Solve the instances round-robin: each once, then repeats while the
    next solve is expected to end by ``deadline`` (a ``perf_counter``
    reading) and until ``min_solves`` ran.  A reference loop runs between
    solves; every ``setup_every``-th solve (never, if 0) is preceded by a
    timed parse of every text."""
    k = len(gate.insts)
    out = Samples([[] for _ in range(k)], [[] for _ in range(k)], [[] for _ in range(k)])
    ref_before = reference_s()
    j = 0
    while j < max(k, min_solves) or (
            time.perf_counter() + _median_or_zero(out.seconds[j % k]) <= deadline):
        i = j % k
        if setup_every and j % setup_every == 0:
            for inst, parse_s in zip(gate.insts, out.parse_s):
                t0 = time.perf_counter()
                mwis.parse_metis(inst.text)
                parse_s.append(time.perf_counter() - t0)
            ref_before = reference_s()
        if tracer is not None:
            tracer.run_id += 1
        solved = gate.run(wl, i, tracer)
        ref_after = reference_s()
        if solved is not None:
            out.seconds[i].append(solved.seconds)
            out.in_ref[i].append(solved.seconds / ((ref_before + ref_after) / 2))
        ref_before = ref_after
        j += 1
    return out


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean_of(per_instance: list[list[float]], stat) -> float:
    values = [stat(v) for v in per_instance if v]
    return statistics.fmean(values) if values else float("nan")


def end_to_end(wl: Workload, insts: list[Instance], seconds: float) -> tuple[Gate, dict]:
    deadline = time.perf_counter() + seconds
    gate = Gate(insts)
    memory = [gate.run(wl, i, memory=True) for i in range(wl.memory_instances)]
    peaks = [out.peak_kib for out in memory if out is not None]
    samples = solve_loop(wl, gate, deadline, len(insts) + 1, SETUP_EVERY)
    refs = list(gate.reference.values())
    metrics = {
        # Fastest samples: a parse takes about a millisecond, so some of a
        # text's samples fall into the host's fast phases in every run.
        "setup_s": _mean_of(samples.parse_s, min),
        "solve_ref": _mean_of(samples.in_ref, statistics.median),
        "best_weight": statistics.fmean(r.weight for r in refs) if refs else float("nan"),
        "kernel_vertices": (statistics.fmean(r.kernel_vertices for r in refs)
                            if refs else float("nan")),
        "solve_peak_kib": statistics.fmean(peaks) if peaks else float("nan"),
    }
    print(json.dumps({"solves_per_instance": [len(ts) for ts in samples.seconds],
                      "median_solve_s": _mean_of(samples.seconds, statistics.median),
                      "setup_samples": len(samples.parse_s[0])}))
    return gate, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def per_layer(wl: Workload, insts: list[Instance], trace_out: Path) -> tuple[Gate, dict]:
    """One untraced solve of every instance, then one traced solve of each."""
    k = len(insts)
    gate = Gate(insts)
    untraced = solve_loop(wl, gate, 0.0, k)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = solve_loop(wl, gate, 0.0, k, tracer=tracer)
    finally:
        tracer.uninstall()
    leftover = layers.leftover_patches()
    if leftover:
        gate.failed += 1
        print(json.dumps({"failure": f"patches left behind: {leftover}"}), file=sys.stderr)
    tracer.dump(trace_out)

    rounds = sum(r.rounds for r in gate.reference.values())
    metrics = layers.layer_metrics(tracer.spans, k, rounds)
    # The slow-down is taken in reference-loop units, so that the host's
    # drift between the two passes does not count as overhead.
    untraced_s = _mean_of(untraced.seconds, statistics.median)
    slowdown = (_mean_of(traced.in_ref, statistics.median)
                / _mean_of(untraced.in_ref, statistics.median))
    metrics["solver.tracing_overhead_s"] = untraced_s * (slowdown - 1)
    print(json.dumps({"untraced_solve_s": untraced_s, "traced_slowdown": slowdown,
                      "spans": str(trace_out)}))
    return gate, {name: {"value": v, "unit": layers.PER_LAYER[name]}
                  for name, v in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    wl = WORKLOADS[name]
    insts = make_instances(wl, seed)
    for inst in insts:
        print(json.dumps({"workload": name, **inst.row}))
    if traced:
        gate, metrics = per_layer(wl, insts, TRACE_DIR / f"{name}-seed{seed}.jsonl.gz")
    else:
        gate, metrics = end_to_end(wl, insts, seconds)
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own process, one after another; one table."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if traced else "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        share = result["failed"] / result["attempted"]
        print(f"\n{name}: attempted={result['attempted']} failed={result['failed']} "
              f"failed_share={share:.3f}")
        solve_s = result["metrics"].get("solver.solve.s", {}).get("value")
        for metric, m in result["metrics"].items():
            line = f"  {metric:<46} {m['value']:>14.6g} {m['unit']}"
            if traced and solve_s and m["unit"] == "s" and metric != "solver.solve.s":
                line += f"  ({100 * m['value'] / solve_s:.1f}% of solve)"
            print(line)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
