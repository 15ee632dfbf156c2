"""
The full solve loop
===================

Generates a random weighted instance, runs the solver (exact reductions,
memetic search, heuristic vertex forcing, repeat, until a kernel is small
enough to finish exactly), checks the answer against the exact reference,
and writes the standard file formats.
"""

import random
import tempfile
from pathlib import Path

from mwis import (OracleLimits, SolverConfig, brute_force, build_graph,
                  format_solution, parse_metis, solve, verify, write_metis)

rng = random.Random(2)
n = 50
edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.1]
weights = [rng.randint(1, 200) for _ in range(n)]
g = build_graph(edges, weights)
print(f"instance: {n} vertices, {len(edges)} edges")

config = SolverConfig(time_limit=10.0, seed=0, population_size=100,
                      unsuccessful_limit=200)
result = solve(g, config, progress=lambda kind, p: print(f"  [{kind}] {p}"))
print(f"solver: weight {result.weight} in {result.elapsed:.2f}s, "
      f"{result.rounds} forcing rounds, proven optimal: {result.proven_optimal}")

alpha, _ = brute_force(g, OracleLimits(max_vertices=n))
print(f"exact reference: {alpha} ({'matched' if alpha == result.weight else 'missed'})")

report = verify(g, sorted(result.solution))
print(f"verifier says: {report.lines()[0]}")

# Round-trip the instance and the solution through their file formats.
with tempfile.TemporaryDirectory() as tmp:
    graph_path = Path(tmp) / "demo.graph"
    graph_path.write_text(write_metis(g), encoding="utf-8")
    sol_path = Path(tmp) / "demo.sol"
    sol_path.write_text(format_solution(result.solution), encoding="utf-8")
    reread = parse_metis(graph_path.read_text(encoding="utf-8"))
    print(f"round-trip: {reread.live_count} vertices, {reread.live_edges} edges; "
          f"solution file {sol_path.stat().st_size} bytes")
