"""
Reduction ordering experiments
==============================

The order in which the reduce loop tries its rules changes kernel size,
banked offset, and running time.  An ordering is a tuple of rules, and
``ORDERING_EXPERIMENTS`` maps each family to its labelled orderings.  This
script sweeps the named presets and the leave-one-rule-out family on one
random instance.
"""

import random

from mwis import (ORDERING_EXPERIMENTS, ORDERING_PRESETS, build_graph,
                  run_ordering_experiment)

rng = random.Random(13)
n = 60
edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.08]
weights = [rng.randint(1, 200) for _ in range(n)]
g = build_graph(edges, weights)

print("preset sweep:")
for row in run_ordering_experiment(g, ORDERING_EXPERIMENTS["preset-sweep"]):
    print(f"  {row.label:<12} kernel {row.kernel_vertices:>3} vertices "
          f"(|K|/|V| {row.kernel_ratio:.2f}) offset {row.offset:>5} "
          f"in {row.elapsed_seconds * 1000:.1f} ms")

print("\nleave one rule out (baseline order):")
for row in run_ordering_experiment(g, ORDERING_EXPERIMENTS["disable-one"]):
    print(f"  {row.label:<45} kernel {row.kernel_vertices:>3} "
          f"offset {row.offset:>5}")

base = ORDERING_PRESETS["baseline"]
print(f"\nbaseline order: {', '.join(r.value for r in base)}")
