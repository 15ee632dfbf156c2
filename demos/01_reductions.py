"""
Exact data reductions walkthrough
=================================

Builds a small weighted graph, fires individual reduction rules by hand,
then lets the full reduce loop finish the job and rebuilds an optimal
solution from the event stack.
"""

from mwis import (ORDERING_PRESETS, brute_force, build_graph, exact_reduce,
                  reconstruct)
from mwis.reductions import apply_degree_one, apply_neighborhood_removal

# A 7-vertex instance: a heavy hub, a triangle, and a pendant hanging
# off one triangle corner.
edges = [(0, 1), (0, 2), (3, 6), (4, 5), (4, 6), (5, 6)]
weights = [9, 2, 3, 2, 5, 2, 3]
g = build_graph(edges, weights)
print(f"start: {g.live_count} vertices, {g.live_edges} edges, "
      f"optimum {brute_force(g)[0]}")

# The hub at vertex 0 outweighs its whole neighborhood, so it is safely
# in some optimal solution; the rule removes the closed neighborhood and
# banks the hub's weight as offset.
events = []
fired = apply_neighborhood_removal(g, 0, events)
print(f"hub rule fired={fired}: offset so far "
      f"{sum(e.offset_delta for e in events)}, {g.live_count} vertices left")

# Vertex 3 is a light pendant on 6: its weight transfers onto the
# neighbor, and the rebuild script remembers to take 3 if 6 stays out.
fired = apply_degree_one(g, 3, events)
print(f"pendant rule fired={fired}: vertex 6 now weighs {g.weight[6]}")

# Hand the rest to the exhaustive loop under the default ordering, the
# baseline preset's tuple of rules.
kernel = exact_reduce(g, ORDERING_PRESETS["baseline"], events)
print(f"kernel: {kernel.graph.live_count} vertices, offset {kernel.offset}")

# An empty kernel means the reductions solved the instance outright;
# replaying the events in reverse yields the optimal vertex set.
solution = reconstruct(kernel, set())
total = sum(weights[v] for v in solution)
print(f"reconstructed solution {sorted(solution)} with weight {total}")
