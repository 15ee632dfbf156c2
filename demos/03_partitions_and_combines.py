"""
Partitions, separators, and combine operators
=============================================

Splits a graph into balanced blocks, extracts a vertex separator, and
shows how two parent solutions exchange whole blocks to produce offspring
that need no repair.
"""

import random

from mwis import (InitStrategy, build_initial, build_graph,
                  combine_edge_separator, combine_vertex_separator,
                  edge_partition, separator_from, validate_partition)

rng = random.Random(11)

# Two communities bridged by a few edges.
left = [(u, v) for u in range(6) for v in range(u + 1, 6) if (u + v) % 2]
right = [(u + 6, v + 6) for u, v in left]
bridges = [(2, 8), (4, 7)]
weights = [rng.randint(1, 30) for _ in range(12)]
g = build_graph(left + right + bridges, weights)

# Balanced bisection with 3% slack; the validator walks every contract.
part = edge_partition(g, k=2, epsilon=0.03, rng=rng)
print(f"blocks: {[len(b) for b in part.blocks()]}, "
      f"cut edges: {len(part.cut_edges(g))}, "
      f"violations: {validate_partition(g, part)}")

# Covering each cut edge with one endpoint gives a vertex separator:
# no edge joins two distinct blocks afterwards.
sep = separator_from(g, part)
print(f"separator: {sep.separator()} (cut now {len(sep.cut_edges(g))})")

# Parents built by different constructors.
a = build_initial(g, InitStrategy.GREEDY_WEIGHT_MWIS, rng)
b = build_initial(g, InitStrategy.RANDOM_MWIS, rng)
print(f"parents weigh {a.weight} and {b.weight}")

# Block exchange across the separator: offspring inherit one block from
# each parent and are independent before any repair.
o1, o2 = combine_vertex_separator(g, sep, a, b)
print(f"separator offspring weigh {o1.weight} and {o2.weight}")

# The edge-partition variant trades vertex covers instead and repairs
# the uncovered cut edges with an exact bipartite minimum-weight cover.
o3, o4 = combine_edge_separator(g, part, a, b)
print(f"cover-exchange offspring weigh {o3.weight} and {o4.weight}")
