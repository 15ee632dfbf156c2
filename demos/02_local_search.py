"""
Weighted local search
=====================

Starts from a deliberately bad solution on a ring and watches the two
swap neighborhoods climb out: single-vertex insertions that evict lighter
neighbors, and two-for-one trades found by variable neighborhood descent.
"""

import random

from mwis import (SearchState, brute_force, build_graph, maximize_greedy,
                  omega_one_swap, one_two_swap, perturb, vnd)

rng = random.Random(7)

# A ring of ten vertices with alternating light/heavy weights.
n = 10
weights = [1 if i % 2 else 8 for i in range(n)]
g = build_graph([(i, (i + 1) % n) for i in range(n)], weights)
print(f"ring optimum: {brute_force(g)[0]}")

# Seed the state with a single light vertex and add free vertices,
# heaviest first, until the set is maximal.
state = SearchState(g, {1})
maximize_greedy(state)
print(f"greedy from a bad seed: weight {state.weight}, members {sorted(state.members())}")

# A single insertion swap: vertex 0 outweighs its solution neighbors.
if omega_one_swap(state, 0):
    print(f"insertion swap took vertex 0 -> weight {state.weight}")

# Full descent: alternates both neighborhoods until no move improves.
vnd(state, max_iterations=15_000)
print(f"after descent: weight {state.weight}, members {sorted(state.members())}")

# Perturbation forces random vertices in (evicting their neighbors) and
# re-maximalizes; descent then repairs the damage or keeps the gain.
perturb(state, strength=2, rng=rng)
vnd(state)
print(f"after perturb + descent: weight {state.weight}")

# Two-for-one trades fire on states where one heavy vertex blocks two
# lighter-but-jointly-heavier neighbors.
h = build_graph([(0, 1), (0, 2)], [3, 2, 2])
s = SearchState(h, {0})
one_two_swap(s, 0)
print(f"star trade: members {sorted(s.members())}, weight {s.weight}")
