"""Seeded instance generators for the solve benchmark.

Both generators take the workload seed and return node-weighted METIS
text produced by ``mwis.write_metis``, so the solver only ever sees an
instance through ``parse_metis``.  Weights are uniform in 1..200.
"""

from __future__ import annotations

import hashlib
import math
import random

from mwis import build_graph, write_metis

WEIGHT_RANGE = (1, 200)
# Displacement of a geometric-graph point within its lattice cell, in cells.
JITTER = 0.6


def _weights(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(*WEIGHT_RANGE) for _ in range(n)]


def uniform_gnm(n: int, avg_degree: float, seed: int) -> str:
    """Uniform G(n, m) with m = n * avg_degree / 2 distinct edges."""
    rng = random.Random(f"gnm:{n}:{avg_degree}:{seed}")
    m = int(n * avg_degree / 2)
    if m > n * (n - 1) // 2:
        raise ValueError(f"{m} edges do not fit on {n} vertices")
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return write_metis(build_graph(sorted(edges), _weights(rng, n)))


def geometric(n: int, avg_degree: float, seed: int) -> str:
    """Random geometric graph on a perturbed lattice ("road-like").

    Vertex i sits in its own cell of a near-square lattice on the unit
    torus, displaced uniformly by up to ``JITTER`` of a cell; points closer
    than r are joined, with r chosen for the expected ``avg_degree``.
    Poisson-placed points would make the kernel size swing from empty to
    a tenth of the graph between seeds (percolation-like clustering), so
    no kernel metric could be steady.  Points are bucketed into an r-sized
    cell grid, so generation is near-linear in n + m.
    """
    rng = random.Random(f"geo:{n}:{avg_degree}:{JITTER}:{seed}")
    side = math.isqrt(n - 1) + 1
    rows = (n - 1) // side + 1
    width, height = 1.0, rows / side
    r = math.sqrt(avg_degree * width * height / (n * math.pi))
    pts = []
    for i in range(n):
        cx, cy = i % side, i // side
        pts.append(((cx + 0.5 + JITTER * (rng.random() - 0.5)) / side % width,
                    (cy + 0.5 + JITTER * (rng.random() - 0.5)) / side % height))
    nx, ny = max(1, int(width / r)), max(1, int(height / r))
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(pts):
        cells.setdefault((int(x / width * nx) % nx, int(y / height * ny) % ny), []).append(i)
    r2 = r * r
    edges = set()
    for (cx, cy), members in cells.items():
        near = {((cx + dx) % nx, (cy + dy) % ny) for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
        for cell in near:
            for j in cells.get(cell, ()):
                xj, yj = pts[j]
                for i in members:
                    if i < j:
                        dx = abs(pts[i][0] - xj)
                        dy = abs(pts[i][1] - yj)
                        dx, dy = min(dx, width - dx), min(dy, height - dy)
                        if dx * dx + dy * dy < r2:
                            edges.add((i, j))
    return write_metis(build_graph(sorted(edges), _weights(rng, n)))


GENERATORS = {"gnm": uniform_gnm, "geometric": geometric}


def generate(family: str, n: int, avg_degree: float, seed: int) -> str:
    return GENERATORS[family](n, avg_degree, seed)


def text_hash(text: str) -> str:
    """Short content hash, recorded so two runs can be shown to share input."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
