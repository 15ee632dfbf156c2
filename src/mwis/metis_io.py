"""Reader/writer for the node-weighted METIS graph format.

Layout: a header line ``n m fmt`` followed by one line per vertex.  With
``fmt=10`` each vertex line starts with the vertex weight and then lists
its 1-indexed neighbors; ``fmt=0`` lines carry neighbors only and every
vertex gets weight 1.  Lines starting with ``%`` are comments.  Every edge
must appear in the lines of both endpoints.
"""

from __future__ import annotations

from .graph import WeightedGraph

SOLUTION_ENCODING = "utf-8"


class GraphFormatError(ValueError):
    """Raised when a graph file violates the format contract."""


def _int_tokens(line: str, lineno: int) -> list[int]:
    toks = line.split()
    out = []
    for t in toks:
        try:
            out.append(int(t))
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer token {t!r}") from None
    return out


def parse_metis(text: str) -> WeightedGraph:
    """Parse node-weighted METIS text into a graph.

    The header is the first line that is neither blank nor a comment.  The
    n non-comment lines after it are the vertex lines, blank ones included:
    a blank line is an isolated vertex (``fmt`` 0) or, under ``fmt`` 10, a
    missing weight.  Only blank and comment lines may follow them.
    """
    lines = text.splitlines()
    start = next((i for i, ln in enumerate(lines)
                  if ln.strip() and not ln.lstrip().startswith("%")), None)
    if start is None:
        raise GraphFormatError("empty graph file")

    lineno, header = start + 1, lines[start]
    head = _int_tokens(header, lineno)
    if len(head) == 2:
        n, m, fmt = head[0], head[1], 0
    elif len(head) == 3:
        n, m, fmt = head
    else:
        raise GraphFormatError(f"line {lineno}: header must be 'n m' or 'n m fmt'")
    if fmt not in (0, 10):
        raise GraphFormatError(f"line {lineno}: unsupported format {fmt} (want 0 or 10)")
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {lineno}: negative header counts")
    data = [(i, ln) for i, ln in enumerate(lines[start + 1:], start + 2)
            if not ln.lstrip().startswith("%")]
    found = len(data) if len(data) < n else n + sum(1 for _, ln in data[n:] if ln.strip())
    if found != n:
        raise GraphFormatError(f"expected {n} vertex lines, found {found}")

    weights = [1] * n
    adj: list[set[int]] = [set() for _ in range(n)]
    for v, (lineno, line) in enumerate(data[:n]):
        toks = _int_tokens(line, lineno)
        if fmt == 10:
            if not toks:
                raise GraphFormatError(f"line {lineno}: missing vertex weight")
            if toks[0] < 0:
                raise GraphFormatError(f"line {lineno}: negative weight {toks[0]}")
            weights[v] = toks[0]
            toks = toks[1:]
        nbrs = adj[v]
        for t in toks:
            if not (1 <= t <= n):
                raise GraphFormatError(f"line {lineno}: neighbor {t} out of range 1..{n}")
            u = t - 1
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop at vertex {v + 1}")
            if u in nbrs:
                raise GraphFormatError(f"line {lineno}: duplicate neighbor {t}")
            nbrs.add(u)

    entries = 0
    g = WeightedGraph(weights)
    for v in range(n):
        nbrs = adj[v]
        entries += len(nbrs)
        for u in nbrs:
            if v not in adj[u]:
                raise GraphFormatError(
                    f"asymmetric adjacency: edge ({v + 1}, {u + 1}) listed only once")
        g.adj[v] = nbrs
    if entries != 2 * m:
        raise GraphFormatError(f"edge count mismatch: header says {m}, lines carry {entries // 2}")
    g.live_edges = m
    return g


def compact_ids(g: WeightedGraph) -> dict[int, int]:
    """Map alive vertex ids to consecutive 0-based ids in ascending order."""
    return {v: i for i, v in enumerate(g.vertices())}


def write_metis(g: WeightedGraph) -> str:
    """Serialize the alive subgraph; vertices are renumbered 1..live_count."""
    ids = compact_ids(g)
    out = [f"{g.live_count} {g.live_edges} 10"]
    for v in g.vertices():
        row = [str(g.weight[v])]
        row.extend(str(ids[u] + 1) for u in sorted(g.adj[v]))
        out.append(" ".join(row))
    return "\n".join(out) + "\n"


def format_solution(members) -> str:
    """Solution file body: one 0-indexed vertex id per line, ascending."""
    return "".join(f"{v}\n" for v in sorted(set(members)))


def parse_solution(text: str) -> list[int]:
    """Vertex ids from a solution file, in file order (duplicates kept)."""
    ids = []
    for i, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("%"):
            continue
        try:
            ids.append(int(s))
        except ValueError:
            raise GraphFormatError(f"line {i}: non-integer vertex id {s!r}") from None
    return ids
