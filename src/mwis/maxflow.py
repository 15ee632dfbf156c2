"""Exact max-flow min cuts over small integer-capacity networks.

Two solver stages need them.  The edge-separator combine repair
(minimum-weight cover of the conflict edges) builds a small explicit
:class:`FlowNetwork` and augments along shortest paths.  The critical-set
reduction runs many times on one slowly shrinking kernel, so
:class:`DoubleCoverFlow` keeps its flow on the bipartite double cover
between calls and reads the arcs straight from the graph's adjacency
instead of building a network.  The first call starts from a greedy
flow that every edge carries the same both ways; each later call
repairs the kept flow at the vertices whose own arcs or weight changed.
Either way the call then augments from the copies that this start
leaves with spare capacity (every augmenting path starts or ends at one)
with searches that run from both ends at once, and proves the flow
maximum with one forward walk from the source, which also yields the
cut; when that walk reaches the sink, the searches run again from every
copy the source feeds.  It keeps the copies with spare capacity, so a
warm call works in proportion to what changed, never to the graph's
size.  Capacities are plain Python ints, so weights never overflow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .graph import WeightedGraph

class FlowNetwork:
    """Directed flow network; ``add_edge`` creates the residual arc too.

    :meth:`max_flow` pushes each shortest augmenting path's bottleneck until
    the sink is out of reach (Edmonds & Karp, J. ACM 1972).
    """

    def __init__(self, n: int):
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        to, cap = self.to, self.cap
        flow = 0
        while True:
            via = self._reach(s)
            if t not in via:
                return flow
            path, v = [], t
            while v != s:
                path.append(via[v])
                v = to[path[-1] ^ 1]
            pushed = min(cap[e] for e in path)
            for e in path:
                cap[e] -= pushed
                cap[e ^ 1] += pushed
            flow += pushed

    def _reach(self, s: int) -> dict[int, int]:
        """BFS from ``s`` over arcs with residual capacity: each reached
        node maps to the arc that first reached it (``s`` to -1)."""
        head, to, cap = self.head, self.to, self.cap
        via = {s: -1}
        queue = [s]
        for u in queue:
            for e in head[u]:
                v = to[e]
                if cap[e] > 0 and v not in via:
                    via[v] = e
                    queue.append(v)
        return via

    def min_cut_source_side(self, s: int) -> set[int]:
        """Vertices reachable from ``s`` in the residual network.

        Call after :meth:`max_flow`; the returned side induces a minimum cut.
        """
        return set(self._reach(s))


class DoubleCoverFlow:
    """Maximum flow on the bipartite double cover of a graph, kept warm.

    The network is implied by the graph and never stored.  The source
    feeds each left copy L_v with capacity w(v), each right copy R_v drains
    w(v) into the sink, and every edge {u, v} gives uncapacitated arcs
    L_u -> R_v and L_v -> R_u.  The flow lives in per-vertex maps:
    ``out[v][u]`` is the flow on L_v -> R_u and ``into[u][v]`` mirrors it
    (zero entries are deleted); ``sent[v]`` is the flow s -> L_v and
    ``received[u]`` the flow R_u -> t.  Two kept sets name the copies with
    spare capacity: ``spare_l`` holds the alive v with sent[v] < w(v) and
    ``spare_r`` the alive u with received[u] < w(u).  After a maximum flow
    both are small, and only they touch the source or the sink in the
    residual network.

    The owner reports, through :meth:`invalidate`, every vertex whose own
    arcs or weight changed: removed, reweighted and appended vertices and
    at least one end of every added or removed edge (dropping all flow at
    one end drops the flow on that edge).  The next :meth:`min_cut` works
    in three steps:

    1. Repair: drop every flow entry at a stale vertex.  What is left runs
       along unchanged edges between unchanged vertices and still respects
       every capacity, so it is a feasible flow.  The repair notes the
       copies it freed: L_x and R_x of each stale x, the left copies whose
       ``sent`` and the right copies whose ``received`` it lowered.  The
       first call has no flow to repair; it fills the zero flow greedily
       instead (:meth:`_greedy`), and the copies that fill leaves with
       spare capacity count as freed.
    2. Targeted re-augmentation: from each freed left copy with spare
       source capacity, and into each freed right copy with spare sink
       capacity, search an augmenting path and push it, until neither
       search finds one.  Each search runs two BFS at once, one from the
       root and one backward from the spare copies on the far side, and
       always grows the smaller frontier, so it costs about what the
       shorter of the two walks to the meeting point costs.
    3. Check (:meth:`_source_side`): one forward walk from ``spare_l``,
       the copies the source reaches, through the residual network.  It
       stops at the first right copy in ``spare_r``, a path to the sink;
       when it meets none the flow is maximum, and the copies it reached
       form the minimal minimum cut.  Otherwise the searches run again,
       forward from every copy in ``spare_l``, and the check runs again.

    No step of a warm call scans the whole graph, and after a warm
    re-augmentation the check almost always passes.  The first call's
    greedy fill leaves spare capacity only at an independent set of
    vertices.  On paths, stars, random bipartite graphs and road-like
    graphs alike the searches from those finish the flow, and the check
    passes at once.  That call then balances the flow (:meth:`_balance`),
    which keeps the searches of later warm calls short.  Between calls
    the object holds the flow, the two spare sets and the stale vertices,
    and nothing else.

    Why new paths start or end at freed copies: on the first call every
    copy with spare capacity is freed, and every augmenting path starts
    at a left one and ends at a right one.  After the first call the flow
    was maximum before the repair, so the residual network held no
    s-t path.  Arcs between unchanged copies are as they were, less the
    back arcs of the dropped flow, and losing arcs only removes paths; so
    a removed vertex's neighbours keep their other arcs and need no
    invalidation, since all they lose are the arcs to it.  What the repair
    adds are source arcs into freed left copies, sink arcs out of freed
    right copies, and the arcs of stale vertices, among them both arcs of
    every added edge, since one of its ends is stale; a stale L_x carries no
    flow, so only the source enters it, and a stale R_x only drains to the
    sink.  Every new path therefore begins at a freed left copy or ends at
    a freed right copy; its other end is one of the spare copies the
    second BFS starts from.  Augmenting can open paths between other
    copies again, which step 3 catches; it is the only termination check,
    so the result never rests on this argument.

    Why the loop of steps 2 and 3 ends: every augmenting path starts at a
    copy in ``spare_l``, and a search is exhaustive: it returns None only
    when no augmenting path starts at its root.  After a failed check the
    pass from every ``spare_l`` copy therefore pushes at least one unit,
    since until a search pushes, the residual network is the one in which
    the check found a path.  Capacities are integers, so the flow reaches
    its maximum after finitely many passes; augmenting paths alone suffice
    (Edmonds & Karp, J. ACM 1972).
    """

    __slots__ = ("out", "into", "sent", "received", "spare_l", "spare_r", "stale")

    def __init__(self):
        self.out: list[dict[int, int]] = []
        self.into: list[dict[int, int]] = []
        self.sent: list[int] = []
        self.received: list[int] = []
        self.spare_l: set[int] = set()
        self.spare_r: set[int] = set()
        self.stale: set[int] = set()

    def invalidate(self, vertices) -> None:
        """Mark vertices whose weight or own arcs changed since the last cut."""
        self.stale.update(vertices)

    def min_cut(self, g: WeightedGraph) -> set[int]:
        """Augment to a maximum flow on ``g``'s double cover.

        Returns the vertices whose left copy lies on the source side of
        the minimal minimum cut (the copies reachable from the source in
        the residual network) while their right copy does not.  The first
        call starts from the greedy symmetric flow (:meth:`_greedy`)
        rather than from a repaired one, and balances its maximum flow
        (:meth:`_balance`) for the warm calls after it.  Whenever the check
        finds an augmenting path, the searches run again from every copy
        in ``spare_l``.
        """
        cold = not self.sent
        roots = self._repair(g)
        if cold:
            roots = self._greedy(g)
        self._reaugment(g, *roots)
        while (cut := self._source_side(g)) is None:
            self._reaugment(g, list(self.spare_l), ())
        if cold:
            self._balance(g)
        return cut

    def audit(self, g: WeightedGraph) -> None:
        """Raise when the flow maps disagree or break a capacity of ``g``.

        ``out`` and ``into`` must mirror each other with positive entries
        on alive edges only, ``sent`` and ``received`` must equal the row
        sums, at most the weight, and ``spare_l`` and ``spare_r`` must
        name exactly the alive copies below their weight.  Holds right
        after :meth:`min_cut`.
        """
        alive, weight = g.alive, g.weight
        for v in range(g.capacity):
            for u, f in self.out[v].items():
                if f <= 0 or self.into[u].get(v) != f:
                    raise AssertionError(f"arc L{v} -> R{u}: out {f}, into {self.into[u].get(v)}")
                if not (alive[v] and u in g.adj[v]):
                    raise AssertionError(f"flow {f} on L{v} -> R{u}, not an alive edge")
            for u, f in self.into[v].items():
                if self.out[u].get(v) != f:
                    raise AssertionError(f"arc L{u} -> R{v}: into {f}, out {self.out[u].get(v)}")
            sent, received = sum(self.out[v].values()), sum(self.into[v].values())
            if (sent, received) != (self.sent[v], self.received[v]):
                raise AssertionError(f"vertex {v}: sent/received {self.sent[v]}/"
                                     f"{self.received[v]}, arcs carry {sent}/{received}")
            if max(sent, received) > weight[v]:
                raise AssertionError(f"vertex {v}: flow {sent}/{received} over weight {weight[v]}")
        for name, spare, used in (("spare_l", self.spare_l, self.sent),
                                  ("spare_r", self.spare_r, self.received)):
            want = {v for v in g.vertices() if used[v] < weight[v]}
            if spare != want:
                raise AssertionError(f"{name} is off by {sorted(spare ^ want)}")

    def _repair(self, g: WeightedGraph) -> tuple[set[int], set[int]]:
        """Drop the flow at stale vertices; return the freed left and right
        copies."""
        alive, weight = g.alive, g.weight
        out, into, sent, received = self.out, self.into, self.sent, self.received
        spare_l, spare_r = self.spare_l, self.spare_r
        if not sent:  # the first call: no flow to repair, no roots
            self.stale = set()
        for v in range(len(sent), g.capacity):
            out.append({})
            into.append({})
            sent.append(0)
            received.append(0)
            if alive[v] and weight[v]:
                spare_l.add(v)
                spare_r.add(v)
        stale = self.stale
        lefts, rights = set(stale), set(stale)
        for x in stale:
            for u, f in out[x].items():
                received[u] -= f
                del into[u][x]
                rights.add(u)
            for v, f in into[x].items():
                sent[v] -= f
                del out[v][x]
                lefts.add(v)
            out[x].clear()
            into[x].clear()
            sent[x] = received[x] = 0
        spare_l |= lefts
        spare_r |= rights
        for x in stale:
            if not (alive[x] and weight[x]):
                spare_l.discard(x)
                spare_r.discard(x)
        self.stale = set()
        return lefts, rights

    def _greedy(self, g: WeightedGraph) -> tuple[list[int], list[int]]:
        """Fill the zero flow symmetrically; return the copies with spare
        capacity, as the roots of the first re-augmentation.

        Each edge {v, u}, taken once from its lower end v in ascending id
        order, carries the smaller spare room of v and u on L_v -> R_u and
        on L_u -> R_v.  Every copy then carries as much as its twin, so a
        vertex's spare room is the same on both sides, and at least one
        end of every edge has none left: the copies with spare capacity
        belong to an independent set of vertices.
        """
        adj, weight = g.adj, g.weight
        out, into, sent, received = self.out, self.into, self.sent, self.received
        live = g.vertices()
        for v in live:
            room = weight[v] - sent[v]
            if not room:
                continue
            for u in adj[v]:
                if u < v:
                    continue
                f = weight[u] - sent[u]
                if not f:
                    continue
                if f > room:
                    f = room
                out[v][u] = into[u][v] = out[u][v] = into[v][u] = f
                sent[u] = received[u] = sent[u] + f
                room -= f
                if not room:
                    break
            sent[v] = received[v] = weight[v] - room
        spare = [v for v in live if sent[v] < weight[v]]
        self.spare_l, self.spare_r = set(spare), set(spare)
        return spare, spare

    def _balance(self, g: WeightedGraph) -> None:
        """Make the flow on every edge the same both ways, keeping its value.

        Each edge {v, u} gets half of the flow on L_v -> R_u and L_u -> R_v
        both ways, rounded down, which loses a unit on each edge whose
        total is odd.  Walking the trails of those odd edges, from the
        vertices with an odd number of them first, sends each lost unit
        back one way so that every vertex sends as many as it receives,
        or one more of either when its number is odd.  A copy then carries
        half of what its vertex's two copies carried before, plus at most
        half a unit, and an odd number of odd edges means an odd total,
        below twice the weight, so no copy exceeds its weight.  The value
        is kept, so the flow stays maximum.

        After a removal, a symmetric flow frees the left and the right copy
        of the same vertices, by the same amounts, and each vertex mostly
        refills its own right copy through a triangle.  Removing a closed
        neighbourhood from 350-vertex road-like graphs, the warm call then
        read a tenth of the neighbour sets it read after an unbalanced
        maximum flow.
        """
        out, into, sent, received = self.out, self.into, self.sent, self.received
        weight = g.weight
        live = g.vertices()
        odd: dict[int, list[int]] = {}
        for v in live:
            for u in {*out[v], *into[v]}:
                if u < v:
                    continue
                a, b = out[v].get(u, 0), out[u].get(v, 0)
                half = (a + b) >> 1
                for x, y in ((v, u), (u, v)):
                    if half:
                        out[x][y] = into[y][x] = half
                    elif y in out[x]:
                        del out[x][y], into[y][x]
                if (a + b) & 1:
                    odd.setdefault(v, []).append(u)
                    odd.setdefault(u, []).append(v)

        def walk(x: int) -> None:
            while odd[x]:
                y = odd[x].pop()
                odd[y].remove(x)
                out[x][y] = into[y][x] = out[x].get(y, 0) + 1
                x = y

        for x in odd:
            if len(odd[x]) & 1:
                walk(x)
        for x in odd:
            walk(x)
        self.spare_l, self.spare_r = set(), set()
        for v in live:
            sent[v] = sum(out[v].values())
            received[v] = sum(into[v].values())
            if sent[v] < weight[v]:
                self.spare_l.add(v)
            if received[v] < weight[v]:
                self.spare_r.add(v)

    def _reaugment(self, g: WeightedGraph, lefts: Iterable[int],
                   rights: Iterable[int]) -> None:
        """Augment from the left copies ``lefts`` and into the right copies
        ``rights`` until each is saturated or its search finds no augmenting
        path.  The roots are the copies a repair or the greedy fill freed,
        or after a failed check every copy in ``spare_l``."""
        weight = g.weight
        for roots, forward, spare in ((lefts, True, self.spare_l),
                                      (rights, False, self.spare_r)):
            for x in roots:
                while x in spare:
                    path = self._search(g, x, forward)
                    if path is None:
                        break
                    self._augment(path, weight)

    def _search(self, g: WeightedGraph, root: int, forward: bool) -> list[int] | None:
        """Augmenting path from L_root (forward) or into R_root (backward)
        as L, R, ..., R copies, or None.

        Copies alternate between the root's side ("near") and the other
        side ("far").  The root's BFS goes from a near copy to the far
        copies of its neighbours, and from a far copy to the near copies
        it shares flow with (the back arcs).  The ends' BFS walks the same
        arcs backward from the far copies with spare capacity, which end a
        path.  Each step grows the smaller frontier by one layer, and the
        path goes through the first copy both have reached.
        """
        adj = g.adj
        if forward:
            ends, back, back_end = self.spare_r, self.into, self.out
        else:
            ends, back, back_end = self.spare_l, self.out, self.into
        near_prev = {root: -1}  # root's BFS: near copy -> the far copy before it
        far_prev: dict[int, int] = {}  # far copy -> the near copy before it
        near_next: dict[int, int] = {}  # ends' BFS: near copy -> the far copy after it
        far_next: dict[int, int] = {}  # far copy -> the near copy after it
        # Per side and step parity: (arcs, own map, other side's map, ends).
        # The ends' first frontier is listed only if it is grown.
        steps = (((adj, far_prev, far_next, ends), (back, near_prev, near_next, ())),
                 ((adj, near_next, near_prev, ()), (back_end, far_next, far_prev, ())))
        fronts: list = [[root], None]
        done = [0, 0]
        meet = None
        while meet is None:
            size = len(ends) if fronts[1] is None else len(fronts[1])
            if not (fronts[0] and size):
                return None
            side = len(fronts[0]) > size
            if side and fronts[1] is None:
                fronts[1] = list(ends)
            step = steps[side][done[side] & 1]
            done[side] += 1
            fronts[side], meet = _grow(fronts[side], *step)
        if step[1] is far_prev or step[1] is far_next:
            a, b = far_prev[meet], meet
        else:
            a, b = meet, near_next[meet]
        path = [a]
        while a != root:
            far = near_prev[a]
            a = far_prev[far]
            path += (far, a)
        path.reverse()
        path.append(b)
        while b not in ends:
            a = far_next[b]
            b = near_next[a]
            path += (a, b)
        return path if forward else path[::-1]

    def _source_side(self, g: WeightedGraph) -> set[int] | None:
        """The vertices whose left copy the source reaches in the residual
        network while their right copy it does not, or None as soon as the
        forward walk from ``spare_l``, the copies the source reaches, meets
        a right copy in ``spare_r``, which drains to the sink."""
        adj, into, spare_r = g.adj, self.into, self.spare_r
        layer = list(self.spare_l)
        seen_l = dict.fromkeys(layer, -1)
        seen_r: dict[int, int] = {}
        while layer:
            rights, hit = _grow(layer, adj, seen_r, (), spare_r)
            if hit is not None:
                return None
            layer = _grow(rights, into, seen_l, (), ())[0]
        return {v for v in seen_l if v not in seen_r}

    def _augment(self, path: list[int], weight: list[int]) -> None:
        """Push the bottleneck along s -> path -> t."""
        out, into, sent, received = self.out, self.into, self.sent, self.received
        root, last = path[0], path[-1]
        push = min(weight[root] - sent[root], weight[last] - received[last])
        for i in range(1, len(path) - 1, 2):
            push = min(push, into[path[i]][path[i + 1]])
        assert push > 0, f"no room on the augmenting path {path}"
        sent[root] += push
        if sent[root] == weight[root]:
            self.spare_l.discard(root)
        received[last] += push
        if received[last] == weight[last]:
            self.spare_r.discard(last)
        for i in range(0, len(path), 2):
            v, u = path[i], path[i + 1]
            out[v][u] = out[v].get(u, 0) + push
            into[u][v] = into[u].get(v, 0) + push
        for i in range(1, len(path) - 1, 2):
            u, v = path[i], path[i + 1]
            left = into[u][v] - push
            if left:
                into[u][v] = out[v][u] = left
            else:
                del into[u][v], out[v][u]


def _grow(layer: list[int], arcs: list, seen: dict[int, int], other,
          ends) -> tuple[list[int], int | None]:
    """Grow one BFS layer along ``arcs`` past the ``seen`` copies, noting in
    ``seen`` where each new copy came from.  Returns the next layer and
    None, or the first new copy that the other BFS has reached (``other``)
    or starts from (``ends``)."""
    grown = []
    for x in layer:
        for y in arcs[x]:
            if y in seen:
                continue
            seen[y] = x
            if y in other or y in ends:
                return grown, y
            grown.append(y)
    return grown, None
