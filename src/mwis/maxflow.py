"""Exact max-flow min cuts over small integer-capacity networks.

Two solver stages need them.  The edge-separator combine repair
(minimum-weight cover of the conflict edges) builds an explicit
:class:`FlowNetwork`.  The critical-set reduction runs many times on one
slowly shrinking kernel, so :class:`DoubleCoverFlow` keeps its flow on
the bipartite double cover between calls and reads the arcs straight from
the graph's adjacency instead of building a network.  Each call repairs
the flow at the vertices whose own arcs or weight changed, re-augments
from the copies the repair freed (every new augmenting path starts or
ends at one) with searches that run from both ends at once, and then
proves the flow maximum with one search from the source; only when that
finds a path, and on the first call, does push-relabel run.  It keeps
the copies with spare capacity, so a warm call works in proportion to
what changed, never to the graph's size.  Capacities are plain Python
ints, so weights never overflow.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .graph import WeightedGraph

# Push-relabel label of a copy with no path to the sink.
_UNREACHED = 1 << 62


class FlowNetwork:
    """Directed flow network; ``add_edge`` creates the residual arc too."""

    def __init__(self, n: int):
        self.n = n
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
        flow = 0
        while True:
            level = self._bfs_levels(s)
            if level[t] < 0:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, level, it)
                if pushed == 0:
                    break
                flow += pushed

    def _bfs_levels(self, s: int) -> list[int]:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level

    def _dfs(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        """Push one path of the level graph; 0 when none is left.

        Iterative, with current arcs: ``it[u]`` is the next arc of u to
        try, and a dead-end node gets level -1.
        """
        head, to, cap = self.head, self.to, self.cap
        path: list[int] = []  # arcs from s to u
        u = s
        while u != t:
            arcs, i, want = head[u], it[u], level[u] + 1
            while i < len(arcs) and (cap[arcs[i]] <= 0 or level[to[arcs[i]]] != want):
                i += 1
            it[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
                continue
            level[u] = -1
            if not path:
                return 0
            u = to[path.pop() ^ 1]
            it[u] += 1
        pushed = min(cap[e] for e in path)
        for e in path:
            cap[e] -= pushed
            cap[e ^ 1] += pushed
        return pushed

    def min_cut_source_side(self, s: int) -> set[int]:
        """Vertices reachable from ``s`` in the residual network.

        Call after :meth:`max_flow`; the returned side induces a minimum cut.
        """
        return {v for v, lv in enumerate(self._bfs_levels(s)) if lv >= 0}


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
       ``sent`` and the right copies whose ``received`` it lowered.
    2. Targeted re-augmentation: from each freed left copy with spare
       source capacity, and into each freed right copy with spare sink
       capacity, search an augmenting path and push it, until neither
       search finds one.  Each search runs two BFS at once, one from the
       root and one backward from the spare copies on the far side, and
       always grows the smaller frontier, so it costs about what the
       shorter of the two walks to the meeting point costs.
    3. Check: a BFS from ``spare_l``, the copies the source reaches,
       through the residual network.  When it finds no path to the sink
       the flow is maximum, and the copies it reached form the minimal
       minimum cut.  Otherwise push-relabel (:meth:`_push_relabel`)
       augments the flow to a maximum one, and the check runs again.

    No step of a warm call scans the whole graph, and after a warm
    re-augmentation the check almost always passes.  The first call has
    no flow to repair, so its check finds a path at once and push-relabel
    does the work: it moves all excess of the zero flow at the same time,
    where Dinic ran one whole-graph BFS for each path length, up to 55 of
    them on a 13k-vertex road-like kernel.  That call then balances the
    flow (:meth:`_balance`), which keeps the searches of later warm calls
    short.

    Why new paths start or end at freed copies: after the first call the
    flow was maximum before the repair, so the residual network held no
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
    """

    __slots__ = ("out", "into", "sent", "received", "spare_l", "spare_r", "stale",
                 "label_l", "label_r", "excess")

    def __init__(self):
        self.out: list[dict[int, int]] = []
        self.into: list[dict[int, int]] = []
        self.sent: list[int] = []
        self.received: list[int] = []
        self.spare_l: set[int] = set()
        self.spare_r: set[int] = set()
        self.stale: set[int] = set()
        # Push-relabel state by vertex id, clear between calls: the labels
        # of both copies (``_UNREACHED``) and the left copy's excess (0).
        self.label_l: list[int] = []
        self.label_r: list[int] = []
        self.excess: list[int] = []

    def invalidate(self, vertices) -> None:
        """Mark vertices whose weight or own arcs changed since the last cut."""
        self.stale.update(vertices)

    def min_cut(self, g: WeightedGraph) -> set[int]:
        """Augment to a maximum flow on ``g``'s double cover.

        Returns the vertices whose left copy lies on the source side of
        the minimal minimum cut (the copies reachable from the source in
        the residual network) while their right copy does not.  The first
        call balances its maximum flow (:meth:`_balance`) for the warm
        calls after it.
        """
        cold = not self.sent
        self._reaugment(g, *self._repair(g))
        while True:
            lev_l, lev_r, t_level = self._levels(g)
            if t_level < 0:
                return {v for v in lev_l if v not in lev_r}
            self._push_relabel(g)
            if cold:
                self._balance(g)
                cold = False

    def audit(self, g: WeightedGraph) -> None:
        """Raise when the flow maps disagree or break a capacity of ``g``.

        ``out`` and ``into`` must mirror each other with positive entries
        on alive edges only, ``sent`` and ``received`` must equal the row
        sums, at most the weight, and ``spare_l`` and ``spare_r`` must
        name exactly the alive copies below their weight, and the
        push-relabel state must be clear.  Holds right after
        :meth:`min_cut`.
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
        if any(self.excess) or {*self.label_l, *self.label_r} - {_UNREACHED}:
            raise AssertionError("push-relabel left excess or labels behind")

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
            self.label_l.append(_UNREACHED)
            self.label_r.append(_UNREACHED)
            self.excess.append(0)
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
        read a tenth of the neighbour sets it read from the unbalanced
        push-relabel flow.
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

    def _reaugment(self, g: WeightedGraph, lefts: set[int], rights: set[int]) -> None:
        """Augment from the freed left copies and into the freed right copies
        until each is saturated or known to lie on no augmenting path.

        A copy that a failed search reached from its root lies on no
        augmenting path, and augmenting never changes that: what it
        reaches (forward search) or what reaches it (backward search) is
        disjoint from the augmented path, the only place where arcs
        change.  Every later search of this call skips such copies.
        """
        weight = g.weight
        dead_l: set[int] = set()
        dead_r: set[int] = set()
        for roots, forward, spare, dead in ((lefts, True, self.spare_l, dead_l),
                                            (rights, False, self.spare_r, dead_r)):
            for x in roots:
                while x in spare and x not in dead:
                    path = self._search(g, x, forward, dead_l, dead_r)
                    if path is None:
                        break
                    self._augment(path, weight)

    def _search(self, g: WeightedGraph, root: int, forward: bool,
                dead_l: set[int], dead_r: set[int]) -> list[int] | None:
        """Augmenting path from L_root (forward) or into R_root (backward)
        as L, R, ..., R copies, or None after marking every copy reached
        from the root dead.

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
            ends, back, back_end, dead_near, dead_far = (
                self.spare_r, self.into, self.out, dead_l, dead_r)
        else:
            ends, back, back_end, dead_near, dead_far = (
                self.spare_l, self.out, self.into, dead_r, dead_l)
        near_prev = {root: -1}  # root's BFS: near copy -> the far copy before it
        far_prev: dict[int, int] = {}  # far copy -> the near copy before it
        near_next: dict[int, int] = {}  # ends' BFS: near copy -> the far copy after it
        far_next: dict[int, int] = {}  # far copy -> the near copy after it
        # Per side and step parity: (arcs, own map, dead copies, other side's
        # map, ends).  The ends' first frontier is listed only if it is grown.
        steps = (((adj, far_prev, dead_far, far_next, ends),
                  (back, near_prev, dead_near, near_next, ())),
                 ((adj, near_next, dead_near, near_prev, ()),
                  (back_end, far_next, dead_far, far_prev, ())))
        fronts: list = [[root], None]
        done = [0, 0]
        meet = None
        while meet is None:
            size = len(ends) if fronts[1] is None else len(fronts[1])
            if not (fronts[0] and size):
                dead_near.update(near_prev)
                dead_far.update(far_prev)
                return None
            side = len(fronts[0]) > size
            if side and fronts[1] is None:
                fronts[1] = [b for b in ends if b not in dead_far]
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

    def _levels(self, g: WeightedGraph) -> tuple[dict[int, int], dict[int, int], int]:
        """BFS levels of the residual network, for the copies reached only,
        and the sink's level, or -1 when the flow is maximum.  Left copies
        sit at odd levels, right copies at even ones; a search stops at the
        first right copy in ``spare_r``, one that finds none labels every
        reachable copy.  It starts at ``spare_l``, the copies the source
        reaches."""
        adj, into, spare_r = g.adj, self.into, self.spare_r
        layer = list(self.spare_l)
        lev_l = dict.fromkeys(layer, 1)
        lev_r: dict[int, int] = {}
        depth = 1
        while layer:
            rights = []
            for v in layer:
                for u in adj[v]:
                    if u not in lev_r:
                        if u in spare_r:
                            return lev_l, lev_r, depth + 2
                        lev_r[u] = depth + 1
                        rights.append(u)
            depth += 2
            layer = []
            for u in rights:
                for v in into[u]:
                    if v not in lev_l:
                        lev_l[v] = depth
                        layer.append(v)
        return lev_l, lev_r, -1

    def _push_relabel(self, g: WeightedGraph) -> None:
        """Augment the flow to a maximum one by push-relabel.

        It saturates the source arc of every ``spare_l`` copy, so the
        excess sits at those left copies only, and first pushes it
        straight on to the sink through neighbours with spare capacity.
        Then it discharges the left copy of highest label until none with
        excess can reach the sink.  Labels are residual distances to the
        sink, left copies even and right copies odd.  A left copy at label
        d pushes through each right neighbour R at label d - 1 at once
        (a double push): R passes the excess on into the sink, when d is
        2, or back along the flow it receives from left copies at label
        d - 2.  A right copy left with nothing to pass takes the smallest
        label of the copies it could pass to, plus one; so does a left
        copy that still has excess after its neighbours.  Right copies
        thus never hold excess, and a relabel always stays finite: a right
        copy with a label keeps spare sink capacity or a sender with one,
        because whatever takes either away passes through it and becomes
        a sender.

        :meth:`_relabel_all` sets the labels exactly at the start and
        again whenever relabelling has scanned half as many arcs as that
        BFS did; labels only grow, and every round discharges a copy, so
        the loop ends.  Excess at copies that the BFS finds out of reach
        of the sink goes back to the source at the end, which lowers
        ``sent`` and puts the copy in ``spare_l``.  Only these copies are
        left with spare source capacity, and right copies leave
        ``spare_r`` as they saturate.
        """
        adj, weight = g.adj, g.weight
        out, into, sent, received = self.out, self.into, self.sent, self.received
        label_l, label_r, excess = self.label_l, self.label_r, self.excess
        spare_r = self.spare_r
        active = []
        for v in self.spare_l:
            e = weight[v] - sent[v]
            sent[v] = weight[v]
            flows = out[v]
            for u in adj[v]:
                room = weight[u] - received[u]
                if not room:
                    continue
                if room > e:
                    room = e
                else:
                    spare_r.discard(u)
                received[u] += room
                flows[u] = flows.get(u, 0) + room
                into[u][v] = into[u].get(v, 0) + room
                e -= room
                if not e:
                    break
            if e:
                excess[v] = e
                active.append(v)
        held: list[int] = []  # out of reach of the sink
        emptied: list[int] = []  # senders whose flow a pass cancelled
        reached_l: list[int] = []
        reached_r: list[int] = []
        while active:
            budget = self._relabel_all(g, reached_l, reached_r) // 2
            buckets: list[list[int]] = [[] for _ in range(len(reached_r) + 2)]
            for v in active:
                d = label_l[v]
                (held if d == _UNREACHED else buckets[d >> 1]).append(v)
            top = len(buckets) - 1
            while True:
                while top and not buckets[top]:
                    top -= 1
                if not top or budget < 0:
                    break
                v = buckets[top].pop()
                d = top << 1
                e = excess[v]
                flows = out[v]
                for u in adj[v]:
                    if label_r[u] != d - 1:
                        continue
                    passed = 0
                    room = weight[u] - received[u]
                    if room:  # only at label 1
                        if room > e:
                            room = e
                        else:
                            spare_r.discard(u)
                        received[u] += room
                        passed = room
                        e -= room
                    back = into[u]
                    if e:
                        for z, f in back.items():
                            if label_l[z] != d - 2:
                                continue
                            if f > e:
                                back[z] = out[z][u] = f - e
                                f = e
                            else:
                                emptied.append(z)
                            if not excess[z]:
                                buckets[top - 1].append(z)
                            excess[z] += f
                            passed += f
                            e -= f
                            if not e:
                                break
                        for z in emptied:
                            del back[z], out[z][u]
                        emptied.clear()
                    if passed:
                        flows[u] = flows.get(u, 0) + passed
                        back[v] = back.get(v, 0) + passed
                    if not e:
                        break
                    label_r[u] = min(map(label_l.__getitem__, back)) + 1
                    budget -= len(back)
                excess[v] = e
                if e:
                    d = label_l[v] = min(map(label_r.__getitem__, adj[v])) + 1
                    budget -= len(adj[v])
                    top = d >> 1
                    while top >= len(buckets):
                        buckets.append([])
                    buckets[top].append(v)
            active = [v for bucket in buckets[:top + 1] for v in bucket]
        for v in held:
            sent[v] -= excess[v]
            excess[v] = 0
        self.spare_l = set(held)
        for v in reached_l:
            label_l[v] = _UNREACHED
        for u in reached_r:
            label_r[u] = _UNREACHED

    def _relabel_all(self, g: WeightedGraph, reached_l: list[int],
                     reached_r: list[int]) -> int:
        """Label every copy with its distance to the sink in the residual
        network, by a BFS backward from ``spare_r``, or ``_UNREACHED``.

        ``reached_l`` and ``reached_r`` hold the copies the previous run
        labelled, which are the only ones relabelling can have touched;
        they are cleared and refilled, so no list is walked whole.  Returns
        the number of arcs the BFS scanned.
        """
        adj, out = g.adj, self.out
        label_l, label_r = self.label_l, self.label_r
        for v in reached_l:
            label_l[v] = _UNREACHED
        for u in reached_r:
            label_r[u] = _UNREACHED
        reached_l.clear()
        reached_r[:] = layer = list(self.spare_r)
        for u in layer:
            label_r[u] = 1
        arcs = 0
        depth = 1
        while layer:
            lefts = []
            for u in layer:
                arcs += len(adj[u])
                for v in adj[u]:
                    if label_l[v] == _UNREACHED:
                        label_l[v] = depth + 1
                        lefts.append(v)
            reached_l += lefts
            depth += 2
            layer = []
            for v in lefts:
                arcs += len(out[v])
                for u in out[v]:
                    if label_r[u] == _UNREACHED:
                        label_r[u] = depth
                        layer.append(u)
            reached_r += layer
        return arcs

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


def _grow(layer: list[int], arcs: list, seen: dict[int, int], dead: set[int],
          other: dict[int, int], ends) -> tuple[list[int], int | None]:
    """Grow one BFS layer along ``arcs`` past the ``seen`` and ``dead``
    copies, noting in ``seen`` where each new copy came from.  Returns the
    next layer and None, or the first new copy that the other BFS has
    reached (``other``) or starts from (``ends``)."""
    grown = []
    for x in layer:
        for y in arcs[x]:
            if y in seen or y in dead:
                continue
            seen[y] = x
            if y in other or y in ends:
                return grown, y
            grown.append(y)
    return grown, None
