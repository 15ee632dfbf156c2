"""Exact data reductions, the exhaustive reduce loop, and solution rebuild.

Thirteen rules shrink the graph while an integer offset tracks the weight
already banked.  The master identity, checked throughout the test suite:

    offset + alpha_w(kernel) == alpha_w(original graph)

Each firing appends one :class:`ReductionEvent` holding (a) low-level undo
primitives that restore the graph exactly and (b) a small rebuild script
that, replayed in reverse over a kernel solution, produces an independent
set of the original graph.

Most rules are a guard in front of one of three shared moves:

* take (bank an independent set, delete its closed neighborhood):
  neighborhood removal, isolated clique, critical set (CWIS), and the
  take cases of v-shape and twin;
* simplicial cash-in (bank w(v) for a vertex whose neighborhood is a
  clique, delete the mates no heavier than v, discount the rest):
  degree one, triangle and simplicial transfer;
* fold (merge an independent neighborhood and its centers into one
  vertex): neighborhood folding and the fold cases of v-shape and twin.

The v-shape rewiring, v-shape min and the three edge rules (basic and
extended single edge, domination) write their own mutations.  Basic single
edge subsumes the other two: where it comes before them in an ordering, the
reduce loop does not queue them, since they could fire only where it
already has.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

from .graph import WeightedGraph, is_independent
from .maxflow import DoubleCoverFlow


class Rule(Enum):
    # Each value is the suffix of the rule's ``apply_*`` function in this
    # module; exact_reduce finds the function by that name (``_resolve``).
    NEIGHBORHOOD_REMOVAL = "neighborhood_removal"
    DEGREE_ONE = "degree_one"
    TRIANGLE = "triangle"
    V_SHAPE = "v_shape"
    V_SHAPE_MIN = "v_shape_min"
    ISOLATED_CLIQUE = "isolated_clique"
    BASIC_SINGLE_EDGE = "basic_single_edge"
    EXTENDED_SINGLE_EDGE = "extended_single_edge"
    DOMINATION = "domination"
    TWIN = "twin"
    SIMPLICIAL_TRANSFER = "simplicial_transfer"
    CWIS = "cwis"
    NEIGHBORHOOD_FOLDING = "neighborhood_folding"


# Undo primitives recorded while a rule mutates the graph, replayed in
# reverse by undo_event:
#   ("rm", v, neighbor_snapshot)   vertex removed
#   ("wt", v, old_weight)          weight changed
#   ("ea", u, v) / ("er", u, v)    edge added / removed between alive vertices
#   ("nv", v)                      fresh vertex appended

# Rebuild scripts, replayed newest-first over the growing solution
# (unconditional decisions travel in ``decided`` instead):
#   ("if_absent_take", others, v)     add v when no member of others is taken
#   ("toggle_on_absent", others, v)   add v when others are absent, else drop it
#   ("fold", fold_vertex, members, else_add)


@dataclass
class ReductionEvent:
    """One journaled decision: a rule firing, or (``rule`` None) a forcing."""

    rule: Rule | None
    undo_ops: list[tuple] = field(default_factory=list)
    offset_delta: int = 0
    decided: tuple[int, ...] = ()
    rebuild: tuple = ()

    def touched(self) -> set[int]:
        """Vertices whose adjacency or weight this event changed."""
        out = set()
        for op in self.undo_ops:
            if op[0] == "rm":
                out.add(op[1])
                out.update(op[2])
            elif op[0] in ("ea", "er"):
                out.add(op[1])
                out.add(op[2])
            else:
                out.add(op[1])
        return out

    def changed(self) -> set[int]:
        """Vertices the critical-set flow must drop: removed, reweighted and
        appended vertices and one end of each added or removed edge.  Once
        all flow at that end is dropped, none is left on the edge, and the
        edge's new arcs touch only freed copies.  A removed vertex's
        neighbours are not among them; all they lost is the edge to it."""
        return {op[1] for op in self.undo_ops}


def undo_event(g: WeightedGraph, ev: ReductionEvent) -> None:
    """Restore the graph to its exact state before ``ev``."""
    for op in reversed(ev.undo_ops):
        kind = op[0]
        if kind == "rm":
            g.restore_vertex(op[1], op[2])
        elif kind == "wt":
            g.set_vertex_weight(op[1], op[2])
        elif kind == "ea":
            g.remove_edge(op[1], op[2])
        elif kind == "er":
            g.add_edge(op[1], op[2])
        elif kind == "nv":
            g.pop_last_vertex()
        else:  # pragma: no cover - internal corruption
            raise AssertionError(f"unknown undo op {kind}")


# -- journaled mutation helpers -------------------------------------------

def _rm(g: WeightedGraph, v: int, ops: list[tuple]) -> None:
    ops.append(("rm", v, g.remove_vertex(v)))


def _set_w(g: WeightedGraph, v: int, w: int, ops: list[tuple]) -> None:
    ops.append(("wt", v, g.weight[v]))
    g.set_vertex_weight(v, w)


def _add_edge(g: WeightedGraph, u: int, v: int, ops: list[tuple]) -> None:
    g.add_edge(u, v)
    ops.append(("ea", u, v))


def _rm_edge(g: WeightedGraph, u: int, v: int, ops: list[tuple]) -> None:
    g.remove_edge(u, v)
    ops.append(("er", u, v))


def _new_vertex(g: WeightedGraph, w: int, ops: list[tuple]) -> int:
    v = g.add_vertex(w)
    ops.append(("nv", v))
    return v


def _is_clique(g: WeightedGraph, vertices) -> bool:
    vs = sorted(vertices)
    for i, u in enumerate(vs):
        nbrs = g.adj[u]
        for v in vs[i + 1:]:
            if v not in nbrs:
                return False
    return True


# -- the three shared moves -------------------------------------------------
# Each banks weight by one identity of Lamm et al. (ALENEX 2019), journals
# its mutations and appends one event.

def _take(g: WeightedGraph, rule: Rule | None, chosen, events: list[ReductionEvent]) -> bool:
    """Bank the independent set ``chosen`` and delete its closed neighborhood."""
    chosen = sorted(chosen)
    doomed = set()
    for v in chosen:
        doomed.update(g.adj[v])
    doomed.difference_update(chosen)
    ops: list[tuple] = []
    for u in sorted(doomed):
        _rm(g, u, ops)
    for v in chosen:
        _rm(g, v, ops)
    events.append(ReductionEvent(rule, ops, offset_delta=sum(g.weight[v] for v in chosen),
                                 decided=tuple(chosen)))
    return True


def _cash_simplicial(g: WeightedGraph, rule: Rule, v: int,
                     events: list[ReductionEvent]) -> bool:
    """Bank w(v) for a vertex whose neighborhood is a clique.

    Some maximum set holds v or one clique mate.  Mates no heavier than v
    go with v; the heavier ones are discounted by w(v) and v is taken back
    when none of them ends up in the solution.
    """
    wv = g.weight[v]
    heavy = sorted(u for u in g.adj[v] if g.weight[u] > wv)
    if not heavy:
        return _take(g, rule, (v,), events)
    ops: list[tuple] = []
    for u in sorted(u for u in g.adj[v] if g.weight[u] <= wv):
        _rm(g, u, ops)
    _rm(g, v, ops)
    for u in heavy:
        _set_w(g, u, g.weight[u] - wv, ops)
    events.append(ReductionEvent(rule, ops, offset_delta=wv,
                                 rebuild=("if_absent_take", tuple(heavy), v)))
    return True


def _fold(g: WeightedGraph, rule: Rule, centers, members,
          events: list[ReductionEvent]) -> bool:
    """Fold the independent ``members`` and the ``centers`` whose whole
    neighborhood they are into one vertex of weight w(members) - w(centers).

    Banks w(centers): a solution holding the fold vertex takes the members
    instead, and one without it takes the centers.
    """
    members, centers = tuple(sorted(members)), tuple(sorted(centers))
    outside = set()
    for u in members:
        outside.update(g.adj[u])
    outside.difference_update(members, centers)
    ops: list[tuple] = []
    for u in members + centers:
        _rm(g, u, ops)
    w_centers = sum(g.weight[v] for v in centers)
    fold = _new_vertex(g, sum(g.weight[u] for u in members) - w_centers, ops)
    for u in sorted(outside):
        _add_edge(g, fold, u, ops)
    events.append(ReductionEvent(rule, ops, offset_delta=w_centers,
                                 rebuild=("fold", fold, members, centers)))
    return True


# -- the thirteen rules ----------------------------------------------------
# Every apply_* takes alive arguments, returns True iff it fired, and on
# True appends exactly one event to ``events``.

def apply_neighborhood_removal(g: WeightedGraph, v: int, events: list[ReductionEvent]) -> bool:
    """Take v outright when it outweighs its whole neighborhood."""
    # Weights are non-negative, so the room left only shrinks: stop as soon
    # as it is negative.
    weight = g.weight
    room = weight[v]
    for u in g.adj[v]:
        room -= weight[u]
        if room < 0:
            return False
    return _take(g, Rule.NEIGHBORHOOD_REMOVAL, (v,), events)


def apply_degree_one(g: WeightedGraph, v: int, events: list[ReductionEvent]) -> bool:
    """Resolve a pendant vertex against its single neighbor."""
    if g.degree(v) != 1:
        return False
    return _cash_simplicial(g, Rule.DEGREE_ONE, v, events)


def _two_neighbors(g: WeightedGraph, v: int) -> tuple[int, int]:
    """Neighbors of a degree-two vertex, lighter first (ties: lower id)."""
    a, b = sorted(g.adj[v])
    if (g.weight[a], a) <= (g.weight[b], b):
        return a, b
    return b, a


def apply_triangle(g: WeightedGraph, v: int, events: list[ReductionEvent]) -> bool:
    """Resolve a degree-two vertex whose neighbors are adjacent."""
    if g.degree(v) != 2:
        return False
    x, y = g.adj[v]
    if y not in g.adj[x]:
        return False
    return _cash_simplicial(g, Rule.TRIANGLE, v, events)


def apply_v_shape(g: WeightedGraph, v: int, events: list[ReductionEvent]) -> bool:
    """Resolve a degree-two vertex with non-adjacent neighbors.

    Covers the take-v and fold cases plus the middle-weight rewiring; the
    lighter-than-both case lives in :func:`apply_v_shape_min`.
    """
    if g.degree(v) != 2:
        return False
    x, y = _two_neighbors(g, v)
    if y in g.adj[x]:
        return False
    wv, wx, wy = g.weight[v], g.weight[x], g.weight[y]
    if wv < wx:
        return False
    if wv >= wx + wy:
        return _take(g, Rule.V_SHAPE, (v,), events)
    if wv >= wy:
        return _fold(g, Rule.V_SHAPE, (v,), (x, y), events)
    ops: list[tuple] = []
    gained = sorted(g.adj[y] - g.adj[x] - {v, x})
    _rm(g, v, ops)
    for u in gained:
        _add_edge(g, x, u, ops)
    _set_w(g, y, wy - wv, ops)
    events.append(ReductionEvent(Rule.V_SHAPE, ops, offset_delta=wv,
                                 rebuild=("if_absent_take", (x, y), v)))
    return True


def apply_v_shape_min(g: WeightedGraph, v: int, events: list[ReductionEvent]) -> bool:
    """Degree-two vertex strictly lighter than both non-adjacent neighbors.

    Discounts both neighbors by w(v) and rewires v to their outside
    neighborhoods; no vertex is removed.  Skipped for w(v)=0, where the
    rewrite would bank nothing and make no progress.
    """
    if g.degree(v) != 2 or g.weight[v] < 1:
        return False
    x, y = _two_neighbors(g, v)
    if y in g.adj[x]:
        return False
    wv = g.weight[v]
    if wv >= g.weight[x]:
        return False
    ops: list[tuple] = []
    new_nbrs = sorted((g.adj[x] | g.adj[y]) - {v, x, y})
    _rm_edge(g, v, x, ops)
    _rm_edge(g, v, y, ops)
    for u in new_nbrs:
        _add_edge(g, v, u, ops)
    _set_w(g, x, g.weight[x] - wv, ops)
    _set_w(g, y, g.weight[y] - wv, ops)
    events.append(ReductionEvent(Rule.V_SHAPE_MIN, ops, offset_delta=wv,
                                 rebuild=("toggle_on_absent", (x, y), v)))
    return True


def apply_isolated_clique(g: WeightedGraph, v: int, events: list[ReductionEvent]) -> bool:
    """Take a simplicial vertex that is heaviest in its clique."""
    nbrs, weight = g.adj[v], g.weight
    wv = weight[v]
    for u in nbrs:
        if weight[u] > wv:
            return False
    if not _is_clique(g, nbrs):
        return False
    return _take(g, Rule.ISOLATED_CLIQUE, (v,), events)


def apply_basic_single_edge(g: WeightedGraph, u: int, v: int,
                            events: list[ReductionEvent]) -> bool:
    """Drop v along edge (u, v) when u's exclusive neighborhood is light.

    Fires when w(v) plus the weight of N(u) outside N[v] is at most w(u):
    any solution through v can be rerouted through u at no loss.
    """
    if v not in g.adj[u]:
        return False
    # Weights are non-negative, so the room left only shrinks: stop as
    # soon as it is negative.
    weight, adj_v = g.weight, g.adj[v]
    room = weight[u] - weight[v]
    if room < 0:
        return False
    for z in g.adj[u]:
        if z != v and z not in adj_v:
            room -= weight[z]
            if room < 0:
                return False
    ops: list[tuple] = []
    _rm(g, v, ops)
    events.append(ReductionEvent(Rule.BASIC_SINGLE_EDGE, ops))
    return True


def apply_extended_single_edge(g: WeightedGraph, u: int, v: int,
                               events: list[ReductionEvent]) -> bool:
    """Remove the common neighborhood of a dominatingly heavy edge side."""
    adj_u, adj_v = g.adj[u], g.adj[v]
    if u not in adj_v:
        return False
    weight = g.weight
    room = weight[v] + weight[u]
    for z in adj_v:
        room -= weight[z]
        if room < 0:
            return False
    if adj_u.isdisjoint(adj_v):
        return False
    ops: list[tuple] = []
    for z in sorted(adj_u & adj_v):
        _rm(g, z, ops)
    events.append(ReductionEvent(Rule.EXTENDED_SINGLE_EDGE, ops))
    return True


def apply_domination(g: WeightedGraph, u: int, v: int,
                     events: list[ReductionEvent]) -> bool:
    """Remove u when its closed neighborhood covers v's and it is no heavier."""
    if v not in g.adj[u] or g.weight[u] > g.weight[v]:
        return False
    if g.degree(u) < g.degree(v):
        return False
    # u is in N(v) and not in N(u), so N(v) - N(u) holds u at least.
    if len(g.adj[v] - g.adj[u]) > 1:
        return False
    ops: list[tuple] = []
    _rm(g, u, ops)
    events.append(ReductionEvent(Rule.DOMINATION, ops))
    return True


def apply_twin(g: WeightedGraph, u: int, v: int, events: list[ReductionEvent]) -> bool:
    """Resolve two degree-three vertices sharing their whole neighborhood."""
    if u == v or g.degree(u) != 3 or g.degree(v) != 3 or g.adj[u] != g.adj[v]:
        return False
    nbrs = g.adj[u]
    w_pair = g.weight[u] + g.weight[v]
    w_nbrs = sum(g.weight[z] for z in nbrs)
    if w_pair >= w_nbrs:
        return _take(g, Rule.TWIN, (u, v), events)
    if w_pair <= w_nbrs - min(g.weight[z] for z in nbrs):
        return False
    if not is_independent(g, nbrs):
        return False
    return _fold(g, Rule.TWIN, (u, v), nbrs, events)


def apply_simplicial_transfer(g: WeightedGraph, v: int,
                              events: list[ReductionEvent]) -> bool:
    """Cash in a simplicial vertex, discounting its heavier clique mates."""
    if not _is_clique(g, g.adj[v]):
        return False
    return _cash_simplicial(g, Rule.SIMPLICIAL_TRANSFER, v, events)


def critical_set(g: WeightedGraph,
                 flow: DoubleCoverFlow | None = None) -> tuple[set[int], int]:
    """Independent set maximizing w(U) - w(N(U)), with that value.

    Solved as a max-closure problem on the bipartite double cover: picking
    v's left copy (profit w(v)) forces the right copies of its neighbors
    (cost w(u)).  After the min cut, U is the set of vertices whose left
    copy stays on the source side while the right copy does not; such a U
    is independent by the closure constraints.

    ``flow`` carries a maximum flow over from an earlier call on the same
    graph; without it, or on its first call, the flow starts from a
    greedy one that every edge carries the same both ways
    (:meth:`DoubleCoverFlow.min_cut`).  Every vertex whose weight
    or own arcs changed since that call must have been passed to
    ``flow.invalidate``: removed, reweighted and appended vertices and one
    end of every added or removed edge (:meth:`ReductionEvent.changed`).
    A removed vertex's neighbours need not be, because the flow on their
    edges to it goes with the removed vertex's own.  Dropping the flow at
    those vertices leaves a feasible flow to augment.  The answer does not
    depend on where the flow started: the copies reachable from the source
    in the residual network are the same for every maximum flow (they form
    the minimal minimum cut), so warm and cold calls return the same U.
    """
    chosen = (flow if flow is not None else DoubleCoverFlow()).min_cut(g)
    boundary = set()
    for v in chosen:
        boundary.update(g.adj[v])
    boundary -= chosen
    value = sum(g.weight[v] for v in chosen) - sum(g.weight[v] for v in boundary)
    return chosen, value


def apply_cwis(g: WeightedGraph, events: list[ReductionEvent],
               flow: DoubleCoverFlow | None = None) -> bool:
    """Bank the critical independent set when it is nonempty.

    The minimal min cut yields the smallest set of best surplus.  When the
    best surplus is zero the empty set attains it, so a nonempty set
    always has a positive surplus.  ``flow`` is passed on to
    :func:`critical_set`.
    """
    chosen, value = critical_set(g, flow)
    if not chosen:
        return False
    assert value > 0 and is_independent(g, chosen)
    return _take(g, Rule.CWIS, chosen, events)


def apply_neighborhood_folding(g: WeightedGraph, v: int,
                               events: list[ReductionEvent]) -> bool:
    """Fold v and its independent neighborhood into one surplus vertex."""
    adj, nbrs = g.adj, g.adj[v]
    if not nbrs:
        return False
    for u in nbrs:
        if not nbrs.isdisjoint(adj[u]):
            return False
    weight, wv = g.weight, g.weight[v]
    w_nbrs = sum(weight[u] for u in nbrs)
    if w_nbrs <= wv or w_nbrs - min(weight[u] for u in nbrs) >= wv:
        return False
    return _fold(g, Rule.NEIGHBORHOOD_FOLDING, (v,), nbrs, events)


# -- orderings --------------------------------------------------------------

_R = Rule
ORDERING_PRESETS: dict[str, tuple[Rule, ...]] = {
    "baseline": (
        _R.NEIGHBORHOOD_REMOVAL, _R.DEGREE_ONE, _R.TRIANGLE, _R.V_SHAPE,
        _R.V_SHAPE_MIN, _R.ISOLATED_CLIQUE, _R.BASIC_SINGLE_EDGE,
        _R.EXTENDED_SINGLE_EDGE, _R.DOMINATION, _R.TWIN,
        _R.SIMPLICIAL_TRANSFER, _R.CWIS, _R.NEIGHBORHOOD_FOLDING,
    ),
    "time": (
        _R.BASIC_SINGLE_EDGE, _R.ISOLATED_CLIQUE, _R.V_SHAPE, _R.TWIN,
        _R.DEGREE_ONE, _R.NEIGHBORHOOD_REMOVAL, _R.EXTENDED_SINGLE_EDGE,
        _R.V_SHAPE_MIN, _R.TRIANGLE, _R.DOMINATION, _R.SIMPLICIAL_TRANSFER,
        _R.CWIS, _R.NEIGHBORHOOD_FOLDING,
    ),
    "weight": (
        _R.ISOLATED_CLIQUE, _R.CWIS, _R.NEIGHBORHOOD_FOLDING,
        _R.BASIC_SINGLE_EDGE, _R.V_SHAPE, _R.V_SHAPE_MIN, _R.TWIN,
        _R.DOMINATION, _R.NEIGHBORHOOD_REMOVAL, _R.DEGREE_ONE, _R.TRIANGLE,
        _R.SIMPLICIAL_TRANSFER, _R.EXTENDED_SINGLE_EDGE,
    ),
    "time_weight": (
        _R.ISOLATED_CLIQUE, _R.BASIC_SINGLE_EDGE, _R.CWIS, _R.V_SHAPE,
        _R.TWIN, _R.DEGREE_ONE, _R.V_SHAPE_MIN, _R.NEIGHBORHOOD_REMOVAL,
        _R.DOMINATION, _R.EXTENDED_SINGLE_EDGE, _R.TRIANGLE,
        _R.SIMPLICIAL_TRANSFER, _R.NEIGHBORHOOD_FOLDING,
    ),
    "best_perm": (
        _R.NEIGHBORHOOD_REMOVAL, _R.DEGREE_ONE, _R.TRIANGLE, _R.V_SHAPE,
        _R.V_SHAPE_MIN, _R.ISOLATED_CLIQUE, _R.TWIN, _R.CWIS,
        _R.SIMPLICIAL_TRANSFER, _R.DOMINATION, _R.BASIC_SINGLE_EDGE,
        _R.EXTENDED_SINGLE_EDGE, _R.NEIGHBORHOOD_FOLDING,
    ),
}


# ``mwis ordering-bench --mode`` name -> the labelled orderings it compares.
ORDERING_EXPERIMENTS: dict[str, dict[str, tuple[Rule, ...]]] = {
    "disable-one": {
        f"baseline-without-{rule.value}":
            tuple(r for r in ORDERING_PRESETS["baseline"] if r is not rule)
        for rule in ORDERING_PRESETS["baseline"]
    },
    "preset-sweep": ORDERING_PRESETS,
}


# -- the reduce loop ---------------------------------------------------------

class _Scheduler:
    """Dirty queues of the queued rules, in ordering position, each with a
    ``bytearray`` of queued flags by vertex id; a vertex re-enters every
    queue when anything in its closed neighborhood is touched.  Also holds
    the critical-set flow of one reduce run, told about every vertex whose
    own weight or arcs changed."""

    def __init__(self, g: WeightedGraph, rules: int):
        self.g = g
        start = g.vertices()
        self.queues: list[deque[int]] = [deque(start) for _ in range(rules)]
        self.queued: list[bytearray] = [bytearray(g.alive) for _ in range(rules)]
        self.flow = DoubleCoverFlow()

    def mark_event(self, ev: ReductionEvent) -> None:
        g = self.g
        alive, adj = g.alive, g.adj
        self.flow.invalidate(ev.changed())
        dirty = set()
        for v in ev.touched():
            if alive[v]:
                dirty.add(v)
                dirty.update(adj[v])
        dirty = sorted(dirty)
        for queue, flags in zip(self.queues, self.queued):
            if len(flags) < len(alive):
                flags.extend(bytes(len(alive) - len(flags)))
            new = [v for v in dirty if not flags[v]]
            for v in new:
                flags[v] = 1
            queue.extend(new)


def _try_edge_rule(g, c, events, attempt) -> bool:
    """Try an oriented edge rule from candidate c in both directions.

    Tries (lower id, higher id) first so that ties resolve toward removing
    the lower-id vertex deterministically.
    """
    for nb in sorted(g.adj[c]):
        lo, hi = (c, nb) if c < nb else (nb, c)
        if attempt(g, lo, hi, events):
            return True
        if attempt(g, hi, lo, events):
            return True
    return False


def _try_twin(g: WeightedGraph, c: int, events: list[ReductionEvent]) -> bool:
    if g.degree(c) != 3:
        return False
    probe = min(g.adj[c], key=lambda u: (g.degree(u), u))
    for u in sorted(g.adj[probe]):
        if u != c and apply_twin(g, min(c, u), max(c, u), events):
            return True
    return False


_EDGE_RULES = (Rule.BASIC_SINGLE_EDGE, Rule.EXTENDED_SINGLE_EDGE, Rule.DOMINATION)

# Rules that cannot fire once basic single edge has drained its queue.
# apply_domination(u, v) fires only where apply_basic_single_edge(v, u)
# does (N[v] inside N[u] leaves v's exclusive neighbourhood empty), and
# apply_extended_single_edge(u, v) only where apply_basic_single_edge(v, z)
# holds for each common neighbour z (w(N(v) - u) <= w(v)).  Basic single
# edge reads the neighbourhoods of an edge's two ends and the weights of
# both ends and their neighbours.  An event that changes one of these
# re-queues at least one end of the edge (mark_event queues each touched
# vertex and its neighbours), and a queued vertex retries each of its edges
# both ways (_try_edge_rule).  So once the cursor has passed basic single
# edge, no edge holds a firing of it, and the two rules behind it would
# only attempt and refuse.  Leaving them out changes no firing.
_SUBSUMED_BY_BASIC_SINGLE_EDGE = (Rule.DOMINATION, Rule.EXTENDED_SINGLE_EDGE)


def _resolve(rule: Rule):
    """The function ``attempt(g, c, events)`` that tries a queued rule at
    candidate c.  Its ``apply_*`` function is read from the module namespace
    (here, or by :func:`_try_twin` at each call), so whatever is bound there
    when the reduce starts (a tracing wrapper, say) sees every call."""
    if rule is Rule.TWIN:
        return _try_twin
    apply = globals()[f"apply_{rule.value}"]
    if rule in _EDGE_RULES:
        return partial(_try_edge_rule, attempt=apply)
    return apply


@dataclass
class Kernel:
    """Reduced graph plus the event stack needed to climb back out."""

    graph: WeightedGraph
    events: list[ReductionEvent]

    @property
    def offset(self) -> int:
        return sum(ev.offset_delta for ev in self.events)

    def decided_in(self) -> set[int]:
        """Original vertices already forced into the solution."""
        return replay_events(self.events, set(), decided_only=True)


def exact_reduce(g: WeightedGraph,
                 rules: Sequence[Rule] = ORDERING_PRESETS["baseline"],
                 events: list[ReductionEvent] | None = None) -> Kernel:
    """Apply ``rules`` exhaustively in their order, the ordering; an empty
    one applies none.  ``ORDERING_PRESETS`` holds the named orderings.

    Each rule drains its dirty-candidate queue; after any firing the rule
    cursor restarts at the front of the ordering (queues keep their state).
    CWIS has no queue: it runs whenever the cursor reaches it, which after
    the first pass happens only after a firing.  Terminates when no rule
    fires on any pending candidate.

    Domination and extended single edge are not queued when basic single
    edge comes before them in the ordering: it subsumes both, so behind it
    they could only refuse (``_SUBSUMED_BY_BASIC_SINGLE_EDGE``).  The events
    and the kernel are those of a loop that queued them.

    Each queued rule's ``apply_*`` function is looked up by name in this
    module's namespace when the call starts (:func:`_resolve`), so a
    wrapper bound there before the call sees every attempt of that rule.
    """
    if events is None:
        events = []
    seq = tuple(rules)
    if Rule.BASIC_SINGLE_EDGE in seq:
        cut = seq.index(Rule.BASIC_SINGLE_EDGE) + 1
        seq = seq[:cut] + tuple(r for r in seq[cut:]
                                if r not in _SUBSUMED_BY_BASIC_SINGLE_EDGE)
    queued = [rule for rule in seq if rule is not Rule.CWIS]
    slot = [queued.index(rule) if rule is not Rule.CWIS else -1 for rule in seq]
    attempts = [_resolve(rule) for rule in queued]
    sched = _Scheduler(g, len(queued))
    alive = g.alive
    i = 0
    while i < len(seq):
        s = slot[i]
        fired = False
        if s < 0:
            fired = apply_cwis(g, events, sched.flow)
        else:
            queue, flags, attempt = sched.queues[s], sched.queued[s], attempts[s]
            while queue:
                c = queue.popleft()
                flags[c] = 0
                if alive[c] and attempt(g, c, events):
                    fired = True
                    break
        if fired:
            sched.mark_event(events[-1])
            i = 0
        else:
            i += 1
    return Kernel(g, events)


# -- reconstruction -----------------------------------------------------------

def replay_events(events: list[ReductionEvent], seed: set[int],
                  decided_only: bool = False) -> set[int]:
    """Replay the rebuild scripts newest-first over ``seed``.

    With ``decided_only`` the conditional branches are skipped, leaving the
    vertices every solution of the kernel must contain.
    """
    sol = set(seed)
    for ev in reversed(events):
        sol.update(ev.decided)
        script = ev.rebuild
        if not script:
            continue
        kind = script[0]
        if kind == "fold":
            _, fold, members, else_add = script
            if fold in sol:
                sol.discard(fold)
                sol.update(members)
            elif not decided_only:
                sol.update(else_add)
        elif decided_only:
            continue
        elif kind == "if_absent_take":
            _, others, v = script
            if sol.isdisjoint(others):
                sol.add(v)
        elif kind == "toggle_on_absent":
            _, others, v = script
            if sol.isdisjoint(others):
                sol.add(v)
            else:
                sol.discard(v)
        else:  # pragma: no cover - internal corruption
            raise AssertionError(f"unknown rebuild script {kind}")
    return sol


def reconstruct(kernel: Kernel, kernel_solution) -> set[int]:
    """Expand an independent set of the kernel to one of the original graph."""
    members = set(kernel_solution)
    if not is_independent(kernel.graph, members):
        raise ValueError("kernel solution is not independent in the kernel")
    return replay_events(kernel.events, members)


# -- ordering experiments ------------------------------------------------------

@dataclass(frozen=True)
class OrderingTrial:
    """One row of an ordering experiment."""

    label: str
    rules: tuple[str, ...]
    kernel_vertices: int
    kernel_edges: int
    offset: int
    elapsed_seconds: float
    kernel_ratio: float


def run_ordering_experiment(g: WeightedGraph, orderings: Mapping[str, Sequence[Rule]]
                            ) -> list[OrderingTrial]:
    """Reduce a copy of ``g`` under each ordering of ``orderings``, one row
    per label, in its order; ``ORDERING_EXPERIMENTS`` holds the families."""
    n = g.live_count
    rows = []
    for label, rules in orderings.items():
        work = g.copy()
        start = time.perf_counter()
        kernel = exact_reduce(work, rules)
        elapsed = time.perf_counter() - start
        rows.append(OrderingTrial(
            label=label,
            rules=tuple(r.value for r in rules),
            kernel_vertices=work.live_count,
            kernel_edges=work.live_edges,
            offset=kernel.offset,
            elapsed_seconds=elapsed,
            kernel_ratio=(work.live_count / n) if n else 0.0,
        ))
    return rows
