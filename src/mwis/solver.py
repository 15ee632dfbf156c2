"""Outer solve loop: reduce exactly, evolve, force vertices, repeat.

Rounds alternate three phases on a private working copy of the input:
exhaustive exact reduction, memetic search over the kernel, and heuristic
forcing of high-rated solution vertices, all journaled as one event list.
The loop ends when the kernel empties or the time budget runs out; the
journal then expands the heaviest round's kernel solution to original ids.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .evolution import evolve, initial_population
from .graph import WeightedGraph, independence_violations, is_independent
from .heuristic import SelectionStrategy, heuristic_reduce
from .local_search import SearchState, maximize_greedy
from .reductions import (ReductionEvent, exact_reduce, ordering_preset,
                         replay_events)


@dataclass(frozen=True)
class SolverConfig:
    """Every solver setting; ``evolve`` and ``heuristic_reduce`` read it too.

    ``selection_fraction=None`` forces one vertex per round; participation
    selection always forces one.
    """

    time_limit: float = 36_000.0
    seed: int = 0
    population_size: int = 250
    pool_size: int = 10
    ls_iterations: int = 15_000
    max_blocks: int = 64
    mutation_prob: float = 0.10
    unsuccessful_limit: int = 1000
    ordering: str = "baseline"
    selection: SelectionStrategy = SelectionStrategy.HYBRID
    selection_fraction: Optional[float] = None

    def __post_init__(self):
        for name in ("population_size", "pool_size", "ls_iterations",
                     "unsuccessful_limit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_blocks < 2:
            raise ValueError("max_blocks must be at least 2")
        if not self.time_limit > 0:  # also rejects NaN
            raise ValueError("time_limit must be positive")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must be within [0, 1]")
        ordering_preset(self.ordering)  # validates the name
        fraction = self.selection_fraction
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")


@dataclass(frozen=True)
class RoundStats:
    """Kernel size, banked offset (forced weight included) and best evolved
    weight of one round; ``offset + best_evolve_weight`` is its full weight."""

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


ProgressFn = Callable[[str, dict], None]


def _greedy_kernel_solution(g: WeightedGraph) -> set[int]:
    state = SearchState(g)
    maximize_greedy(state, "by_weight")
    return state.members()


def solve(graph: WeightedGraph, config: SolverConfig | None = None,
          progress: ProgressFn | None = None,
          should_stop: Callable[[], bool] | None = None) -> SolveResult:
    """Run the full solver on a copy of ``graph``.

    Deterministic for a fixed (graph, config) as long as the time limit
    does not bite.  ``should_stop`` is polled between phases, never inside
    the exact-reduction routine, so the budget can be slightly overshot.
    The heaviest round is returned; forcing can leave a later one lighter.
    """
    config = config or SolverConfig()
    start = time.monotonic()
    deadline = start + config.time_limit
    rng = random.Random(config.seed)
    g = graph.copy()
    events: list[ReductionEvent] = []
    trace: list[RoundStats] = []
    rounds = 0
    kernel_solution: set[int] = set()
    # (full weight, len(events), kernel members) of the heaviest round.
    best: tuple[int, int, frozenset[int]] = (-1, 0, frozenset())
    ordering = ordering_preset(config.ordering)

    def emit(kind: str, **payload) -> None:
        if progress is not None:
            progress(kind, payload)

    def cut_short() -> bool:
        return time.monotonic() >= deadline or (should_stop is not None and should_stop())

    while True:
        offset = exact_reduce(g, ordering, events).offset
        if g.live_count == 0:
            break
        emit("reduced", round=rounds, kernel_vertices=g.live_count, offset=offset)
        if cut_short():
            kernel_solution = _greedy_kernel_solution(g)
            break
        pop = initial_population(g, config.population_size, rng, deadline)
        evolve(g, pop, rng, config, deadline,
               on_improve=lambda it, w: emit("evolve_best", round=rounds,
                                             iteration=it, weight=w))
        fittest = pop.best()
        trace.append(RoundStats(kernel_vertices=g.live_count, offset=offset,
                                best_evolve_weight=fittest.weight))
        if offset + fittest.weight > best[0]:
            best = (offset + fittest.weight, len(events), fittest.members)
        if cut_short():
            kernel_solution = set(fittest.members)
            break
        heuristic_reduce(g, pop, config, events)
        rounds += 1
        emit("forced", round=rounds, kernel_vertices=g.live_count)

    if best[0] > offset + sum(g.weight[v] for v in kernel_solution):
        # The journal as it stood then rebuilds that round's kernel solution.
        events, kernel_solution = events[:best[1]], best[2]
    solution = replay_events(events, kernel_solution)
    if not is_independent(graph, solution):  # pragma: no cover - safety net
        raise AssertionError("reconstructed solution is not independent")
    weight = sum(graph.weight[v] for v in solution)
    return SolveResult(solution=solution, weight=weight,
                       elapsed=time.monotonic() - start, rounds=rounds,
                       kernel_trace=trace, seed=config.seed)


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
