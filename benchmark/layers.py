"""Out-of-tree tracing of the solver's public layers.

``Tracer.install`` wraps the public functions of each ``mwis`` module from
outside.  Every module namespace that bound a name gets the wrapper (the
solver, evolution and local-search modules import each other's names, and
the package re-exports them); methods are wrapped on their class.  Each
wrapped call appends one span ``[name, start, end, parent id, run id,
info]`` to an in-memory list, where ``info`` is what the call did (a rule
fired, arcs in a flow network, ...), read outside the span's interval.
``uninstall`` restores every original object.

Per-layer metrics are derived from the span list afterwards; self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from mwis import evolution, heuristic, local_search, maxflow, metis_io
from mwis import partition, reductions

# The twelve queued rules, by the public function the scheduler dispatches
# to through module globals.
RULE_FUNCS = {
    "neighborhood_removal": "apply_neighborhood_removal",
    "degree_one": "apply_degree_one",
    "triangle": "apply_triangle",
    "v_shape": "apply_v_shape",
    "v_shape_min": "apply_v_shape_min",
    "isolated_clique": "apply_isolated_clique",
    "basic_single_edge": "apply_basic_single_edge",
    "extended_single_edge": "apply_extended_single_edge",
    "domination": "apply_domination",
    "twin": "apply_twin",
    "simplicial_transfer": "apply_simplicial_transfer",
    "neighborhood_folding": "apply_neighborhood_folding",
}

# Operator metric name -> combine function.
COMBINES = {
    "vertex_separator": "combine_vertex_separator",
    "multiway_vertex_separator": "combine_multiway_vertex_separator",
    "edge_separator": "combine_edge_separator",
    "multiway_edge_separator": "combine_multiway_edge_separator",
}

# Span name -> (home module, public name).  The span name is the metric prefix.
FUNCTIONS = {
    "metis_io.parse": (metis_io, "parse_metis"),
    "reductions.exact_reduce": (reductions, "exact_reduce"),
    "reductions.cwis": (reductions, "apply_cwis"),
    "reductions.critical_set": (reductions, "critical_set"),
    **{f"reductions.{rule}": (reductions, fn) for rule, fn in RULE_FUNCS.items()},
    "partition.edge_partition": (partition, "edge_partition"),
    "partition.separator": (partition, "separator_from"),
    "evolution.initial_population": (evolution, "initial_population"),
    "evolution.evolve": (evolution, "evolve"),
    **{f"evolution.{op}": (evolution, fn) for op, fn in COMBINES.items()},
    "evolution.mutate": (evolution, "mutate"),
    "evolution.replace": (evolution, "replace"),
    "local_search.vnd": (local_search, "vnd"),
    "local_search.maximize_greedy": (local_search, "maximize_greedy"),
    "heuristic.heuristic_reduce": (heuristic, "heuristic_reduce"),
    "solver.replay_events": (reductions, "replay_events"),
}

METHODS = {
    "maxflow.max_flow": (maxflow.FlowNetwork, "max_flow"),
    "partition.pool_fetch": (partition.PartitionPool, "fetch"),
    "local_search.search_state": (local_search.SearchState, "__init__"),
}

# The phases ``solve`` runs directly; the last two build the greedy
# fallback when the budget stops a round before its evolve.
TOP_LEVEL = ("reductions.exact_reduce", "evolution.initial_population",
             "evolution.evolve", "heuristic.heuristic_reduce",
             "solver.replay_events", "local_search.search_state",
             "local_search.maximize_greedy")

ROOT = "solver.solve"

WRAPPED_MARK = "__bench_wrapped__"


def _fired(args, result, before):
    return bool(result)


def _arcs(args, result, before):
    return len(args[0].to) // 2


def _cut(args, result, before):
    g, block_of = args[0], result.block_of
    cut = sum(1 for u in block_of for v in g.adj[u]
              if u < v and block_of[u] != block_of[v])
    return [cut, g.live_edges]


def _live_fraction(args, result, before):
    g = args[0]
    return g.live_count / g.capacity


def _forced_deleted(args, result, before):
    return [len(result), before - args[0].live_count]


def _returned(args, result, before):
    return result


# Span name -> (read before the call, or None; info from args/result/before).
HOOKS = {
    "reductions.cwis": (None, _fired),
    **{f"reductions.{rule}": (None, _fired) for rule in RULE_FUNCS},
    "maxflow.max_flow": (None, _arcs),
    "partition.edge_partition": (None, _cut),
    "evolution.evolve": (None, _live_fraction),
    "evolution.replace": (None, _fired),
    "local_search.vnd": (None, _returned),
    "heuristic.heuristic_reduce": (lambda args: args[0].live_count, _forced_deleted),
}


def _mwis_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mwis" or name.startswith("mwis."))]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, None])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        before_hook, after_hook = HOOKS.get(name, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            before = before_hook(args) if before_hook is not None else None
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if after_hook is not None:
                tracer.spans[sid][5] = after_hook(args, result, before)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _mwis_modules()
        for span, (home, attr) in FUNCTIONS.items():
            original = vars(home)[attr]
            wrapper = self._wrap(span, original)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for span, (cls, attr) in METHODS.items():
            self._patch(cls, attr, self._wrap(span, vars(cls)[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write every span as one gzipped JSON line: [id, name, start, end,
        parent id, run id, info]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span], separators=(",", ":")) + "\n")


def leftover_patches() -> list[str]:
    """Attributes of any ``mwis`` module or traced class still bound to a wrapper."""
    owners = _mwis_modules() + [cls for cls, _ in METHODS.values()]
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in owners for attr, value in vars(owner).items()
            if getattr(value, WRAPPED_MARK, False)]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list], instances: int, rounds: int) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced pass, per solved instance.

    Counts and seconds are totals divided by ``instances``; ratios
    (``cut_fraction``, ``accept_ratio``, ``live_fraction_min``,
    ``top_level_coverage``) are taken over the whole pass.
    """
    total: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    accepted = {op: 0 for op in COMBINES}
    op_of = {f"evolution.{op}": op for op in COMBINES}
    last_op = None
    cut = live = 0
    live_fractions = []
    covered = 0.0

    def under_critical_set(sid: int) -> bool:
        while sid >= 0:
            if spans[sid][0] == "reductions.critical_set":
                return True
            sid = spans[sid][3]
        return False

    for sid, (name, start, end, parent, _, info) in enumerate(spans):
        dur = end - start
        if parent >= 0 and spans[parent][0] == ROOT and name in TOP_LEVEL:
            covered += dur
        if name == "maxflow.max_flow":
            kind = "cwis" if under_critical_set(sid) else "repair"
            total[f"maxflow.{kind}.calls"] += 1
            total[f"maxflow.{kind}.s"] += dur
            total[f"maxflow.{kind}.arcs"] += info
            continue
        total[f"{name}.calls"] += 1
        total[f"{name}.s"] += dur
        if name in op_of:
            last_op = op_of[name]
            total[f"{name}.self_s"] += selfs[sid]
        elif name == "evolution.replace":
            if info and last_op is not None:
                accepted[last_op] += 1
        elif name.startswith("reductions.") and info is not None:
            total[f"{name}.fired"] += info
        elif name == "reductions.exact_reduce":
            total["reductions.scheduler_self_s"] += selfs[sid]
        elif name == "local_search.vnd":
            total["local_search.vnd.attempts"] += info
        elif name == "partition.edge_partition":
            cut += info[0]
            live += info[1]
        elif name == "evolution.evolve":
            live_fractions.append(info)
        elif name == "heuristic.heuristic_reduce":
            total["heuristic.forced"] += info[0]
            total["heuristic.deleted"] += info[1]

    for rule in RULE_FUNCS:
        total[f"reductions.{rule}.attempts"] = total[f"reductions.{rule}.calls"]
    for op, n in accepted.items():
        total[f"evolution.{op}.accepted"] = n
    total["metis_io.parse_s"] = total["metis_io.parse.s"]
    total["evolution.offspring"] = total["evolution.replace.calls"]
    total["solver.rounds"] = rounds

    out = {name: value / instances for name, value in total.items()}
    out["partition.cut_fraction"] = cut / live if live else 0.0
    offspring = total["evolution.offspring"]
    out["evolution.accept_ratio"] = sum(accepted.values()) / offspring if offspring else 0.0
    out["solver.live_fraction_min"] = min(live_fractions, default=0.0)
    solve_s = total[f"{ROOT}.s"]
    out["solver.top_level_coverage"] = covered / solve_s if solve_s else 0.0
    return {name: out.get(name, 0.0) for name in PER_LAYER}


# Every per-layer metric a traced run reports, with its unit, as
# BENCHMARK.json lists them.  Counts and seconds are per solved instance.
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}
