"""Command-line front door.

Subcommands: ``solve`` (full solver), ``reduce`` (kernelize and emit the
reduced graph plus a sidecar record), ``verify`` (check a solution file),
``exact`` (small-instance exact solver), and ``ordering-bench`` (reduction
ordering experiments).  Progress goes to stderr, result records to stdout,
files are written atomically.

Exit codes: 0 success, 2 usage error (an invalid option, or an output
path that is a directory or whose directory cannot be written),
3 malformed instance, 4 failed verification.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from .graph import WeightedGraph
from .heuristic import SelectionStrategy
from .metis_io import (GraphFormatError, format_solution, parse_metis,
                       parse_solution, write_metis)
from .oracle import OracleBudgetError, OracleLimitError, OracleLimits, brute_force
from .reductions import (ORDERING_EXPERIMENTS, ORDERING_PRESETS, exact_reduce,
                         run_ordering_experiment)
from .solver import SolverConfig, solve, verify

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_INSTANCE = 3
EXIT_BAD_SOLUTION = 4


def _write_atomic(path: Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_instance(path: str) -> WeightedGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    return parse_metis(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwis",
        description="Maximum-weight independent set solver "
                    "(kernelization + memetic search).")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = SolverConfig()
    orderings = list(ORDERING_PRESETS)

    ps = sub.add_parser("solve", help="run the full solver on an instance")
    ps.add_argument("instance", help="node-weighted METIS graph file")
    ps.add_argument("--time-limit", type=float, default=defaults.time_limit,
                    help="wall-clock budget in seconds (default %(default)s)")
    ps.add_argument("--seed", type=int, default=defaults.seed)
    ps.add_argument("--population-size", type=int, default=defaults.population_size)
    ps.add_argument("--pool-size", type=int, default=defaults.pool_size)
    ps.add_argument("--unsuccessful-limit", type=int,
                    default=defaults.unsuccessful_limit)
    ps.add_argument("--ordering", default=defaults.ordering, choices=orderings)
    ps.add_argument("--selection", choices=sorted(s.value for s in SelectionStrategy),
                    default=defaults.selection.value)
    ps.add_argument("--selection-fraction", type=float,
                    default=defaults.selection_fraction,
                    help="force this fraction of the fittest solution per round "
                         "(default: a single vertex)")
    ps.add_argument("--output", default=None,
                    help="solution file path (default: <instance>.sol)")
    ps.add_argument("--result", default=None,
                    help="also write the result record to this file")

    pr = sub.add_parser("reduce", help="kernelize an instance and emit the kernel")
    pr.add_argument("instance")
    pr.add_argument("--ordering", default=defaults.ordering, choices=orderings)
    pr.add_argument("--output", default=None,
                    help="kernel graph path (default: <instance>.kernel)")
    pr.add_argument("--sidecar", default=None,
                    help="sidecar record path (default: <instance>.kernel.json)")

    pv = sub.add_parser("verify", help="check a solution file against an instance")
    pv.add_argument("instance")
    pv.add_argument("solution")

    pe = sub.add_parser("exact", help="exact solver for small instances")
    pe.add_argument("instance")
    pe.add_argument("--max-vertices", type=int, default=OracleLimits().max_vertices)
    pe.add_argument("--node-budget", type=int, default=OracleLimits().node_budget)
    pe.add_argument("--output", default=None, help="write the witness as a solution file")

    pb = sub.add_parser("ordering-bench", help="reduction ordering experiments")
    pb.add_argument("instance")
    pb.add_argument("--mode", default="preset-sweep", choices=list(ORDERING_EXPERIMENTS))
    return parser


def _cmd_solve(args) -> int:
    settings = {f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)}
    settings["selection"] = SelectionStrategy(args.selection)
    try:
        config = SolverConfig(**settings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    g = _load_instance(args.instance)

    def progress(kind: str, payload: dict) -> None:
        print(f"[{time.strftime('%H:%M:%S')}] {kind} "
              + " ".join(f"{k}={v}" for k, v in payload.items()), file=sys.stderr)

    result = solve(g, config, progress=progress)
    out_path = Path(args.output) if args.output else Path(args.instance + ".sol")
    _write_atomic(out_path, format_solution(result.solution))
    record = {
        "instance": args.instance,
        "n": g.capacity,
        "m": g.live_edges,
        "seed": result.seed,
        "weight": result.weight,
        "elapsed_seconds": round(result.elapsed, 6),
        "rounds": result.rounds,
        "proven_optimal": result.proven_optimal,
        "ordering": args.ordering,
        "strategy": args.selection,
    }
    text = json.dumps(record, sort_keys=True)
    print(text)
    if args.result:
        _write_atomic(Path(args.result), text + "\n")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    g = _load_instance(args.instance)
    kernel = exact_reduce(g, ORDERING_PRESETS[args.ordering])
    kernel_text = write_metis(g)
    decided = sorted(kernel.decided_in())
    sidecar = {
        "offset": kernel.offset,
        "decided_vertices": decided,
        "event_count": len(kernel.events),
        "ordering": args.ordering,
        "kernel_vertices": g.live_count,
        "kernel_edges": g.live_edges,
        "kernel_id_map": {str(v): i for i, v in enumerate(g.compact()[1])},
    }
    out_path = Path(args.output) if args.output else Path(args.instance + ".kernel")
    side_path = Path(args.sidecar) if args.sidecar else Path(str(out_path) + ".json")
    _write_atomic(out_path, kernel_text)
    _write_atomic(side_path, json.dumps(sidecar, sort_keys=True) + "\n")
    print(json.dumps({"kernel": str(out_path), "sidecar": str(side_path),
                      "kernel_vertices": g.live_count, "offset": kernel.offset},
                     sort_keys=True))
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_instance(args.instance)
    try:
        ids = parse_solution(Path(args.solution).read_text(encoding="utf-8"))
    except (OSError, GraphFormatError) as exc:
        print(f"error: bad solution file: {exc}", file=sys.stderr)
        return EXIT_BAD_SOLUTION
    report = verify(g, ids)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_BAD_SOLUTION


def _cmd_exact(args) -> int:
    g = _load_instance(args.instance)
    limits = OracleLimits(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(OracleLimits)})
    try:
        alpha, witness = brute_force(g, limits)
    except (OracleLimitError, OracleBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps({"instance": args.instance, "alpha_w": alpha,
                      "witness_size": len(witness)}, sort_keys=True))
    if args.output:
        _write_atomic(Path(args.output), format_solution(witness))
    return EXIT_OK


def _cmd_ordering_bench(args) -> int:
    g = _load_instance(args.instance)
    rows = run_ordering_experiment(g, ORDERING_EXPERIMENTS[args.mode])
    header = f"{'ordering':<42} {'kernel_n':>8} {'kernel_m':>8} {'offset':>12} " \
             f"{'|K|/|V|':>8} {'seconds':>9}"
    print(header)
    for row in rows:
        print(f"{row.label:<42} {row.kernel_vertices:>8} {row.kernel_edges:>8} "
              f"{row.offset:>12} {row.kernel_ratio:>8.3f} {row.elapsed_seconds:>9.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "solve": _cmd_solve,
        "reduce": _cmd_reduce,
        "verify": _cmd_verify,
        "exact": _cmd_exact,
        "ordering-bench": _cmd_ordering_bench,
    }
    # Fail on an output that cannot be written before reading the instance.
    for path in filter(None, map(vars(args).get, ("output", "result", "sidecar"))):
        parent = Path(path).parent
        if Path(path).is_dir() or not (parent.is_dir() and os.access(parent, os.W_OK)):
            print(f"error: cannot write {path}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return handlers[args.command](args)
    except GraphFormatError as exc:
        print(f"error: malformed instance: {exc}", file=sys.stderr)
        return EXIT_BAD_INSTANCE


if __name__ == "__main__":
    sys.exit(main())
