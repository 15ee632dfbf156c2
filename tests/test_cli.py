import argparse
import dataclasses
import json
import os

import pytest

from mwis import (ORDERING_EXPERIMENTS, ORDERING_PRESETS, SelectionStrategy, SolveResult,
                  SolverConfig, cli)
from mwis.cli import _build_parser, _write_atomic, main
from mwis.oracle import OracleLimits

P3 = "3 2 10\n5 2\n1 1 3\n5 2\n"
SOLVE_FAST = ["--population-size", "30", "--unsuccessful-limit", "40",
              "--pool-size", "4"]


@pytest.fixture
def instance(tmp_path):
    p = tmp_path / "p3.graph"
    p.write_text(P3, encoding="utf-8")
    return p


def _choices(parser, command, dest):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest).choices


def test_solve_flags_default_to_the_solver_config():
    parser = _build_parser()
    args = vars(parser.parse_args(["solve", "g.graph"]))
    defaults = dataclasses.asdict(SolverConfig())
    shared = sorted(defaults.keys() & args.keys())
    assert sorted(defaults.keys() - args.keys()) == []
    args["selection"] = SelectionStrategy(args["selection"])
    assert {k: args[k] for k in shared} == {k: defaults[k] for k in shared}
    assert parser.parse_args(["reduce", "g.graph"]).ordering == SolverConfig().ordering
    exact = parser.parse_args(["exact", "g.graph"])
    assert (exact.max_vertices, exact.node_budget) == dataclasses.astuple(OracleLimits())
    for command in ("solve", "reduce"):
        assert _choices(parser, command, "ordering") == list(ORDERING_PRESETS)
    assert _choices(parser, "ordering-bench", "mode") == list(ORDERING_EXPERIMENTS)
    assert parser.parse_args(["ordering-bench", "g.graph"]).mode == "preset-sweep"


def test_every_solver_setting_has_a_flag(instance, tmp_path, monkeypatch, capsys):
    # One flag per SolverConfig field, each set away from its default: a
    # field without a flag, or a flag dropped on the way, fails here.
    flags = {"time_limit": ("7.5", 7.5), "seed": ("9", 9),
             "population_size": ("11", 11), "pool_size": ("3", 3),
             "unsuccessful_limit": ("5", 5), "ordering": ("weight", "weight"),
             "selection": ("degree", SelectionStrategy.DEGREE),
             "selection_fraction": ("0.25", 0.25)}
    defaults = SolverConfig()
    assert sorted(flags) == sorted(f.name for f in dataclasses.fields(SolverConfig))
    assert all(value != getattr(defaults, name) for name, (_, value) in flags.items())
    configs = []

    def capture(g, config, progress=None):
        configs.append(config)
        return SolveResult(solution={0, 2}, weight=10, elapsed=0.0, rounds=0)

    monkeypatch.setattr(cli, "solve", capture)
    argv = [arg for name, (text, _) in flags.items()
            for arg in ("--" + name.replace("_", "-"), text)]
    assert main(["solve", str(instance), "--output", str(tmp_path / "p3.sol"), *argv]) == 0
    assert configs == [SolverConfig(**{name: value for name, (_, value) in flags.items()})]


def test_solve_writes_solution_and_record(instance, tmp_path, capsys):
    out = tmp_path / "p3.sol"
    rc = main(["solve", str(instance), "--time-limit", "10", "--seed", "1",
               "--ordering", "baseline", "--output", str(out)] + SOLVE_FAST)
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["weight"] == 10
    assert record["n"] == 3 and record["m"] == 2
    assert record["seed"] == 1
    assert record["ordering"] == "baseline"
    assert record["proven_optimal"] is True  # the reductions empty P3
    assert out.read_text(encoding="utf-8") == "0\n2\n"


def test_solve_reads_an_isolated_vertex_as_a_blank_line(tmp_path, capsys):
    # Unweighted METIS writes an isolated vertex as an empty line.
    path = tmp_path / "isolated.graph"
    path.write_text("3 1\n3\n\n1\n", encoding="utf-8")
    rc = main(["solve", str(path), "--time-limit", "10", "--seed", "1"] + SOLVE_FAST)
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["n"], record["m"], record["weight"]) == (3, 1, 2)


def test_solve_reruns_byte_identical(instance, tmp_path, capsys):
    a, b = tmp_path / "a.sol", tmp_path / "b.sol"
    argv = ["solve", str(instance), "--time-limit", "10", "--seed", "3",
            "--output"]
    assert main(argv + [str(a)] + SOLVE_FAST) == 0
    assert main(argv + [str(b)] + SOLVE_FAST) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_result_file(instance, tmp_path, capsys):
    res = tmp_path / "record.json"
    rc = main(["solve", str(instance), "--output", str(tmp_path / "s.sol"),
               "--result", str(res)] + SOLVE_FAST)
    assert rc == 0
    assert json.loads(res.read_text(encoding="utf-8"))["weight"] == 10


def test_solution_passes_verify(instance, tmp_path, capsys):
    out = tmp_path / "p3.sol"
    main(["solve", str(instance), "--output", str(out)] + SOLVE_FAST)
    capsys.readouterr()
    rc = main(["verify", str(instance), str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("OK, weight=10")


def test_verify_rejects_adjacent_pair(instance, tmp_path, capsys):
    bad = tmp_path / "bad.sol"
    bad.write_text("0\n1\n", encoding="utf-8")
    rc = main(["verify", str(instance), str(bad)])
    assert rc == 4
    assert "(0, 1)" in capsys.readouterr().out


def test_verify_rejects_unparseable_solution(instance, tmp_path, capsys):
    bad = tmp_path / "bad.sol"
    bad.write_text("zero\n", encoding="utf-8")
    assert main(["verify", str(instance), str(bad)]) == 4


def test_reduce_emits_kernel_and_sidecar(instance, tmp_path, capsys):
    kernel = tmp_path / "p3.kernel"
    sidecar = tmp_path / "p3.kernel.json"
    rc = main(["reduce", str(instance), "--output", str(kernel),
               "--sidecar", str(sidecar)])
    assert rc == 0
    side = json.loads(sidecar.read_text(encoding="utf-8"))
    assert side["offset"] == 10
    assert side["decided_vertices"] == [0, 2]
    assert side["ordering"] == "baseline"
    assert side["event_count"] >= 1
    assert kernel.read_text(encoding="utf-8").splitlines()[0] == "0 0 10"


def test_exact_subcommand(instance, capsys):
    rc = main(["exact", str(instance)])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["alpha_w"] == 10


def test_exact_exhausted_node_budget_exits_2(tmp_path, capsys):
    # A 5-cycle of equal weights: its clique cover (two edges and a vertex)
    # outweighs the greedy start, so the search needs three nodes.
    c5 = tmp_path / "c5.graph"
    c5.write_text("5 5 10\n1 2 5\n1 1 3\n1 2 4\n1 3 5\n1 1 4\n", encoding="utf-8")
    assert main(["exact", str(c5), "--node-budget", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: node budget 1 exhausted\n"


def test_write_atomic_removes_its_temporary_file_when_replace_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        _write_atomic(tmp_path / "out.sol", "0\n")
    assert list(tmp_path.iterdir()) == []


def test_ordering_bench_row_counts(instance, capsys):
    assert main(["ordering-bench", str(instance), "--mode", "disable-one"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 1 + 13  # header + one row per disabled rule
    assert main(["ordering-bench", str(instance), "--mode", "preset-sweep"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 1 + 5


def test_malformed_instance_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("3 1 10\n5 2\n1\n5\n", encoding="utf-8")  # asymmetric
    assert main(["solve", str(bad)]) == 3
    assert "asymmetric" in capsys.readouterr().err


def test_missing_instance_exits_3(tmp_path):
    assert main(["exact", str(tmp_path / "absent.graph")]) == 3


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["solve"]) == 2
    assert main(["solve", "x", "--bogus-flag"]) == 2
    assert main(["ordering-bench", "x", "--mode", "nope"]) == 2


@pytest.mark.parametrize("flag, value", [
    ("--population-size", "0"), ("--time-limit", "-1"), ("--time-limit", "nan"),
    ("--selection-fraction", "2")])
def test_invalid_solver_config_exits_2(instance, tmp_path, capsys, flag, value):
    out = tmp_path / "p3.sol"
    assert main(["solve", str(instance), flag, value, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/out", "."])
@pytest.mark.parametrize("command, flag", [
    ("solve", "--output"), ("solve", "--result"), ("reduce", "--output"),
    ("reduce", "--sidecar"), ("exact", "--output")])
def test_unwritable_output_exits_2_before_any_work(instance, tmp_path, capsys, command, flag,
                                                   target):
    # A missing directory, or a directory in place of the file.
    target = tmp_path / target
    assert main([command, str(instance), flag, str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: cannot write {target}\n"
    assert list(tmp_path.iterdir()) == [instance]
