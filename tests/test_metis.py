import random
import time

import pytest

from mwis import GraphFormatError, parse_metis, write_metis
from mwis.metis_io import format_solution, parse_solution
from conftest import random_graph


def test_parse_weighted_path():
    text = "3 2 10\n5 2\n1 1 3\n5 2\n"
    g = parse_metis(text)
    assert g.weight == [5, 1, 5]
    assert g.adj[1] == {0, 2}
    assert g.live_edges == 2


def test_parse_single_vertex():
    g = parse_metis("1 0 10\n7\n")
    assert g.live_count == 1
    assert g.weight == [7]


def test_parse_comments_and_fmt_zero():
    g = parse_metis("% a comment\n2 1 0\n2\n1\n")
    assert g.weight == [1, 1]
    assert g.live_edges == 1


def test_asymmetric_adjacency_rejected():
    with pytest.raises(GraphFormatError, match="asymmetric"):
        parse_metis("3 1 10\n5 2\n1\n5\n")


@pytest.mark.parametrize("text,fragment", [
    ("2 1 10\n3 2\n4 x\n", "non-integer"),
    ("2 1 7\n3 2\n4 1\n", "unsupported format"),
    ("2 2 10\n3 2\n4 1\n", "edge count mismatch"),
    ("2 0 10\n3\n", "expected 2 vertex lines"),
    ("1 0 10\n", "expected 1 vertex lines"),
    ("2 1 10\n3 1\n4 1\n", "self-loop"),
    ("2 1 10\n3 5\n4 1\n", "out of range"),
    ("2 1 10\n-3 2\n4 1\n", "negative weight"),
    ("3 2 10\n5 2 2\n1 1 1 3\n5 2\n", "duplicate neighbor"),
    ("", "empty"),
])
def test_malformed_classes_rejected(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_metis(text)


def test_symmetry_check_is_linear_on_a_big_star():
    # The hub lists every leaf; checking each leaf's back-edge must not scan
    # the hub's neighbors.  On a two-core x86-64 VM under CPython 3.11 this
    # parse takes about 0.2 s; with a list scan per leaf it took 2.8 s.
    leaves = 20_000
    lines = [f"{leaves + 1} {leaves} 10", "5 " + " ".join(map(str, range(2, leaves + 2)))]
    lines += ["1 1"] * leaves
    start = time.perf_counter()
    g = parse_metis("\n".join(lines) + "\n")
    assert time.perf_counter() - start < 2.0
    assert g.degree(0) == leaves and g.live_edges == leaves


def test_write_then_parse_is_canonical_fixpoint():
    text = "3 2 10\n5 2\n1 1 3\n5 2\n"
    once = write_metis(parse_metis(text))
    assert once == text
    assert write_metis(parse_metis(once)) == once


def test_roundtrip_random_graphs():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 20), 0.3)
        h = parse_metis(write_metis(g))
        assert h.weight == g.weight
        assert [sorted(s) for s in h.adj] == [sorted(s) for s in g.adj]


def test_roundtrip_skips_dead_vertices():
    rng = random.Random(12)
    g = random_graph(rng, 10, 0.4)
    g.remove_vertex(3)
    g.remove_vertex(7)
    h = parse_metis(write_metis(g))
    assert h.live_count == g.live_count
    assert h.live_edges == g.live_edges
    assert sorted(h.weight) == sorted(g.weight[v] for v in g.vertices())


def test_solution_file_round_trip():
    text = format_solution({5, 1, 3})
    assert text == "1\n3\n5\n"
    assert parse_solution(text) == [1, 3, 5]
    with pytest.raises(GraphFormatError):
        parse_solution("1\nx\n")
