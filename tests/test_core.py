import io

import numpy as np
import pytest

from trendcast.core import (
    Graph,
    IntervalGrid,
    ParseError,
    Trend,
    UnknownNodeError,
    aggregate,
    coverage,
    duration,
    intensity,
    load_graph,
    load_trend,
    longest_run_above,
    random_graph,
    write_aggregate_csv,
    write_graph,
    write_trend,
)

from oracles import brute_force_longest_run


def test_toy_yearly_aggregation(toy_trend):
    series = aggregate(toy_trend, IntervalGrid(2007.0, 1.0, 5))
    assert series.intensity.tolist() == [1, 5, 4, 2, 0]
    assert series.coverage.tolist() == [1, 2, 3, 2, 0]


def test_toy_duration_at_zero_threshold(toy_trend):
    series = aggregate(toy_trend, IntervalGrid(2007.0, 1.0, 5))
    assert duration(series, 0, "intensity") == 4
    assert duration(series, 0, "coverage") == 4


def test_duration_interior_gap():
    grid = IntervalGrid(0.0, 1.0, 6)
    series = aggregate(Trend(np.empty(0), np.empty(0)), grid)
    series.intensity = np.asarray([3, 1, 5, 5, 0, 2])
    assert duration(series, 2, "intensity") == 2


def test_duration_rejects_unknown_measure(toy_trend):
    series = aggregate(toy_trend, IntervalGrid(2007.0, 1.0, 5))
    with pytest.raises(ValueError):
        duration(series, 0, "velocity")


def test_longest_run_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        values = rng.integers(0, 5, size=rng.integers(0, 12)).tolist()
        theta = int(rng.integers(0, 4))
        assert longest_run_above(np.asarray(values), theta) == brute_force_longest_run(values, theta)


def test_prefix_is_closed_on_the_right(toy_trend):
    assert len(toy_trend.prefix(2008.0)) == 6
    assert len(toy_trend.prefix(2006.9)) == 0
    assert len(toy_trend.prefix(2011.0)) == len(toy_trend)


def test_trend_sorts_stably_and_keeps_duplicates():
    trend = Trend(np.asarray([2, 0, 1, 1]), np.asarray([5.0, 1.0, 5.0, 5.0]))
    assert trend.times.tolist() == [1.0, 5.0, 5.0, 5.0]
    # ties keep input order, and the duplicate (1, 5.0) action survives
    assert trend.nodes.tolist() == [0, 2, 1, 1]


def test_interval_ops_reject_degenerate_interval(toy_trend):
    with pytest.raises(ValueError):
        intensity(toy_trend, 2008.0, 2008.0)
    with pytest.raises(ValueError):
        coverage(toy_trend, 2009.0, 2008.0)


def test_aggregate_matches_single_interval_ops():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(1, 60))
        trend = Trend(rng.integers(0, 8, size=k), np.sort(rng.uniform(0, 10, size=k)))
        grid = IntervalGrid(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2.0)), int(rng.integers(1, 8)))
        series = aggregate(trend, grid)
        for i in range(grid.count):
            lo, hi = grid.bounds(i)
            assert series.intensity[i] == intensity(trend, lo, hi)
            assert series.coverage[i] == coverage(trend, lo, hi)


def test_grid_intervals_share_edges_exactly():
    grid = IntervalGrid(0.1, 0.3, 7)
    for i in range(grid.count - 1):
        assert grid.bounds(i)[1] == grid.bounds(i + 1)[0]


def test_grid_validation():
    with pytest.raises(ValueError):
        IntervalGrid(0.0, 0.0, 3)
    with pytest.raises(ValueError):
        IntervalGrid(0.0, 1.0, 0)


def test_aggregate_csv_format(toy_trend):
    buf = io.StringIO()
    write_aggregate_csv(buf, aggregate(toy_trend, IntervalGrid(2007.0, 1.0, 5)))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "interval_index,t_min,t_max,intensity,coverage"
    assert lines[1] == "0,2007,2008,1,1"
    assert lines[-1] == "4,2011,2012,0,0"


def test_load_graph_parses_comments_dedupes_and_symmetrizes(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("# a comment\na\tb\nb\ta\na\tb\n\nb\tc\n")
    graph = load_graph(str(path))
    assert graph.node_count == 3
    assert graph.labels == ["a", "b", "c"]
    assert sorted(graph.neighbors(graph.index_of("b")).tolist()) == [
        graph.index_of("a"),
        graph.index_of("c"),
    ]
    assert graph.edge_count == 4  # two undirected edges, stored both ways


def test_load_graph_directed_keeps_direction(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("a\tb\n")
    graph = load_graph(str(path), directed=True)
    assert graph.neighbors(0).tolist() == [1]
    assert graph.neighbors(1).tolist() == []
    assert graph.in_neighbors(1).tolist() == [0]


def test_load_graph_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\njust-one-field\n")
    with pytest.raises(ParseError, match="bad.tsv:2"):
        load_graph(str(path))


def test_load_graph_rejects_edge_free_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# nothing here\n")
    with pytest.raises(ParseError, match="no edges"):
        load_graph(str(path))


def test_load_trend_resolves_labels(tmp_path, toy_graph):
    path = tmp_path / "t.tsv"
    path.write_text("v2\t2008\nv1\t2007\n# note\nv1\t2008.5\n")
    trend = load_trend(str(path), toy_graph)
    assert trend.times.tolist() == [2007.0, 2008.0, 2008.5]
    assert trend.nodes.tolist() == [0, 1, 0]


def test_load_trend_rejects_unknown_label(tmp_path, toy_graph):
    path = tmp_path / "t.tsv"
    path.write_text("ghost\t2008\n")
    with pytest.raises(UnknownNodeError, match="ghost"):
        load_trend(str(path), toy_graph)


def test_load_trend_rejects_bad_timestamp(tmp_path, toy_graph):
    path = tmp_path / "t.tsv"
    path.write_text("v1\tsoon\n")
    with pytest.raises(ParseError, match="t.tsv:1"):
        load_trend(str(path), toy_graph)


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_load_trend_rejects_non_finite_timestamp(tmp_path, toy_graph, stamp):
    path = tmp_path / "t.tsv"
    path.write_text(f"v1\t1.0\nv2\t{stamp}\nv1\t0.5\n")
    with pytest.raises(ParseError, match="t.tsv:2"):
        load_trend(str(path), toy_graph)


def test_trend_roundtrip(tmp_path, toy_graph, toy_trend):
    path = tmp_path / "t.tsv"
    write_trend(str(path), toy_trend, toy_graph)
    back = load_trend(str(path), toy_graph)
    assert back.nodes.tolist() == toy_trend.nodes.tolist()
    assert back.times.tolist() == toy_trend.times.tolist()


def test_graph_roundtrip(tmp_path):
    graph = random_graph(12, 20, seed=5)
    path = tmp_path / "g.tsv"
    write_graph(str(path), graph)
    back = load_graph(str(path))
    assert back.node_count == graph.node_count
    assert back.edge_count == graph.edge_count


def test_random_graph_is_simple_and_sized():
    graph = random_graph(30, 50, seed=1)
    assert graph.node_count == 30
    assert graph.edge_count == 100  # 50 undirected edges, both directions stored
    for u in range(30):
        nbrs = graph.neighbors(u).tolist()
        assert u not in nbrs
        assert len(set(nbrs)) == len(nbrs)
        for v in nbrs:
            assert u in graph.neighbors(v).tolist()


def test_graph_rejects_out_of_range_edges():
    with pytest.raises(ValueError):
        Graph.from_edges([(0, 9)], 3)
