import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from trendcast import core
from trendcast.core import (
    Graph,
    IntervalGrid,
    ParseError,
    Trend,
    UnknownNodeError,
    aggregate,
    drop_edgeless_nodes,
    duration,
    load_graph,
    load_trend,
    longest_run_above,
    random_graph,
    write_aggregate_csv,
    write_graph,
    write_trend,
)
from trendcast.proximity import ProximityConfig, ProximityMap, graph_fingerprint

from oracles import (
    brute_force_longest_run,
    coverage,
    intensity,
    line_load_graph,
    line_load_trend,
    stacked_rows_coverage,
    unique_rows_csr,
)


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
    # a stack of series gives one length per series, as each row alone does
    for _ in range(50):
        matrix = rng.integers(0, 5, size=(rng.integers(1, 6), rng.integers(0, 12)))
        theta = int(rng.integers(0, 4))
        expected = [brute_force_longest_run(row, theta) for row in matrix.tolist()]
        assert longest_run_above(matrix, theta).tolist() == expected


def test_prefix_is_closed_on_the_right(toy_trend):
    assert len(toy_trend.prefix(2008.0)) == 6
    assert len(toy_trend.prefix(2006.9)) == 0
    assert len(toy_trend.prefix(2011.0)) == len(toy_trend)


def test_trend_sorts_stably_and_keeps_duplicates():
    trend = Trend(np.asarray([2, 0, 1, 1]), np.asarray([5.0, 1.0, 5.0, 5.0]))
    assert trend.times.tolist() == [1.0, 5.0, 5.0, 5.0]
    # ties keep input order, and the duplicate (1, 5.0) action survives
    assert trend.nodes.tolist() == [0, 2, 1, 1]


# Timestamps on a quarter grid, some of them before the first stamp: ties are
# common and input order is rarely sorted.
stamped_actions = st.lists(st.tuples(st.integers(0, 5), st.integers(-8, 48)), max_size=60)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(stamped_actions)
def test_trend_order_is_a_stable_sort_of_the_input(steps):
    actions = [(u, k * 0.25) for u, k in steps]
    trend = Trend(np.asarray([u for u, _ in actions]), np.asarray([t for _, t in actions]))
    # Python's sort is stable, so this one list fixes the order (sorted by
    # time, ties in input order) and the multiset of (node, time) actions.
    assert list(trend) == sorted(actions, key=lambda a: a[1])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    stamped_actions,
    st.sampled_from([0.0, 2007.123456789]),
    st.integers(-4, 8),
    st.sampled_from([0.25, 0.3, 1.0, 2.5]),
    st.integers(1, 8),
)
def test_aggregate_matches_per_interval_counts_on_boundary_stamps(steps, origin, start, length, count):
    # Stamps and grid edges share the quarter grid, so many actions fall
    # exactly on an edge, and some fall before or after the grid.
    trend = Trend(np.asarray([u for u, _ in steps]), np.asarray([origin + k * 0.25 for _, k in steps]))
    grid = IntervalGrid(origin + start * 0.25, length, count)
    series = aggregate(trend, grid)
    edges = grid.edges.tolist()
    for i in range(grid.count):
        lo, hi = edges[i], edges[i + 1]
        assert series.intensity[i] == intensity(trend, lo, hi)
        assert series.coverage[i] == coverage(trend, lo, hi)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.lists(st.tuples(st.integers(0, 2**20), st.integers(-8, 48)), max_size=60),
    st.integers(-4, 8),
    st.integers(1, 12),
)
@example([], 0, 3)  # no action
@example([(7, -8), (3, 48)], 0, 2)  # every action off the grid
def test_aggregate_coverage_matches_the_stacked_rows_oracle(steps, start, count):
    # Nodes up to 2**20, so the (interval, node) keys span many node values.
    trend = Trend(np.asarray([u for u, _ in steps], dtype=np.int64), np.asarray([k * 0.25 for _, k in steps]))
    grid = IntervalGrid(start * 0.25, 0.75, count)
    got = aggregate(trend, grid).coverage
    assert got.dtype == np.int64
    assert got.tolist() == stacked_rows_coverage(trend, grid).tolist()


def test_aggregate_matches_single_interval_ops():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(1, 60))
        trend = Trend(rng.integers(0, 8, size=k), np.sort(rng.uniform(0, 10, size=k)))
        grid = IntervalGrid(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2.0)), int(rng.integers(1, 8)))
        series = aggregate(trend, grid)
        edges = grid.edges.tolist()
        for i in range(grid.count):
            lo, hi = edges[i], edges[i + 1]
            assert series.intensity[i] == intensity(trend, lo, hi)
            assert series.coverage[i] == coverage(trend, lo, hi)


def test_grid_intervals_share_edges_exactly():
    grid = IntervalGrid(0.1, 0.3, 7)
    # Interval i spans edges i and i + 1, so neighbours share an edge, and
    # edge k is t_start + k * length, not a running sum of lengths.
    assert grid.edges.tolist() == [grid.t_start + k * grid.interval_length for k in range(grid.count + 1)]


def test_grid_validation():
    with pytest.raises(ValueError):
        IntervalGrid(0.0, 0.0, 3)
    with pytest.raises(ValueError):
        IntervalGrid(0.0, 1.0, 0)


def test_grid_edges_must_increase():
    # The doubles near 1e17 are 16 apart: a step of 1 leaves five equal
    # edges, and a step of 16 is the smallest that survives.
    with pytest.raises(ValueError, match="edges must increase"):
        IntervalGrid(1e17, 1.0, 4)
    assert np.all(np.diff(IntervalGrid(1e17, 16.0, 4).edges) == 16.0)


def test_aggregate_csv_format(toy_trend, tmp_path):
    out = tmp_path / "agg.csv"
    write_aggregate_csv(str(out), aggregate(toy_trend, IntervalGrid(2007.0, 1.0, 5)))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "interval_index,t_min,t_max,intensity,coverage"
    assert lines[1] == "0,2007.0,2008.0,1,1"
    assert lines[-1] == "4,2011.0,2012.0,0,0"


def test_aggregate_csv_bounds_parse_back_to_the_grid_edges(tmp_path):
    # Unix-time bounds half a second apart agree in their first 10 digits.
    grid = IntervalGrid(1700000000.0, 0.5, 2)
    out = tmp_path / "agg.csv"
    write_aggregate_csv(str(out), aggregate(Trend(np.empty(0), np.empty(0)), grid))
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [float(row[1]) for row in rows] == grid.edges[:-1].tolist()
    assert [float(row[2]) for row in rows] == grid.edges[1:].tolist()


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


def test_load_graph_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\njust-one-field\n")
    with pytest.raises(ParseError, match="bad.tsv:2"):
        load_graph(str(path))


@pytest.mark.parametrize(
    "text, want",
    [("u\tv\rw\tx\r\n", ["u", "v", "w", "x"]), ("a\rb\tc\n", "bad.tsv:1: expected 'src<TAB>dst', got 'a'")],
)
def test_load_graph_ends_lines_at_a_lone_cr(tmp_path, text, want):
    path = tmp_path / "bad.tsv"
    path.write_bytes(text.encode())
    if isinstance(want, list):
        assert load_graph(str(path)).labels == want
    else:
        with pytest.raises(ParseError, match=f"{want}$"):
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
    # Full graphs (2 and 7 nodes) take every pair; directed graphs get twice
    # the edges, so the full ones hold every ordered pair.
    for directed in (False, True):
        for node_count, edges in ((30, 50), (2, 1), (7, 21), (12, 0)):
            edges *= 2 if directed else 1
            graph = random_graph(node_count, edges, seed=1, directed=directed)
            assert graph.node_count == node_count
            # Undirected edges are stored both ways.
            assert graph.edge_count == (edges if directed else 2 * edges)
            for u in range(node_count):
                nbrs = graph.neighbors(u).tolist()
                assert u not in nbrs
                assert len(set(nbrs)) == len(nbrs)
                if not directed:
                    for v in nbrs:
                        assert u in graph.neighbors(v).tolist()


@pytest.mark.parametrize("directed", [False, True])
def test_random_graph_draws_every_edge_equally_often(directed):
    # Each graph holds 4 of the n(n-1) ordered (or n(n-1)/2 unordered) pairs;
    # over many seeds every pair should appear in the same share of graphs.
    n, m, draws = 5, 4, 3000
    counts = np.zeros((n, n), dtype=np.int64)
    for seed in range(draws):
        graph = random_graph(n, m, seed=seed, directed=directed)
        src = np.repeat(np.arange(n), np.diff(graph.indptr))
        counts[src, graph.indices] += 1
    pairs = counts[~np.eye(n, dtype=bool)] if directed else counts[np.triu_indices(n, 1)]
    assert pairs.sum() == draws * m
    assert chisquare(pairs).pvalue > 1e-3


@pytest.mark.parametrize("directed", [False, True])
def test_drop_edgeless_nodes_keeps_the_rest_in_order(directed):
    # Node 1 has only an in-edge when directed; nodes 2 and 4 have no edge.
    graph = Graph.from_edges([(0, 1), (3, 0), (5, 3)], 6, directed=directed)
    kept = drop_edgeless_nodes(graph)
    assert kept.labels == ["u0", "u1", "u3", "u5"]
    assert kept.directed == directed
    expected = Graph.from_edges([(0, 1), (2, 0), (3, 2)], 4, kept.labels, directed)
    assert kept.indptr.tolist() == expected.indptr.tolist()
    assert kept.indices.tolist() == expected.indices.tolist()
    assert kept.index_of("u5") == 3


def test_drop_edgeless_nodes_returns_a_graph_without_them_as_is():
    graph = random_graph(50, 100, seed=1)
    assert drop_edgeless_nodes(graph) is graph
    assert drop_edgeless_nodes(random_graph(5, 0, seed=1)).node_count == 0


def test_the_label_index_is_always_derived_from_the_labels():
    graph = Graph.from_edges([(0, 1)], 2, labels=["a", "b"])
    assert graph._label_index == {"a": 0, "b": 1}
    with pytest.raises(TypeError):
        Graph(2, False, ["a", "b"], graph.indptr, graph.indices, {"b": 0, "a": 1})
    with pytest.raises(ValueError, match="not unique"):
        Graph(2, False, ["a", "a"], graph.indptr, graph.indices)


def test_graph_tells_a_wrong_label_count_from_repeated_labels():
    with pytest.raises(ValueError, match="^2 node labels given for 3 nodes$"):
        Graph.from_edges([(0, 1)], 3, labels=["a", "b"])
    with pytest.raises(ValueError, match="^4 node labels given for 3 nodes$"):
        Graph.from_edges([(0, 1)], 3, labels=["a", "b", "c", "d"])
    with pytest.raises(ValueError, match="not unique"):
        Graph.from_edges([(0, 1)], 3, labels=["a", "b", "a"])


def test_graph_arrays_are_read_only_and_the_adjacency_stays_out_of_eq_and_repr(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("a\tb\nb\tc\n")
    graphs = [
        Graph.from_edges([(0, 1), (1, 2)], 4),
        load_graph(str(path)),
        drop_edgeless_nodes(Graph.from_edges([(0, 1), (1, 2)], 4)),
        random_graph(10, 20, seed=1, directed=True),
    ]
    for graph in graphs:
        for name in ("indptr", "indices"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(graph, name)[0] = 1
        copy = dataclasses.replace(graph)
        indptr, indices = graph.adjacency()
        assert graph.adjacency()[1] is indices  # built once
        assert indptr.tolist() == graph.indptr.tolist() and indices == graph.indices.tolist()
        assert graph == copy and copy._adjacency is None
        assert "_adjacency" not in repr(graph)


def test_graphs_compare_by_value():
    graph = Graph.from_edges([(0, 1), (1, 2)], 3)
    same = Graph.from_edges(np.asarray([(2, 1), (1, 0)]), 3)
    assert same.indptr is not graph.indptr and same.indices is not graph.indices
    assert graph == same and not graph != same
    graph.adjacency()  # built on one side only
    assert graph == same
    assert graph != Graph.from_edges([(0, 1)], 3)
    assert graph != Graph.from_edges([(0, 1), (1, 2)], 4)
    assert graph != Graph.from_edges([(0, 1), (1, 2)], 3, directed=True)
    assert graph != Graph.from_edges([(0, 1), (1, 2)], 3, labels=["a", "b", "c"])
    assert graph != (3, False, graph.labels, graph.indptr, graph.indices)


def test_graph_rejects_out_of_range_edges():
    with pytest.raises(ValueError):
        Graph.from_edges([(0, 9)], 3)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)
        )
    ),
    st.booleans(),
)
def test_from_edges_matches_the_unique_rows_reference(case, directed):
    node_count, edges = case
    # Small node counts give self-loops; add reversed and repeated edges too.
    edges = edges + [(v, u) for u, v in edges[::2]] + edges[:3]
    indptr, indices = unique_rows_csr(edges, node_count, directed)
    # The same pairs as a list of tuples and as an (m, 2) array.
    for given_edges in (edges, np.asarray(edges, dtype=np.int64).reshape(-1, 2)):
        graph = Graph.from_edges(given_edges, node_count, directed=directed)
        assert graph.indptr.dtype == indptr.dtype and graph.indptr.tolist() == indptr.tolist()
        assert graph.indices.dtype == indices.dtype and graph.indices.tolist() == indices.tolist()


# Labels with inner and edge spaces (also U+3000, a non-ASCII space),
# non-ASCII text, a leading '#', characters that str.splitlines() (but not
# file iteration) breaks at, NUL bytes, labels of 7 to 9 and of 300 bytes
# (one or several 8-byte words), and labels that are prefixes of others.
_FILE_LABELS = [
    "a", "b", "a b", " c", "d ", "é", "日本", "#e", "u\x1cv", "f\u2028g",
    "\x00", "a\x00", "abcdefg", "abcdefgh", "abcdefghi", "x" * 300, "x" * 299 + "y", "é" * 150, "日",
    "\u3000h", "g\u3000",
]  # fmt: skip
_GOOD_STAMPS = ["0", "1.5", "-2", "1_000", "1e3", " 7", "٣", "+4.25"]
_BAD_STAMPS = [" nan", "inf", "x", "1__0"]


def _plain_ends(field: str) -> bool:
    """Whether ``field`` starts and ends in an ASCII non-space other than a leading '#'."""
    return field == field.strip() and (field[0] + field[-1]).isascii() and field[0] != "#"


@st.composite
def _two_column_file(draw, first: list[str], second: list[str], malformed: bool) -> str:
    """Text of a two-column file: data lines, comments, blanks, odd line endings.

    A third of the files are plain: LF only, no padding, comment or blank
    line, and only fields with ASCII, non-space ends that do not start with
    '#'. Such a file is read without stripping its lines. Another third end
    every line with LF and pad none, but may hold any field, comment or
    blank line.
    """
    form = draw(st.sampled_from(["plain", "lf", "any"]))
    if form == "plain":
        first, second = list(filter(_plain_ends, first)), list(filter(_plain_ends, second))
    kinds = ["pair"] * 6 + ([] if form == "plain" else ["comment", "blank"])
    kinds += ["one", "three", "four", "empty"] if malformed else []
    text = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        a, b = draw(st.sampled_from(first)), draw(st.sampled_from(second))
        line = {
            "pair": f"{a}\t{b}",
            "comment": f"{draw(st.sampled_from(['', '  ']))}#{a}\t{b}",
            "blank": draw(st.sampled_from(["", "  ", "\t", "\x0c", " \u2028 "])),
            "one": a,
            "three": f"{a}\t{b}\t{a}",
            "four": f"{a}\t{b}\t{a}\t{b}",
            "empty": f"{a}\t\t{b}",
        }[kind]
        if form != "any":
            text.append(line + "\n")
            continue
        pad = draw(st.sampled_from(["", " ", "\t", " \t"]))
        text.append(pad + line + draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if text and draw(st.booleans()):
        text[-1] = text[-1].rstrip("\r\n")
    return "".join(text)


def _outcome(load, *args):
    try:
        return load(*args)
    except ValueError as exc:
        return exc


def _assert_same_outcome(got, want):
    """Both loaders raised the same error, or neither raised."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert not isinstance(got, Exception), got


def _assert_same_graph(got: Graph, want: Graph) -> None:
    assert got == want
    assert list(got._label_index.items()) == list(want._label_index.items())
    for name in ("indptr", "indices"):
        assert getattr(got, name).dtype == getattr(want, name).dtype == np.int64
    assert graph_fingerprint(got) == graph_fingerprint(want)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data(), st.booleans(), st.booleans())
def test_load_graph_matches_the_line_by_line_reference(tmp_path_factory, data, malformed, directed):
    path = tmp_path_factory.getbasetemp() / "edges.tsv"
    path.write_bytes(data.draw(_two_column_file(_FILE_LABELS, _FILE_LABELS, malformed)).encode("utf-8"))
    want = _outcome(line_load_graph, str(path), directed)
    got = _outcome(load_graph, str(path), directed)
    _assert_same_outcome(got, want)
    if not isinstance(want, Exception):
        _assert_same_graph(got, want)


@pytest.mark.parametrize("line_end", ["\n", " \r\n"])
def test_load_graph_interns_thousands_of_labels_as_the_reference(tmp_path, line_end):
    # About 5k labels of 1 to 40 characters, some non-ASCII, many sharing a
    # prefix with others, so the interning sorts keys of 1 to 16 words.
    rng = np.random.default_rng(11)
    alphabet = "ab\x00é本"
    labels = sorted({"".join(alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, 41))) for _ in range(6000)})
    labels = [lab for lab in labels if lab.strip() == lab][:5000]
    assert len(labels) > 4500
    edges = rng.integers(0, len(labels), size=(8000, 2)).tolist()
    path = tmp_path / "many.tsv"
    path.write_bytes("".join(f"{labels[u]}\t{labels[v]}{line_end}" for u, v in edges).encode("utf-8"))
    want = line_load_graph(str(path))
    assert want.node_count > 4000
    _assert_same_graph(load_graph(str(path)), want)


def test_load_graph_memory_stays_below_the_line_splitting_reader(tmp_path):
    # 10k nodes and 20k edges labelled as in the benchmark inputs. The reader
    # that split the text into one string per field peaked at 3,572,094
    # bytes here (tracemalloc, Python 3.11, numpy 2.4); this one, at about
    # 2.0 MB.
    edges = np.random.default_rng(0).integers(0, 10_000, size=(20_000, 2))
    path = tmp_path / "g.tsv"
    path.write_text("".join(f"u{u}\tu{v}\n" for u, v in edges.tolist()))
    load_graph(str(path))
    tracemalloc.start()
    try:
        load_graph(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.57e6


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data(), st.booleans())
def test_load_trend_matches_the_line_by_line_reference(tmp_path_factory, data, malformed):
    # Every label, also in the stripped form a line start or end leaves; only
    # malformed files name a node the graph lacks.
    labels = _FILE_LABELS + ["c", "d", "h"]
    graph = Graph.from_edges([], len(labels), labels)
    path = tmp_path_factory.getbasetemp() / "actions.tsv"
    first = labels + (["ghost"] if malformed else [])
    second = _GOOD_STAMPS + (_BAD_STAMPS if malformed else [])
    path.write_bytes(data.draw(_two_column_file(first, second, malformed)).encode("utf-8"))
    want = _outcome(line_load_trend, str(path), graph)
    got = _outcome(load_trend, str(path), graph)
    _assert_same_outcome(got, want)
    if not isinstance(want, Exception):
        for name in ("nodes", "times"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist()


# Labels a trend field can name: longer than 7 bytes (several key words),
# non-ASCII, with an embedded NUL, and sharing 8-byte prefixes; and labels
# it cannot: a lone surrogate is not UTF-8, and a file field holds no tab.
_LIST_LABELS = [
    "a", "abcdefg", "abcdefgh", "abcdefghi", "abcdefgh-1", "abcdefgh-2", "x\x00y", "\x00" * 9,
    "ノード", "ノード-長いラベル", "é" * 40, "u7", "\ud800", "t\tab",
]  # fmt: skip
# Fields that name no node: prefixes and extensions of the labels above, of
# the same word count and of others.
_GHOSTS = ["abcdefgh-3", "abcdefghj", "ab", "ノード-", "é" * 39, "x\x00", "u40"]


def _file_can_name(label: str) -> bool:
    """Whether a trend line can name ``label``: UTF-8, no tab, and nothing that stripping a line removes."""
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return "\t" not in label and label == label.strip()


def _graphs_not_read_from_a_file() -> dict[str, Graph]:
    n = len(_LIST_LABELS)
    from_edges = Graph.from_edges([(i, (i + 1) % n) for i in range(n)], n, _LIST_LABELS)
    # Every other node edgeless, so the kept nodes are renumbered.
    sparse = Graph.from_edges([(i, i + 2) for i in range(0, n - 2, 4)], n, _LIST_LABELS, directed=True)
    return {
        "from_edges": from_edges,
        "drop_edgeless_nodes": drop_edgeless_nodes(sparse),
        "random_graph": random_graph(40, 30, seed=3),
    }


@pytest.mark.parametrize("kind", ["from_edges", "drop_edgeless_nodes", "random_graph"])
def test_load_trend_on_graphs_not_read_from_a_file_matches_the_reference(tmp_path, kind):
    graph = _graphs_not_read_from_a_file()[kind]
    named = list(filter(_file_can_name, graph.labels))
    assert len(named) >= min(graph.node_count, 8)
    lines = [f"{label}\t{0.5 * i}\n" for i, label in enumerate(named * 3)]
    good = tmp_path / "good.tsv"
    good.write_text("".join(lines[::-1]), encoding="utf-8")
    got, want = load_trend(str(good), graph), line_load_trend(str(good), graph)
    for name in ("nodes", "times"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist()
    for ghost in _GHOSTS:
        bad = tmp_path / "bad.tsv"
        bad.write_text("".join(lines[:5]) + f"{ghost}\t1.0\n" + "".join(lines[5:]), encoding="utf-8")
        _assert_same_outcome(_outcome(load_trend, str(bad), graph), _outcome(line_load_trend, str(bad), graph))
        assert isinstance(_outcome(load_trend, str(bad), graph), UnknownNodeError)


def _loaded_pair(tmp_path) -> tuple[str, Graph]:
    """An edge file over labels of one and of several key words, and the reference graph it gives."""
    labels = list(filter(_file_can_name, _LIST_LABELS)) + [f"n{i}" for i in range(30)]
    path = tmp_path / "g.tsv"
    path.write_text("".join(f"{labels[i]}\t{labels[(3 * i + 1) % len(labels)]}\n" for i in range(len(labels))), encoding="utf-8")
    return str(path), line_load_graph(str(path))


@pytest.mark.parametrize("first_read", ["labels", "index_of", "eq", "fingerprint", "replace", "repr", "load_trend"])
def test_a_loaded_graph_reads_as_the_eager_one_whichever_is_read_first(tmp_path, first_read):
    path, eager = _loaded_pair(tmp_path)
    lazy = load_graph(path)
    assert "labels" not in lazy.__dict__
    trend = tmp_path / "t.tsv"
    trend.write_text("".join(f"{label}\t{i}\n" for i, label in enumerate(eager.labels)), encoding="utf-8")
    first = {
        "labels": lambda g: g.labels,
        "index_of": lambda g: [g.index_of(label) for label in eager.labels],
        "eq": lambda g: g == eager,
        "fingerprint": graph_fingerprint,
        "replace": dataclasses.replace,
        "repr": repr,
        "load_trend": lambda g: load_trend(str(trend), g).nodes.tolist(),
    }[first_read]
    assert first(lazy) == first(eager)
    assert lazy.labels == eager.labels
    assert [lazy.index_of(label) for label in eager.labels] == list(range(eager.node_count))
    assert lazy == eager and eager == lazy
    assert graph_fingerprint(lazy) == graph_fingerprint(eager)
    assert dataclasses.replace(lazy) == eager and dataclasses.replace(lazy).labels == eager.labels
    assert repr(lazy) == repr(eager)
    assert load_trend(str(trend), lazy).nodes.tolist() == load_trend(str(trend), eager).nodes.tolist()
    with pytest.raises(UnknownNodeError, match="^unknown node label 'ghost'$"):
        lazy.index_of("ghost")


def test_loading_decodes_no_label_until_one_is_read(tmp_path, monkeypatch):
    # The learn and predict path: load the graph and a trend, gather the
    # acting nodes' proximity rows.
    path, eager = _loaded_pair(tmp_path)
    trend_path = tmp_path / "t.tsv"
    trend_path.write_text("".join(f"{label}\t{i}\n" for i, label in enumerate(eager.labels[::2])), encoding="utf-8")
    decoded = []
    decode = core._LabelKeys.decode
    monkeypatch.setattr(core._LabelKeys, "decode", lambda keys, *nodes: decoded.append(keys) or decode(keys, *nodes))
    graph = load_graph(path)
    trend = load_trend(str(trend_path), graph)
    ProximityMap(graph, ProximityConfig()).gather(np.unique(trend.nodes))
    assert decoded == [] and not {"labels", "_label_index"} & graph.__dict__.keys()
    assert trend.nodes.tolist() == list(range(0, eager.node_count, 2))
    assert graph.labels == eager.labels and len(decoded) == 1
    assert graph.labels is graph.labels and len(decoded) == 1


@pytest.mark.parametrize("acting", ["one-word", "several-word", "non-ascii", "every", "none"])
def test_write_trend_decodes_only_the_written_labels(tmp_path, monkeypatch, acting):
    # A loaded graph writes the bytes of the eager one, line by line as
    # ``label<TAB>repr(t)``, in blocks of 5 lines here, and decodes the
    # acting nodes' labels only, in one ``_decode``; its full label list
    # stays undecoded.
    path, eager = _loaded_pair(tmp_path)
    picks = {
        "one-word": lambda label: len(label.encode("utf-8")) < 8,
        "several-word": lambda label: len(label.encode("utf-8")) >= 8 and label.isascii(),
        "non-ascii": lambda label: not label.isascii(),
        "every": lambda label: True,
        "none": lambda label: False,
    }[acting]
    nodes = [u for u, label in enumerate(eager.labels) if picks(label)]
    rng = np.random.default_rng(3)
    trend = Trend(rng.permutation(np.repeat(np.asarray(nodes, dtype=np.int64), 2)), rng.random(2 * len(nodes)) * 1e3)
    want = "".join(f"{eager.labels[u]}\t{t!r}\n" for u, t in trend).encode("utf-8")
    decoded = []
    decode = core._decode
    monkeypatch.setattr(core, "_decode", lambda buf, starts, lengths: decoded.append(len(starts)) or decode(buf, starts, lengths))
    monkeypatch.setattr(core, "_WRITE_LINES", 5)
    graph = load_graph(path)
    write_trend(str(tmp_path / "lazy.tsv"), trend, graph)
    assert decoded == ([len(nodes)] if nodes else []) and "labels" not in graph.__dict__
    write_trend(str(tmp_path / "eager.tsv"), trend, eager)
    assert (tmp_path / "lazy.tsv").read_bytes() == (tmp_path / "eager.tsv").read_bytes() == want
    back = load_trend(str(tmp_path / "lazy.tsv"), graph)
    assert back.nodes.tolist() == trend.nodes.tolist() and back.times.tolist() == trend.times.tolist()


@pytest.mark.parametrize("held_out", [False, True])
def test_load_trend_finds_thousands_of_labels_as_the_reference(tmp_path, held_out):
    # About 4k labels of 1 to 40 characters over bytes below and above 0x80,
    # so the graph's keys span 1 to 16 words and both signs; labels of the
    # same alphabet left out of the graph, each next to graph labels in
    # sorted order, name no node.
    rng = np.random.default_rng(12)
    alphabet = "ab\x00é本"
    labels = sorted({"".join(alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, 41))) for _ in range(5000)})
    labels = [lab for lab in labels if lab.strip() == lab]
    kept, ghosts = [lab for i, lab in enumerate(labels) if i % 10], labels[::10]
    graph_path = tmp_path / "g.tsv"
    edges = rng.integers(0, len(kept), size=(len(kept), 2))
    edges[:, 0] = np.arange(len(kept))
    graph_path.write_bytes("".join(f"{kept[u]}\t{kept[v]}\n" for u, v in edges.tolist()).encode("utf-8"))
    graph = load_graph(str(graph_path))
    assert graph.node_count == len(kept)
    named = [kept[i] for i in rng.integers(0, len(kept), size=3000)]
    if held_out:
        named[1234] = ghosts[7]
    path = tmp_path / "t.tsv"
    path.write_bytes("".join(f"{label}\t{0.25 * i}\n" for i, label in enumerate(named)).encode("utf-8"))
    got, want = _outcome(load_trend, str(path), graph), _outcome(line_load_trend, str(path), graph)
    _assert_same_outcome(got, want)
    if held_out:
        assert isinstance(got, UnknownNodeError) and ":1235: " in str(got)
    else:
        assert got.nodes.tolist() == want.nodes.tolist() and got.times.tolist() == want.times.tolist()
