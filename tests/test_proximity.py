import math
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trendcast import proximity
from trendcast.core import Graph, drop_edgeless_nodes, load_graph, random_graph, write_graph
from trendcast.proximity import (
    ConvergenceError,
    ProximityConfig,
    ProximityMap,
    Row,
    random_walk_row,
    shortest_path_row,
)

from oracles import dict_random_walk_row, dict_shortest_path_row, exact_random_walk_rows, random_instance


def path_graph(n: int, directed: bool = False) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)], n, directed=directed)


def left_fold(values) -> float:
    """The sum of ``values`` added one by one from the left, with no compensation."""
    total = 0.0
    for value in values:
        total += value
    return total


def bfs_distances(graph: Graph, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u).tolist():
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def test_shortest_path_three_node_chain():
    prox = ProximityMap(path_graph(3), ProximityConfig(kind="sp", b=10.0))
    row = prox.row(0)
    assert row[0] == 1.0
    assert row[1] == pytest.approx(math.exp(-10.0), rel=1e-15)
    assert row[2] == pytest.approx(math.exp(-20.0), rel=1e-15)
    assert prox.row_sum(0) == pytest.approx(1.0 + math.exp(-10.0) + math.exp(-20.0), rel=1e-15)


def test_shortest_path_floor_bounds_radius():
    # with b=10 and floor 1e-12, hop 3 scores exp(-30) < floor and is cut
    prox = ProximityMap(path_graph(5), ProximityConfig(kind="sp", b=10.0, floor=1e-12))
    row = prox.row(0)
    assert set(row) == {0, 1, 2}


def test_shortest_path_matches_bfs_distances():
    graph = random_graph(60, 120, seed=11)
    config = ProximityConfig(kind="sp", b=1.0, floor=1e-6)
    prox = ProximityMap(graph, config)
    for source in [0, 7, 33]:
        dist = bfs_distances(graph, source)
        row = prox.row(source)
        expected = {
            v: math.exp(-config.b * d)
            for v, d in dist.items()
            if math.exp(-config.b * d) >= config.floor
        }
        assert row == pytest.approx(expected, rel=1e-12)


def test_shortest_path_unreachable_nodes_absent():
    graph = Graph.from_edges([(0, 1)], 4)
    row = shortest_path_row(graph, 0, ProximityConfig(kind="sp", b=1.0))
    assert 2 not in row and 3 not in row


def test_directed_influence_follows_edges():
    graph = path_graph(3, directed=True)
    prox = ProximityMap(graph, ProximityConfig(kind="sp", b=1.0))
    assert 1 in prox.row(0)
    assert 0 not in prox.row(1)


def test_random_walk_two_node_fixed_point():
    graph = path_graph(2)
    row = random_walk_row(graph, 0, ProximityConfig(kind="rw", p=0.4))
    assert row[0] == pytest.approx(0.625, abs=1e-7)
    assert row[1] == pytest.approx(0.375, abs=1e-7)


def test_random_walk_isolated_source_keeps_all_mass():
    graph = Graph.from_edges([(1, 2)], 3)
    row = random_walk_row(graph, 0, ProximityConfig(kind="rw", p=0.4))
    assert row == {0: pytest.approx(1.0)}


def test_random_walk_satisfies_balance_equation():
    graph = random_graph(40, 70, seed=2)
    config = ProximityConfig(kind="rw", p=0.4, rw_tolerance=1e-10, floor=1e-15)
    row = random_walk_row(graph, 3, config)
    pi = np.zeros(graph.node_count)
    for v, s in row.items():
        pi[v] = s
    # apply one synchronous update by hand; a fixed point should barely move
    nxt = np.zeros_like(pi)
    for u in range(graph.node_count):
        nbrs = graph.neighbors(u).tolist()
        if nbrs:
            for v in nbrs:
                nxt[v] += (1 - config.p) * pi[u] / len(nbrs)
        else:
            nxt[3] += (1 - config.p) * pi[u]
    nxt[3] += config.p
    assert np.max(np.abs(nxt - pi)) < 1e-8
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)


def test_random_walk_convergence_cap_raises():
    graph = path_graph(6)
    config = ProximityConfig(kind="rw", p=0.4, rw_tolerance=1e-12)
    with mock.patch.object(proximity, "_RW_MAX_ITERATIONS", 2):
        with pytest.raises(ConvergenceError, match="did not converge within 2 iterations"):
            random_walk_row(graph, 0, config)


def test_row_sum_low_bounds_every_row_sum():
    graph = random_graph(12, 20, seed=3)
    for config in (ProximityConfig(kind="sp", b=0.5), ProximityConfig(kind="rw", p=0.2, floor=1e-3)):
        prox = ProximityMap(graph, config)
        assert prox.row_sum_low() <= prox.row_sums(np.arange(graph.node_count)).min() * (1 + 1e-12)
    # Above p the floor can drop every entry, the source's included: no row sum is then above 0.
    edge = Graph.from_edges([(0, 1)], 2)
    prox = ProximityMap(edge, ProximityConfig(kind="rw", p=0.4, floor=0.7))
    assert prox.row_sums(np.arange(2)).tolist() == [0.0, 0.0]
    assert prox.row_sum_low() <= 0.0


def test_row_sum_cap_is_attained_where_the_degree_bound_is_tight():
    star = Graph.from_edges([(0, v) for v in range(1, 6)], 6)
    cases = [(star, 0), (path_graph(9), 4), (path_graph(6, directed=True), 0)]
    for graph, source in cases:
        prox = ProximityMap(graph, ProximityConfig(kind="sp", b=0.5))
        assert prox.row_sum_cap() == pytest.approx(prox.row_sum(source), rel=1e-14)
    rw = ProximityMap(star, ProximityConfig(kind="rw"))
    assert rw.row_sum_cap() == 1.0


def test_rows_are_cached():
    prox = ProximityMap(path_graph(3), ProximityConfig(kind="sp"))
    assert prox.row(1) is prox.row(1)
    assert prox.row_sum(1) == prox.row_sum(1)


def test_config_validation_and_aliases():
    assert ProximityConfig(kind="sp").kind == "shortest_path"
    assert ProximityConfig(kind="rw").kind == "random_walk"
    with pytest.raises(ValueError):
        ProximityConfig(kind="euclid")
    with pytest.raises(ValueError):
        ProximityConfig(b=0.0)
    with pytest.raises(ValueError):
        ProximityConfig(p=1.0)
    with pytest.raises(ValueError):
        ProximityConfig(floor=1.5)


def test_cache_roundtrip_and_fingerprint(tmp_path):
    graph = path_graph(4)
    config = ProximityConfig(kind="sp", b=1.0)
    prox = ProximityMap(graph, config)
    for v in range(4):
        prox.row(v)
    path = tmp_path / "prox.cache"
    prox.save_cache(str(path))

    loaded = ProximityMap.load_cache(str(path), graph, config)
    assert loaded.row(2) == pytest.approx(prox.row(2), rel=1e-15)

    # Shortest-path rows read only b and floor: another p or rw_tolerance loads
    # the same rows, and the map carries the caller's config.
    for other in (ProximityConfig(kind="sp", b=1.0, p=0.3), ProximityConfig(kind="sp", b=1.0, rw_tolerance=1e-3)):
        loaded = ProximityMap.load_cache(str(path), graph, other)
        assert loaded.config == other
        assert loaded.row(2).scores.tobytes() == prox.row(2).scores.tobytes()
    for other in (ProximityConfig(kind="sp", b=2.0), ProximityConfig(kind="sp", b=1.0, floor=1e-3),
                  ProximityConfig(kind="rw")):
        with pytest.raises(ValueError, match="different proximity config"):
            ProximityMap.load_cache(str(path), graph, other)
    with pytest.raises(ValueError, match="different graph"):
        ProximityMap.load_cache(str(path), path_graph(5), config)

    # Random-walk rows read p, floor and rw_tolerance, not b.
    rw = ProximityMap(graph, ProximityConfig(kind="rw", p=0.3))
    rw.row(1)
    rw.save_cache(str(path))
    loaded = ProximityMap.load_cache(str(path), graph, ProximityConfig(kind="rw", p=0.3, b=2.0))
    assert loaded.row(1).scores.tobytes() == rw.row(1).scores.tobytes()
    for other in (ProximityConfig(kind="rw", p=0.4), ProximityConfig(kind="rw", p=0.3, rw_tolerance=1e-3),
                  ProximityConfig(kind="rw", p=0.3, floor=1e-3), ProximityConfig(kind="sp", p=0.3)):
        with pytest.raises(ValueError, match="different proximity config"):
            ProximityMap.load_cache(str(path), graph, other)



@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["sp", "rw"]),
    picks=st.lists(st.integers(0, 2**16), max_size=12),
)
@example(seed=3, kind="sp", picks=[])
@example(seed=3, kind="rw", picks=[4, 1, 4, 0, 1])
def test_cache_round_trip_is_bitwise(tmp_path_factory, seed, kind, picks):
    graph, prox, _ = random_instance(seed, max_nodes=40, max_actions=2, kind=kind)
    picked = np.asarray(picks, dtype=np.int64) % graph.node_count
    sources = np.unique(picked)
    prox.gather(sources)
    path = str(tmp_path_factory.mktemp("cache") / "prox.npz")
    prox.save_cache(path)
    loaded = ProximityMap.load_cache(path, graph, prox.config)
    assert loaded.stored_sources().tolist() == sources.tolist()
    for u in sources.tolist():
        for name in ("targets", "scores"):
            built, read = getattr(prox.row(u), name), getattr(loaded.row(u), name)
            assert built.dtype == read.dtype and built.tobytes() == read.tobytes()
        assert loaded.row_sum(u) == prox.row_sum(u)
    for built, read in zip(prox.gather(picked), loaded.gather(picked)):
        assert built.dtype == read.dtype and built.tobytes() == read.tobytes()
    assert loaded.stored_sources().tolist() == sources.tolist()  # every row came from the file


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["sp", "rw"]),
    picks=st.lists(st.integers(0, 2**16), max_size=12),
)
@example(seed=3, kind="sp", picks=[])
@example(seed=3, kind="rw", picks=[4, 1, 4, 0, 1])  # repeated and unsorted
def test_gather_matches_row_entry_for_entry(seed, kind, picks):
    graph, prox, _ = random_instance(seed, max_nodes=40, max_actions=2, kind=kind)
    sources = np.asarray(picks, dtype=np.int64) % graph.node_count
    row_start, targets, scores = prox.gather(sources)
    assert row_start.tolist()[:1] == [0] and len(row_start) == len(sources) + 1
    assert row_start[-1] == len(targets) == len(scores)
    assert targets.dtype == np.int64 and scores.dtype == np.float64
    # gather caches what it builds, so prox.row(u) would compare its rows
    # with themselves; the dict references build them independently.
    reference = dict_shortest_path_row if kind == "sp" else dict_random_walk_row
    for k, u in enumerate(sources.tolist()):
        row = reference(graph, u, prox.config)
        assert targets[row_start[k]:row_start[k + 1]].tolist() == list(row)
        assert scores[row_start[k]:row_start[k + 1]].tolist() == list(row.values())


def _sp_instance(seed: int, directed: bool, isolated: int, b: float, on_floor: bool):
    """A random_instance graph, directed by keeping a random half of its arcs, plus isolated nodes.

    With ``on_floor`` the floor is exp(-2b), so hop 2 scores exactly the
    floor and is kept.
    """
    graph, _, _ = random_instance(seed, max_nodes=40, max_actions=2)
    src = np.repeat(np.arange(graph.node_count), np.diff(graph.indptr))
    edges = np.column_stack([src, graph.indices])
    if directed:
        edges = edges[np.random.default_rng(seed).random(len(edges)) < 0.5]
    graph = Graph.from_edges(edges, graph.node_count + isolated, directed=directed)
    return graph, ProximityConfig(kind="sp", b=b, floor=math.exp(-2 * b) if on_floor else 1e-12)


def _assert_batched_rows_match_scalar_bfs(graph, config, sources):
    prox = ProximityMap(graph, config)
    row_start, targets, scores = prox.gather(sources)
    assert len(row_start) == len(sources) + 1 and row_start[-1] == len(targets)
    sums = []
    for k, u in enumerate(sources.tolist()):
        row = dict_shortest_path_row(graph, u, config)
        assert targets[row_start[k]:row_start[k + 1]].tolist() == list(row)
        assert scores[row_start[k]:row_start[k + 1]].tolist() == list(row.values())
        assert prox.row(u) == row and list(prox.row(u)) == list(row)
        sums.append(left_fold(row.values()))
    assert ProximityMap(graph, config).row_sums(sources).tolist() == sums


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**16),
    directed=st.booleans(),
    isolated=st.integers(0, 3),
    b=st.floats(0.3, 10.0),
    on_floor=st.booleans(),
    picks=st.lists(st.integers(0, 2**16), max_size=60),
    cells=st.sampled_from([1, 5, 64, 1 << 18]),
)
@example(seed=7, directed=False, isolated=2, b=0.3, on_floor=False, picks=[44, 3, 44, 41, 0, 3, 1], cells=1)
@example(seed=7, directed=True, isolated=1, b=1.0, on_floor=True, picks=[9, 9, 2, 0], cells=5)
def test_batched_gather_matches_the_scalar_bfs(seed, directed, isolated, b, on_floor, picks, cells):
    # ``cells`` shrinks the kernel's chunk budget, so the sources are
    # searched in chunks down to one row each.
    graph, config = _sp_instance(seed, directed, isolated, b, on_floor)
    sources = np.asarray(picks, dtype=np.int64) % graph.node_count
    with mock.patch.object(proximity, "_SP_CHUNK_CELLS", cells):
        _assert_batched_rows_match_scalar_bfs(graph, config, sources)


def test_batched_gather_crosses_the_chunk_budget():
    n = 2100
    sources = np.random.default_rng(5).permutation(n)[:520]
    assert len(sources) * n > proximity._SP_CHUNK_CELLS
    for directed in (False, True):
        graph = random_graph(n, 1500, seed=5, directed=directed)
        _assert_batched_rows_match_scalar_bfs(graph, ProximityConfig(kind="sp", b=0.3), sources)


def _walk_graph(seed: int, directed: bool, isolated: int) -> Graph:
    """A random graph with ``isolated`` edgeless nodes appended.

    When directed, a random fifth of the nodes lose their out-edges, so the
    graph has dangling nodes that other nodes reach.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    graph = random_graph(n, int(rng.integers(0, min(3 * n, n * (n - 1) // 2) + 1)), seed=seed, directed=directed)
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    edges = np.column_stack([src, graph.indices])
    if directed:
        edges = edges[rng.random(n)[src] >= 0.2]
    return Graph.from_edges(edges, n + isolated, directed=directed)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**16),
    directed=st.booleans(),
    isolated=st.integers(0, 2),
    p=st.floats(0.05, 0.95),
    rw_tolerance=st.sampled_from([1e-4, 1e-8, 1e-12]),
)
@example(seed=1, directed=True, isolated=2, p=0.4, rw_tolerance=1e-8)
@example(seed=1, directed=False, isolated=0, p=0.4, rw_tolerance=1e-8)
def test_random_walk_row_is_the_reference_bit_for_bit(seed, directed, isolated, p, rw_tolerance):
    # The reference gathers each edge's share by source index; the library
    # repeats the shares by out-degree and skips the returned mass when no
    # node is dangling. Every source is tested, the isolated ones included.
    graph = _walk_graph(seed, directed, isolated)
    config = ProximityConfig(kind="rw", p=p, rw_tolerance=rw_tolerance, floor=1e-15)
    for u in range(graph.node_count):
        row, reference = random_walk_row(graph, u, config), dict_random_walk_row(graph, u, config)
        assert row.targets.tolist() == list(reference)
        assert [x.hex() for x in row.scores.tolist()] == [x.hex() for x in reference.values()]


@st.composite
def walk_block_cases(draw):
    """A graph with self-loops, repeated edges and isolated nodes, a walk config and sources.

    Half the directed graphs keep only the out-edges of their first third of
    nodes, so from 14 nodes on they have more than 8 sinks, and each walk's
    dangling mass takes numpy's pairwise sum.
    """
    n = draw(st.integers(1, 30))
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=4 * n))
    edges += [(v, v) for v in draw(st.lists(ends, max_size=3))]
    edges += edges[: draw(st.integers(0, 4))]  # repeats, which the CSR collapses
    directed = draw(st.booleans())
    if directed and draw(st.booleans()):
        edges = [(u, v) for u, v in edges if u < n // 3]
    graph = Graph.from_edges(edges, n + draw(st.integers(0, 2)), directed=directed)
    config = ProximityConfig(
        kind="rw",
        p=draw(st.floats(0.05, 0.95)),
        floor=draw(st.sampled_from([1e-15, 1e-12, 1e-4, 0.3])),
        rw_tolerance=draw(st.sampled_from([1e-4, 1e-8, 1e-12])),
    )
    sources = draw(st.lists(st.integers(0, graph.node_count - 1), min_size=1, max_size=40))
    return graph, config, np.asarray(sources, dtype=np.int64)


# A directed graph whose nodes 8 to 19 are sinks, most of them reached from nodes 0 to 7, and a graph with no edge.
MANY_SINKS = Graph.from_edges([(i, i + 1) for i in range(7)] + [(i, 8 + (5 * i) % 12) for i in range(8)]
                              + [(3, 15), (6, 19)], 20, directed=True)
EDGELESS = Graph.from_edges([], 5)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(case=walk_block_cases(), cells=st.sampled_from([1, 7, 1 << 18]), cap=st.sampled_from([None, 2, 9]))
@example(case=(MANY_SINKS, ProximityConfig(kind="rw", p=0.3, floor=1e-15), np.arange(20)), cells=1 << 18, cap=None)
@example(case=(MANY_SINKS, ProximityConfig(kind="rw", p=0.3), np.asarray([19, 0, 5, 0])), cells=40, cap=9)
@example(case=(EDGELESS, ProximityConfig(kind="rw"), np.asarray([4, 0, 4])), cells=1, cap=None)
# Node 6 is isolated, so its walk stops first; then the block must name node 2.
@example(case=(Graph.from_edges([(i, i + 1) for i in range(5)], 7), ProximityConfig(kind="rw", rw_tolerance=1e-12),
               np.asarray([6, 2, 5, 0])), cells=1 << 18, cap=2)
def test_block_walk_rows_are_the_scalar_rows_bit_for_bit(case, cells, cap):
    # ``cells`` splits the sources into blocks down to one source each;
    # ``cap`` lowers the iteration cap, so some walks, or all, stop short.
    graph, config, sources = case
    with mock.patch.object(proximity, "_RW_BLOCK_CELLS", cells), \
            mock.patch.object(proximity, "_RW_MAX_ITERATIONS", cap or proximity._RW_MAX_ITERATIONS):
        try:
            rows = [random_walk_row(graph, u, config) for u in sources.tolist()]
        except ConvergenceError as exc:
            # The block names the first source, in order, whose scalar walk fails.
            with pytest.raises(ConvergenceError) as raised:
                proximity._rw_rows(graph, sources, config)
            assert str(raised.value) == str(exc)
            return
        lengths, targets, scores = proximity._rw_rows(graph, sources, config)
    targets, scores = np.concatenate(targets), np.concatenate(scores)
    assert lengths.dtype == targets.dtype == np.int64 and scores.dtype == np.float64
    assert lengths.tolist() == [len(row) for row in rows]
    start = np.cumsum(lengths) - lengths
    for row, a, b in zip(rows, start.tolist(), np.cumsum(lengths).tolist()):
        assert targets[a:b].tobytes() == row.targets.tobytes()
        assert scores[a:b].tobytes() == row.scores.tobytes()


@pytest.mark.parametrize("directed", [False, True])
def test_a_fill_walks_a_block_from_the_block_row_count_on(directed):
    graph = _walk_graph(3, directed, 1)
    assert graph.node_count > proximity._RW_BLOCK_ROWS + 1
    config = ProximityConfig(kind="rw")
    for missing in (proximity._RW_BLOCK_ROWS - 1, proximity._RW_BLOCK_ROWS):
        prox = ProximityMap(graph, config)
        prox.row(0)  # stored before the fill, so not missing
        sources = np.asarray([0, *range(missing, 0, -1), 1])  # a repeated source is missing once
        with mock.patch.object(proximity, "_rw_rows", wraps=proximity._rw_rows) as block, \
                mock.patch.object(proximity, "random_walk_row", wraps=random_walk_row) as scalar:
            prox.gather(sources)
        if missing < proximity._RW_BLOCK_ROWS:
            assert block.call_count == 0 and scalar.call_count == missing
        else:
            assert block.call_count == 1 and scalar.call_count == 0
            assert block.call_args.args[1].tolist() == list(range(missing, 0, -1))
        for u in range(missing + 1):
            _assert_row_is_the_reference(prox.row(u), dict_random_walk_row(graph, u, config))


def test_a_block_fill_keeps_its_scratch_within_the_cell_budget():
    # A floor of 0.01 keeps each row to a few entries, so the peak is the
    # block's scratch: about six float64 arrays of the cells a block walks,
    # where the 300 sources in one block take about 14 MB.
    graph = random_graph(1000, 2000, seed=6)
    config = ProximityConfig(kind="rw", floor=0.01)
    cells = 1 << 15

    def peak(budget: int) -> int:
        prox = ProximityMap(graph, config)
        with mock.patch.object(proximity, "_RW_BLOCK_CELLS", budget):
            tracemalloc.start()
            try:
                prox.gather(np.arange(300))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert peak(cells) < 8 * 8 * cells < peak(1 << 30)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**16), directed=st.booleans(), isolated=st.integers(0, 2), b=st.floats(0.3, 5.0))
@example(seed=1, directed=True, isolated=2, b=0.3)
def test_shortest_path_row_is_the_reference_before_and_after_the_adjacency_is_built(
    tmp_path_factory, seed, directed, isolated, b
):
    built = _walk_graph(seed, directed, isolated)
    graphs = [built]
    if isolated:
        graphs.append(drop_edgeless_nodes(built))
    if built.edge_count:
        path = str(tmp_path_factory.mktemp("graph") / "g.tsv")
        write_graph(path, built)
        graphs.append(load_graph(path, directed))  # labels renumbered in file order
    config = ProximityConfig(kind="sp", b=b)
    for graph in graphs:
        if not graph.node_count:
            continue
        assert graph._adjacency is None
        rows = [shortest_path_row(graph, u, config) for u in range(graph.node_count)]  # the first builds it
        assert graph._adjacency is not None
        rows.append(shortest_path_row(graph, 0, config))
        for u, row in zip([*range(graph.node_count), 0], rows):
            reference = dict_shortest_path_row(graph, u, config)
            assert row.targets.tolist() == list(reference)
            assert row.scores.tolist() == list(reference.values())


def _assert_row_is_the_reference(row, reference: dict) -> None:
    """``row`` holds ``reference``'s entries in its order and reads like it as a mapping."""
    assert isinstance(row, Row)
    assert row.targets.dtype == np.int64 and row.scores.dtype == np.float64
    assert len(row.targets) == len(row.scores) == len(row) == len(reference)
    assert row.targets.tolist() == list(reference)
    assert row.scores.tolist() == list(reference.values())
    assert list(row) == list(reference)
    assert row == reference and reference == row
    for v in [*reference, -1, max(reference) + 1]:
        assert row.get(v) == reference.get(v) and (v in row) == (v in reference)
    changed = {**reference, row.targets[-1].item(): 2.0}
    assert row != changed and changed != row


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["sp", "rw"]),
    picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=8),
)
@example(seed=3, kind="sp", picks=[4, 1, 4, 0])
@example(seed=3, kind="rw", picks=[2, 0])
def test_rows_are_aligned_arrays_on_every_build_path(tmp_path_factory, seed, kind, picks):
    graph, prox, _ = random_instance(seed, max_nodes=40, max_actions=2, kind=kind)
    config = prox.config
    sources = np.unique(np.asarray(picks, dtype=np.int64) % graph.node_count)
    # sp: gather builds two or more missing rows in one batched pass;
    # rw: one at a time. The cache holds gather's rows.
    prox.gather(sources)
    path = str(tmp_path_factory.mktemp("cache") / "prox.npz")
    prox.save_cache(path)
    loaded = ProximityMap.load_cache(path, graph, config)
    reference = dict_shortest_path_row if kind == "sp" else dict_random_walk_row
    for u in sources.tolist():
        expected = reference(graph, u, config)
        single = ProximityMap(graph, config)  # one missing row: the scalar kernel
        row = single.row(u)
        assert len(row) == len(expected) and list(row) == list(expected)
        assert row._lookup is None  # len and iteration read the arrays only
        for built in (single, prox, loaded):
            _assert_row_is_the_reference(built.row(u), expected)
            assert built.row_sum(u) == left_fold(expected.values())


def test_row_sums_fold_each_row_left_to_right(tmp_path):
    # 1 + 2**-53 rounds back to 1 at each step of a plain fold, while a
    # compensated sum (math.fsum, or the builtin sum from Python 3.12 on)
    # gives 1 + 2**-52: the row sums must be the fold on every version.
    scores = [1.0, 2.0**-53, 2.0**-53]
    assert left_fold(scores) == 1.0 != math.fsum(scores)
    graph, config = path_graph(3), ProximityConfig(kind="sp", b=1.0)
    path = str(tmp_path / "prox.npz")
    prox = ProximityMap(graph, config)
    prox.row(0).scores[:] = scores  # the row's targets are 0, 1, 2; its scores become these
    prox.save_cache(path)
    loaded = ProximityMap.load_cache(path, graph, config)
    assert loaded.row(0).targets.tolist() == [0, 1, 2] and loaded.row(0).scores.tolist() == scores
    assert loaded.row_sum(0).hex() == left_fold(scores).hex()
    sums = loaded.row_sums(np.asarray([0, 0]))
    assert sums.dtype == np.float64 and [x.hex() for x in sums.tolist()] == [left_fold(scores).hex()] * 2


_NODE = st.integers(0, 2**16)
_STORE_STEPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["row", "row_sum"]), _NODE),
    st.tuples(st.sampled_from(["gather", "row_sums"]), st.lists(_NODE, max_size=10)),
    st.tuples(st.just("reload"), st.just(0)),
), max_size=14)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["sp", "rw"]),
    directed=st.booleans(),
    isolated=st.integers(0, 2),
    cells=st.sampled_from([1, 5, 1 << 20]),
    fresh_rows=st.sampled_from([1, 2, 4096]),
    steps=_STORE_STEPS,
)
@example(seed=1, kind="sp", directed=False, isolated=1, cells=1, fresh_rows=4096,
         steps=[("row", 3), ("gather", [5, 1, 5, 0, 3]), ("reload", 0), ("row_sums", [2, 6, 1]), ("row", 7)])
@example(seed=1, kind="rw", directed=True, isolated=2, cells=1 << 20, fresh_rows=2,
         steps=[("row", 1), ("row_sum", 4), ("row", 0), ("reload", 0), ("gather", [2, 1, 2]), ("row_sum", 3)])
# _walk_graph(65536) has no edge: its random-walk rows must still hold float64 scores, or the cache refuses them.
@example(seed=65536, kind="rw", directed=False, isolated=0, cells=1, fresh_rows=1, steps=[("row", 0), ("reload", 0)])
def test_the_store_gives_the_reference_rows_in_any_order_of_calls(
    tmp_path_factory, seed, kind, directed, isolated, cells, fresh_rows, steps
):
    # Rows built by ``row`` wait among the fresh rows and merge when
    # ``fresh_rows`` wait, or at the next gather or cache write; ``cells``
    # splits a batched fill into chunks down to one row each; a reload
    # writes the rows built so far and continues on the loaded map.
    graph = _walk_graph(seed, directed, isolated)
    config = ProximityConfig(kind=kind, b=1.0 + seed % 3)
    reference = dict_shortest_path_row if kind == "sp" else dict_random_walk_row
    expected: dict[int, dict[int, float]] = {}

    def want(u: int) -> dict[int, float]:
        if u not in expected:
            expected[u] = reference(graph, u, config)
        return expected[u]

    def same(targets: np.ndarray, scores: np.ndarray, u: int) -> bool:
        return targets.tolist() == list(want(u)) and scores.tolist() == list(want(u).values())

    prox, built = ProximityMap(graph, config), set()
    path = str(tmp_path_factory.mktemp("cache") / "prox.npz")
    with mock.patch.object(proximity, "_SP_CHUNK_CELLS", cells), \
            mock.patch.object(proximity, "_FRESH_ROWS", fresh_rows):
        for op, arg in steps:
            if op == "reload":
                prox.save_cache(path)
                prox = ProximityMap.load_cache(path, graph, config)
                continue
            picks = np.asarray(arg, dtype=np.int64) % graph.node_count
            built.update(picks.reshape(-1).tolist())
            if op == "row":
                row = prox.row(int(picks))
                assert same(row.targets, row.scores, int(picks))
            elif op == "row_sum":
                assert prox.row_sum(int(picks)) == left_fold(want(int(picks)).values())
            elif op == "gather":
                row_start, targets, scores = prox.gather(picks)
                assert row_start[0] == 0 and len(row_start) == len(picks) + 1 and row_start[-1] == len(targets)
                for k, u in enumerate(picks.tolist()):
                    assert same(targets[row_start[k]:row_start[k + 1]], scores[row_start[k]:row_start[k + 1]], u)
            else:
                assert prox.row_sums(picks).tolist() == [left_fold(want(u).values()) for u in picks.tolist()]
        assert prox.stored_sources().tolist() == sorted(built)
        for u in sorted(built):
            row = prox.row(u)
            assert same(row.targets, row.scores, u)


def test_a_loaded_cache_gathers_the_files_arrays_bit_for_bit(tmp_path):
    graph = random_graph(60, 150, seed=4)
    path = str(tmp_path / "prox.npz")
    for config in (ProximityConfig(kind="sp", b=0.5), ProximityConfig(kind="rw")):
        prox = ProximityMap(graph, config)
        prox.row(17)  # one fresh row, merged by the write
        prox.gather(np.asarray([41, 3, 17, 58, 3]))
        prox.save_cache(path)
        with np.load(path) as npz:
            stored = {name: npz[name] for name in ("sources", "row_start", "targets", "scores")}
        assert stored["sources"].tolist() == [3, 17, 41, 58]
        loaded = ProximityMap.load_cache(path, graph, config)
        for name, array in zip(("row_start", "targets", "scores"), loaded.gather(stored["sources"])):
            assert array.dtype == stored[name].dtype and array.tobytes() == stored[name].tobytes()


@st.composite
def spread_cases(draw):
    """A graph (directed ones often with sinks, and isolated nodes), a kernel config and node weights."""
    n = draw(st.integers(1, 24))
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    graph = Graph.from_edges(edges, n, directed=draw(st.booleans()))
    if draw(st.booleans()):
        config = ProximityConfig(kind="sp", b=draw(st.sampled_from([0.05, 0.5, 2.0])))
    else:
        config = ProximityConfig(kind="rw", p=draw(st.floats(0.05, 0.95)))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(5e-324, 1e-308))
    return graph, config, np.asarray(draw(st.lists(weight, min_size=n, max_size=n)))


SINKS = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (4, 3), (5, 6)], 8, directed=True)
# Node 0 is a sink carrying most of the weight, so the restart mass is near
# sum(w) / p: a stop rule measured on the unit-mass walk alone misses the
# bound here by 6x.
HEAVY_SINK = Graph.from_edges([(1, 2), (2, 1), (2, 4), (3, 0), (3, 5), (3, 6), (4, 2), (4, 5), (5, 0), (5, 2),
                               (6, 4)], 7, directed=True)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(spread_cases())
@example((SINKS, ProximityConfig(kind="rw", p=0.1), np.asarray([1.0, 0, 0, 0, 2.0, 0, 0.5, 3.0])))
@example((SINKS, ProximityConfig(kind="rw", p=0.4), np.asarray([0, 0, 0, 0, 0, 0, 0, 1e-310])))
@example((SINKS, ProximityConfig(kind="rw"), np.zeros(8)))
@example((HEAVY_SINK, ProximityConfig(kind="rw", p=0.05), np.asarray([1.09, 0, 0.06, 0.12, 0.04, 0.15, 0])))
@example((path_graph(5), ProximityConfig(kind="rw", p=0.05), np.asarray([1.0, 0, 0, 0, 1.0])))
def test_spread_is_the_weighted_sum_of_the_rows(case):
    graph, config, weights = case
    prox = ProximityMap(graph, config)
    got = prox.spread(weights)
    assert got.dtype == np.float64 and got.shape == (graph.node_count,)
    if config.kind == "shortest_path":
        # The rows' entries in source order, then entry order, folded from the left.
        want = [0.0] * graph.node_count
        for u in np.flatnonzero(weights).tolist():
            for v, score in prox.row(u).items():
                want[v] += weights[u] * score
        assert got.tolist() == want
        return
    assert len(prox.stored_sources()) == 0
    want = weights @ exact_random_walk_rows(graph, config.p)
    assert np.abs(got - want).max() <= config.rw_tolerance * weights.sum()


def test_a_random_walk_spread_reads_no_stored_row():
    # A spread is the walk's fixed point: rows already built, or loaded, do
    # not change it, and it keeps the mass a row floors out.
    graph = path_graph(40)
    weights = np.zeros(graph.node_count)
    weights[[0, 3, 7]] = [0.5, 2.0, 1e-3]
    config = ProximityConfig(kind="rw", floor=1e-4)
    cold = ProximityMap(graph, config)
    warm = ProximityMap(graph, config)
    warm.gather(np.arange(graph.node_count))
    assert cold.spread(weights).tobytes() == warm.spread(weights).tobytes()
    assert len(cold.stored_sources()) == 0
    summed = weights @ exact_random_walk_rows(graph, config.p)
    assert np.count_nonzero((summed > 0) & (summed < config.floor)) > 0
    assert (cold.spread(weights) > 0).tolist() == (summed > 0).tolist()


def test_an_infinite_weight_is_refused_by_a_random_walk_spread():
    # Scaled to unit mass it would turn every entry into NaN.
    prox = ProximityMap(path_graph(3), ProximityConfig(kind="rw"))
    with pytest.raises(ValueError, match="infinite weight"):
        prox.spread(np.asarray([0.0, math.inf, 1.0]))


def test_a_zero_spread_does_not_walk():
    prox = ProximityMap(SINKS, ProximityConfig(kind="rw"))
    with mock.patch.object(proximity, "_RW_MAX_ITERATIONS", 0):
        assert prox.spread(np.zeros(SINKS.node_count)).tolist() == [0.0] * SINKS.node_count


@pytest.mark.parametrize("graph, walk", [(path_graph(6), "random-walk spread over 2 sources"),
                                         (SINKS, "reverse random walk for the dangling mass")])
def test_a_random_walk_spread_raises_at_the_iteration_cap(graph, walk):
    weights = np.zeros(graph.node_count)
    weights[[0, 1]] = 1.0
    prox = ProximityMap(graph, ProximityConfig(kind="rw", rw_tolerance=1e-12))
    with mock.patch.object(proximity, "_RW_MAX_ITERATIONS", 2):
        with pytest.raises(ConvergenceError, match=f"^{walk} did not converge within 2 iterations"):
            prox.spread(weights)
