import math
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

from oracles import dict_random_walk_row, dict_shortest_path_row, random_instance


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
