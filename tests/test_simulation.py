import io
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg

from trendcast.activeness import ActivenessParams
from trendcast.core import AggregateSeries, Graph, IntervalGrid, Trend, write_aggregate_csv
from trendcast.evaluation import evaluate_prediction
from trendcast.proximity import ProximityConfig, ProximityMap
from trendcast.simulation import (
    ExplosionError,
    PredictionReport,
    SimConfig,
    Streams,
    _BASELINE_RUN_KEY,
    _CAP_MARGIN,
    _JITTER_KEY,
    _SEED_PICK_KEY,
    branching_bound,
    generate_synthetic,
    init_streams,
    predict,
    simulate,
    summarize_runs,
)

from oracles import ActivenessModel, brute_force_longest_run, random_instance, time_step_self_excited_counts


def single_node_setup(alpha: float, tau: float, epsilon: float = 0.0):
    graph = Graph.from_edges([], 1)
    prox = ProximityMap(graph, ProximityConfig(kind="sp"))
    params = ActivenessParams(alpha, tau, epsilon, t0=0.0)
    trend = Trend(np.asarray([0]), np.asarray([0.0]))
    return graph, prox, params, trend


def test_init_streams_carry_the_decayed_prefix():
    graph, prox, trend = random_instance(seed=6, max_nodes=25, max_actions=12)
    params = ActivenessParams(alpha=0.8, tau=1.5, epsilon=0.25, t0=float(trend.times[0]))
    t_start = float(trend.times[-1]) + 0.5
    # One more action, at a node that acts nowhere else, whose exp decay underflows to 0.0 by t_start.
    stale = int(np.setdiff1d(np.arange(graph.node_count), trend.nodes)[0])
    stale_time = t_start - 1400.0 * params.tau
    trend = Trend(np.r_[stale, trend.nodes], np.r_[stale_time, trend.times])
    streams = init_streams(trend, prox, params, t_start, graph.node_count, mass_floor=0.0)
    assert stale not in prox.stored_sources()  # a fully decayed actor builds no row
    residual = params.epsilon * math.exp(-(t_start - params.t0) / params.tau)
    total = streams.coefficient.sum() - residual * graph.node_count
    model = ActivenessModel(trend, prox, params)
    expected = [model.activeness(v, t_start) for v in range(graph.node_count)]
    assert total == pytest.approx(sum(e - residual for e in expected), rel=1e-9)
    assert streams.node.tolist() == list(range(graph.node_count))
    assert streams.coefficient.tolist() == pytest.approx(expected, rel=1e-9)
    assert np.all(streams.anchor == t_start) and np.all(streams.tau == params.tau)


def test_init_streams_spread_a_random_walk_prefix_without_building_a_row():
    graph, prox, trend = random_instance(seed=6, max_nodes=25, max_actions=12, kind="random_walk")
    params = ActivenessParams(alpha=0.8, tau=1.5, epsilon=0.25, t0=float(trend.times[0]))
    t_start = float(trend.times[-1]) + 0.5
    streams = init_streams(trend, prox, params, t_start, graph.node_count, mass_floor=0.0)
    assert len(prox.stored_sources()) == 0
    model = ActivenessModel(trend, prox, params)
    expected = [model.activeness(v, t_start) for v in range(graph.node_count)]
    assert streams.node.tolist() == list(range(graph.node_count))
    weight = params.alpha * np.exp((trend.times - t_start) / params.tau).sum()
    assert np.abs(streams.coefficient - expected).max() <= prox.config.rw_tolerance * weight


def test_init_streams_mass_floor_drops_tiny_streams():
    graph, prox, params, trend = single_node_setup(alpha=1e-14, tau=1.0)
    streams = init_streams(trend, prox, params, 0.0, 1, mass_floor=1e-12)
    assert len(streams) == 0


@pytest.mark.parametrize("epsilon", [0.0, 0.25])
def test_a_subnormal_prefix_weight_changes_no_coefficient(epsilon):
    graph, prox, trend = random_instance(seed=6, max_nodes=25, max_actions=12)
    params = ActivenessParams(alpha=0.8, tau=1.5, epsilon=epsilon, t0=float(trend.times[0]))
    t_start = float(trend.times[-1]) + 0.5
    # exp(-720) is about 2.9e-313: plain exp keeps it as a subnormal weight, not 0.0.
    assert 0.0 < math.exp(-720.0) < np.finfo(np.float64).tiny
    stale = int(np.setdiff1d(np.arange(graph.node_count), trend.nodes)[0])
    with_stale = Trend(np.r_[stale, trend.nodes], np.r_[t_start - 720.0 * params.tau, trend.times])
    want = init_streams(trend, prox, params, t_start, graph.node_count)
    got = init_streams(with_stale, prox, params, t_start, graph.node_count)
    assert stale in prox.stored_sources()  # the weight was not zero, so its row was spread
    assert got.node.tolist() == want.node.tolist()
    assert got.coefficient.tobytes() == want.coefficient.tobytes()


def test_simulate_takes_row_sums_from_its_one_gather(monkeypatch):
    graph = Graph.from_edges([(0, 1), (1, 2), (3, 4)], 5, directed=True)
    prox = ProximityMap(graph, ProximityConfig(kind="sp", b=1.0))
    params = ActivenessParams(0.4, 1.0, epsilon=0.0, t0=0.0)
    streams = init_streams(Trend(np.asarray([0, 3]), np.zeros(2)), prox, params, 0.0, graph.node_count)

    def refuse(*args):
        raise AssertionError("simulate must read row sums off the rows it gathers")

    monkeypatch.setattr(ProximityMap, "row_sums", refuse)
    monkeypatch.setattr(ProximityMap, "row_sum", refuse)
    config = SimConfig(t_start=0.0, t_end=3.0, runs=1, seed=31)
    children = sum(simulate(streams, prox, params, config, run_index=r)[1].child_events for r in range(50))
    assert children > 0


def test_simulate_is_deterministic_per_seed_and_run():
    graph, prox, params, trend = single_node_setup(alpha=0.6, tau=1.0)
    config = SimConfig(t_start=0.0, t_end=5.0, runs=1, seed=99)
    streams = init_streams(trend, prox, params, 0.0, 1)
    a, stats_a = simulate(streams, prox, params, config, run_index=0)
    b, stats_b = simulate(streams, prox, params, config, run_index=0)
    assert a.times.tolist() == b.times.tolist()
    assert stats_a == stats_b
    c, _ = simulate(streams, prox, params, config, run_index=1)
    assert a.times.tolist() != c.times.tolist() or len(a) == len(c) == 0


def test_spawn_keys_of_da_runs_auxiliary_streams_and_baseline_runs_never_meet():
    # DA run r draws from key r, and simulate takes only r in [0, 2**61)
    graph, prox, params, trend = single_node_setup(alpha=0.5, tau=1.0)
    streams = init_streams(trend, prox, params, 0.0, 1)
    config = SimConfig(t_start=0.0, t_end=1.0, runs=1, seed=0)
    simulate(streams, prox, params, config, run_index=2**61 - 1)
    for run_index in (-1, 2**61):
        with pytest.raises(ValueError, match="run_index"):
            simulate(streams, prox, params, config, run_index)
    # the auxiliary keys lie between them and baseline run r's key _BASELINE_RUN_KEY + r
    auxiliary = {_SEED_PICK_KEY, _JITTER_KEY}
    assert len(auxiliary) == 2
    assert 2**61 <= min(auxiliary) and max(auxiliary) < _BASELINE_RUN_KEY


def test_simulate_respects_the_horizon():
    graph, prox, params, trend = single_node_setup(alpha=0.9, tau=2.0)
    config = SimConfig(t_start=0.0, t_end=3.0, runs=1, seed=5)
    # streams anchored before t_start fire from their anchor on
    early = Streams(np.zeros(2, dtype=np.int64), np.array([2.0, 0.5]), np.full(2, -2.5), np.array([1.5, 4.0]))
    for anchor, streams in ((0.0, init_streams(trend, prox, params, 0.0, 1)), (-2.5, early)):
        for run in range(50):
            result, _ = simulate(streams, prox, params, config, run_index=run)
            assert np.all(result.times >= anchor)
            assert np.all(result.times < 3.0)


def test_simulate_event_cap_raises_explosion_error():
    graph, prox, params, trend = single_node_setup(alpha=5.0, tau=2.0)
    config = SimConfig(t_start=0.0, t_end=500.0, runs=1, seed=11, max_events=2000)
    streams = init_streams(trend, prox, params, 0.0, 1)
    with pytest.raises(ExplosionError, match="2000"):
        for run in range(20):
            simulate(streams, prox, params, config, run_index=run)
    # The cap is checked on the drawn count, before the events are
    # allocated: a single stream with a huge mean fails fast, even one past
    # the largest mean numpy can draw.
    config = SimConfig(t_start=0.0, t_end=1.0, runs=1, seed=11, max_events=1000)
    for coefficient in (1e15, 1e300):
        start = time.perf_counter()
        with pytest.raises(ExplosionError, match="1000"):
            single = Streams(np.zeros(1, dtype=np.int64), np.full(1, coefficient), np.zeros(1), np.ones(1))
            simulate(single, prox, params, config)
        assert time.perf_counter() - start < 5.0


def test_single_node_counts_match_time_step_oracle():
    alpha, tau, t_end, runs = 0.5, 1.0, 3.0, 8_000
    graph, prox, params, trend = single_node_setup(alpha, tau)
    config = SimConfig(t_start=0.0, t_end=t_end, runs=runs, seed=2024)
    streams = init_streams(trend, prox, params, 0.0, 1)
    counts = np.asarray(
        [simulate(streams, prox, params, config, run_index=r)[1].events for r in range(runs)]
    )
    oracle = time_step_self_excited_counts(
        alpha, tau, alpha, t_end, dt=1e-3 * tau, runs=runs, rng=np.random.default_rng(77)
    )
    # the expected rate solves a renewal equation whose solution is
    # alpha * exp(-(1 - alpha * tau) * t / tau); integrating over [0, T]
    # gives the exact expected count below
    beta = (1.0 - alpha * tau) / tau
    exact = alpha * (1.0 - math.exp(-beta * t_end)) / beta
    sim_sem = counts.std(ddof=1) / math.sqrt(runs)
    oracle_sem = oracle.std(ddof=1) / math.sqrt(runs)
    assert counts.mean() == pytest.approx(exact, abs=3.5 * sim_sem)
    assert counts.mean() == pytest.approx(oracle.mean(), abs=3.5 * math.hypot(sim_sem, oracle_sem))


def _linear_mean_counts(edges, n, actors):
    """Mean per-node event counts over 4,000 runs, their standard errors, and the exact mean."""
    alpha, tau, t_end, runs = 0.4, 1.0, 3.0, 4_000
    graph = Graph.from_edges(edges, n, directed=True)
    prox = ProximityMap(graph, ProximityConfig(kind="sp", b=1.0))
    params = ActivenessParams(alpha, tau, epsilon=0.0, t0=0.0)
    trend = Trend(np.asarray(actors), np.zeros(len(actors)))
    config = SimConfig(t_start=0.0, t_end=t_end, runs=runs, seed=31)
    streams = init_streams(trend, prox, params, 0.0, graph.node_count)
    counts = np.asarray([
        np.bincount(simulate(streams, prox, params, config, run_index=r)[0].nodes, minlength=n)
        for r in range(runs)
    ])
    # Each event at u adds alpha * K[u] to the rates, so the expected
    # decayed-influence vector x solves x' = A x with A = alpha K^T - I/tau,
    # and the expected rate alpha K^T x integrates to A^-1 (e^{AT} - I) x0,
    # x0 = alpha times the sum of the actors' rows K[u].
    kernel = np.asarray([[prox.row(u).get(v, 0.0) for v in range(n)] for u in range(n)])
    a = alpha * kernel.T - np.eye(n) / tau
    expected = np.linalg.solve(a, (linalg.expm(a * t_end) - np.eye(n)) @ (alpha * kernel[actors].sum(axis=0)))
    return counts.mean(axis=0), counts.std(axis=0, ddof=1) / math.sqrt(runs), expected


def test_per_node_counts_match_linear_mean_on_a_path():
    mean, sem, expected = _linear_mean_counts([(0, 1), (1, 2)], 3, [0])
    assert np.all(np.abs(mean - expected) < 3.5 * sem)


def test_per_node_counts_match_linear_mean_on_two_components():
    # Rows of 3 and 2 entries, both acting: a generation then has parents in
    # both components, and a row offset error in the child marks would move
    # mass from one component to the other.
    mean, sem, expected = _linear_mean_counts([(0, 1), (1, 2), (3, 4)], 5, [0, 3])
    assert np.all(np.abs(mean - expected) < 3.5 * sem)


@pytest.mark.parametrize("short", ["node", "coefficient", "anchor", "tau"])
def test_streams_reject_arrays_of_unequal_length(short):
    fields = {"node": np.arange(2), "coefficient": np.ones(2), "anchor": np.zeros(2), "tau": np.ones(2)}
    fields[short] = fields[short][:1]
    with pytest.raises(ValueError, match="equal length"):
        Streams(**fields)


def test_branching_ratio_stays_subcritical():
    graph, prox, trend = random_instance(seed=12, max_nodes=30, max_actions=10)
    max_row = max(prox.row_sum(v) for v in range(graph.node_count))
    params = ActivenessParams(alpha=0.5 / max_row, tau=1.0, epsilon=0.0, t0=float(trend.times[0]))
    config = SimConfig(t_start=float(trend.times[-1]), t_end=float(trend.times[-1]) + 20.0, seed=4)
    streams = init_streams(trend, prox, params, config.t_start, graph.node_count)
    total = children = 0
    for run in range(300):
        _, s = simulate(streams, prox, params, config, run_index=run)
        total += s.events
        children += s.child_events
    assert total > 0
    assert children / total < 1.0


def test_predict_report_shape_and_cv_markers():
    graph, prox, params, trend = single_node_setup(alpha=0.7, tau=1.0)
    grid = IntervalGrid(0.0, 1.0, 4)
    report = predict(
        trend, 1, prox, params,
        SimConfig(t_start=0.0, t_end=4.0, runs=40, seed=3), grid,
        theta=0.0, measure="coverage",
    )
    assert report.runs == 40
    assert report.intensity_mean.shape == (4,)
    assert 0.0 <= report.duration_covering_fraction <= 1.0
    single = predict(
        trend, 1, prox, params,
        SimConfig(t_start=0.0, t_end=4.0, runs=1, seed=3), grid,
    )
    assert np.isnan(single.intensity_cv).all()
    assert np.isnan(single.coverage_cv).all()


def test_predict_rejects_mismatched_grid_and_zero_runs():
    graph, prox, params, trend = single_node_setup(alpha=0.5, tau=1.0)
    config = SimConfig(t_start=0.0, t_end=4.0, runs=10, seed=0)
    with pytest.raises(ValueError, match="grid"):
        predict(trend, 1, prox, params, config, IntervalGrid(0.5, 1.0, 4))
    with pytest.raises(ValueError, match="before the grid's end"):
        predict(trend, 1, prox, params, config, IntervalGrid(0.0, 1.0, 5))
    with pytest.raises(ValueError, match="runs"):
        SimConfig(t_start=0.0, t_end=4.0, runs=0, seed=0)


def test_each_csv_write_builds_the_grid_edges_once():
    # Each ``edges`` read builds the whole array, so reading it per row made
    # a write quadratic in the interval count. The rows keep their bytes.
    grid = IntervalGrid(1700000000.0, 0.1, 50)
    values = np.linspace(0.0, 4.0, grid.count)
    report = PredictionReport(grid, 3, 1.0, "coverage", values, values / 3, values + 1, values / 7, 0.5, 0.25)
    series = AggregateSeries(grid, np.arange(grid.count), np.arange(grid.count) // 2)
    bounds = [grid.bounds(i) for i in range(grid.count)]
    reads = []
    edges = IntervalGrid.edges

    def counted(self):
        reads.append(self)
        return edges.fget(self)

    for write in (report.write_csv, lambda fh: write_aggregate_csv(fh, series)):
        buf = io.StringIO()
        with mock.patch.object(IntervalGrid, "edges", property(counted)):
            write(buf)
        assert len(reads) == 1
        reads.clear()
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1 : grid.count + 1]]
        assert [(row[1], row[2]) for row in rows] == [(repr(lo), repr(hi)) for lo, hi in bounds]


def test_prediction_csv_roundtrip(tmp_path):
    graph, prox, params, trend = single_node_setup(alpha=0.7, tau=1.0)
    grid = IntervalGrid(0.0, 1.0, 3)
    report = predict(
        trend, 1, prox, params,
        SimConfig(t_start=0.0, t_end=3.0, runs=25, seed=8), grid,
        theta=1.0, measure="intensity",
    )
    path = tmp_path / "pred.csv"
    report.write_csv(str(path))
    back = PredictionReport.read_csv(str(path))
    assert back.runs == report.runs
    assert back.theta == report.theta
    assert back.measure == report.measure
    assert back.grid == report.grid
    np.testing.assert_allclose(back.intensity_mean, report.intensity_mean, rtol=1e-9)
    assert back.duration_covering_fraction == pytest.approx(report.duration_covering_fraction)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.integers(1, 6),
    st.lists(st.lists(st.sampled_from([0.0, 1.0, 2.0, math.nan]), min_size=6, max_size=6), min_size=1, max_size=8),
    st.sampled_from([0.0, 1.0, 1.5]),
    st.sampled_from(["intensity", "coverage"]),
)
def test_duration_vote_counts_runs_whose_longest_stretch_spans_the_grid(count, rows, theta, measure):
    grid = IntervalGrid(0.0, 1.0, count)
    matrix = [np.asarray(row[:count]) for row in rows]
    zeros = [np.zeros(count) for _ in rows]
    inten, cov = (matrix, zeros) if measure == "intensity" else (zeros, matrix)
    report = summarize_runs(grid, inten, cov, theta, measure)
    covering = [brute_force_longest_run(row.tolist(), theta) == count for row in matrix]
    assert report.duration_covering_fraction == float(np.mean(covering))


def test_prediction_csv_keeps_grid_bounds_exact(tmp_path):
    t_start = 2007.123456789
    grid = IntervalGrid(t_start, 1.0, 2)
    report = summarize_runs(grid, [np.zeros(2)], [np.zeros(2)], theta=0.0, measure="coverage")
    path = tmp_path / "pred.csv"
    report.write_csv(str(path))
    back = PredictionReport.read_csv(str(path))
    assert back.grid == grid
    truth = Trend(np.asarray([0]), np.asarray([t_start + 1e-7]))
    assert evaluate_prediction(back, truth, 0.0).truth_intensity.tolist() == [1, 0]


def test_predict_outputs_identical_bytes_for_same_seed(tmp_path):
    graph, prox, trend = random_instance(seed=15, max_nodes=20, max_actions=10)
    params = ActivenessParams(alpha=0.05, tau=1.0, epsilon=1e-9, t0=float(trend.times[0]))
    t_star = float(trend.times[-1])
    grid = IntervalGrid(t_star, 1.0, 3)
    config = SimConfig(t_start=t_star, t_end=grid.t_end, runs=30, seed=7)
    paths = []
    for name in ("a.csv", "b.csv"):
        report = predict(trend, graph.node_count, prox, params, config, grid)
        p = tmp_path / name
        report.write_csv(str(p))
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_generate_synthetic_refuses_supercritical_params():
    graph = Graph.from_edges([], 1)
    prox = ProximityMap(graph, ProximityConfig(kind="sp"))
    params = ActivenessParams(alpha=2.0, tau=1.0, epsilon=0.0, t0=0.0)
    with pytest.raises(ValueError, match="supercritical"):
        generate_synthetic(1, prox, params, 1, 5.0, seed=0)
    trend, manifest = generate_synthetic(
        1, prox, params, 1, 1.0, seed=0, allow_supercritical=True, max_events=10_000
    )
    assert manifest["supercritical"] is True
    assert manifest["branching_bound"] == pytest.approx(2.0)


@pytest.mark.parametrize("n_seeds", [0, 3])
def test_generate_synthetic_names_both_numbers_of_a_bad_seed_count(n_seeds):
    graph = Graph.from_edges([(0, 1)], 2)
    prox = ProximityMap(graph, ProximityConfig(kind="sp"))
    params = ActivenessParams(alpha=0.1, tau=1.0, epsilon=0.0, t0=0.0)
    with pytest.raises(ValueError, match=rf"got n_seeds={n_seeds} with node_count=2$"):
        generate_synthetic(2, prox, params, n_seeds, 5.0, seed=0)


def test_generate_synthetic_plants_seeds_and_is_deterministic():
    graph, prox, _ = random_instance(seed=20, max_nodes=40, max_actions=5)
    max_row = max(prox.row_sum(v) for v in range(graph.node_count))
    params = ActivenessParams(alpha=0.6 / max_row, tau=1.0, epsilon=1e-9, t0=0.0)
    a, manifest_a = generate_synthetic(graph.node_count, prox, params, 4, 10.0, seed=5)
    b, manifest_b = generate_synthetic(graph.node_count, prox, params, 4, 10.0, seed=5)
    assert a.times.tolist() == b.times.tolist()
    assert a.nodes.tolist() == b.nodes.tolist()
    assert manifest_a == manifest_b
    assert (a.times[:4] == 0.0).all()
    assert manifest_a["branching_bound"] < 1.0
    assert len(a) == manifest_a["actions"]


# alpha * tau is set to a ratio from RATIOS over a reference, either the
# degree cap or the exact max row sum, so both sides of 1 and of the cap's
# margin get hit.
RATIOS = [0.5, 1 - 1e-6, 1 - 2e-9, 1 - 1e-9, 1 - 5e-10, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-9, 1.5]


@st.composite
def bound_cases(draw):
    node_count = draw(st.integers(1, 16))
    ends = st.integers(0, node_count - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=3 * node_count))
    graph = Graph.from_edges(edges, node_count, directed=draw(st.booleans()))
    if draw(st.booleans()):
        config = ProximityConfig(kind="sp", b=draw(st.sampled_from([0.05, 0.5, 2.0, 10.0])))
    else:
        config = ProximityConfig(kind="rw", p=draw(st.floats(0.1, 0.9)))
    return graph, config, draw(st.sampled_from(["cap", "exact"])), draw(st.sampled_from(RATIOS))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(bound_cases())
@example((Graph.from_edges([], 1), ProximityConfig(kind="sp", b=0.05), "exact", 1.0))
@example((Graph.from_edges([], 1), ProximityConfig(kind="rw"), "cap", 1 - 2e-9))
def test_branching_bound_gives_the_exact_rows_verdict(case):
    graph, config, reference, ratio = case
    n = graph.node_count
    warm = ProximityMap(graph, config)
    exact = max(warm.row_sum(v) for v in range(n))
    cap = ProximityMap(graph, config).row_sum_cap()
    assert cap >= exact * (1 - 1e-9)
    tau = 0.75
    params = ActivenessParams(ratio / ((cap if reference == "cap" else exact) * tau), tau, 0.0, 0.0)
    cold = ProximityMap(graph, config)
    bound = branching_bound(cold, params, n)
    low = cold.row_sum_low()
    assert low <= exact * (1 + 1e-9)
    scale = params.alpha * params.tau
    if scale * cap < 1 - _CAP_MARGIN or scale * low >= 1 + _CAP_MARGIN:
        assert len(cold.stored_sources()) == 0
        assert bound == scale * cap
    assert bound == branching_bound(warm, params, n)
    supercritical = params.alpha * params.tau * exact >= 1.0
    assert (bound >= 1.0) == supercritical
    fresh = ProximityMap(graph, config)
    if supercritical:
        with pytest.raises(ValueError, match="supercritical"):
            generate_synthetic(n, fresh, params, 1, 1e-6, seed=0)
    else:
        _, manifest = generate_synthetic(n, fresh, params, 1, 1e-6, seed=0)
        assert manifest["branching_bound"] == bound


_CSV_FLOATS = st.floats(0.0, 1e6, allow_subnormal=False)


@st.composite
def prediction_reports(draw):
    count = draw(st.integers(1, 6))
    grid = IntervalGrid(
        draw(st.floats(-1e6, 1e6, allow_subnormal=False)),
        draw(st.floats(1e-6, 1e4)),
        count,
    )
    column = st.lists(_CSV_FLOATS, min_size=count, max_size=count).map(np.asarray)
    cv_column = st.lists(st.one_of(_CSV_FLOATS, st.just(math.nan)), min_size=count, max_size=count).map(np.asarray)
    return PredictionReport(
        grid=grid,
        runs=draw(st.integers(1, 10**6)),
        theta=draw(st.floats(-1e6, 1e6, allow_subnormal=False)),
        measure=draw(st.sampled_from(["coverage", "intensity"])),
        intensity_mean=draw(column),
        intensity_cv=draw(cv_column),
        coverage_mean=draw(column),
        coverage_cv=draw(cv_column),
        duration_covering_fraction=draw(st.floats(0.0, 1.0)),
        branching_ratio=draw(st.one_of(st.just(math.nan), st.floats(0.0, 10.0))),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(prediction_reports())
def test_prediction_csv_roundtrip_keeps_every_field(tmp_path_factory, report):
    # The grid and the run count come back exactly; means, CVs and theta are
    # written to 10 significant digits, and an absent CV stays absent.
    path = tmp_path_factory.mktemp("csv") / "pred.csv"
    report.write_csv(str(path))
    back = PredictionReport.read_csv(str(path))
    assert back.grid == report.grid
    assert back.runs == report.runs
    assert back.measure == report.measure
    assert back.theta == pytest.approx(report.theta, rel=1e-9, abs=0.0)
    for name in ("intensity_mean", "intensity_cv", "coverage_mean", "coverage_cv"):
        np.testing.assert_allclose(getattr(back, name), getattr(report, name), rtol=1e-9, atol=0.0)
