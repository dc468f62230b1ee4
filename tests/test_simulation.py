import math

import numpy as np
import pytest
from scipy import linalg, stats

from trendcast.activeness import ActivenessModel, ActivenessParams
from trendcast.core import Graph, IntervalGrid, Trend
from trendcast.evaluation import evaluate_prediction
from trendcast.proximity import ProximityConfig, ProximityMap
from trendcast.simulation import (
    DecayingStream,
    ExplosionError,
    PredictionReport,
    SimConfig,
    generate_synthetic,
    init_streams,
    predict,
    sample_next,
    simulate,
    summarize_runs,
)

from oracles import random_instance, time_step_self_excited_counts


def single_node_setup(alpha: float, tau: float, epsilon: float = 0.0):
    graph = Graph.from_edges([], 1)
    prox = ProximityMap(graph, ProximityConfig(kind="sp"))
    params = ActivenessParams(alpha, tau, epsilon, t0=0.0)
    trend = Trend(np.asarray([0]), np.asarray([0.0]))
    return graph, prox, params, trend


def test_sample_next_inverts_the_integrated_rate():
    # integrated rate from 0 is 1 - exp(-t); u = 0.5 maps to the exponential
    # quantile -log(0.5) and inverting gives t = -log(1 + log(0.5))
    stream = DecayingStream(node=0, coefficient=1.0, anchor=0.0, tau=1.0)
    expected = -math.log(1.0 + math.log(0.5))
    assert sample_next(stream, 0.0, 0.5) == pytest.approx(expected, rel=1e-12)


def test_sample_next_exhaustion_boundary():
    stream = DecayingStream(node=0, coefficient=1.0, anchor=0.0, tau=1.0)
    # total mass is 1; draws with -log(1-u) >= 1 never fire
    assert sample_next(stream, 0.0, 1.0 - math.exp(-1.0) + 1e-12) is None
    assert sample_next(stream, 0.0, 1.0 - math.exp(-1.0) - 1e-12) is not None


def test_sample_next_is_strictly_forward_and_consistent():
    stream = DecayingStream(node=0, coefficient=2.0, anchor=1.0, tau=0.7)
    rng = np.random.default_rng(0)
    t = 1.0
    for _ in range(200):
        nxt = sample_next(stream, t, float(rng.random()))
        if nxt is None:
            break
        assert nxt >= t
        t = nxt


def test_sample_next_rejects_bad_u():
    stream = DecayingStream(node=0, coefficient=1.0, anchor=0.0, tau=1.0)
    with pytest.raises(ValueError):
        sample_next(stream, 0.0, 1.0)


def test_sampled_law_matches_closed_form_cdf():
    stream = DecayingStream(node=0, coefficient=1.0, anchor=0.0, tau=1.0)
    rng = np.random.default_rng(1234)
    n = 20_000
    fired = []
    exhausted = 0
    for _ in range(n):
        t = sample_next(stream, 0.0, float(rng.random()))
        if t is None:
            exhausted += 1
        else:
            fired.append(t)
    assert exhausted / n == pytest.approx(math.exp(-1.0), abs=0.01)

    def cdf(t):
        # waiting-time law conditioned on the stream firing at all
        return (1.0 - np.exp(-(1.0 - np.exp(-t)))) / (1.0 - math.exp(-1.0))

    ks = stats.kstest(np.asarray(fired), cdf).statistic
    assert ks < 0.015


def test_init_streams_carry_the_decayed_prefix():
    graph, prox, trend = random_instance(seed=6, max_nodes=25, max_actions=12)
    params = ActivenessParams(alpha=0.8, tau=1.5, epsilon=0.25, t0=float(trend.times[0]))
    t_start = float(trend.times[-1]) + 0.5
    streams = init_streams(trend, prox, params, t_start, graph.node_count, mass_floor=0.0)
    residual = params.epsilon * math.exp(-(t_start - params.t0) / params.tau)
    total = sum(s.coefficient for s in streams) - residual * graph.node_count
    model = ActivenessModel(trend, prox, params)
    expected = sum(
        model.activeness(v, t_start) - residual for v in range(graph.node_count)
    )
    assert total == pytest.approx(expected, rel=1e-9)
    assert all(s.anchor == t_start for s in streams)


def test_init_streams_mass_floor_drops_tiny_streams():
    graph, prox, params, trend = single_node_setup(alpha=1e-14, tau=1.0)
    streams = init_streams(trend, prox, params, 0.0, 1, mass_floor=1e-12)
    assert streams == []


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


def test_simulate_respects_the_horizon():
    graph, prox, params, trend = single_node_setup(alpha=0.9, tau=2.0)
    config = SimConfig(t_start=0.0, t_end=3.0, runs=1, seed=5)
    streams = init_streams(trend, prox, params, 0.0, 1)
    for run in range(50):
        result, _ = simulate(streams, prox, params, config, run_index=run)
        assert np.all(result.times >= 0.0)
        assert np.all(result.times < 3.0)


def test_simulate_event_cap_raises_explosion_error():
    graph, prox, params, trend = single_node_setup(alpha=5.0, tau=2.0)
    config = SimConfig(t_start=0.0, t_end=500.0, runs=1, seed=11, max_events=2000)
    streams = init_streams(trend, prox, params, 0.0, 1)
    with pytest.raises(ExplosionError, match="2000"):
        for run in range(20):
            simulate(streams, prox, params, config, run_index=run)


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


def test_per_node_counts_match_linear_mean_on_a_path():
    alpha, tau, t_end, runs = 0.4, 1.0, 3.0, 4_000
    graph = Graph.from_edges([(0, 1), (1, 2)], 3, directed=True)
    prox = ProximityMap(graph, ProximityConfig(kind="sp", b=1.0))
    params = ActivenessParams(alpha, tau, epsilon=0.0, t0=0.0)
    trend = Trend(np.asarray([0]), np.asarray([0.0]))
    config = SimConfig(t_start=0.0, t_end=t_end, runs=runs, seed=31)
    streams = init_streams(trend, prox, params, 0.0, graph.node_count)
    counts = np.asarray([
        np.bincount(simulate(streams, prox, params, config, run_index=r)[0].nodes, minlength=3)
        for r in range(runs)
    ])
    # Each event at u adds alpha * K[u] to the rates, so the expected
    # decayed-influence vector x solves x' = A x with A = alpha K^T - I/tau,
    # and the expected rate alpha K^T x integrates to A^-1 (e^{AT} - I) alpha K[0].
    kernel = np.asarray([[prox.row(u).get(v, 0.0) for v in range(3)] for u in range(3)])
    a = alpha * kernel.T - np.eye(3) / tau
    expected = np.linalg.solve(a, (linalg.expm(a * t_end) - np.eye(3)) @ (alpha * kernel[0]))
    sem = counts.std(axis=0, ddof=1) / math.sqrt(runs)
    assert np.all(np.abs(counts.mean(axis=0) - expected) < 3.5 * sem)


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
    with pytest.raises(ValueError, match="runs"):
        SimConfig(t_start=0.0, t_end=4.0, runs=0, seed=0)


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
