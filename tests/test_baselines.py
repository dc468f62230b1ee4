"""Cascade baseline tests: counting estimator, simulation, and mult scaling."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendcast import baselines
from trendcast.baselines import BaselineParams, fit_baseline, fit_mult_factor, predict_baseline
from trendcast.core import Graph, IntervalGrid, Trend, aggregate
from trendcast.simulation import _BASELINE_RUN_KEY, SimConfig, derived_rng

from oracles import (
    cascade_runs,
    heap_simulate_baseline,
    loop_fit_baseline,
    loop_predict_baseline,
    loop_simulate_baseline,
    random_instance,
)


def make_trend(nodes, times) -> Trend:
    return Trend(np.asarray(nodes, dtype=np.int64), np.asarray(times, dtype=np.float64))


def chain_graph(n: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)], n)


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges([(0, i) for i in range(1, leaves + 1)], leaves + 1)


def rates_by_edge(params: BaselineParams, graph: Graph) -> dict[tuple[int, int], float]:
    """eexp's rate array keyed by each CSR edge's (src, dst)."""
    src = np.repeat(np.arange(graph.node_count), np.diff(graph.indptr))
    return dict(zip(zip(src.tolist(), graph.indices.tolist()), params.edge_delay_rates.tolist()))


def test_fit_counts_chain_attributions():
    # 0 at t=0 exposes 1 (one opportunity), 1 at t=1 exposes 2 (another);
    # both later activations attribute, so the probability is 2/2 = 1
    graph = chain_graph(3)
    trend = make_trend([0, 1, 2], [0.0, 1.0, 2.0])
    params = fit_baseline("eexp", trend, graph, t_star=3.0)
    assert params.activation_prob == 1.0
    assert params.delay_equal == 1.0
    assert params.delay_rate == 1.0
    assert rates_by_edge(params, graph) == {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 1.0, (2, 1): 1.0}
    assert not params.fallback


def test_fit_uses_first_activation_only():
    graph = chain_graph(3)
    with_repeat = make_trend([0, 1, 0, 2], [0.0, 1.0, 1.5, 2.0])
    base = fit_baseline("texp", make_trend([0, 1, 2], [0.0, 1.0, 2.0]), graph, 3.0)
    again = fit_baseline("texp", with_repeat, graph, 3.0)
    assert again == base


def test_fit_breaks_parent_ties_by_node_index():
    graph = Graph.from_edges([(0, 2), (1, 2)], 3)
    trend = make_trend([0, 1, 2], [0.0, 0.0, 1.0])
    params = fit_baseline("eexp", trend, graph, t_star=2.0)
    # two exposure opportunities (0 and 1 each exposed 2), one attribution
    assert params.activation_prob == 0.5
    assert rates_by_edge(params, graph) == {(0, 2): 1.0, (1, 2): 1.0, (2, 0): 1.0, (2, 1): 1.0}


def test_fit_averages_heterogeneous_gaps():
    graph = chain_graph(3)
    trend = make_trend([0, 1, 2], [0.0, 1.0, 4.0])
    params = fit_baseline("eexp", trend, graph, t_star=5.0)
    assert params.delay_equal == pytest.approx(2.0)
    assert params.delay_rate == pytest.approx(0.5)
    assert rates_by_edge(params, graph)[(0, 1)] == pytest.approx(1.0)
    assert rates_by_edge(params, graph)[(1, 2)] == pytest.approx(1.0 / 3.0)


def test_eexp_fits_compare_by_their_rates():
    graph = chain_graph(3)
    even = fit_baseline("eexp", make_trend([0, 1, 2], [0.0, 1.0, 2.0]), graph, t_star=5.0)
    uneven = fit_baseline("eexp", make_trend([0, 1, 2], [0.0, 0.5, 2.0]), graph, t_star=5.0)
    # the same activation probability and mean gap, so only the rates tell the fits apart
    assert (even.activation_prob, even.delay_equal) == (uneven.activation_prob, uneven.delay_equal)
    assert even != uneven
    assert even == fit_baseline("eexp", make_trend([0, 1, 2], [0.0, 1.0, 2.0]), graph, t_star=5.0)
    assert even != fit_baseline("texp", make_trend([0, 1, 2], [0.0, 1.0, 2.0]), graph, t_star=5.0)
    assert even != replace(even, edge_delay_rates=None)


def test_predict_rejects_eexp_rates_of_another_length():
    graph = chain_graph(3)
    trend = make_trend([0], [-0.5])
    config = SimConfig(t_start=0.0, t_end=1.0, runs=2, seed=0)
    for count in (0, 3, 5):
        params = BaselineParams("eexp", 0.5, 1.0, edge_delay_rates=np.ones(count))
        with pytest.raises(ValueError, match=f"{count} edge delay rates for a graph of 4 edges"):
            predict_baseline(params, graph, trend, config, IntervalGrid(0.0, 1.0, 1))


def test_fit_ignores_actions_at_or_after_t_star():
    graph = chain_graph(3)
    trend = make_trend([0, 1, 2], [0.0, 1.0, 10.0])
    params = fit_baseline("tequ", trend, graph, t_star=5.0)
    # node 2 is unseen: 1's activation attributes, 2's exposure stays open
    assert params.activation_prob == 0.5
    assert not params.fallback


def test_fit_falls_back_without_attributions():
    graph = chain_graph(3)
    lone = fit_baseline("tequ", make_trend([0], [0.0]), graph, 1.0)
    assert lone.fallback
    assert lone.activation_prob == 0.1
    assert lone.delay_equal == 1.0
    assert lone.delay_rate == 1.0

    simultaneous = fit_baseline("tequ", make_trend([0, 1], [0.0, 0.0]), graph, 1.0)
    assert simultaneous.fallback


def test_fit_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        fit_baseline("da", make_trend([0], [0.0]), chain_graph(2), 1.0)


def test_params_validation():
    with pytest.raises(ValueError, match="kind"):
        BaselineParams("bogus", 0.5, 1.0)
    with pytest.raises(ValueError, match="activation_prob"):
        BaselineParams("tequ", 0.0, 1.0)
    with pytest.raises(ValueError, match="activation_prob"):
        BaselineParams("tequ", 1.5, 1.0)


def test_tequ_chain_is_deterministic():
    graph = chain_graph(4)
    params = BaselineParams("tequ", 1.0, 1.0)
    trend = make_trend([0], [-1.0])
    [run] = cascade_runs(params, graph, trend, 0.0, 5.0)
    assert run.nodes.tolist() == [1, 2, 3]
    assert run.times.tolist() == [0.0, 1.0, 2.0]


def test_seed_at_window_start_is_not_reemitted():
    # a seed active exactly at t_start stays a seed: the prediction holds
    # only new downstream activations
    graph = chain_graph(3)
    params = BaselineParams("tequ", 1.0, 1.0)
    trend = make_trend([0], [0.0])
    [run] = cascade_runs(params, graph, trend, 0.0, 5.0)
    assert run.nodes.tolist() == [1, 2]
    assert run.times.tolist() == [1.0, 2.0]


def test_tequ_attempts_before_window_are_discarded():
    # the seed's single attempt on (0, 1) lands at -4, so the chain never
    # reaches the window: a failed trial is not retried
    graph = chain_graph(4)
    params = BaselineParams("tequ", 1.0, 1.0)
    trend = make_trend([0], [-5.0])
    [run] = cascade_runs(params, graph, trend, 0.0, 5.0)
    assert len(run) == 0


def test_tequ_attempts_at_or_after_end_are_discarded():
    graph = chain_graph(4)
    params = BaselineParams("tequ", 1.0, 1.0)
    trend = make_trend([0], [-1.0])
    [run] = cascade_runs(params, graph, trend, 0.0, 2.0)
    assert run.nodes.tolist() == [1, 2]
    assert run.times.tolist() == [0.0, 1.0]


def test_earliest_candidate_wins_with_two_parents():
    # parent 0 schedules node 2 at 0.0; parent 1's later candidate 0.2 must
    # not displace it
    graph = Graph.from_edges([(0, 2), (1, 2)], 3)
    params = BaselineParams("tequ", 1.0, 1.0)
    trend = make_trend([0, 1], [-1.0, -0.8])
    [run] = cascade_runs(params, graph, trend, 0.0, 5.0)
    assert run.nodes.tolist() == [2]
    assert run.times.tolist() == [0.0]


def test_each_node_activates_at_most_once():
    graph, _, trend = random_instance(seed=31, max_nodes=40, max_actions=12)
    params = BaselineParams("texp", 0.7, 1.0)
    t_start = float(trend.times[-1])
    for run in cascade_runs(params, graph, trend, t_start, t_start + 10.0, runs=200):
        assert len(set(run.nodes.tolist())) == len(run)
        assert all(t_start <= t < t_start + 10.0 for t in run.times.tolist())


def test_raw_intensity_equals_coverage_per_interval():
    graph, _, trend = random_instance(seed=32, max_nodes=40, max_actions=12)
    params = BaselineParams("texp", 0.7, 1.0)
    t_start = float(trend.times[-1])
    grid = IntervalGrid(t_start, 2.0, 5)
    for run in cascade_runs(params, graph, trend, t_start, grid.t_end, runs=50):
        series = aggregate(run, grid)
        assert np.array_equal(series.intensity, series.coverage)


def test_texp_delays_have_the_fitted_mean():
    graph = Graph.from_edges([(0, 1)], 2)
    params = BaselineParams("texp", 1.0, 0.5)
    trend = make_trend([0], [0.0])
    gaps = []
    for run in cascade_runs(params, graph, trend, 0.0, 50.0, runs=2000):
        for node, t in run:
            if node == 1:
                gaps.append(t)
    mean = float(np.mean(gaps))
    sem = float(np.std(gaps, ddof=1)) / math.sqrt(len(gaps))
    assert mean == pytest.approx(0.5, abs=4 * sem)


def test_eexp_uses_edge_rate_with_global_fallback():
    graph = Graph.from_edges([(0, 1), (0, 2)], 3)
    # CSR edges (0, 1), (0, 2), (1, 0), (2, 0): (0, 1) has its own rate, the rest the trend's 1 / 10
    params = BaselineParams("eexp", 1.0, 10.0, edge_delay_rates=np.array([10.0, 0.1, 0.1, 0.1]))
    trend = make_trend([0], [0.0])
    fast, slow = [], []
    for run in cascade_runs(params, graph, trend, 0.0, 1000.0, runs=2000):
        for node, t in run:
            if node == 1:
                fast.append(t)
            elif node == 2:
                slow.append(t)
    assert float(np.mean(fast)) == pytest.approx(0.1, abs=0.02)
    assert float(np.mean(slow)) == pytest.approx(10.0, abs=1.0)


def test_star_coverage_mean_is_binomial():
    # ten leaves, each activated with probability 0.3 at t = 0, so interval
    # coverage is Binomial(10, 0.3); bound the mean by 4 standard errors
    graph = star_graph(10)
    params = BaselineParams("tequ", 0.3, 0.5)
    trend = make_trend([0], [-0.5])
    config = SimConfig(t_start=0.0, t_end=1.0, runs=10_000, seed=5)
    report = predict_baseline(params, graph, trend, config, IntervalGrid(0.0, 1.0, 1))
    sem = math.sqrt(10 * 0.3 * 0.7 / config.runs)
    assert report.coverage_mean[0] == pytest.approx(3.0, abs=4 * sem)
    assert np.array_equal(report.intensity_mean, report.coverage_mean)
    # the duration vote passes whenever any leaf activates
    expected_hit = 1.0 - 0.7**10
    assert report.duration_covering_fraction == pytest.approx(expected_hit, abs=0.01)


def test_live_edges_at_the_extremes():
    rng = np.random.default_rng(0)
    for m in (0, 1, 7, 1000):
        assert np.array_equal(baselines._live_edges(rng, m, 1.0), np.arange(m))
    for p in (0.001, 0.3, 1.0):
        assert baselines._live_edges(rng, 0, p).size == 0
    # A gap of E / -log(1 - p) past the int64 range is clipped, not wrapped.
    assert baselines._live_edges(rng, 700, 1e-300).size == 0


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(0, 300), st.floats(0.001, 1.0), st.integers(0, 2**32 - 1))
def test_live_edges_are_ascending_distinct_and_in_range(m, p, seed):
    live = baselines._live_edges(np.random.default_rng(seed), m, p)
    assert live.dtype.kind == "i"
    assert np.all(np.diff(live) > 0)
    assert live.size == 0 or (live[0] >= 0 and live[-1] < m)


@pytest.mark.parametrize("p", [0.01, 0.08, 0.5])
def test_live_edges_are_independent_bernoulli(p):
    # 20k draws over m = 50 edges: every edge's live frequency, the joint
    # frequency of the adjacent pair (20, 21), and the mean and variance of
    # the live count, each within 5 standard errors of Bernoulli(p) edges.
    # At p = 0.01 a draw needs more than its first block of gaps about once
    # in 630, so the top-up is taken too.
    m, draws = 50, 20_000
    rng = np.random.default_rng(7)
    live = np.zeros((draws, m), dtype=bool)
    for row in live:
        row[baselines._live_edges(rng, m, p)] = True
    assert np.all(np.abs(live.mean(axis=0) - p) <= 5 * math.sqrt(p * (1 - p) / draws))
    q = p * p
    assert abs(np.mean(live[:, 20] & live[:, 21]) - q) <= 5 * math.sqrt(q * (1 - q) / draws)
    count = live.sum(axis=1)
    var = m * p * (1 - p)
    assert abs(count.mean() - m * p) <= 5 * math.sqrt(var / draws)
    # the fourth central moment of Binomial(m, p) gives the sample variance's standard error
    mu4 = var * (1 + 3 * (m - 2) * p * (1 - p))
    assert abs(count.var(ddof=1) - var) <= 5 * math.sqrt((mu4 - var * var) / draws)


def test_mult_scales_intensity_by_the_factor():
    graph = star_graph(10)
    params = BaselineParams("tequ", 0.3, 0.5, mult_factor=2.5)
    trend = make_trend([0], [-0.5])
    config = SimConfig(t_start=0.0, t_end=1.0, runs=400, seed=5)
    grid = IntervalGrid(0.0, 0.5, 2)
    report = predict_baseline(params, graph, trend, config, grid)
    np.testing.assert_allclose(report.intensity_mean, 2.5 * report.coverage_mean, rtol=1e-12)
    np.testing.assert_allclose(report.intensity_cv, report.coverage_cv, rtol=1e-12)


def test_predict_baseline_is_deterministic():
    graph = star_graph(10)
    params = BaselineParams("texp", 0.3, 0.5)
    trend = make_trend([0], [-0.5])
    config = SimConfig(t_start=0.0, t_end=1.0, runs=50, seed=9)
    grid = IntervalGrid(0.0, 1.0, 1)
    first = predict_baseline(params, graph, trend, config, grid)
    second = predict_baseline(params, graph, trend, config, grid)
    np.testing.assert_array_equal(first.coverage_mean, second.coverage_mean)
    np.testing.assert_array_equal(first.intensity_cv, second.intensity_cv)
    other = predict_baseline(
        params, graph, trend, SimConfig(0.0, 1.0, runs=50, seed=10), grid
    )
    # another seed realizes other runs; one 50-run mean alone can coincide
    def summary(report):
        return (report.coverage_mean.tolist(), report.coverage_cv.tolist(), report.duration_covering_fraction)

    assert summary(first) != summary(other)


def test_predict_baseline_rejects_mismatched_grid():
    graph = star_graph(3)
    params = BaselineParams("tequ", 0.3, 0.5)
    trend = make_trend([0], [-0.5])
    config = SimConfig(t_start=0.0, t_end=1.0, runs=2, seed=0)
    with pytest.raises(ValueError, match="grid"):
        predict_baseline(params, graph, trend, config, IntervalGrid(1.0, 1.0, 1))
    with pytest.raises(ValueError, match="before the grid's end"):
        predict_baseline(params, graph, trend, config, IntervalGrid(0.0, 1.0, 4))


def _forecast_instance(seed: int, kind: str, directed: bool) -> tuple[Graph, Trend, BaselineParams]:
    """A random graph and trend, with cascade params fitted on [0, 5) and, for eexp, rates on every other edge.

    The directed graph keeps each undirected edge from its lower end only.
    """
    graph, _, trend = random_instance(seed, max_nodes=120, max_actions=40)
    if directed:
        src = np.repeat(np.arange(graph.node_count), np.diff(graph.indptr))
        up = src < graph.indices
        graph = Graph.from_edges(np.stack([src[up], graph.indices[up]], axis=1), graph.node_count, directed=True)
    fitted = fit_baseline(kind, trend, graph, 5.0)
    rng = np.random.default_rng(seed)
    rates = None
    if kind == "eexp":
        rates = np.full(len(graph.indices), 1.0 / fitted.delay_equal)
        rates[::2] = rng.choice([0.2, 1.0, 5.0], size=len(rates[::2]))
    params = BaselineParams(
        kind, max(fitted.activation_prob, 0.3), fitted.delay_equal, edge_delay_rates=rates, mult_factor=1.7,
    )
    return graph, trend, params


def _assert_same_report(report, reference, tmp_path) -> None:
    for name in ("intensity_mean", "intensity_cv", "coverage_mean", "coverage_cv"):
        assert np.array_equal(getattr(report, name), getattr(reference, name), equal_nan=True), name
    assert report.duration_covering_fraction == reference.duration_covering_fraction
    assert report.runs == reference.runs
    written, expected = tmp_path / "written.csv", tmp_path / "expected.csv"
    report.write_csv(str(written))
    reference.write_csv(str(expected))
    assert written.read_text(encoding="utf-8") == expected.read_text(encoding="utf-8")


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("kind", ["tequ", "texp", "eexp"])
def test_batched_forecast_matches_the_per_run_loop(tmp_path, kind, directed):
    # every run keeps its own stream, so batching changes no draw and no sum
    graph, trend, params = _forecast_instance(15 if directed else 12, kind, directed)
    grid = IntervalGrid(5.0, 1.25, 4)
    votes = []
    for runs in (1, 7, 64):
        config = SimConfig(5.0, 10.0, runs=runs, seed=runs)
        for factor in (None, params.mult_factor):
            scaled = replace(params, mult_factor=factor)
            for theta, measure in ((0.0, "coverage"), (1.0, "intensity")):
                report = predict_baseline(scaled, graph, trend, config, grid, theta, measure)
                reference = loop_predict_baseline(scaled, graph, trend, config, grid, theta, measure)
                _assert_same_report(report, reference, tmp_path)
                votes.append(report.duration_covering_fraction)
    # the runs activate nodes and, for some threshold, split the duration vote
    assert report.coverage_mean.sum() > 0 and any(0 < vote < 1 for vote in votes)


@pytest.mark.parametrize("per_batch", [1, 3])
@pytest.mark.parametrize("kind", ["tequ", "texp", "eexp"])
def test_batch_boundaries_change_no_run(tmp_path, monkeypatch, kind, per_batch):
    # 7 runs in batches of 1, or of 3, 3 and 1; the grid ends before the horizon
    graph, trend, params = _forecast_instance(21, kind, directed=False)
    monkeypatch.setattr(baselines, "BUDGET", per_batch * (graph.node_count + len(graph.indices)))
    config = SimConfig(5.0, 10.0, runs=7, seed=3)
    grid = IntervalGrid(5.0, 0.5, 6)
    dump: list[Trend] = []
    assert predict_baseline(params, graph, trend, config, grid, run_dump=dump).coverage_mean.sum() > 0
    # the dumped runs are the summarized ones, each the run its own stream gives alone
    assert len(dump) == config.runs
    for r, run in enumerate(dump):
        rng = derived_rng(config.seed, _BASELINE_RUN_KEY + r)
        ref = loop_simulate_baseline(params, graph, trend, config.t_start, config.t_end, rng)
        assert run.nodes.tolist() == ref.nodes.tolist() and run.times.tolist() == ref.times.tolist()
    for factor in (None, params.mult_factor):
        scaled = replace(params, mult_factor=factor)
        report = predict_baseline(scaled, graph, trend, config, grid)
        _assert_same_report(report, loop_predict_baseline(scaled, graph, trend, config, grid), tmp_path)


def test_forecast_memory_does_not_grow_with_runs():
    # 1,000 nodes and 4,000 directed edge slots: a batch holds about 50 runs
    graph = Graph.from_edges(np.random.default_rng(4).integers(0, 1000, size=(2000, 2)), 1000)
    assert baselines.BUDGET // (graph.node_count + len(graph.indices)) <= 64
    params = BaselineParams("texp", 0.3, 0.5)
    trend = make_trend(np.arange(0, 1000, 10), np.full(100, -0.1))
    grid = IntervalGrid(0.0, 1.0, 4)

    def peak(runs: int) -> int:
        tracemalloc.start()
        try:
            predict_baseline(params, graph, trend, SimConfig(0.0, 4.0, runs=runs, seed=1), grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4096) < 2 * peak(64)


def test_intensity_from_coverage_scales_elementwise():
    # --mult makes each run's intensity mult_factor * coverage; a factor of 2 scales exactly
    graph = star_graph(10)
    params = BaselineParams("tequ", 0.3, 0.5, mult_factor=2.0)
    trend = make_trend([0], [-0.5])
    config = SimConfig(t_start=0.0, t_end=1.0, runs=50, seed=7)
    grid = IntervalGrid(0.0, 0.5, 2)
    plain = predict_baseline(replace(params, mult_factor=None), graph, trend, config, grid)
    scaled = predict_baseline(params, graph, trend, config, grid)
    np.testing.assert_array_equal(scaled.coverage_mean, plain.coverage_mean)
    np.testing.assert_array_equal(scaled.intensity_mean, 2.0 * plain.coverage_mean)
    for factor in (0.0, -1.0):
        params.mult_factor = factor
        with pytest.raises(ValueError, match="mult_factor must be positive"):
            predict_baseline(params, graph, trend, config, grid)


def test_fit_mult_factor_matches_hand_computed_slope():
    # intervals give (intensity, coverage) pairs (3, 2), (1, 1), (6, 2);
    # the through-origin slope is (6 + 1 + 12) / (4 + 1 + 4) = 19/9
    trend = make_trend(
        [0, 1, 0, 0, 1, 2, 1, 2, 1, 1],
        [0.0, 0.25, 0.5, 1.5, 2.0, 2.1, 2.2, 2.3, 2.4, 2.6],
    )
    grid = IntervalGrid(0.0, 1.0, 3)
    assert fit_mult_factor(trend, grid) == pytest.approx(19.0 / 9.0, rel=1e-12)


def test_fit_mult_factor_rejects_empty_coverage():
    trend = make_trend([0], [10.0])
    with pytest.raises(ValueError, match="zero coverage"):
        fit_mult_factor(trend, IntervalGrid(0.0, 1.0, 2))


@st.composite
def cascade_instances(draw, min_nodes=1, max_nodes=30):
    """A directed or undirected graph and a trend acting before, at and after t = 0."""
    n = draw(st.integers(min_nodes, max_nodes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = rng.integers(0, n, size=(int(rng.integers(n, 3 * n + 1)), 2)).tolist()
    graph = Graph.from_edges(edges, n, directed=draw(st.booleans()))
    k = int(rng.integers(0, 2 * n + 1))
    # times on a 0.1 grid: ties, and gaps whose float sum depends on their order
    trend = make_trend(rng.integers(0, n, size=k), np.round(rng.uniform(-2.0, 1.0, size=k), 1))
    return graph, trend


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(cascade_instances(), st.sampled_from([0.25, 0.3, 0.5, 1.0]), st.sampled_from([0.5, 1.0, 3.0]))
def test_cascades_match_the_activation_order_references(instance, delay, t_end):
    graph, trend = instance
    for t_star in (0.0, 1.0):
        for kind in ("tequ", "texp", "eexp"):
            assert fit_baseline(kind, trend, graph, t_star) == loop_fit_baseline(kind, trend, graph, t_star)
    # at p = 1 with a constant delay a run is deterministic: both must agree exactly
    params = BaselineParams("tequ", 1.0, delay)
    [run] = cascade_runs(params, graph, trend, 0.0, t_end)
    ref = heap_simulate_baseline(params, graph, trend, 0.0, t_end, np.random.default_rng(0))
    assert run.nodes.tolist() == ref.nodes.tolist()
    assert run.times.tolist() == ref.times.tolist()


def _z_scores(runs: list[Trend], refs: list[Trend], node_count: int) -> list[float]:
    """Two-sample z of each node's activation frequency and, where both samples are large, mean time."""
    scores = []
    per_node = []
    for sample in (runs, refs):
        times: list[list[float]] = [[] for _ in range(node_count)]
        for run in sample:
            for node, t in run:
                times[node].append(t)
        per_node.append(times)
    count = len(runs)
    for a, b in zip(*per_node):
        pooled = (len(a) + len(b)) / (2 * count)
        if 0 < pooled < 1:
            scores.append((len(a) - len(b)) / count / math.sqrt(pooled * (1 - pooled) * 2 / count))
        if min(len(a), len(b)) >= 20:
            se = math.sqrt(np.var(a, ddof=1) / len(a) + np.var(b, ddof=1) / len(b))
            if se > 0:
                scores.append((float(np.mean(a)) - float(np.mean(b))) / se)
    return scores


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    cascade_instances(min_nodes=5, max_nodes=12),
    st.sampled_from(["texp", "eexp"]),
    st.sampled_from([0.3, 0.6]),
    st.sampled_from([0.5, 2.0]),
    st.lists(st.sampled_from([0.2, 1.0, 5.0]), min_size=27, max_size=27),
)
def test_cascade_law_matches_the_activation_order_reference(instance, kind, prob, rate, edge_rates):
    # per-node activation frequency and mean time over 400 runs of each; for
    # eexp the first 27 edges carry their own rate and the rest the trend's
    graph, trend = instance
    n = graph.node_count
    rates = None
    if kind == "eexp":
        rates = np.full(len(graph.indices), rate)
        rates[:27] = edge_rates[: len(rates)]
    params = BaselineParams(kind, prob, 1.0 / rate, edge_delay_rates=rates)
    ref_rng = np.random.default_rng(2)
    runs = cascade_runs(params, graph, trend, 0.0, 3.0, runs=400, seed=1)
    refs = [heap_simulate_baseline(params, graph, trend, 0.0, 3.0, ref_rng) for _ in range(400)]
    assert all(abs(z) <= 5.0 for z in _z_scores(runs, refs, n))
