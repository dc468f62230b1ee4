"""Acceptance suite: eleven go/no-go checks at fixed tolerances.

Each check prints a single PASS or FAIL line (run with -s to see them all)
before asserting, so a full run reads as a checklist. Statistical checks use
frozen seeds whose margins were verified to sit well inside the tolerance.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from trendcast import learning
from trendcast.activeness import ActivenessParams
from trendcast.baselines import BaselineParams, fit_mult_factor
from trendcast.cli import main
from trendcast.core import (
    Graph,
    IntervalGrid,
    Trend,
    aggregate,
    duration,
    random_graph,
)
from trendcast.proximity import ProximityConfig, ProximityMap
from trendcast.simulation import (
    SimConfig,
    Streams,
    generate_synthetic,
    simulate,
)

from oracles import (
    ActivenessModel,
    cascade_runs,
    decayed_influence_at,
    gathered_rows,
    naive_log_likelihood,
    naive_total_integral,
    random_instance,
    thinning_superposed,
)


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_toy_trend_aggregation(toy_trend):
    grid = IntervalGrid(2007.0, 1.0, 5)
    aggregate(toy_trend, grid)  # warm up before the sub-millisecond timing
    # The fastest of 5 repeats: one repeat's wall time measures the machine's load as much as the code.
    elapsed = math.inf
    for _ in range(5):
        start = time.perf_counter()
        series = aggregate(toy_trend, grid)
        dur = duration(series, 0.0)
        elapsed = min(elapsed, time.perf_counter() - start)
    ok = (
        series.intensity.tolist() == [1, 5, 4, 2, 0]
        and series.coverage.tolist() == [1, 2, 3, 2, 0]
        and dur == 4
        and elapsed < 1e-3
    )
    check(1, "toy trend aggregation", ok, f"{elapsed * 1e6:.0f}us")


def test_criterion_02_stacked_influence_identity():
    start = time.perf_counter()
    worst_h = worst_ll = 0.0
    for i in range(50):
        graph, prox, trend = random_instance(seed=1000 + i)
        rng = np.random.default_rng(2000 + i)
        tau = float(rng.uniform(0.3, 4.0))
        alpha = float(rng.uniform(0.2, 2.0))
        t_star = 10.0
        stacked_h = learning._table(trend, prox, t_star).total_integral(tau)
        naive_h = naive_total_integral(trend, prox, tau, t_star, graph.node_count)
        worst_h = max(worst_h, abs(stacked_h - naive_h) / naive_h)
        stacked_ll = learning.log_likelihood(trend, prox, tau, alpha, t_star)
        naive_ll = naive_log_likelihood(trend, prox, tau, alpha, t_star, graph.node_count)
        worst_ll = max(worst_ll, abs(stacked_ll - naive_ll) / abs(naive_ll))
    elapsed = time.perf_counter() - start
    ok = worst_h <= 1e-9 and worst_ll <= 1e-9 and elapsed < 10.0
    check(2, "stacked influence identity", ok,
          f"max rel H {worst_h:.1e}, logL {worst_ll:.1e}, {elapsed:.1f}s")


def test_criterion_03_closed_form_alpha_stationarity():
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        graph, prox, trend = random_instance(seed=3000 + i)
        rng = np.random.default_rng(3500 + i)
        tau = float(rng.uniform(0.3, 4.0))
        t_star = 10.0
        closed = learning.estimate_alpha(trend, prox, tau, t_star)
        res = minimize_scalar(
            lambda a: -learning.log_likelihood(trend, prox, tau, a, t_star),
            bounds=(closed / 50.0, closed * 50.0),
            method="bounded",
            options={"xatol": closed * 1e-9},
        )
        worst = max(worst, abs(res.x - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    check(3, "closed-form alpha stationarity", ok, f"max rel {worst:.1e}, {elapsed:.1f}s")


def test_criterion_04_integrated_influence_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        graph, prox, trend = random_instance(seed=4000 + trial, max_nodes=60, max_actions=40)
        rng = np.random.default_rng(4500 + trial)
        tau = float(rng.uniform(0.2, 5.0))
        t = float(rng.uniform(float(trend.times[0]) + 0.05, 12.0))
        node = int(trend.nodes[0])  # first actor, so the integral is non-zero
        model = ActivenessModel(trend, prox, ActivenessParams(1.0, tau, 0.0, float(trend.times[0])))
        value = model.integrated_influence(node, t)
        pre = trend.prefix(t)
        actions = list(zip(pre.nodes.tolist(), pre.times.tolist()))
        points = [t_i for _, t_i in actions]
        rows, _ = gathered_rows(prox, pre.nodes)
        ref, _ = quad(
            lambda s: decayed_influence_at(actions, rows, node, s, tau),
            points[0],
            t,
            points=points,
            limit=500,
            epsabs=1e-12,
            epsrel=1e-10,
        )
        worst = max(worst, abs(value - ref) / ref)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    check(4, "integrated influence quadrature", ok, f"max rel {worst:.1e}, {elapsed:.1f}s")


def test_criterion_05_sampler_law():
    start = time.perf_counter()
    # One unit stream per isolated node, and alpha so small that no event
    # has offspring: each node's first event time follows the waiting-time
    # law of a stream of total mass 1, and a node never fires with
    # probability e^-1.
    n = 160_000
    graph = Graph.from_edges([], n)
    prox = ProximityMap(graph, ProximityConfig(kind="sp"))
    params = ActivenessParams(alpha=1e-30, tau=1.0, epsilon=0.0, t0=0.0)
    streams = Streams(node=np.arange(n), coefficient=np.ones(n), anchor=np.zeros(n), tau=np.ones(n))
    config = SimConfig(t_start=0.0, t_end=60.0, runs=1, seed=51)
    run_trend, _ = simulate(streams, prox, params, config, run_index=0)
    fired_nodes, first = np.unique(run_trend.nodes, return_index=True)
    fired = run_trend.times[first]

    def cdf(t):
        return (1.0 - np.exp(-(1.0 - np.exp(-np.asarray(t))))) / (1.0 - math.exp(-1.0))

    ks = stats.kstest(fired, cdf).statistic
    exhaust_freq = (n - len(fired_nodes)) / n
    exhaust_err = abs(exhaust_freq - math.exp(-1.0))
    elapsed = time.perf_counter() - start
    ok = ks < 0.01 and exhaust_err < 0.01 and elapsed < 30.0
    check(5, "sampler law", ok,
          f"KS {ks:.4f}, exhaustion off by {exhaust_err:.4f}, {elapsed:.1f}s")


def test_criterion_06_superposition_equivalence():
    start = time.perf_counter()
    streams = Streams(
        node=np.zeros(3, dtype=np.int64),
        coefficient=np.array([5.0, 4.0, 6.0]),
        anchor=np.zeros(3),
        tau=np.array([4.0, 5.0, 3.0]),
    )
    graph = Graph.from_edges([], 1)
    prox = ProximityMap(graph, ProximityConfig(kind="sp"))
    # alpha so small that each event's offspring count is Poisson with mean
    # about 1e-30: no children spawn and the three streams are realized as-is
    params = ActivenessParams(alpha=1e-30, tau=1.0, epsilon=0.0, t0=0.0)
    grid = IntervalGrid(0.0, 1.0, 3)
    config = SimConfig(t_start=0.0, t_end=3.0, runs=10_000, seed=61)

    stacked = np.zeros((config.runs, grid.count))
    for r in range(config.runs):
        run_trend, _ = simulate(streams, prox, params, config, run_index=r)
        stacked[r] = aggregate(run_trend, grid).intensity

    rng = np.random.default_rng(62)
    direct = np.zeros((config.runs, grid.count))
    edges = grid.edges
    for r in range(config.runs):
        ts = thinning_superposed(streams, 0.0, 3.0, rng)
        if ts:
            idx = np.searchsorted(edges, np.asarray(ts), side="right") - 1
            np.add.at(direct[r], idx[(idx >= 0) & (idx < grid.count)], 1)

    rel = np.abs(stacked.mean(axis=0) - direct.mean(axis=0)) / direct.mean(axis=0)
    elapsed = time.perf_counter() - start
    ok = bool(rel.max() < 0.02) and elapsed < 60.0
    check(6, "superposition equivalence", ok, f"max rel {rel.max():.4f}, {elapsed:.1f}s")


def test_criterion_07_parameter_recovery():
    start = time.perf_counter()
    # directed keeps the cascade growth rate at alpha - 1/tau everywhere, so
    # a window of 1.5 lifetimes fits in a few thousand actions per seed
    graph = random_graph(200, 80, seed=0, directed=True)
    prox = ProximityMap(graph, ProximityConfig(kind="sp", b=1.0))
    planted = ActivenessParams(alpha=1.5, tau=2.0, epsilon=1e-9, t0=0.0)
    horizon = 3.0
    counts, taus, alphas = [], [], []
    for s in range(20):
        trend, _ = generate_synthetic(
            graph.node_count, prox, planted, n_seeds=30, horizon=horizon,
            seed=s, allow_supercritical=True, max_events=500_000,
        )
        counts.append(len(trend))
        result = learning.fit(trend, prox, t_star=horizon)
        taus.append(result.tau)
        alphas.append(result.alpha)
    tau_err = abs(float(np.median(taus)) - planted.tau) / planted.tau
    alpha_err = abs(float(np.median(alphas)) - planted.alpha) / planted.alpha
    elapsed = time.perf_counter() - start
    ok = min(counts) >= 300 and tau_err <= 0.20 and alpha_err <= 0.15 and elapsed < 300.0
    check(7, "parameter recovery", ok,
          f"median tau off {tau_err:.1%}, alpha off {alpha_err:.1%}, "
          f"counts {min(counts)}..{max(counts)}, {elapsed:.1f}s")


def test_criterion_08_stacked_evaluation_speedup():
    start = time.perf_counter()
    graph = random_graph(10_000, 20_000, seed=42)
    rng = np.random.default_rng(7)
    nodes = rng.integers(0, graph.node_count, size=1000)
    times = np.sort(rng.uniform(0.0, 10.0, size=1000))
    trend = Trend(nodes, times)
    prox = ProximityMap(graph, ProximityConfig(kind="sp", b=10.0))
    tau, alpha, t_star = 1.7, 0.6, 10.0
    gathered_rows(prox, nodes)  # warm the rows

    t0 = time.perf_counter()
    naive_ll = naive_log_likelihood(trend, prox, tau, alpha, t_star, graph.node_count)
    naive_time = time.perf_counter() - t0

    stacked_time = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        stacked_ll = learning.log_likelihood(trend, prox, tau, alpha, t_star)
        stacked_time = min(stacked_time, time.perf_counter() - t0)

    naive_h = naive_total_integral(trend, prox, tau, t_star, graph.node_count)
    stacked_h = learning._table(trend, prox, t_star).total_integral(tau)

    ratio = naive_time / stacked_time
    rel_ll = abs(stacked_ll - naive_ll) / abs(naive_ll)
    rel_h = abs(stacked_h - naive_h) / naive_h
    elapsed = time.perf_counter() - start
    ok = ratio >= 10.0 and rel_ll <= 1e-9 and rel_h <= 1e-9 and elapsed < 120.0
    check(8, "stacked evaluation speedup", ok,
          f"{ratio:.0f}x, rel logL {rel_ll:.1e}, rel H {rel_h:.1e}, {elapsed:.1f}s")


def test_criterion_09_mult_factor_recovery():
    start = time.perf_counter()
    # per-interval (coverage, intensity): sum(c*i) = 2243, sum(c^2) = 2000,
    # so the through-origin slope is exactly 1.1215
    coverage = [43, 11, 5, 2, 1]
    intensity = [48, 13, 6, 2, 2]
    nodes: list[int] = []
    times: list[float] = []
    for k, (c, i) in enumerate(zip(coverage, intensity)):
        acting = list(range(c)) + [0] * (i - c)
        for j, node in enumerate(acting):
            nodes.append(node)
            times.append(k + (j + 1) / (i + 1))
    trend = Trend(np.asarray(nodes, dtype=np.int64), np.asarray(times))
    factor = fit_mult_factor(trend, IntervalGrid(0.0, 1.0, 5))
    elapsed = time.perf_counter() - start
    ok = abs(factor - 1.1215) <= 1e-9 and elapsed < 1.0
    check(9, "mult factor recovery", ok, f"factor {factor:.10f}, {elapsed:.2f}s")


def test_criterion_10_cascade_baseline_sanity():
    start = time.perf_counter()
    chain = Graph.from_edges([(0, 1), (1, 2)], 3, directed=True)
    params = BaselineParams("tequ", 1.0, 1.0)
    t_star = 5.0
    seeded = Trend(np.asarray([0]), np.asarray([t_star]))
    [run] = cascade_runs(params, chain, seeded, t_star, t_star + 10.0)
    chain_ok = run.nodes.tolist() == [1, 2] and run.times.tolist() == [t_star + 1.0, t_star + 2.0]

    star = Graph.from_edges([(0, i) for i in range(1, 101)], 101)
    star_params = BaselineParams("tequ", 0.3, 0.5)
    seed_trend = Trend(np.asarray([0]), np.asarray([-0.5]))
    runs = 10_000
    mean = sum(map(len, cascade_runs(star_params, star, seed_trend, 0.0, 1.0, runs=runs, seed=105))) / runs
    star_err = abs(mean - 30.0) / 30.0
    elapsed = time.perf_counter() - start
    ok = chain_ok and star_err < 0.01 and elapsed < 60.0
    check(10, "cascade baseline sanity", ok,
          f"chain exact {chain_ok}, star mean {mean:.3f} ({star_err:.2%} off), {elapsed:.1f}s")


def test_criterion_11_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    graph = tmp_path / "graph.tsv"
    actions = tmp_path / "actions.tsv"
    assert main([
        "synth", "--random-graph", "50:100", "--graph-out", str(graph),
        "--b", "2", "--alpha", "0.25", "--tau", "1.4", "--horizon", "10.0",
        "--n-seeds", "10", "--seed", "7", "--out", str(actions),
    ]) == 0

    def pipeline(tag: str) -> tuple[bytes, ...]:
        d = tmp_path / tag
        d.mkdir()
        params = d / "params.json"
        pred = d / "pred.csv"
        scores = d / "eval.csv"
        assert main([
            "learn", "--graph", str(graph), "--actions", str(actions),
            "--b", "2", "--t-star", "10.0", "--seed", "1", "--out", str(params),
        ]) == 0
        assert main([
            "predict", "--graph", str(graph), "--actions", str(actions),
            "--t-star", "10.0", "--grid", "10:1:4", "--model", "da",
            "--params", str(params), "--runs", "20", "--seed", "3",
            "--out", str(pred),
        ]) == 0
        assert main([
            "eval", "--graph", str(graph), "--pred", str(pred),
            "--actions", str(actions), "--theta", "0", "--out", str(scores),
        ]) == 0
        return (
            params.read_bytes(),
            (d / "params.json.report.csv").read_bytes(),
            pred.read_bytes(),
            scores.read_bytes(),
        )

    identical = pipeline("first") == pipeline("second")
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 60.0
    check(11, "pipeline determinism", ok, f"byte-identical {identical}, {elapsed:.1f}s")
