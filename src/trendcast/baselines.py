"""Independent-cascade baselines with timing: tequ, texp, eexp.

Every baseline activates a node at most once. When a node activates, each
inactive out-neighbor is given a single chance to activate with a shared
probability, after a delay that is constant (tequ), exponential with one
trend-level rate (texp), or exponential with per-edge rates (eexp). The
optional mult extension scales predicted coverage into an intensity
estimate, compensating single activation against repeat actions.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Graph, IntervalGrid, Trend, aggregate
from .simulation import PredictionReport, SimConfig, derived_rng, summarize_runs

BASELINE_KINDS = ("tequ", "texp", "eexp")

# Defaults applied when the prefix yields no parent-child attributions.
FALLBACK_ACTIVATION_PROB = 0.1
FALLBACK_MEAN_GAP = 1.0

# Baseline run r draws from spawn key (2**61 + 16 + r,): above the activeness
# run keys (r,), r < 2**61, and the auxiliary keys 2**61 and 2**61 + 1.
_BASELINE_RUN_KEY = 2**61 + 16


@dataclass
class BaselineParams:
    """Estimated cascade parameters; ``fallback`` flags unattributable prefixes."""

    kind: str
    activation_prob: float
    delay_equal: float
    delay_rate: float
    edge_delay_rates: dict[tuple[int, int], float] = field(default_factory=dict)
    mult_factor: float = 1.0
    fallback: bool = False

    def __post_init__(self) -> None:
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"kind must be one of {BASELINE_KINDS}")
        if not 0 < self.activation_prob <= 1:
            raise ValueError("activation_prob must lie in (0, 1]")


def _first_activations(trend: Trend) -> dict[int, float]:
    first: dict[int, float] = {}
    for node, t in trend:
        if node not in first:
            first[node] = t
    return first


def fit_baseline(kind: str, trend: Trend, graph: Graph, t_star: float) -> BaselineParams:
    """Counting estimator for cascade parameters from the observed prefix.

    Each activation is attributed to its earliest-activated in-neighbor
    (ties to the smallest node index). The activation probability is
    attributed activations over exposure opportunities, where every
    activation exposes each not-yet-active out-neighbor once. Delay
    parameters come from the attributed parent-child gaps. A prefix with no
    attributable pair falls back to fixed defaults and sets ``fallback``.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"kind must be one of {BASELINE_KINDS}")
    prefix = trend.prefix(t_star)
    first = _first_activations(prefix)
    order = sorted(first.items(), key=lambda item: (item[1], item[0]))

    opportunities = 0
    gaps: list[float] = []
    edge_gaps: dict[tuple[int, int], list[float]] = {}
    for node, t in order:
        for w in graph.neighbors(node).tolist():
            if first.get(w, math.inf) > t:
                opportunities += 1
        parent = None
        for u in graph.in_neighbors(node).tolist():
            t_u = first.get(u, math.inf)
            if t_u < t and (parent is None or (t_u, u) < parent):
                parent = (t_u, u)
        if parent is not None:
            gap = t - parent[0]
            gaps.append(gap)
            edge_gaps.setdefault((parent[1], node), []).append(gap)

    if not gaps or opportunities == 0:
        return BaselineParams(
            kind=kind,
            activation_prob=FALLBACK_ACTIVATION_PROB,
            delay_equal=FALLBACK_MEAN_GAP,
            delay_rate=1.0 / FALLBACK_MEAN_GAP,
            fallback=True,
        )
    mean_gap = sum(gaps) / len(gaps)
    if mean_gap <= 0.0:
        # All attributed pairs are simultaneous; delays carry no signal.
        return BaselineParams(
            kind=kind,
            activation_prob=min(1.0, len(gaps) / opportunities),
            delay_equal=FALLBACK_MEAN_GAP,
            delay_rate=1.0 / FALLBACK_MEAN_GAP,
            fallback=True,
        )
    edge_rates = {}
    if kind == "eexp":
        for edge, edge_gap in edge_gaps.items():
            m = sum(edge_gap) / len(edge_gap)
            if m > 0:
                edge_rates[edge] = 1.0 / m
    return BaselineParams(
        kind=kind,
        activation_prob=min(1.0, len(gaps) / opportunities),
        delay_equal=mean_gap,
        delay_rate=1.0 / mean_gap,
        edge_delay_rates=edge_rates,
    )


def _draw_delay(params: BaselineParams, edge: tuple[int, int], rng: np.random.Generator) -> float:
    if params.kind == "tequ":
        return params.delay_equal
    if params.kind == "texp":
        return rng.exponential(1.0 / params.delay_rate)
    rate = params.edge_delay_rates.get(edge, params.delay_rate)
    return rng.exponential(1.0 / rate)


def simulate_baseline(
    params: BaselineParams,
    graph: Graph,
    trend: Trend,
    t_start: float,
    t_end: float,
    rng: np.random.Generator,
) -> Trend:
    """One cascade run; returns new activations within [t_start, t_end).

    Nodes active in the observed prefix are seeds: they fire their activation
    attempts from their original first-action times, so delayed adoptions can
    spill past t_start, but the seeds themselves are never re-emitted.
    Attempts that would land before t_start failed in observation and are
    discarded. Activations are processed in time order; each parent-child
    edge is tried exactly once.
    """
    activation = _first_activations(trend.prefix(t_start))
    seeds = set(activation)
    heap: list[tuple[float, int]] = sorted((t, node) for node, t in activation.items())
    ev_nodes: list[int] = []
    ev_times: list[float] = []
    while heap:
        t, node = heapq.heappop(heap)
        if t >= t_end:
            break
        if t > activation.get(node, math.inf):
            continue  # stale entry, an earlier parent won
        if node not in seeds:
            ev_nodes.append(node)
            ev_times.append(t)
        for w in graph.neighbors(node).tolist():
            if activation.get(w, math.inf) <= t:
                continue
            if rng.random() < params.activation_prob:
                t_w = t + _draw_delay(params, (node, w), rng)
                if t_start <= t_w < t_end and t_w < activation.get(w, math.inf):
                    activation[w] = t_w
                    heapq.heappush(heap, (t_w, w))
    return Trend(np.asarray(ev_nodes, dtype=np.int64), np.asarray(ev_times, dtype=np.float64))


def intensity_from_coverage(coverage: np.ndarray, mult_factor: float) -> np.ndarray:
    """Real-valued intensity estimate: mult_factor * coverage, elementwise."""
    if mult_factor <= 0:
        raise ValueError("mult_factor must be positive")
    return mult_factor * np.asarray(coverage, dtype=np.float64)


def fit_mult_factor(trend: Trend, grid: IntervalGrid) -> float:
    """Least-squares slope through the origin of intensity against coverage."""
    series = aggregate(trend, grid)
    cov = series.coverage.astype(np.float64)
    denom = float(np.dot(cov, cov))
    if denom == 0.0:
        raise ValueError("all training intervals have zero coverage; slope is undefined")
    return float(np.dot(cov, series.intensity.astype(np.float64))) / denom


def predict_baseline(
    params: BaselineParams,
    graph: Graph,
    trend: Trend,
    config: SimConfig,
    grid: IntervalGrid,
    theta: float = 0.0,
    measure: str = "coverage",
    mult: bool = False,
) -> PredictionReport:
    """Monte Carlo cascade forecast, mirroring the activeness predictor.

    A cascade activates each node once, so raw intensity equals coverage per
    interval; with ``mult`` the per-run intensity becomes
    mult_factor * coverage instead.
    """
    if grid.t_start != config.t_start:
        raise ValueError("grid must start at the simulation start time")
    intensity_rows: list[np.ndarray] = []
    coverage_rows: list[np.ndarray] = []
    for run_index in range(config.runs):
        rng = derived_rng(config.seed, _BASELINE_RUN_KEY + run_index)
        run_trend = simulate_baseline(params, graph, trend, config.t_start, config.t_end, rng)
        series = aggregate(run_trend, grid)
        cov = series.coverage
        inten = intensity_from_coverage(cov, params.mult_factor) if mult else series.intensity
        intensity_rows.append(np.asarray(inten, dtype=np.float64))
        coverage_rows.append(cov.astype(np.float64))
    return summarize_runs(grid, intensity_rows, coverage_rows, theta, measure)
