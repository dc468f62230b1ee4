"""Independent-cascade baselines with timing: tequ, texp, eexp.

Every baseline activates a node at most once. When a node activates, each
inactive out-neighbor is given a single chance to activate with a shared
probability, after a delay that is constant (tequ), exponential with one
trend-level rate (texp), or exponential with per-edge rates (eexp). The
optional mult extension scales predicted coverage into an intensity
estimate, compensating single activation against repeat actions.

Since every edge is tried at most once and the earliest parent wins, a run
is computed in its live-edge form (Kempe, Kleinberg & Tardos, KDD 2003; with
continuous delays as in NetRate, Gomez-Rodriguez et al., ICML 2011): each
edge's coin and delay are drawn up front, and activation times are the
earliest arrival times from the seeds over the live edges. Fitting and
simulation work on the graph's CSR edge arrays, with no loop per edge.
"""

from __future__ import annotations

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


def _first_activations(trend: Trend, node_count: int) -> np.ndarray:
    """Each node's first action time; inf for nodes that never act."""
    first = np.full(node_count, math.inf)
    # Trends are stably sorted by time, so a node's first index is its earliest action.
    nodes, at = np.unique(trend.nodes, return_index=True)
    first[nodes] = trend.times[at]
    return first


def _edges(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of every CSR edge, sorted by (src, dst)."""
    return np.repeat(np.arange(graph.node_count), np.diff(graph.indptr)), graph.indices


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
    first = _first_activations(trend.prefix(t_star), graph.node_count)
    src, dst = _edges(graph)
    t_src, t_dst = first[src], first[dst]
    opportunities = int(np.count_nonzero(np.isfinite(t_src) & (t_dst > t_src)))

    # Candidate parents, ordered by (child, parent time, parent); the first per child wins.
    at = np.flatnonzero(np.isfinite(t_dst) & (t_src < t_dst))
    at = at[np.lexsort((src[at], t_src[at], dst[at]))]
    at = at[np.unique(dst[at], return_index=True)[1]]
    # Children in (time, node) order.
    at = at[np.lexsort((dst[at], t_dst[at]))]
    parent, child = src[at], dst[at]
    gaps = (t_dst[at] - t_src[at]).tolist()

    # Every attributed edge is also an opportunity, and every gap is > 0.
    if not gaps:
        return BaselineParams(kind, FALLBACK_ACTIVATION_PROB, FALLBACK_MEAN_GAP, 1.0 / FALLBACK_MEAN_GAP, fallback=True)
    mean_gap = sum(gaps) / len(gaps)
    edge_rates = {}
    if kind == "eexp":
        # A child has one parent, so each edge's mean gap is its single gap.
        edge_rates = dict(zip(zip(parent.tolist(), child.tolist()), (1.0 / np.asarray(gaps)).tolist()))
    return BaselineParams(
        kind=kind,
        activation_prob=len(gaps) / opportunities,
        delay_equal=mean_gap,
        delay_rate=1.0 / mean_gap,
        edge_delay_rates=edge_rates,
    )


def _edge_scales(params: BaselineParams, node_count: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """eexp: the mean delay of each (src, dst) edge, from its own fitted rate or else the trend's."""
    rates = np.full(len(dst), params.delay_rate)
    pairs = np.asarray(list(params.edge_delay_rates), dtype=np.int64).reshape(-1, 2)
    values = np.fromiter(params.edge_delay_rates.values(), dtype=np.float64, count=len(pairs))
    inside = np.all((pairs >= 0) & (pairs < node_count), axis=1)
    key, values = pairs[inside, 0] * node_count + pairs[inside, 1], values[inside]
    # Edge keys src*N + dst come sorted from the CSR arrays; keys that are not edges are ignored.
    edge_key = src * node_count + dst
    pos = np.searchsorted(edge_key, key)
    hit = pos < len(edge_key)
    hit[hit] = edge_key[pos[hit]] == key[hit]
    rates[pos[hit]] = values[hit]
    return 1.0 / rates


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
    discarded. Each edge is tried once, and the earliest parent wins: every
    edge draws its coin up front, each live edge its delay, and activation
    times are the earliest arrivals from the seeds over the live edges.
    """
    active = _first_activations(trend.prefix(t_start), graph.node_count)
    seed = np.isfinite(active)
    src, dst = _edges(graph)
    live = rng.random(len(dst)) < params.activation_prob
    src, dst = src[live], dst[live]
    if params.kind == "tequ":
        delay = np.full(len(dst), params.delay_equal)
    elif params.kind == "texp":
        delay = rng.exponential(1.0 / params.delay_rate, size=len(dst))
    else:
        delay = rng.exponential(_edge_scales(params, graph.node_count, src, dst))
    # Bellman-Ford rounds: only edges out of nodes whose time fell last round can improve.
    fired = seed
    while True:
        at = np.flatnonzero(fired[src])
        arrive = active[src[at]] + delay[at]
        ok = (t_start <= arrive) & (arrive < t_end) & (arrive < active[dst[at]])
        if not ok.any():
            break
        np.minimum.at(active, dst[at[ok]], arrive[ok])
        fired = np.zeros(graph.node_count, dtype=bool)
        fired[dst[at[ok]]] = True
    nodes = np.flatnonzero(~seed & (active < t_end))
    return Trend(nodes, active[nodes])


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
