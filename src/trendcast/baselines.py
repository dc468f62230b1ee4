"""Independent-cascade baselines with timing: tequ, texp, eexp.

Every baseline activates a node at most once. When a node activates, each
inactive out-neighbor is given a single chance to activate with a shared
probability, after a delay that is constant (tequ), exponential with one
trend-level rate (texp, drawn as eexp with that rate on every edge), or
exponential with per-edge rates (eexp, one array over the CSR edges). The
mult factor, None unless ``--mult`` fits one, scales predicted coverage into
intensity, compensating single activation against repeat actions.

Since every edge is tried at most once and the earliest parent wins, a run
is computed in its live-edge form (Kempe, Kleinberg & Tardos, KDD 2003; with
continuous delays as in NetRate, Gomez-Rodriguez et al., ICML 2011): the
live edges and their delays are drawn up front, and activation times are the
earliest arrival times from the seeds over the live edges. The live edges
are drawn by their geometric gaps (Batagelj & Brandes, Phys. Rev. E 71,
2005), so a run draws about one number per live edge, not one coin per edge.
The law is the same as with per-edge coins, but the stream is consumed
differently, so for a fixed seed the cascade forecasts and run dumps differ
in bytes from those of the per-edge-coin sampler. Fitting and simulation
work on the graph's CSR edge arrays, with no loop per edge.

``fit_baseline`` estimates a baseline from the observed prefix, and
``predict_baseline`` is the one way to run it: a forecast relaxes its runs
together in batches of at most ``BUDGET`` nodes plus edges. R runs are R
disjoint live-edge graphs, hence one earliest-arrival problem on
R * node_count nodes, and one ``bincount`` over (run, interval) bins them.
Each run draws from its own stream, exactly what it would draw alone, so the
batching changes no output; ``run_dump`` hands back each run's activations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import Graph, IntervalGrid, Trend, aggregate
from .simulation import _BASELINE_RUN_KEY, PredictionReport, SimConfig, derived_rng, summarize_runs

BASELINE_KINDS = ("tequ", "texp", "eexp")

# Defaults applied when the prefix yields no parent-child attributions.
FALLBACK_ACTIVATION_PROB = 0.1
FALLBACK_MEAN_GAP = 1.0

# Cells of scratch (nodes plus edges, per run) one batch of runs may use, so
# the memory of predict_baseline does not grow with the run count.
BUDGET = 2**18


@dataclass
class BaselineParams:
    """Estimated cascade parameters; ``fallback`` flags unattributable prefixes."""

    kind: str
    activation_prob: float
    delay_equal: float
    # eexp's rate of each CSR edge, in ``_edges`` order; None puts ``delay_rate`` on every edge.
    edge_delay_rates: np.ndarray | None = None
    mult_factor: float | None = None
    fallback: bool = False

    def __post_init__(self) -> None:
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"kind must be one of {BASELINE_KINDS}")
        if not 0 < self.activation_prob <= 1:
            raise ValueError("activation_prob must lie in (0, 1]")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def delay_rate(self) -> float:
        """The trend-level exponential delay rate of texp and eexp: one over the mean delay."""
        return 1.0 / self.delay_equal


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
    gaps = t_dst[at] - t_src[at]

    # Every attributed edge is also an opportunity, and every gap is > 0.
    if gaps.size == 0:
        return BaselineParams(kind, FALLBACK_ACTIVATION_PROB, FALLBACK_MEAN_GAP, fallback=True)
    mean_gap = sum(gaps.tolist()) / len(gaps)
    rates = None
    if kind == "eexp":
        # A child has one parent, so each attributed edge's mean gap is its single gap.
        rates = np.full(len(dst), 1.0 / mean_gap)
        rates[at] = 1.0 / gaps
    return BaselineParams(kind, len(gaps) / opportunities, mean_gap, rates)


def _live_edges(rng: np.random.Generator, m: int, p: float) -> np.ndarray:
    """Ascending indices of the live edges among ``m``, each live alone with probability ``p``.

    The gaps between consecutive live edges of a Bernoulli(p) sequence are
    Geometric(p), so the indices are cumulative sums of geometric gaps, drawn
    in blocks of about m * p plus four standard deviations until they pass m.
    A gap is 1 + floor(E / -log(1 - p)) for E ~ Exp(1), the logarithm taken
    once per call, so a gap costs one exponential draw. For p < 1/3 numpy's
    ``geometric`` inverts the same exponential draw as ceil(E / -log(1 - p)),
    with a logarithm per gap, so both give the same gaps from the same stream
    (they part only where E / -log(1 - p) is an integer, with probability 0);
    from p = 1/3 on numpy searches instead, and the draws differ but keep
    their law.
    """
    block = int(m * p + 4 * math.sqrt(m * p)) + 1
    rate = -math.log1p(-p) if p < 1.0 else math.inf
    ends = np.cumsum(_exponential_gaps(rng, block, rate, m)) - 1
    while ends[-1] < m:
        ends = np.concatenate((ends, ends[-1] + np.cumsum(_exponential_gaps(rng, block, rate, m))))
    return ends[: np.searchsorted(ends, m)]


def _exponential_gaps(rng: np.random.Generator, size: int, rate: float, m: int) -> np.ndarray:
    """``size`` Geometric gaps 1 + floor(E / rate), E ~ Exp(1) and rate = -log(1 - p), each at most m + 1.

    A gap past m ends ``_live_edges``' draw whatever its size, so clipping
    there keeps the int cast in range; at p = 1 the rate is inf and every
    gap is 1.
    """
    e = rng.standard_exponential(size)
    e /= rate
    gap = np.minimum(e, m, out=e).astype(np.int64)
    gap += 1
    return gap


def _arrivals(
    params: BaselineParams,
    src: np.ndarray,
    dst: np.ndarray,
    rates: np.ndarray | None,
    first: np.ndarray,
    t_start: float,
    t_end: float,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Activation times of one run per generator, shape (runs, node_count).

    Run r draws from ``rngs[r]`` its live edges by ``_live_edges``, then
    their delays: ``delay_equal`` if ``rates`` is None, else exponential at
    the live edges' ``rates``. The
    live edges of all runs form one graph on runs * node_count nodes, run r
    owning nodes r * node_count onward, relaxed in one set of Bellman-Ford
    rounds from the seeds (the finite entries of ``first``). Runs never
    share an edge, and ``min`` is exact, so each run's times are the ones
    it would get alone.
    """
    n = len(first)
    live_parts, delay_parts = [], []
    for rng in rngs:
        live = _live_edges(rng, len(dst), params.activation_prob)
        if rates is None:
            delay = np.full(len(live), params.delay_equal)
        else:
            delay = rng.exponential(1.0 / rates[live])
        live_parts.append(live)
        delay_parts.append(delay)
    offset = np.repeat(np.arange(len(rngs)) * n, [len(live) for live in live_parts])
    live = np.concatenate(live_parts)
    src, dst, delay = src[live] + offset, dst[live] + offset, np.concatenate(delay_parts)
    active = np.tile(first, len(rngs))
    # Bellman-Ford rounds: only edges out of nodes whose time fell last round can improve.
    fired = np.isfinite(active)
    while True:
        at = np.flatnonzero(fired[src])
        arrive = active[src[at]] + delay[at]
        ok = (t_start <= arrive) & (arrive < t_end) & (arrive < active[dst[at]])
        if not ok.any():
            break
        np.minimum.at(active, dst[at[ok]], arrive[ok])
        fired = np.zeros(len(active), dtype=bool)
        fired[dst[at[ok]]] = True
    return active.reshape(len(rngs), n)


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
    run_dump: list[Trend] | None = None,
) -> PredictionReport:
    """Monte Carlo cascade forecast, mirroring the activeness predictor.

    Nodes active in the observed prefix are seeds: they fire their
    activation attempts from their original first-action times, so delayed
    adoptions can spill past t_start, but the seeds themselves are never
    re-emitted. Attempts that would land before t_start failed in
    observation and are discarded. When ``run_dump`` is a list, each run
    appends, in run order, its new activations in [t_start, t_end).

    A cascade activates each node once, so raw intensity equals coverage per
    interval; a ``mult_factor`` makes it mult_factor * coverage instead.
    ValueError: a factor that is not positive, or eexp rates whose length
    is not the graph's edge count. Run r draws from its own generator
    (spawn key ``_BASELINE_RUN_KEY + r``); runs are relaxed together in
    batches of ``BUDGET // (nodes + edges)``, at least one.
    """
    config.check_grid(grid)
    if params.mult_factor is not None and params.mult_factor <= 0:
        raise ValueError("mult_factor must be positive")
    src, dst = _edges(graph)
    rates = params.edge_delay_rates if params.kind == "eexp" else None
    if rates is not None and len(rates) != len(dst):
        raise ValueError(f"eexp has {len(rates)} edge delay rates for a graph of {len(dst)} edges")
    if rates is None and params.kind != "tequ":
        rates = np.full(len(dst), params.delay_rate)
    first = _first_activations(trend.prefix(config.t_start), graph.node_count)
    new_node = ~np.isfinite(first)
    per_batch = max(1, BUDGET // (graph.node_count + len(dst)))
    coverage = np.empty((config.runs, grid.count))
    for lo in range(0, config.runs, per_batch):
        hi = min(lo + per_batch, config.runs)
        rngs = [derived_rng(config.seed, _BASELINE_RUN_KEY + r) for r in range(lo, hi)]
        active = _arrivals(params, src, dst, rates, first, config.t_start, config.t_end, rngs)
        run, node = np.nonzero(new_node & (active < config.t_end))
        times = active[run, node]
        if run_dump is not None:
            # np.nonzero walks the batch run by run, so each run's activations are one slice.
            cuts = np.searchsorted(run, np.arange(1, hi - lo))
            run_dump.extend(map(Trend, np.split(node, cuts), np.split(times, cuts)))
        # A node activates at most once per run, so the interval count is also coverage.
        keep, idx = grid.bin(times)
        cells = run[keep] * grid.count + idx
        coverage[lo:hi] = np.bincount(cells, minlength=(hi - lo) * grid.count).reshape(hi - lo, grid.count)
    intensity = coverage if params.mult_factor is None else params.mult_factor * coverage
    return summarize_runs(grid, intensity, coverage, theta, measure)
