"""Independent reference implementations used to cross-check the package.

Most of it is deliberately naive: plain loops, no stacking, no shared code
with the library internals beyond data containers. ``ActivenessModel``,
``total_integrated_influence``, ``PairTable``, ``heap_simulate_baseline``,
``loop_fit_baseline``, ``loop_predict_baseline``, ``line_load_graph``,
``line_load_trend``, ``golden_fit``, ``dict_shortest_path_row`` and
``dict_random_walk_row`` are former library code that nothing in the package calls any more; they stay
here as references.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from trendcast.activeness import ActivenessParams, _decay
from trendcast.baselines import (
    _BASELINE_RUN_KEY,
    FALLBACK_ACTIVATION_PROB,
    FALLBACK_MEAN_GAP,
    BaselineParams,
    intensity_from_coverage,
)
from trendcast.core import Graph, IntervalGrid, ParseError, Trend, UnknownNodeError, aggregate, random_graph
from trendcast.learning import (
    _SUBRANGES,
    _TOLERANCE,
    DegeneratePrefixError,
    LearnConfig,
    LearnResult,
    _golden_max,
    _table,
)
from trendcast.proximity import ProximityConfig, ProximityMap
from trendcast.simulation import PredictionReport, SimConfig, Streams, derived_rng, summarize_runs


@dataclass
class ActivenessModel:
    """Activeness queries against an observed action prefix, by plain loops."""

    trend: Trend
    prox: ProximityMap
    params: ActivenessParams

    def decayed_influence(self, node: int, t: float) -> float:
        """Sum of prox(u, node) * exp(-(t - t_i)/tau) over actions with t_i <= t."""
        total = 0.0
        for u, t_i in self.trend.prefix(t):
            score = self.prox.row(u).get(node)
            if score:
                total += score * _decay(t - t_i, self.params.tau)
        return total

    def integrated_influence(self, node: int, t: float) -> float:
        """Integral of decayed_influence from each action time up to t."""
        tau = self.params.tau
        total = 0.0
        for u, t_i in self.trend.prefix(t):
            score = self.prox.row(u).get(node)
            if score:
                total += score * (1.0 - _decay(t - t_i, tau))
        return tau * total

    def activeness(self, node: int, t: float) -> float:
        """Instantaneous action rate of ``node`` at time t."""
        params = self.params
        residual = params.epsilon * _decay(t - params.t0, params.tau)
        return params.alpha * self.decayed_influence(node, t) + residual


def total_integrated_influence(
    trend: Trend,
    tau: float,
    t_star: float,
    row_sums: Mapping[int, float],
) -> float:
    """Sum over all nodes of the influence integral up to t_star.

    Folding the node sum into precomputed proximity row sums turns the
    all-nodes double loop into a single pass over the observed actions.
    """
    total = 0.0
    for u, t_i in trend.prefix(t_star):
        try:
            rs = row_sums[u]
        except KeyError:
            raise LookupError(f"row sum for acting node {u} was not precomputed") from None
        total += rs * (1.0 - _decay(t_star - t_i, tau))
    return tau * total


class PairTable:
    """The likelihood's former precomputation: one entry per action pair.

    Flattens every (earlier action j, later action i) pair with nonzero
    proximity into parallel arrays, so each tau evaluation is a handful of
    vectorized passes. Memory grows with the number of pairs, quadratic in
    the prefix length; the library's block table replaced it, and it stays
    here as the reference the block table is checked against.
    """

    def __init__(self, prefix: Trend, prox: ProximityMap, t_star: float) -> None:
        nodes = prefix.nodes.tolist()
        times = prefix.times.tolist()
        self.n = len(nodes)
        by_node: dict[int, list[int]] = {}
        for i, u in enumerate(nodes):
            by_node.setdefault(u, []).append(i)
        pair_dt: list[float] = []
        pair_weight: list[float] = []
        pair_target: list[int] = []
        for j, (u, t_j) in enumerate(zip(nodes, times)):
            for v, score in prox.row(u).items():
                targets = by_node.get(v)
                if not targets:
                    continue
                for i in targets[bisect_right(targets, j) :]:
                    pair_dt.append(times[i] - t_j)
                    pair_weight.append(score)
                    pair_target.append(i)
        self.pair_dt = np.asarray(pair_dt, dtype=np.float64)
        self.pair_weight = np.asarray(pair_weight, dtype=np.float64)
        self.pair_target = np.asarray(pair_target, dtype=np.int64)
        self.elapsed = t_star - prefix.times
        self.row_sums = np.asarray([prox.row_sum(u) for u in nodes], dtype=np.float64)

    def total_integral(self, tau: float) -> float:
        """Stacked all-nodes influence integral up to t_star."""
        return tau * float(np.sum(self.row_sums * -np.expm1(-self.elapsed / tau)))

    def influences(self, tau: float) -> np.ndarray:
        """Strict-predecessor influence at each action time.

        Predecessors are actions strictly earlier in the sequence; an action
        never feeds its own influence term, and among equal timestamps only
        earlier list positions count.
        """
        h = np.zeros(self.n)
        if self.pair_dt.size:
            contrib = self.pair_weight * np.exp(-self.pair_dt / tau)
            h = np.bincount(self.pair_target, weights=contrib, minlength=self.n)
        return h

    def evaluate(self, tau: float, alpha: float, epsilon: float) -> float:
        """Log-likelihood at (alpha, tau).

        Every influence is floored at epsilon / alpha_hat(tau), a constant in
        the alpha argument, which keeps the closed-form alpha the exact
        maximizer.
        """
        h_total = self.total_integral(tau)
        if h_total <= 0.0:
            raise DegeneratePrefixError(
                "total influence integral is zero; prefix cannot identify alpha"
            )
        alpha_closed = self.n / h_total
        h = self.influences(tau)
        floor = epsilon / alpha_closed
        if floor <= 0.0 and (h <= 0.0).any():
            raise DegeneratePrefixError(
                "action with zero influence and epsilon = 0; likelihood is degenerate"
            )
        h = np.maximum(h, floor)
        return self.n * math.log(alpha) - alpha * h_total + float(np.log(h).sum())


def golden_fit(
    trend: Trend,
    prox: ProximityMap,
    t_star: float,
    config: LearnConfig | None = None,
    epsilon: float = 1e-9,
) -> LearnResult:
    """The former ``fit`` search: golden section on the profile value alone.

    Runs a golden-section search on log tau within each of ``fit``'s
    geometric subranges of the bracket; the best value wins, ties going to
    the smaller tau. It spends about 34 evaluations per subrange at
    ``fit``'s stopping width, whatever the profile's shape.
    """
    config = config or LearnConfig()
    prefix = trend.prefix(t_star)
    if len(prefix) < 2:
        raise DegeneratePrefixError("need at least two actions to fit")
    table = _table(trend, prox, t_star)
    if config.tau_range is not None:
        lo, hi = config.tau_range
    else:
        span = t_star - float(prefix.times[0])
        lo, hi = 1e-3 * span, 1e3 * span
    evaluations = 0

    def objective(x: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return table.profile(math.exp(x), epsilon)[0]

    cuts = np.linspace(math.log(lo), math.log(hi), _SUBRANGES + 1)
    best_x = best_f = None
    for a, b in zip(cuts[:-1], cuts[1:]):
        x, fx, _ = _golden_max(objective, float(a), float(b), _TOLERANCE)
        if best_f is None or fx > best_f:
            best_x, best_f = x, fx
    tau_hat = math.exp(best_x)
    return LearnResult(table._closed_alpha(tau_hat)[1], tau_hat, best_f, evaluations)


def _dict_rows(prox: ProximityMap, nodes: list[int]) -> dict[int, dict[int, float]]:
    """The rows of ``nodes`` as plain dicts, each read once through its mapping interface.

    The double loops below look a score up per action pair; a plain dict
    keeps those lookups at dict speed.
    """
    return {u: dict(prox.row(u)) for u in set(nodes)}


def naive_total_integral(trend: Trend, prox: ProximityMap, tau: float, t_star: float, node_count: int) -> float:
    """All-nodes influence integral by the full node-by-node double loop."""
    prefix = trend.prefix(t_star)
    actions = list(prefix)
    rows = _dict_rows(prox, prefix.nodes.tolist())
    total = 0.0
    for v in range(node_count):
        s = 0.0
        for u, t_i in actions:
            w = rows[u].get(v)
            if w:
                s += w * (1.0 - math.exp(-(t_star - t_i) / tau))
        total += tau * s
    return total


def naive_influences(prefix: Trend, prox: ProximityMap, tau: float) -> list[float]:
    """Strict-predecessor influence at each action via the pairwise loop."""
    nodes = prefix.nodes.tolist()
    times = prefix.times.tolist()
    rows = _dict_rows(prox, nodes)
    out = []
    for i in range(len(nodes)):
        s = 0.0
        for j in range(i):
            w = rows[nodes[j]].get(nodes[i])
            if w:
                s += w * math.exp(-(times[i] - times[j]) / tau)
        out.append(s)
    return out


def naive_log_likelihood(
    trend: Trend,
    prox: ProximityMap,
    tau: float,
    alpha: float,
    t_star: float,
    node_count: int,
    epsilon: float = 1e-9,
) -> float:
    prefix = trend.prefix(t_star)
    n = len(prefix)
    h_total = naive_total_integral(trend, prox, tau, t_star, node_count)
    alpha_closed = n / h_total
    log_h = 0.0
    for h in naive_influences(prefix, prox, tau):
        log_h += math.log(max(h, epsilon / alpha_closed))
    return n * math.log(alpha) - alpha * h_total + log_h


def decayed_influence_at(prefix_actions: list[tuple[int, float]], prox: ProximityMap, node: int, t: float, tau: float) -> float:
    """Pointwise influence sum, used as a quadrature integrand."""
    s = 0.0
    for u, t_i in prefix_actions:
        if t_i <= t:
            w = prox.row(u).get(node)
            if w:
                s += w * math.exp(-(t - t_i) / tau)
    return s


def thinning_superposed(streams: Streams, t_start: float, t_end: float, rng: np.random.Generator) -> list[float]:
    """Direct simulation of the summed rate of decaying streams by thinning.

    The summed rate is non-increasing, so the rate at the current time bounds
    the future and standard thinning applies.
    """

    terms = list(zip(streams.coefficient.tolist(), streams.anchor.tolist(), streams.tau.tolist()))

    def rate(t: float) -> float:
        return sum(c * math.exp(-(t - anchor) / tau) for c, anchor, tau in terms)

    t = t_start
    events: list[float] = []
    while True:
        lam = rate(t)
        if lam <= 0.0:
            return events
        t = t + rng.exponential(1.0 / lam)
        if t >= t_end:
            return events
        if rng.random() < rate(t) / lam:
            events.append(t)


def time_step_self_excited_counts(
    alpha: float,
    tau: float,
    seed_coefficient: float,
    t_end: float,
    dt: float,
    runs: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Total event counts of a single-node self-exciting process by tiny time steps."""
    rate = np.full(runs, seed_coefficient)
    counts = np.zeros(runs, dtype=np.int64)
    decay = math.exp(-dt / tau)
    for _ in range(int(round(t_end / dt))):
        fired = rng.random(runs) < rate * dt
        counts += fired
        rate = rate * decay + alpha * fired
    return counts


def dict_shortest_path_row(graph: Graph, source: int, config: ProximityConfig) -> dict[int, float]:
    """The shortest-path row as a dict in BFS order, from a deque BFS over ``graph.neighbors``."""
    scores = {source: 1.0}
    seen = {source}
    frontier = deque([source])
    hops = 0
    while frontier:
        hops += 1
        weight = math.exp(-config.b * hops)
        if weight < config.floor:
            break
        next_frontier: deque[int] = deque()
        while frontier:
            u = frontier.popleft()
            for v in graph.neighbors(u).tolist():
                if v not in seen:
                    seen.add(v)
                    scores[v] = weight
                    next_frontier.append(v)
        frontier = next_frontier
    return scores


def dict_random_walk_row(graph: Graph, source: int, config: ProximityConfig) -> dict[int, float]:
    """The random-walk row as a dict in ascending node order, by the library's own fixed point.

    The iteration is the library's, step for step, so the scores match
    ``random_walk_row`` bit for bit; only the row's form differs.
    """
    n = graph.node_count
    out_deg = np.diff(graph.indptr).astype(np.float64)
    dangling = out_deg == 0
    safe_deg = np.where(dangling, 1.0, out_deg)
    edge_src = np.repeat(np.arange(n), np.diff(graph.indptr))
    pi = np.zeros(n)
    pi[source] = 1.0
    while True:
        share = (1.0 - config.p) * pi / safe_deg
        nxt = np.bincount(graph.indices, weights=share[edge_src], minlength=n)
        nxt[source] += config.p + (1.0 - config.p) * pi[dangling].sum()
        converged = np.max(np.abs(nxt - pi)) < config.rw_tolerance
        pi = nxt
        if converged:
            return {int(v): float(pi[v]) for v in np.flatnonzero(pi >= config.floor)}


def unique_rows_csr(edges: list[tuple[int, int]], node_count: int, directed: bool) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` by deduplicating (src, dst) rows, as Graph.from_edges once did."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if not directed:
        arr = np.vstack([arr, arr[:, ::-1]])
    arr = np.unique(arr, axis=0)
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.add.at(indptr, arr[:, 0] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, arr[:, 1].copy()


def line_load_graph(path: str, directed: bool = False) -> Graph:
    """``core.load_graph`` one line at a time, interning labels as they appear."""
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ParseError(f"{path}:{lineno}: expected 'src<TAB>dst', got {raw.rstrip()!r}")
            pair = []
            for lab in parts:
                if lab not in index:
                    index[lab] = len(labels)
                    labels.append(lab)
                pair.append(index[lab])
            edges.append((pair[0], pair[1]))
    if not edges:
        raise ParseError(f"{path}: no edges found")
    return Graph.from_edges(edges, len(labels), labels, directed)


def line_load_trend(path: str, graph: Graph) -> Trend:
    """``core.load_trend`` one line at a time."""
    nodes: list[int] = []
    times: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ParseError(f"{path}:{lineno}: expected 'node<TAB>timestamp', got {raw.rstrip()!r}")
            try:
                node = graph.index_of(parts[0])
            except UnknownNodeError:
                raise UnknownNodeError(f"{path}:{lineno}: unknown node label {parts[0]!r}") from None
            try:
                t = float(parts[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad timestamp {parts[1]!r}") from None
            if not math.isfinite(t):
                raise ParseError(f"{path}:{lineno}: non-finite timestamp {parts[1]!r}")
            nodes.append(node)
            times.append(t)
    return Trend(np.asarray(nodes, dtype=np.int64), np.asarray(times, dtype=np.float64))


def _first_activation_dict(trend: Trend) -> dict[int, float]:
    first: dict[int, float] = {}
    for node, t in trend:
        if node not in first:
            first[node] = t
    return first


def loop_fit_baseline(kind: str, trend: Trend, graph: Graph, t_star: float) -> BaselineParams:
    """``baselines.fit_baseline`` by walking each active node's out- and in-neighbors."""
    first = _first_activation_dict(trend.prefix(t_star))
    order = sorted(first.items(), key=lambda item: (item[1], item[0]))
    in_neighbors: dict[int, list[int]] = {}
    for u in range(graph.node_count):
        for w in graph.neighbors(u).tolist():
            in_neighbors.setdefault(w, []).append(u)

    opportunities = 0
    gaps: list[float] = []
    edge_gaps: dict[tuple[int, int], list[float]] = {}
    for node, t in order:
        for w in graph.neighbors(node).tolist():
            if first.get(w, math.inf) > t:
                opportunities += 1
        parent = None
        for u in in_neighbors.get(node, []):
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


def heap_simulate_baseline(
    params: BaselineParams,
    graph: Graph,
    trend: Trend,
    t_start: float,
    t_end: float,
    rng: np.random.Generator,
) -> Trend:
    """``baselines.simulate_baseline`` in activation order: a heap, one coin per attempted edge."""
    activation = _first_activation_dict(trend.prefix(t_start))
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


def loop_simulate_baseline(
    params: BaselineParams,
    graph: Graph,
    trend: Trend,
    t_start: float,
    t_end: float,
    rng: np.random.Generator,
) -> Trend:
    """One cascade run alone: its coins, its live edges' delays, its own Bellman-Ford rounds."""
    n = graph.node_count
    active = np.full(n, math.inf)
    for node, t in _first_activation_dict(trend.prefix(t_start)).items():
        active[node] = t
    seed = np.isfinite(active)
    src, dst = np.repeat(np.arange(n), np.diff(graph.indptr)), graph.indices
    live = rng.random(len(dst)) < params.activation_prob
    src, dst = src[live], dst[live]
    if params.kind == "tequ":
        delay = np.full(len(dst), params.delay_equal)
    elif params.kind == "texp":
        delay = rng.exponential(1.0 / params.delay_rate, size=len(dst))
    else:
        rates = [params.edge_delay_rates.get(edge, params.delay_rate) for edge in zip(src.tolist(), dst.tolist())]
        delay = rng.exponential(1.0 / np.asarray(rates, dtype=np.float64))
    fired = seed
    while True:
        at = np.flatnonzero(fired[src])
        arrive = active[src[at]] + delay[at]
        ok = (t_start <= arrive) & (arrive < t_end) & (arrive < active[dst[at]])
        if not ok.any():
            break
        np.minimum.at(active, dst[at[ok]], arrive[ok])
        fired = np.zeros(n, dtype=bool)
        fired[dst[at[ok]]] = True
    nodes = np.flatnonzero(~seed & (active < t_end))
    return Trend(nodes, active[nodes])


def loop_predict_baseline(
    params: BaselineParams,
    graph: Graph,
    trend: Trend,
    config: SimConfig,
    grid: IntervalGrid,
    theta: float = 0.0,
    measure: str = "coverage",
    mult: bool = False,
) -> PredictionReport:
    """``baselines.predict_baseline`` one run at a time: simulate, aggregate, then fold the rows."""
    intensity_rows: list[np.ndarray] = []
    coverage_rows: list[np.ndarray] = []
    for run_index in range(config.runs):
        rng = derived_rng(config.seed, _BASELINE_RUN_KEY + run_index)
        run_trend = loop_simulate_baseline(params, graph, trend, config.t_start, config.t_end, rng)
        series = aggregate(run_trend, grid)
        cov = series.coverage
        inten = intensity_from_coverage(cov, params.mult_factor) if mult else series.intensity
        intensity_rows.append(np.asarray(inten, dtype=np.float64))
        coverage_rows.append(cov.astype(np.float64))
    return summarize_runs(grid, intensity_rows, coverage_rows, theta, measure)


def brute_force_longest_run(values, theta) -> int:
    """Longest all-above-theta window by checking every (start, end) pair."""
    vals = list(values)
    best = 0
    for i in range(len(vals)):
        for j in range(i, len(vals)):
            window = vals[i : j + 1]
            if all(v > theta for v in window):
                best = max(best, len(window))
    return best


def random_instance(
    seed: int,
    max_nodes: int = 500,
    max_actions: int = 200,
    kind: str = "shortest_path",
    b: float = 1.0,
    p: float = 0.4,
) -> tuple[Graph, ProximityMap, Trend]:
    """A random graph, kernel, and sorted action sequence for property tests."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, max_nodes + 1))
    max_edges = n * (n - 1) // 2
    m = int(min(rng.integers(n, 4 * n + 1), max_edges))
    graph = random_graph(n, m, seed=int(rng.integers(2**31)))
    k = int(rng.integers(2, max_actions + 1))
    nodes = rng.integers(0, n, size=k)
    times = np.sort(rng.uniform(0.0, 10.0, size=k))
    config = ProximityConfig(kind=kind, b=b, p=p)
    return graph, ProximityMap(graph, config), Trend(nodes, times)
