"""Independent reference implementations used to cross-check the package.

Most of it is deliberately naive: plain loops, no stacking, no shared code
with the library internals beyond data containers. ``ActivenessModel``,
``total_integrated_influence``, ``PairTable``, ``heap_simulate_baseline``,
``loop_fit_baseline``, ``loop_predict_baseline``, ``line_load_graph``,
``line_load_trend``, ``_golden_max``, ``golden_fit``,
``dict_shortest_path_row``, ``dict_random_walk_row``, ``einsum_slot_fill``,
``intensity`` and ``coverage`` are former library code that nothing in the package calls any
more; they stay here as references. ``heap_simulate_baseline`` and
``loop_simulate_baseline`` run one cascade alone; the package runs cascades
only inside ``baselines.predict_baseline``, whose runs ``cascade_runs`` reads
back from its run dump for the tests to compare. ``loop_simulate_baseline``
takes its live edges from the shipped ``baselines._live_edges``, whose law
``test_baselines`` checks on its own, so that it consumes each run's stream
as the package does; its delays and relaxation are its own. The oracles
read proximity rows through ``gathered_rows``, one ``gather`` and
``csr_row_sums``, as the package reads them.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from trendcast.activeness import ActivenessParams
from trendcast.baselines import FALLBACK_ACTIVATION_PROB, FALLBACK_MEAN_GAP, BaselineParams, _live_edges, predict_baseline
from trendcast.core import Graph, IntervalGrid, ParseError, Trend, UnknownNodeError, aggregate, random_graph
from trendcast.learning import (
    _SUBRANGES,
    _TOLERANCE,
    DegeneratePrefixError,
    LearnConfig,
    LearnResult,
    _table,
)
from trendcast.proximity import ProximityConfig, ProximityMap, csr_row_sums
from trendcast.simulation import _BASELINE_RUN_KEY, PredictionReport, SimConfig, Streams, derived_rng, summarize_runs


def gathered_rows(prox: ProximityMap, nodes) -> tuple[dict[int, dict[int, float]], dict[int, float]]:
    """The rows of the distinct ``nodes`` as plain dicts in entry order, and their sums, from one ``gather``.

    The sums follow the library's rule, ``csr_row_sums``. The loops below
    look a score up per action pair; a plain dict keeps those lookups at
    dict speed.
    """
    sources = np.unique(np.asarray(nodes, dtype=np.int64))
    row_start, targets, scores = prox.gather(sources)
    sums = csr_row_sums(row_start, scores)
    bounds, targets, scores = row_start.tolist(), targets.tolist(), scores.tolist()
    rows = {u: dict(zip(targets[a:b], scores[a:b])) for u, a, b in zip(sources.tolist(), bounds, bounds[1:])}
    return rows, dict(zip(sources.tolist(), sums.tolist()))


@dataclass
class ActivenessModel:
    """Activeness queries against an observed action prefix, by plain loops."""

    trend: Trend
    prox: ProximityMap
    params: ActivenessParams

    @cached_property
    def _rows(self) -> dict[int, dict[int, float]]:
        return gathered_rows(self.prox, self.trend.nodes)[0]

    def decayed_influence(self, node: int, t: float) -> float:
        """Sum of prox(u, node) * exp(-(t - t_i)/tau) over actions with t_i <= t."""
        total = 0.0
        for u, t_i in self.trend.prefix(t):
            score = self._rows[u].get(node)
            if score:
                total += score * math.exp(-(t - t_i) / self.params.tau)
        return total

    def integrated_influence(self, node: int, t: float) -> float:
        """Integral of decayed_influence from each action time up to t."""
        tau = self.params.tau
        total = 0.0
        for u, t_i in self.trend.prefix(t):
            score = self._rows[u].get(node)
            if score:
                total += score * (1.0 - math.exp(-(t - t_i) / tau))
        return tau * total

    def activeness(self, node: int, t: float) -> float:
        """Instantaneous action rate of ``node`` at time t."""
        params = self.params
        residual = params.epsilon * math.exp(-(t - params.t0) / params.tau)
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
        total += rs * (1.0 - math.exp(-(t_star - t_i) / tau))
    return tau * total


class PairTable:
    """The likelihood's former precomputation: one entry per action pair.

    Flattens every (earlier action j, later action i) pair with nonzero
    proximity into parallel arrays, so each tau evaluation is a handful of
    vectorized passes. Memory grows with the number of pairs, quadratic in
    the prefix length; the library's block table replaced it, and it stays
    here as the reference the block table is checked against. Like the
    library, it conditions on the actions at the first action time: they
    feed influence and H but are not scored as events.
    """

    def __init__(self, prefix: Trend, prox: ProximityMap, t_star: float) -> None:
        nodes = prefix.nodes.tolist()
        rows, sums = gathered_rows(prox, nodes)
        times = prefix.times.tolist()
        self.n = len(nodes)
        self.n_events = sum(t > times[0] for t in times)
        by_node: dict[int, list[int]] = {}
        for i, u in enumerate(nodes):
            by_node.setdefault(u, []).append(i)
        pair_dt: list[float] = []
        pair_weight: list[float] = []
        pair_target: list[int] = []
        for j, (u, t_j) in enumerate(zip(nodes, times)):
            for v, score in rows[u].items():
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
        self.row_sums = np.asarray([sums[u] for u in nodes], dtype=np.float64)

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
        alpha_closed = self.n_events / h_total
        h = self.influences(tau)[self.n - self.n_events :]
        floor = epsilon / alpha_closed
        if floor <= 0.0 and (h <= 0.0).any():
            raise DegeneratePrefixError(
                "action with zero influence and epsilon = 0; likelihood is degenerate"
            )
        h = np.maximum(h, floor)
        return self.n_events * math.log(alpha) - alpha * h_total + float(np.log(h).sum())


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float, int]:
    """Golden-section maximization on [a, b]; ties resolve toward smaller x."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        evals += 1
    if fc >= fd:
        return c, fc, evals
    return d, fd, evals


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


def naive_total_integral(trend: Trend, prox: ProximityMap, tau: float, t_star: float, node_count: int) -> float:
    """All-nodes influence integral by the full node-by-node double loop."""
    prefix = trend.prefix(t_star)
    actions = list(prefix)
    rows, _ = gathered_rows(prox, prefix.nodes)
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
    rows, _ = gathered_rows(prox, nodes)
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
    """The likelihood conditioned on the actions at the first action time: only later ones are events."""
    prefix = trend.prefix(t_star)
    event = [t > prefix.times[0] for t in prefix.times.tolist()]
    n = sum(event)
    h_total = naive_total_integral(trend, prox, tau, t_star, node_count)
    alpha_closed = n / h_total
    log_h = 0.0
    for h, is_event in zip(naive_influences(prefix, prox, tau), event):
        if is_event:
            log_h += math.log(max(h, epsilon / alpha_closed))
    return n * math.log(alpha) - alpha * h_total + log_h


def einsum_slot_fill(
    nodes: np.ndarray, p: np.ndarray, decay: np.ndarray, neg_dt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense slot form's former fill: one einsum over every acting node.

    ``nodes`` are the prefix's action nodes, ``p`` the m x m proximity matrix
    over its acting nodes, ``decay`` and ``neg_dt`` the feeders' decays and
    negated elapsed times to their block ends. The reached cells (c, a) are
    the nonzero cells of the feeders' (block, node) counts times P, and a
    slot is a reached cell that some later block's action at a reads.
    Returns the slot cells c * m + a in ascending order, and every slot's
    U_c[a] and negated V_c[a].
    """
    act = np.unique(nodes, return_inverse=True)[1]
    n, m = len(nodes), len(p)
    size = math.isqrt(max(n - 1, 0)) + 1
    block = np.arange(n) // size
    cells = int(block[-1]) * m
    feed_cell = block[: len(decay)] * m + act[: len(decay)]
    count = np.bincount(feed_cell, minlength=cells).reshape(-1, m)
    reached = np.einsum("ck,ka->ca", count.astype(np.float64), p).ravel() > 0.0
    read = np.zeros(cells, dtype=bool)
    for i in range(n):
        for c in range(block[i]):
            read[c * m + act[i]] = True
    slot_cell = np.flatnonzero(read & reached)
    weights = (decay, decay * neg_dt)
    w = np.concatenate([np.bincount(feed_cell, weights=x, minlength=cells) for x in weights])
    u = np.einsum("ck,ka->ca", w.reshape(-1, m), p)
    u = u.reshape(2, -1).take(slot_cell, axis=1)
    return slot_cell, u[0], u[1]


def target_ordered_influences(table, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The table's influences h and lagged sums k, summed target by target.

    The former entry layout put each target's entries side by side. This
    forms the same per-entry terms as ``table._influences`` and sums them
    after a stable sort by target, so each target still adds its own entries
    in table order: in-block pairs, then slot reads.
    """
    decay = np.exp(table._neg_dt / tau)
    feeders, pairs = table._feeders, len(table._pair_score)
    neg_dt = table._neg_dt[feeders:]
    terms = decay[feeders:].copy()
    terms[:pairs] *= table._pair_score
    lag_terms = terms * neg_dt
    if table._slots:
        slots, lags = table._slot_values(decay[:feeders])
        read = table._read_slot
        lag_terms[pairs:] = lag_terms[pairs:] * slots[read] + terms[pairs:] * lags[read]
        terms[pairs:] *= slots[read]
    order = np.argsort(table._target, kind="stable")
    target = table._target[order]
    h = np.bincount(target, weights=terms[order], minlength=table.n)
    return h, -np.bincount(target, weights=lag_terms[order], minlength=table.n)


def decayed_influence_at(prefix_actions: list[tuple[int, float]], rows: Mapping[int, Mapping[int, float]], node: int,
                         t: float, tau: float) -> float:
    """Pointwise influence sum, used as a quadrature integrand; ``rows`` as ``gathered_rows`` gives them."""
    s = 0.0
    for u, t_i in prefix_actions:
        if t_i <= t:
            w = rows[u].get(node)
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
    """The shortest-path row as a dict by hop, then ascending node, from a level BFS over ``graph.neighbors``."""
    scores = {source: 1.0}
    seen = {source}
    frontier = [source]
    hops = 0
    while frontier:
        hops += 1
        weight = math.exp(-config.b * hops)
        if weight < config.floor:
            break
        level = {v for u in frontier for v in graph.neighbors(u).tolist()} - seen
        seen |= level
        frontier = sorted(level)
        scores.update(dict.fromkeys(frontier, weight))
    return scores


def dict_random_walk_row(graph: Graph, source: int, config: ProximityConfig) -> dict[int, float]:
    """The random-walk row as a dict in ascending node order, by the library's own fixed point.

    The iteration is the library's, step for step, so the scores match
    ``random_walk_row`` bit for bit; only the row's form differs. Like the
    library's, the row keeps every positive entry: it takes no floor.
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
            return {int(v): float(pi[v]) for v in np.flatnonzero(pi > 0.0)}


def exact_random_walk_rows(graph: Graph, p: float) -> np.ndarray:
    """Every random-walk row as a dense matrix, each solved exactly with ``numpy.linalg.solve``.

    Row u is the fixed point pi = q * M pi + e_u * (p + q * (mass of pi on
    dangling nodes)), q = 1 - p, where M moves each node's mass evenly over
    its out-edges: no iteration, no tolerance and no floor.
    """
    n = graph.node_count
    degree = np.diff(graph.indptr)
    move = np.zeros((n, n))
    for w in range(n):
        for v in graph.indices[graph.indptr[w] : graph.indptr[w + 1]].tolist():
            move[v, w] += 1.0 / degree[w]
    rows = np.empty((n, n))
    for u in range(n):
        system = np.eye(n) - (1.0 - p) * move
        system[u] -= (1.0 - p) * (degree == 0)
        rows[u] = np.linalg.solve(system, p * np.eye(n)[u])
    return rows


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
            fallback=True,
        )
    mean_gap = sum(gaps) / len(gaps)
    if mean_gap <= 0.0:
        return BaselineParams(
            kind=kind,
            activation_prob=min(1.0, len(gaps) / opportunities),
            delay_equal=FALLBACK_MEAN_GAP,
            fallback=True,
        )
    edge_rates = None
    if kind == "eexp":
        edge_rates = np.full(len(graph.indices), 1.0 / mean_gap)
        for (u, w), edge_gap in edge_gaps.items():
            m = sum(edge_gap) / len(edge_gap)
            if m > 0:
                edge_rates[int(graph.indptr[u]) + graph.neighbors(u).tolist().index(w)] = 1.0 / m
    return BaselineParams(
        kind=kind,
        activation_prob=min(1.0, len(gaps) / opportunities),
        delay_equal=mean_gap,
        edge_delay_rates=edge_rates,
    )


def _draw_delay(params: BaselineParams, edge: int, rng: np.random.Generator) -> float:
    """The delay of CSR edge ``edge``: eexp's own rate where it has rates, else the trend's."""
    if params.kind == "tequ":
        return params.delay_equal
    if params.kind == "texp" or params.edge_delay_rates is None:
        return rng.exponential(1.0 / params.delay_rate)
    return rng.exponential(1.0 / params.edge_delay_rates[edge])


def heap_simulate_baseline(
    params: BaselineParams,
    graph: Graph,
    trend: Trend,
    t_start: float,
    t_end: float,
    rng: np.random.Generator,
) -> Trend:
    """One cascade run's new activations in [t_start, t_end), in activation order.

    A heap pops nodes by activation time and draws one coin per attempted
    edge; the run matches one run of ``baselines.predict_baseline`` in law,
    and exactly when every coin and delay is fixed (tequ at p = 1).
    """
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
        for edge, w in enumerate(graph.neighbors(node).tolist(), start=int(graph.indptr[node])):
            if activation.get(w, math.inf) <= t:
                continue
            if rng.random() < params.activation_prob:
                t_w = t + _draw_delay(params, edge, rng)
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
    """One cascade run alone: its live edges by the shipped ``_live_edges``, their delays, its own Bellman-Ford rounds."""
    n = graph.node_count
    active = np.full(n, math.inf)
    for node, t in _first_activation_dict(trend.prefix(t_start)).items():
        active[node] = t
    seed = np.isfinite(active)
    src, dst = np.repeat(np.arange(n), np.diff(graph.indptr)), graph.indices
    live = _live_edges(rng, len(dst), params.activation_prob)
    src, dst = src[live], dst[live]
    if params.kind == "tequ":
        delay = np.full(len(dst), params.delay_equal)
    elif params.kind == "texp" or params.edge_delay_rates is None:
        delay = rng.exponential(1.0 / params.delay_rate, size=len(dst))
    else:
        delay = rng.exponential(1.0 / params.edge_delay_rates[live])
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


def cascade_runs(
    params: BaselineParams, graph: Graph, trend: Trend, t_start: float, t_end: float, runs: int = 1, seed: int = 0
) -> list[Trend]:
    """The runs of ``baselines.predict_baseline`` from ``seed``, read from its run dump on the grid [t_start, t_end)."""
    dump: list[Trend] = []
    config = SimConfig(t_start, t_end, runs=runs, seed=seed)
    predict_baseline(params, graph, trend, config, IntervalGrid(t_start, t_end - t_start, 1), run_dump=dump)
    return dump


def loop_predict_baseline(
    params: BaselineParams,
    graph: Graph,
    trend: Trend,
    config: SimConfig,
    grid: IntervalGrid,
    theta: float = 0.0,
    measure: str = "coverage",
) -> PredictionReport:
    """``baselines.predict_baseline`` one run at a time: simulate, aggregate, then fold the rows."""
    intensity_rows: list[np.ndarray] = []
    coverage_rows: list[np.ndarray] = []
    for run_index in range(config.runs):
        rng = derived_rng(config.seed, _BASELINE_RUN_KEY + run_index)
        run_trend = loop_simulate_baseline(params, graph, trend, config.t_start, config.t_end, rng)
        series = aggregate(run_trend, grid)
        cov = series.coverage
        inten = series.intensity if params.mult_factor is None else params.mult_factor * cov
        intensity_rows.append(np.asarray(inten, dtype=np.float64))
        coverage_rows.append(cov.astype(np.float64))
    return summarize_runs(grid, intensity_rows, coverage_rows, theta, measure)


def intensity(trend: Trend, t_min: float, t_max: float) -> int:
    """Number of actions with t_min <= t < t_max."""
    lo = np.searchsorted(trend.times, t_min, side="left")
    hi = np.searchsorted(trend.times, t_max, side="left")
    return int(hi - lo)


def coverage(trend: Trend, t_min: float, t_max: float) -> int:
    """Number of distinct nodes acting in [t_min, t_max)."""
    lo = np.searchsorted(trend.times, t_min, side="left")
    hi = np.searchsorted(trend.times, t_max, side="left")
    return int(np.unique(trend.nodes[lo:hi]).size)


def stacked_rows_coverage(trend: Trend, grid: IntervalGrid) -> np.ndarray:
    """Coverage per interval by the former ``aggregate``: ``np.unique`` over stacked (interval, node) rows."""
    keep, idx = grid.bin(trend.times)
    pairs = np.unique(np.stack([idx, trend.nodes[keep]], axis=1), axis=0)
    if not pairs.size:
        return np.zeros(grid.count, dtype=np.int64)
    return np.bincount(pairs[:, 0], minlength=grid.count).astype(np.int64)


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
