"""Independent reference implementations used to cross-check the package.

Most of it is deliberately naive: plain loops, no stacking, no shared code
with the library internals beyond data containers. ``ActivenessModel``,
``total_integrated_influence`` and ``PairTable`` are former library code that
nothing in the package calls any more; they stay here as references.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from trendcast.activeness import ActivenessParams, _decay
from trendcast.core import Graph, Trend, random_graph
from trendcast.learning import DegeneratePrefixError
from trendcast.proximity import ProximityConfig, ProximityMap
from trendcast.simulation import DecayingStream


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

    def evaluate(self, tau: float, alpha: float | None, epsilon: float) -> tuple[float, float]:
        """Log-likelihood at (alpha, tau); alpha of None means the closed-form value.

        Actions with zero influence (no predecessors, or all terms decayed
        away) fall back to the residual rate: their influence is read as
        epsilon / alpha_hat(tau), a constant in the alpha argument, which
        keeps the closed-form alpha the exact maximizer.
        """
        h_total = self.total_integral(tau)
        if h_total <= 0.0:
            raise DegeneratePrefixError(
                "total influence integral is zero; prefix cannot identify alpha"
            )
        alpha_closed = self.n / h_total
        if alpha is None:
            alpha = alpha_closed
        h = self.influences(tau)
        zero = h <= 0.0
        if zero.any():
            floor = epsilon / alpha_closed
            if floor <= 0.0:
                raise DegeneratePrefixError(
                    "action with zero influence and epsilon = 0; likelihood is degenerate"
                )
            h = np.where(zero, floor, h)
        value = self.n * math.log(alpha) - alpha * h_total + float(np.log(h).sum())
        return value, alpha_closed


def naive_total_integral(trend: Trend, prox: ProximityMap, tau: float, t_star: float, node_count: int) -> float:
    """All-nodes influence integral by the full node-by-node double loop."""
    prefix = trend.prefix(t_star)
    actions = list(prefix)
    total = 0.0
    for v in range(node_count):
        s = 0.0
        for u, t_i in actions:
            w = prox.row(u).get(v)
            if w:
                s += w * (1.0 - math.exp(-(t_star - t_i) / tau))
        total += tau * s
    return total


def naive_influences(prefix: Trend, prox: ProximityMap, tau: float) -> list[float]:
    """Strict-predecessor influence at each action via the pairwise loop."""
    nodes = prefix.nodes.tolist()
    times = prefix.times.tolist()
    out = []
    for i in range(len(nodes)):
        s = 0.0
        for j in range(i):
            w = prox.row(nodes[j]).get(nodes[i])
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
        log_h += math.log(h if h > 0 else epsilon / alpha_closed)
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


def thinning_superposed(streams: list[DecayingStream], t_start: float, t_end: float, rng: np.random.Generator) -> list[float]:
    """Direct simulation of the summed rate of decaying streams by thinning.

    The summed rate is non-increasing, so the rate at the current time bounds
    the future and standard thinning applies.
    """

    def rate(t: float) -> float:
        return sum(s.coefficient * math.exp(-(t - s.anchor) / s.tau) for s in streams)

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
