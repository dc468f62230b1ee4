"""Maximum-likelihood fitting of activeness parameters from an action prefix.

For fixed tau the jump scale alpha has a closed form (action count over the
total influence integral), so fitting reduces to a one-dimensional line
search over tau, run on log tau over four fixed geometric subranges to
dodge local maxima; the caller sets only the tau bracket. The influence
table has one kind of pass, which gives the profile value and its analytic
slope in log tau; a subrange whose slope changes sign from + to - is
searched by a safeguarded root step on the slope, and only a valley or a
flat plateau falls back to golden section on the value of that same pass.

The influence table has one layout. Only its in-block pairs, reached slots
and slot fill take one of two forms: every action's proximity row entries
or, when the acting nodes are few enough, one dense acting x acting
proximity matrix; ``_dense_slots`` states the rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Trend
from .proximity import ProximityMap, csr_row_sums


class DegeneratePrefixError(ValueError):
    """Prefix carries no usable signal (empty, or all mass at t_star)."""


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = float(np.finfo(np.float64).eps)
# The search cuts the bracket into this many geometric subranges and stops
# once a bracket is narrower than this width in log tau.
_SUBRANGES = 4
_TOLERANCE = 1e-6


@dataclass(frozen=True)
class LearnConfig:
    """The tau bracket of the search.

    ``tau_range`` of None derives the bracket from the observation span,
    [1e-3 * span, 1e3 * span].
    """

    tau_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.tau_range is not None:
            lo, hi = self.tau_range
            if not 0 < lo < hi < math.inf:
                raise ValueError(f"tau_range must satisfy 0 < lo < hi < inf, got {self.tau_range!r}")


@dataclass(frozen=True)
class LearnResult:
    alpha: float
    tau: float
    log_likelihood: float
    evaluations: int


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group index and position within the group of every item of ragged groups."""
    group = np.repeat(np.arange(len(counts)), counts)
    within = np.arange(len(group)) - np.repeat(np.cumsum(counts) - counts, counts)
    return group, within


def _acting_rows(prox: ProximityMap, acting: np.ndarray) -> tuple[np.ndarray, ...]:
    """The acting nodes' row sums, and their rows cut down to acting targets in CSR form.

    Returns (row_sums, row_start, target, score), all from one ``gather``:
    row k spans row_start[k]:row_start[k+1] and its targets are indices into
    ``acting``. A node -> acting-index array drops the other targets.
    """
    row_start, targets, scores = prox.gather(acting)
    row_sums = csr_row_sums(row_start, scores)
    lookup = np.full(max(int(targets.max(initial=0)), int(acting.max(initial=0))) + 1, -1)
    lookup[acting] = np.arange(len(acting))
    target = lookup[targets]
    keep = target >= 0
    source = np.repeat(np.arange(len(acting)), np.diff(row_start))[keep]
    row_start = np.searchsorted(source, np.arange(len(acting) + 1))
    return row_sums, row_start, target[keep], scores[keep]


def _later_in_block(
    entry_key: np.ndarray, feeder: np.ndarray, action_key: np.ndarray, keys: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pair each row entry with the later actions of its feeder's block at its target.

    Entries and actions are keyed by (block, acting node) in [0, keys).
    Returns the entry index and the action index of every such pair.
    """
    by_key = np.argsort(action_key, kind="stable")
    count = np.bincount(action_key, minlength=keys)
    first = np.cumsum(count) - count
    count = count[entry_key]
    inside = np.flatnonzero(count)
    which, k = _ragged(count[inside])
    inside = inside[which]
    action = by_key[first[entry_key[inside]] + k]
    after = action > feeder[inside]
    return inside[after], action[after]


def _dense_slots(acting: int, entries: int) -> bool:
    """Size rule: fill the slots from the acting x acting matrix P when P holds
    no more cells than the ``entries`` restricted row entries of the actions,
    the per-(action, entry) list that the feeds form expands."""
    return acting * acting <= entries


def _dense_pairs(p: np.ndarray, act: np.ndarray, size: int) -> tuple[np.ndarray, ...]:
    """In-block pairs (j, i, score) from P: every j < i of i's block whose row reaches i's node."""
    pair_i, k = _ragged(np.arange(len(act)) % size)
    pair_j = pair_i - pair_i % size + k
    score = p[act[pair_j], act[pair_i]]
    reach = score > 0.0
    return pair_j[reach], pair_i[reach], score[reach]


def _dense_reached(p: np.ndarray, feed_cell: np.ndarray, cells: int) -> np.ndarray:
    """Cells (c, a) that some action of block c reaches: the nonzero cells of
    the feeders' (block, node) counts times P."""
    count = np.bincount(feed_cell, minlength=cells).reshape(-1, len(p))
    return np.einsum("ck,ka->ca", count.astype(np.float64), p).ravel() > 0.0


def _feeds(
    act: np.ndarray, block: np.ndarray, feeders: int, row_start: np.ndarray, tgt: np.ndarray, score: np.ndarray
) -> tuple[tuple[np.ndarray, ...], ...]:
    """In-block pairs and slot feeds from every action's restricted row entries.

    Entries are keyed by (their action's block, target). Returns the pairs
    (j, i, score) and the feeds: each entry at a node that acts in a later
    block than its action, as (cell, score), with the feed count of each of
    the ``feeders`` first actions.
    """
    m, blocks = len(row_start) - 1, int(block[-1]) + 1
    feeder, entry = _ragged(row_start[act + 1] - row_start[act])
    entry += row_start[act[feeder]]
    key = block[feeder] * m + tgt[entry]
    at, pair_i = _later_in_block(key, feeder, block * m + act, blocks * m)
    pairs = feeder[at], pair_i, score[entry[at]]
    last_block = np.zeros(m, dtype=np.int64)
    np.maximum.at(last_block, act, block)
    later = last_block[tgt[entry]] > block[feeder]
    return pairs, (key[later], score[entry[later]], np.bincount(feeder[later], minlength=feeders))


class _InfluenceTable:
    """Tau-independent precomputation for repeated likelihood evaluations.

    The prefix is cut into consecutive blocks of B = ceil(sqrt(n)) actions.
    Earlier blocks reach a later action through one aggregate per (block c,
    acting node a), a slot:

        U_c[a] = sum over j in c of prox(u_j, a) * exp(-(T_c - t_j) / tau),

    with T_c the last time in block c; action i at node a reads it back as
    exp(-(t_i - T_c) / tau) * U_c[a]. Every exponent is <= 0, so nothing can
    overflow. Each influence term is either a pair inside one block, kept as
    an explicit (dt, score) entry, or a slot read.

    Both forms share one layout: one ``gather`` gives the row sums and the
    rows cut to acting targets; the feeders are every action of a block
    before the last; a slot exists where some j in c reaches a and a acts in
    a later block, every slot is read, and the slots are numbered in (c, a)
    order; the reads and ``_neg_dt`` are laid out once. The in-block pairs,
    the reached slots and the slot fill of ``_slot_values`` depend on the
    form, chosen by ``_dense_slots``. The feeds form expands every action's
    cut row into per-entry feeds and sums them per slot with one
    ``bincount``; its memory grows with the actions' cut row entries plus
    n * B. The dense form scatters the cut rows into one m x m matrix P over
    the m acting nodes and computes U_c = W_c P, where W_c[u] sums the
    decays of block c's actions at node u; its memory grows with m^2 plus
    n * B. The product is an ``np.einsum``, which calls no BLAS routine, so
    a fit gives the same bits at any BLAS thread count. Neither form grows
    with the number of action pairs.
    """

    def __init__(self, prefix: Trend, prox: ProximityMap, t_star: float) -> None:
        nodes, times = prefix.nodes, prefix.times
        n = self.n = len(nodes)
        self.elapsed = t_star - times
        acting, act = np.unique(nodes, return_inverse=True)
        m = len(acting)
        row_sums, row_start, tgt, score = _acting_rows(prox, acting)
        self.row_sums = row_sums[act]

        size = math.isqrt(max(n - 1, 0)) + 1
        block = np.arange(n) // size
        blocks = -(-n // size)
        block_end = times[np.minimum(np.arange(1, blocks + 1) * size, n) - 1]
        # Slot (c, a) has cell c * m + a; only blocks before the last feed.
        feeding = np.arange((blocks - 1) * size)
        cells = (blocks - 1) * m
        self._feeders = len(feeding)

        self._p = None
        if _dense_slots(m, int(np.diff(row_start)[act].sum())):
            self._p = np.zeros((m, m))
            self._p[np.repeat(np.arange(m), np.diff(row_start)), tgt] = score
            pair_j, pair_i, self._pair_score = _dense_pairs(self._p, act, size)
            self._feed_cell, self._cells = block[feeding] * m + act[feeding], cells
            reached = _dense_reached(self._p, self._feed_cell, cells)
        else:
            (pair_j, pair_i, self._pair_score), feeds = _feeds(act, block, self._feeders, row_start, tgt, score)
            feed_cell, self._feed_score, self._feed_count = feeds
            reached = np.zeros(cells, dtype=bool)
            reached[feed_cell] = True

        # Slot reads: every action reads its own node's slot in each earlier
        # block that reaches the node. The read cells are the slots, numbered
        # in cell order.
        reader, earlier = _ragged(block)
        cell = earlier * m + act[reader]
        exists = reached[cell]
        reader, earlier, cell = reader[exists], earlier[exists], cell[exists]
        read = np.zeros(cells, dtype=bool)
        read[cell] = True
        slot_id = np.cumsum(read) - 1
        self._slots = int(read.sum())
        self._read_slot = slot_id[cell]
        if self._p is None:
            self._feed_slot = slot_id[feed_cell]
            del feed_cell
        else:
            self._slot_cell = np.flatnonzero(read)
        # Free what the concatenations below do not read, which keeps the build's peak down.
        del row_start, tgt, score, reached, exists, cell, read, slot_id

        self._target = np.concatenate([pair_i, reader])
        # Negated elapsed times: [feeder to its block end | pairs | slot reads].
        self._neg_dt = np.concatenate(
            [
                times[feeding] - block_end[block[feeding]],
                times[pair_j] - times[pair_i],
                block_end[earlier] - times[reader],
            ]
        )

    def total_integral(self, tau: float) -> float:
        """Stacked all-nodes influence integral up to t_star."""
        return tau * float(np.sum(self.row_sums * -np.expm1(-self.elapsed / tau)))

    def influences(self, tau: float) -> np.ndarray:
        """Strict-predecessor influence at each action time.

        Predecessors are actions strictly earlier in the sequence; an action
        never feeds its own influence term, and among equal timestamps only
        earlier list positions count.
        """
        return self._influences(tau)[0]

    def _influences(self, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """Influences h and k_i = sum_j s_ij D_ij exp(-D_ij / tau), from one pass.

        k is tau^2 dh/dtau. Through a slot D = (t_i - T_c) + (T_c - t_j), so k
        reads exp(-(t_i - T_c) / tau) * ((t_i - T_c) * U_c[a] + V_c[a]), with
        V_c[a] = sum over j in c of prox(u_j, a) exp(-(T_c - t_j) / tau) (T_c - t_j).
        The k sums run on the negated elapsed times and flip sign at the end.
        """
        decay = np.exp(self._neg_dt / tau)
        feeders, pairs = self._feeders, len(self._pair_score)
        terms = decay[feeders:]
        terms[:pairs] *= self._pair_score
        lag_terms = terms * self._neg_dt[feeders:]
        if self._slots:
            slots, lags = self._slot_values(decay[:feeders])
            lag_terms[pairs:] *= slots[self._read_slot]
            lag_terms[pairs:] += terms[pairs:] * lags[self._read_slot]
            terms[pairs:] *= slots[self._read_slot]
        h = np.bincount(self._target, weights=terms, minlength=self.n)
        return h, -np.bincount(self._target, weights=lag_terms, minlength=self.n)

    def _slot_values(self, decay: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every slot's U_c[a] and its V_c[a] negated, from the feeders' decays."""
        neg_dt = self._neg_dt[: self._feeders]
        if self._p is None:
            fed = self._feed_score * np.repeat(decay, self._feed_count)
            slots = np.bincount(self._feed_slot, weights=fed, minlength=self._slots)
            fed *= np.repeat(neg_dt, self._feed_count)
            return slots, np.bincount(self._feed_slot, weights=fed, minlength=self._slots)
        weights = (decay, decay * neg_dt)
        w = np.concatenate([np.bincount(self._feed_cell, weights=x, minlength=self._cells) for x in weights])
        u = np.einsum("ck,ka->ca", w.reshape(-1, len(self._p)), self._p)
        u = u.reshape(2, -1).take(self._slot_cell, axis=1)
        return u[0], u[1]

    def evaluate(self, tau: float, alpha: float, epsilon: float) -> float:
        """Log-likelihood at (alpha, tau).

        Every influence is floored at epsilon / alpha_hat(tau), the residual
        rate's share, tiny ones as much as those that underflowed to zero, so
        logL is continuous in tau. The floor is a constant in the alpha
        argument, which keeps the closed-form alpha the exact maximizer.
        """
        h_total, alpha_closed = self._closed_alpha(tau)
        log_h, _ = self._log_rates(alpha_closed, self.influences(tau), epsilon)
        return self.n * math.log(alpha / alpha_closed) - alpha * h_total + log_h

    def profile(self, tau: float, epsilon: float) -> tuple[float, float]:
        """Profile logL and its slope d logL / d log tau, from one pass.

        The value is logL at alpha_hat(tau), computed with alpha_hat * H = n
        exactly, so where every influence is floored it is flat to the last
        bit and the search's tie rule holds. With
        H = tau * S, S = sum_k r_k (1 - exp(-E_k / tau)) and
        Q = sum_k r_k E_k exp(-E_k / tau), each action whose influence is not
        floored adds k_i / (tau h_i) - (1 - Q / H) to the slope; a floored one
        adds nothing, so a fully floored profile has slope exactly 0.
        """
        h_total, alpha_closed = self._closed_alpha(tau)
        h, k = self._influences(tau)
        log_h, rate = self._log_rates(alpha_closed, h, epsilon)
        value = log_h - self.n
        live = rate > epsilon
        if not live.any():
            return value, 0.0
        decay = np.exp(-self.elapsed / tau)
        q = float(np.sum(self.row_sums * self.elapsed * decay))
        slope = float(np.sum(k[live] / h[live])) / tau - int(live.sum()) * (1.0 - q / h_total)
        return value, slope

    def _closed_alpha(self, tau: float) -> tuple[float, float]:
        """The total influence integral H and the closed-form alpha n / H."""
        h_total = self.total_integral(tau)
        if h_total <= 0.0:
            raise DegeneratePrefixError(
                "total influence integral is zero; prefix cannot identify alpha"
            )
        return h_total, self.n / h_total

    @staticmethod
    def _log_rates(alpha: float, h: np.ndarray, epsilon: float) -> tuple[float, np.ndarray]:
        """Sum of the floored log rates, and the unfloored rates alpha * h."""
        if epsilon <= 0.0 and (h <= 0.0).any():
            raise DegeneratePrefixError(
                "action with zero influence and epsilon = 0; likelihood is degenerate"
            )
        rate = alpha * h
        return float(np.log(np.maximum(rate, epsilon)).sum()), rate


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon!r}")


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _table(trend: Trend, prox: ProximityMap, t_star: float) -> _InfluenceTable:
    if not math.isfinite(t_star):
        raise ValueError(f"t_star must be finite, got {t_star!r}")
    prefix = trend.prefix(t_star)
    if len(prefix) == 0:
        raise DegeneratePrefixError("no actions at or before t_star")
    return _InfluenceTable(prefix, prox, t_star)


def log_likelihood(
    trend: Trend,
    prox: ProximityMap,
    tau: float,
    alpha: float,
    t_star: float,
    epsilon: float = 1e-9,
) -> float:
    """Log-likelihood of the prefix under (alpha, tau)."""
    _check_positive("alpha", alpha)
    _check_positive("tau", tau)
    _check_epsilon(epsilon)
    return _table(trend, prox, t_star).evaluate(tau, alpha, epsilon)


def estimate_alpha(trend: Trend, prox: ProximityMap, tau: float, t_star: float) -> float:
    """Closed-form maximizer of the likelihood in alpha at fixed tau."""
    _check_positive("tau", tau)
    return _table(trend, prox, t_star)._closed_alpha(tau)[1]


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


def _slope_root(probe, a: float, fa: float, ga: float, b: float, fb: float, gb: float, tol: float):
    """Brent-Dekker zero of the slope on [a, b], where ga > 0 > gb.

    ``probe(x)`` returns the (value, slope) pair at x. Steps are inverse
    quadratic or secant when they stay inside the bracket and shrink it fast
    enough, bisection otherwise; the loop ends once the bracket is narrower
    than ``tol`` or the slope is exactly 0 (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4). Returns the probed
    point of highest value, ends included, ties going to the smaller x.
    """
    best_x, best_f = (a, fa) if fa >= fb else (b, fb)
    c, gc = a, ga
    d = e = b - a
    while True:
        if (gb > 0.0) == (gc > 0.0):
            c, gc = a, ga
            d = e = b - a
        if abs(gc) < abs(gb):
            a, b, c = b, c, b
            ga, gb, gc = gb, gc, gb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or gb == 0.0:
            return best_x, best_f
        if abs(e) >= tol1 and abs(ga) > abs(gb):
            s = gb / ga
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = ga / gc, gb / gc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, ga = b, gb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb, gb = probe(b)
        if fb > best_f or (fb == best_f and b < best_x):
            best_x, best_f = b, fb


def fit(
    trend: Trend,
    prox: ProximityMap,
    t_star: float,
    config: LearnConfig | None = None,
    epsilon: float = 1e-9,
) -> LearnResult:
    """Fit (alpha, tau) to the prefix at t_star by profile likelihood.

    The bracket is cut into four geometric subranges, and the profile value
    and its slope in log tau are evaluated once at each cut point. A
    subrange whose slope goes from + to - has its maximum found by a
    Brent-Dekker root search on the slope, stopping once the bracket is
    narrower than 1e-6 in log tau; one whose slopes and values both show it
    monotone takes its higher end, and so does one that leaves the floored
    plateau (lower slope exactly 0) and rises; any other shape (a valley, a
    floored plateau with both slopes 0) falls back to golden section on the
    value. The best profile value wins, ties going to the smaller tau.
    Every evaluation is one (value, slope) pass of the influence table, and
    ``evaluations`` counts them all; the result reports the search's own
    best value and alpha = n / H(tau_hat). Deterministic: equal
    inputs give identical results. Warns when tau_hat lies within the
    stopping width of either end of the bracket, where the maximum may lie
    outside it.
    """
    config = config or LearnConfig()
    _check_epsilon(epsilon)
    table = _table(trend, prox, t_star)
    if table.n < 2:
        raise DegeneratePrefixError("need at least two actions to fit")
    if config.tau_range is not None:
        lo, hi = config.tau_range
    else:
        span = float(table.elapsed[0])  # t_star minus the first action time
        if span <= 0.0:
            raise DegeneratePrefixError("all actions at t_star; tau bracket is empty")
        lo, hi = 1e-3 * span, 1e3 * span

    evaluations = 0

    def probe(x: float) -> tuple[float, float]:
        nonlocal evaluations
        evaluations += 1
        return table.profile(math.exp(x), epsilon)

    edges = np.linspace(math.log(lo), math.log(hi), _SUBRANGES + 1).tolist()
    # (x, value, slope) at each cut point; adjacent subranges share them.
    cuts = [(x, *probe(x)) for x in edges]
    best_x = best_f = None
    for (a, fa, ga), (b, fb, gb) in zip(cuts, cuts[1:]):
        if ga > 0.0 > gb:
            x, fx = _slope_root(probe, a, fa, ga, b, fb, gb, _TOLERANCE)
        elif ga >= 0.0 and gb > 0.0 and fb > fa:
            x, fx = b, fb
        elif ga < 0.0 and gb < 0.0 and fa > fb:
            x, fx = a, fa
        else:
            x, fx, _ = _golden_max(lambda x: probe(x)[0], a, b, _TOLERANCE)
        if best_f is None or fx > best_f:
            best_x, best_f = x, fx
    tau_hat = math.exp(best_x)
    if min(best_x - math.log(lo), math.log(hi) - best_x) <= _TOLERANCE:
        warnings.warn(
            f"tau_hat={tau_hat:.6g} lies on the edge of the tau search range "
            f"[{lo:.6g}, {hi:.6g}]; the likelihood may peak outside it",
            stacklevel=2,
        )
    return LearnResult(table._closed_alpha(tau_hat)[1], tau_hat, best_f, evaluations)
