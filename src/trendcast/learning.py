"""Maximum-likelihood fitting of activeness parameters from an action prefix.

The likelihood is conditioned on the initial actions: those at or before t0
(by default the first action time) are the placed seeds, as in
``generate_synthetic`` and ``init_streams``. They feed influence and count
in the influence integral, but they are not scored as events. For fixed tau
the jump scale alpha has a closed form (event count over the total
influence integral), so fitting reduces to a one-dimensional line
search over tau, run on log tau over four fixed geometric subranges to
dodge local maxima; the caller sets only the tau bracket. The influence
table has one kind of pass, which gives the profile value and its analytic
slope in log tau. A subrange whose slope changes sign from + to - is
searched by a safeguarded root step on the slope; the fit is the best of
the cut points and those roots.

The influence table has one layout. Only its in-block pairs, reached slots
and slot fill take one of two forms: every action's proximity row entries
or, when the acting nodes are few enough, one dense acting x acting
proximity matrix; ``_dense_slots`` states the rule. The dense form's product
takes only the matrix rows of the nodes each block acts at, one ``einsum``
per group of consecutive blocks (``_dense_layout``). The table's entries
run by source, not by target: each ``bincount`` add then seldom waits on
the add before it to the same action, and each action still sums its own
entries in the same order, so the bits do not change.
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


_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float
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
    """In-block pairs (j, i, score) from P, feeder by feeder: every i after j
    in j's block at a node that j's row reaches."""
    j = np.arange(len(act))
    pair_j, k = _ragged(np.minimum(j - j % size + size, len(act)) - j - 1)
    pair_i = pair_j + 1 + k
    score = p[act[pair_j], act[pair_i]]
    reach = score > 0.0
    return pair_j[reach], pair_i[reach], score[reach]


def _groups(width: np.ndarray, m: int) -> list[tuple[int, int, int]]:
    """Runs (c0, c1, k) of consecutive blocks of widths ``width``: blocks
    share a run while k, their widest, times their number stays within m."""
    groups = []
    for c, k in enumerate(width.tolist()):
        if groups:
            c0, _, k0 = groups[-1]
            widest = max(k0, k)
            if widest * (c + 1 - c0) <= m:
                groups[-1] = (c0, c + 1, widest)
                continue
        groups.append((c, c + 1, k))
    return groups


def _dense_layout(
    p: np.ndarray, block: np.ndarray, node: np.ndarray, blocks: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]], np.ndarray]:
    """The feeders' layout for the dense product W_c P, and the cells it reaches.

    The feeders of the first ``blocks`` blocks sit at acting nodes ``node``.
    Block c numbers its K distinct nodes 0, 1, ... in ascending order, the
    order in which a product over all m nodes sums them, and row c of
    ``rows`` lists them, padded with P's zero row m. Consecutive blocks
    form groups (c0, c1, k) that gather the rows rows[c0:c1, :k] of P, at
    most m of them, padding included.

    Returns each feeder's cell c * width + position in ``rows``, ``rows``,
    the groups, and whether each cell (c, a) is reached: P[u, a] > 0 at
    some node u of block c.
    """
    m = p.shape[1]
    key, feed_key = np.unique(block * m + node, return_inverse=True)
    key_block, key_node = key // m, key % m
    count = np.bincount(key_block, minlength=blocks)
    position = _ragged(count)[1]
    rows = np.full((blocks, int(count.max(initial=0))), m)
    rows[key_block, position] = key_node
    # Block c reaches a where one of its own nodes' rows does: at most m rows at a time.
    reached = np.zeros((blocks, m), dtype=bool)
    for k0 in range(0, len(key), m):
        at = key_block[k0 : k0 + m]
        first = np.flatnonzero(np.diff(at, prepend=-1))
        reached[at[first]] |= np.maximum.reduceat(p.take(key_node[k0 : k0 + m], axis=0), first, axis=0) > 0.0
    return (key_block * rows.shape[1] + position)[feed_key], rows, _groups(count, m), reached.ravel()


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

    Actions at or before ``t0`` (default: the first action time) are the
    conditioning set: they feed the influences and the integral H, and the
    log sum, the slope and the event count ``n_events`` run over the actions
    after it, ``events`` being the index of the first of them.

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
    decays of block c's actions at node u. W_c is zero outside the nodes
    block c acts at, so each group of consecutive blocks gathers only
    their rows of P, at most m rows at a time (a row-wise sparse times
    dense product, Gustavson 1978). Each group is one ``np.einsum``, which
    sums each block's nodes in ascending order, as a product over all m
    nodes does, so the bits are the same.
    Its memory grows with m^2 plus n * B, and a pass gathers at most m^2
    cells at a time. ``np.einsum`` calls no BLAS routine, so a fit gives
    the same bits at any BLAS thread count. Neither form grows with the
    number of action pairs.

    The entries run by source: the pairs feeder by feeder (each j, then the
    later actions of j's block), the reads slot by slot (a slot's readers
    are its node's actions in the later blocks). Laid out target by target,
    each of a pass's two ``bincount`` adds would wait for the add before it
    to the same bin. Every target keeps its entries' order, pairs by j and
    then reads by block, and ``bincount`` adds each bin in input order, so
    the sums are those of a target-by-target layout to the bit.
    """

    def __init__(self, prefix: Trend, prox: ProximityMap, t_star: float, t0: float | None = None) -> None:
        nodes, times = prefix.nodes, prefix.times
        n = self.n = len(nodes)
        self.events = int(np.searchsorted(times, times[0] if t0 is None else t0, side="right"))
        self.n_events = n - self.events
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
            # Row m stays zero: the padding of the feeders' layout points at it.
            self._p = np.zeros((m + 1, m))
            self._p[np.repeat(np.arange(m), np.diff(row_start)), tgt] = score
            pair_j, pair_i, self._pair_score = _dense_pairs(self._p, act, size)
            self._feed_cell, self._rows, self._groups, reached = _dense_layout(
                self._p, block[feeding], act[feeding], blocks - 1
            )
        else:
            (pair_j, pair_i, self._pair_score), feeds = _feeds(act, block, self._feeders, row_start, tgt, score)
            feed_cell, self._feed_score, self._feed_count = feeds
            reached = np.zeros(cells, dtype=bool)
            reached[feed_cell] = True

        # Slots: the reached cells (c, a) whose node a acts in a later block,
        # numbered in cell order. Slot (c, a) is read by a's actions in the
        # blocks after c, the last ``readers`` of a's actions.
        count = np.bincount(block * m + act, minlength=blocks * m).reshape(blocks, m)
        later = np.cumsum(count[:0:-1], axis=0)[::-1].ravel()
        slot_cell = np.flatnonzero(reached & (later > 0))
        readers = later[slot_cell]
        by_node = np.argsort(act, kind="stable")
        node_end = np.cumsum(count.sum(axis=0))
        del row_start, tgt, score, reached, count, later
        self._slots = len(slot_cell)
        self._read_slot, k = _ragged(readers)
        reader = by_node[(node_end[slot_cell % m] - readers)[self._read_slot] + k]
        read_end = block_end[slot_cell // m][self._read_slot]
        if self._p is None:
            # Every feed lands on a slot: its cell is reached, and its node acts later.
            self._feed_slot = np.searchsorted(slot_cell, feed_cell)
            del feed_cell
        else:
            self._slot_cell = slot_cell
        # Free what the concatenations below do not read, which keeps the build's peak down.
        del slot_cell, readers, by_node, k

        self._target = np.concatenate([pair_i, reader])
        # Negated elapsed times: [feeder to its block end | pairs | slot reads].
        self._neg_dt = np.concatenate(
            [
                times[feeding] - block_end[block[feeding]],
                times[pair_j] - times[pair_i],
                read_end - times[reader],
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
        rows, p = self._rows, self._p
        m = p.shape[1]
        weights = (decay, decay * neg_dt)
        w = np.concatenate([np.bincount(self._feed_cell, weights=x, minlength=rows.size) for x in weights])
        w = w.reshape(2, *rows.shape)
        u = np.empty((2, len(rows), m))
        for c0, c1, k in self._groups:
            np.einsum("sck,cka->sca", w[:, c0:c1, :k], p.take(rows[c0:c1, :k], axis=0), out=u[:, c0:c1])
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
        log_h, _ = self._log_rates(alpha_closed, self.influences(tau)[self.events :], epsilon)
        return self.n_events * math.log(alpha / alpha_closed) - alpha * h_total + log_h

    def profile(self, tau: float, epsilon: float) -> tuple[float, float]:
        """Profile logL and its slope d logL / d log tau, from one pass.

        The value is logL at alpha_hat(tau), computed with alpha_hat * H =
        n_events exactly, so where every influence is floored it is flat to
        the last bit and the search's tie rule holds. With
        H = tau * S, S = sum_k r_k (1 - exp(-E_k / tau)) and
        Q = sum_k r_k E_k exp(-E_k / tau), both over every action, each
        event whose influence is not floored adds k_i / (tau h_i) -
        (1 - Q / H) to the slope; a floored one adds nothing, so a fully
        floored profile has slope exactly 0.
        """
        h_total, alpha_closed = self._closed_alpha(tau)
        h, k = (x[self.events :] for x in self._influences(tau))
        log_h, rate = self._log_rates(alpha_closed, h, epsilon)
        value = log_h - self.n_events
        live = rate > epsilon
        if not live.any():
            return value, 0.0
        decay = np.exp(-self.elapsed / tau)
        q = float(np.sum(self.row_sums * self.elapsed * decay))
        slope = float(np.sum(k[live] / h[live])) / tau - int(live.sum()) * (1.0 - q / h_total)
        return value, slope

    def _closed_alpha(self, tau: float) -> tuple[float, float]:
        """The total influence integral H and the closed-form alpha n_events / H."""
        h_total = self.total_integral(tau)
        if h_total <= 0.0:
            raise DegeneratePrefixError(
                "total influence integral is zero; prefix cannot identify alpha"
            )
        if not self.n_events:
            raise DegeneratePrefixError(
                "no action after t0; the prefix holds only the initial actions it is conditioned on"
            )
        alpha = self.n_events / h_total
        if alpha == math.inf:
            raise _span_error(float(self.elapsed[0]), f"alpha = n_events / H = inf at tau {tau!r}")
        return h_total, alpha

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


def _span_error(span: float, what: str) -> ValueError:
    return ValueError(
        f"observation span {span!r} (t_star minus the first action time) puts {what} outside the "
        "float range; rescale the action times, or pass a --tau-range of normal floats"
    )


def _table(trend: Trend, prox: ProximityMap, t_star: float, t0: float | None = None) -> _InfluenceTable:
    if not math.isfinite(t_star):
        raise ValueError(f"t_star must be finite, got {t_star!r}")
    if t0 is not None and not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0!r}")
    prefix = trend.prefix(t_star)
    if len(prefix) == 0:
        raise DegeneratePrefixError("no actions at or before t_star")
    # Every time difference in the table is at most the span, so a finite span keeps them finite.
    span = t_star - float(prefix.times[0])
    if not math.isfinite(span):
        raise _span_error(span, "the elapsed times")
    return _InfluenceTable(prefix, prox, t_star, t0)


def log_likelihood(
    trend: Trend,
    prox: ProximityMap,
    tau: float,
    alpha: float,
    t_star: float,
    epsilon: float = 1e-9,
    t0: float | None = None,
) -> float:
    """Log-likelihood of the prefix under (alpha, tau), conditioned on the actions at or before t0."""
    _check_positive("alpha", alpha)
    _check_positive("tau", tau)
    _check_epsilon(epsilon)
    return _table(trend, prox, t_star, t0).evaluate(tau, alpha, epsilon)


def estimate_alpha(trend: Trend, prox: ProximityMap, tau: float, t_star: float, t0: float | None = None) -> float:
    """Closed-form maximizer of the likelihood in alpha at fixed tau: events after t0 over H."""
    _check_positive("tau", tau)
    return _table(trend, prox, t_star, t0)._closed_alpha(tau)[1]


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
    t0: float | None = None,
) -> LearnResult:
    """Fit (alpha, tau) to the prefix at t_star by profile likelihood.

    The likelihood is conditioned on the actions at or before ``t0``
    (default: the first action time); a prefix with no action after it
    raises DegeneratePrefixError.

    The bracket is cut into four geometric subranges, and the profile value
    and its slope in log tau are evaluated once at each cut point. A
    subrange whose slope goes from + to - has its maximum found by a
    Brent-Dekker root search on the slope, stopping once the bracket is
    narrower than 1e-6 in log tau; any other subrange (monotone, a valley,
    a floored plateau) offers only its two cuts. The fit is the best
    profile value among the cut points and those roots, ties going to the
    smaller tau. Every evaluation is one (value, slope) pass of the
    influence table, and ``evaluations`` counts them all; the result
    reports the search's own best value and alpha = n_events / H(tau_hat).
    Deterministic: equal inputs give identical results. Warns when tau_hat
    lies within the stopping width of either end of the bracket, where the
    maximum may lie outside it. Raises ValueError, before any numpy warning,
    when the observation span puts the elapsed times, a bracket end or the
    closed-form alpha outside the normal float range.
    """
    config = config or LearnConfig()
    _check_epsilon(epsilon)
    table = _table(trend, prox, t_star, t0)
    if table.n < 2:
        raise DegeneratePrefixError("need at least two actions to fit")
    span = float(table.elapsed[0])  # t_star minus the first action time
    if config.tau_range is not None:
        lo, hi = config.tau_range
    else:
        if span <= 0.0:
            raise DegeneratePrefixError("all actions at t_star; tau bracket is empty")
        lo, hi = 1e-3 * span, 1e3 * span
    # A subnormal tau loses bits, and exp(-E / tau) with an infinite one is 1 for every E.
    if not _TINY <= lo < hi < math.inf:
        raise _span_error(span, f"the tau bracket [{lo!r}, {hi!r}]")

    evaluations = 0

    def probe(x: float) -> tuple[float, float]:
        nonlocal evaluations
        evaluations += 1
        return table.profile(math.exp(x), epsilon)

    edges = np.linspace(math.log(lo), math.log(hi), _SUBRANGES + 1).tolist()
    # (x, value, slope) at each cut point; adjacent subranges share them.
    cuts = [(x, *probe(x)) for x in edges]
    roots = [
        _slope_root(probe, a, fa, ga, b, fb, gb, _TOLERANCE)
        for (a, fa, ga), (b, fb, gb) in zip(cuts, cuts[1:])
        if ga > 0.0 > gb
    ]
    best_x, best_f = max([(x, f) for x, f, _ in cuts] + roots, key=lambda p: (p[1], -p[0]))
    tau_hat = math.exp(best_x)
    if min(best_x - math.log(lo), math.log(hi) - best_x) <= _TOLERANCE:
        warnings.warn(
            f"tau_hat={tau_hat:.6g} lies on the edge of the tau search range "
            f"[{lo:.6g}, {hi:.6g}]; the likelihood may peak outside it",
            stacklevel=2,
        )
    return LearnResult(table._closed_alpha(tau_hat)[1], tau_hat, best_f, evaluations)
