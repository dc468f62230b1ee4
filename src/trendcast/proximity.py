"""Node-to-node proximity kernels.

A proximity row maps a source node to the influence weight it exerts on each
reachable node. Two kernels are provided: an exponentially decaying
shortest-path kernel and a restart random walk. Entries below a configurable
floor are dropped, which keeps rows sparse and bounds traversal depth. Every
row is a pair of aligned ``targets`` and ``scores`` arrays in entry order:
BFS order for shortest-path rows, ascending node for random-walk rows.

``ProximityMap`` keeps its rows in one CSR store, a growable pair of
``targets`` and ``scores`` arrays that per-node ``start`` and ``stop``
offsets index. A batched build appends its rows in one copy, ``gather``
reads any list of rows with one index, and the cache writes the store's
rows in one ``.npz`` that loads back as the store itself, entry for entry;
none of these makes an object per row. The scalar kernels return one
``Row`` each, which is copied in, and ``row`` hands out one row as a
``Row`` view for callers that read a row at a time.

Shortest-path rows are built two ways. ``ProximityMap.gather`` builds all
of its missing rows with ``_sp_rows``, one level-synchronous BFS for many
sources over the CSR arrays, which shares the per-level numpy work among
them. A request for one missing row (``row``, or a gather that misses one)
uses the scalar BFS ``shortest_path_row`` over ``Graph.adjacency``, the
graph's CSR arrays as Python sequences, built once per graph. For one row
it costs a sixth of a batched pass on a sparse graph and about half on a
dense one. Both give the same row, entry for entry and in the same order.
Random-walk rows are built two ways as well. A fill that misses
``_RW_BLOCK_ROWS`` or more of them walks them together with ``_rw_rows``,
one fixed-point iteration over a nodes x sources block; fewer, and ``row``,
take the scalar walk ``random_walk_row``. The block adds every node's
in-neighbour shares in the order the scalar walk's ``bincount`` adds them,
so both give the same row bit for bit.

``ProximityMap.spread`` gives the dense vector ``sum_u w[u] * row(u)``, the
stacked influence of weighted sources. Over shortest-path rows it is a
``gather`` and one ``bincount``. Over random-walk rows it is one walk whose
restart vector is the weights (with one reverse walk first on a graph with
dangling nodes), and it neither reads nor builds a row: it is the walk's
fixed point, equal to the summed rows up to the walk tolerance, and it keeps
the entries below ``floor``.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .core import Graph

KINDS = ("shortest_path", "random_walk")
KIND_ALIASES = {"sp": "shortest_path", "rw": "random_walk"}

CACHE_FORMAT = "trendcast-prox-cache-v2"
_CACHE_ARRAYS = {"sources": np.int64, "row_start": np.int64, "targets": np.int64, "scores": np.float64}
_RW_MAX_ITERATIONS = 10_000  # cap on the random-walk fixed-point iteration


class ConvergenceError(RuntimeError):
    """Random-walk fixed point failed to converge within the iteration cap."""


@dataclass(frozen=True)
class ProximityConfig:
    """Kernel selection and numeric knobs.

    ``b`` is the per-hop decay of the shortest-path kernel, ``p`` the restart
    probability of the random walk. ``floor`` trims negligible scores from
    rows and must stay below 1 so a source always keeps its own entry.
    """

    kind: str = "shortest_path"
    b: float = 10.0
    p: float = 0.4
    floor: float = 1e-12
    rw_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", KIND_ALIASES.get(self.kind, self.kind))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS} (aliases sp, rw)")
        if not 0 < self.b < math.inf:
            raise ValueError(f"b must be positive and finite, got {self.b!r}")
        if not 0 < self.p < 1:
            raise ValueError("p must lie in (0, 1)")
        if not 0 < self.floor < 1:
            raise ValueError("floor must lie in (0, 1)")
        if not 0 < self.rw_tolerance < math.inf:
            raise ValueError(f"rw_tolerance must be positive and finite, got {self.rw_tolerance!r}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "b": self.b,
            "p": self.p,
            "floor": self.floor,
            "rw_tolerance": self.rw_tolerance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> ProximityConfig:
        return cls(**data)

    def row_fields(self) -> dict:
        """``kind`` and the fields its kernel reads: configs that agree here build the same rows."""
        read = ("b", "floor") if self.kind == "shortest_path" else ("p", "floor", "rw_tolerance")
        return {"kind": self.kind, **{name: getattr(self, name) for name in read}}


class Row(Mapping):
    """A proximity row: aligned ``targets`` (int64) and ``scores`` (float64), in entry order.

    The library reads the arrays. The read-only mapping (target to score) is for
    callers that read one row; its lookup dict is built on the first lookup.
    """

    __slots__ = ("targets", "scores", "_lookup")

    def __init__(self, targets: np.ndarray, scores: np.ndarray) -> None:
        self.targets, self.scores, self._lookup = targets, scores, None

    def __len__(self) -> int:
        return len(self.targets)

    def __iter__(self) -> Iterator[int]:
        return iter(self.targets.tolist())

    def __getitem__(self, target: int) -> float:
        if self._lookup is None:
            self._lookup = dict(zip(self.targets.tolist(), self.scores.tolist()))
        return self._lookup[target]


def shortest_path_row(graph: Graph, source: int, config: ProximityConfig) -> Row:
    """Scores exp(-b * hops) along out-edges; BFS stops once a hop level floors out.

    It also stops once every node is in the row, where a further level
    could add nothing.
    """
    indptr, indices = graph.adjacency()
    targets, scores = [source], [1.0]
    seen = {source}
    add = seen.add
    frontier = [source]
    hops = 0
    while frontier and len(seen) < graph.node_count:
        hops += 1
        weight = math.exp(-config.b * hops)
        if weight < config.floor:
            break
        next_frontier = []
        append = next_frontier.append
        for u in frontier:
            for v in indices[indptr[u] : indptr[u + 1]]:
                if v not in seen:
                    add(v)
                    append(v)
        targets += next_frontier
        scores += [weight] * len(next_frontier)
        frontier = next_frontier
    return Row(np.fromiter(targets, np.int64, len(targets)), np.fromiter(scores, np.float64, len(scores)))


# Cells (rows x nodes) of the ``seen`` bitmap of one _sp_rows chunk: the
# sources are searched CELLS // node_count at a time, which bounds the
# kernel's scratch memory on large graphs. Each chunk pays a fixed numpy
# cost per BFS level. At 2^20 (a 1 MB bitmap) the 1,811 learn rows of the
# forecast-sparse benchmark (9,832 nodes) run as 18 chunks and take 3.8-4.1
# ms, against 70 chunks and 7.0-7.4 ms at 2^18 (best of 60 builds, 2 vCPUs);
# 2^22 (5 chunks, 3.2 ms) made the benchmark's learn and predict no faster
# and raised its peak RSS by 2.6 MB.
_SP_CHUNK_CELLS = 1 << 20


def _sp_rows(graph: Graph, sources: np.ndarray, config: ProximityConfig) -> tuple[np.ndarray, list, list]:
    """The shortest-path rows of ``sources``: (lengths, targets, scores).

    ``lengths`` holds each row's entry count; ``targets`` and ``scores``
    hold one array per chunk of sources, whose concatenation is the rows'
    entries in order. Each row equals ``shortest_path_row`` entry for entry.

    One level-synchronous BFS runs for a chunk of sources at once over the
    CSR arrays (a multi-source BFS as in Then et al., VLDB 2014). A
    candidate is keyed ``row * n + node``. At each hop the frontier's
    out-edges are listed in the order the scalar BFS walks them (frontier
    position, then neighbour order), candidates already seen are dropped,
    and a sort of the keys keeps each key's first discovery, so every row
    keeps the scalar BFS's entry order and its ``math.exp(-b * hops)`` score.
    """
    n = graph.node_count
    indptr, indices = graph.indptr, graph.indices
    degree = np.diff(indptr)
    weight = [1.0]
    chunk = max(1, _SP_CHUNK_CELLS // max(n, 1))
    seen = np.zeros(min(len(sources), chunk) * n, dtype=bool)
    lengths, row_targets, row_scores = [], [], []
    for lo in range(0, len(sources), chunk):
        f_node = np.asarray(sources[lo : lo + chunk], dtype=np.int64)
        size = len(f_node)
        f_key = np.arange(size) * n + f_node
        keys, scores = [], []
        hop = 0
        while True:
            seen[f_key] = True
            keys.append(f_key)
            scores.append(np.full(len(f_key), weight[hop]))
            hop += 1
            if hop == len(weight):
                if (next_weight := math.exp(-config.b * hop)) < config.floor:
                    break
                weight.append(next_weight)
            count = degree[f_node]
            first_edge = np.cumsum(count) - count
            edge = np.repeat(indptr[f_node] - first_edge, count)
            edge += np.arange(len(edge))
            c_node = indices[edge]
            del edge
            c_key = np.repeat(f_key - f_node, count)
            c_key += c_node
            fresh = np.flatnonzero(~seen[c_key])
            m = len(fresh)
            if not m:
                break
            # Sorting key * m + position puts each key's first discovery in
            # front of its group; the kept positions, sorted, are the
            # discovery order.
            packed = np.sort(c_key[fresh] * m + np.arange(m))
            group = packed // m
            first = np.empty(m, dtype=bool)
            first[0] = True
            np.not_equal(group[1:], group[:-1], out=first[1:])
            keep = fresh[np.sort(packed[first] - group[first] * m)]
            f_node, f_key = c_node[keep], c_key[keep]
        key = np.concatenate(keys)
        seen[key] = False
        row, node = np.divmod(key, n)
        order = np.argsort(row, kind="stable")
        lengths.append(np.bincount(row, minlength=size))
        row_targets.append(node[order])
        row_scores.append(np.concatenate(scores)[order])
    return np.concatenate(lengths), row_targets, row_scores


def random_walk_row(graph: Graph, source: int, config: ProximityConfig) -> Row:
    """Stationary mass of a restart walk from ``source``.

    Synchronous fixed-point iteration starting from all mass at the source.
    Dangling nodes hand their continuation mass back to the source, so the
    vector stays a probability distribution throughout. Each edge carries
    its source's share; CSR lists a node's out-edges together, so repeating
    every share by its out-degree lays the shares out in edge order.
    """
    n = graph.node_count
    if not len(graph.indices):
        # Every node is isolated, and bincount over no edge would return int64 zeros.
        return Row(np.asarray([source], dtype=np.int64), np.ones(1))
    degree = np.diff(graph.indptr)
    dangling = degree == 0
    has_dangling = bool(dangling.any())
    safe_deg = np.where(dangling, 1.0, degree)
    q = 1.0 - config.p
    pi = np.zeros(n)
    pi[source] = 1.0
    share, step = np.empty(n), np.empty(n)
    for _ in range(_RW_MAX_ITERATIONS):
        np.multiply(q, pi, out=share)
        share /= safe_deg
        nxt = np.bincount(graph.indices, weights=share.repeat(degree), minlength=n)
        # With no dangling node the sum is empty, and p + q * 0.0 is exactly p.
        nxt[source] += config.p + q * pi[dangling].sum() if has_dangling else config.p
        np.subtract(nxt, pi, out=step)
        pi = nxt
        if np.abs(step, out=step).max() < config.rw_tolerance:
            break
    else:
        raise ConvergenceError(
            f"random walk from node {source} did not converge within "
            f"{_RW_MAX_ITERATIONS} iterations (tolerance {config.rw_tolerance:g})"
        )
    keep = np.flatnonzero(pi >= config.floor)
    return Row(keep.astype(np.int64), pi[keep])


# Cells (nodes x sources) of one _rw_rows block: the sources walk
# CELLS // node_count at a time, which bounds the kernel's scratch memory to
# about six float64 arrays of that many cells (12 MB at 2^18). Building all
# 994 rows of the rw-dense benchmark graph took 270-300 ms at 2^16 to 2^19
# and 340 ms at 2^20; 300 rows of the 9,826-node forecast-sparse graph took
# 1.0-1.1 s at 2^18 to 2^20 and 1.6 s at 2^17, where blocks hold 13 sources
# (2 vCPUs, numpy 2.4).
_RW_BLOCK_CELLS = 1 << 18
# Missing random-walk rows from which ``ProximityMap._fill`` builds them with
# _rw_rows; fewer come from random_walk_row, one walk each. The block pays
# from 9 or 10 rows on: it is 1.1x the scalar walks' time at 8 and 0.75-0.85x
# at 12 on the rw-dense benchmark graph, and 0.72-0.74x at 12 on the
# learn-dense and forecast-sparse graphs.
_RW_BLOCK_ROWS = 12


def _rw_rows(graph: Graph, sources: np.ndarray, config: ProximityConfig) -> tuple[np.ndarray, list, list]:
    """The random-walk rows of ``sources``: (lengths, targets, scores), in ``_sp_rows``'s form.

    Each row equals ``random_walk_row`` bit for bit. One fixed-point
    iteration runs for a block of sources at once, a nodes x sources array
    (one traversal shared by many sources, as in ``_sp_rows``). Its step
    pulls each node's in-neighbour shares one column at a time: column j
    holds every node's j-th in-edge, in-edges ascending by source, so each
    cell is the left-to-right sum that ``bincount`` forms in the scalar
    walk. The block's rows are the nodes ordered by in-degree, most first,
    so column j is a prefix of them. Each source stops at its own iteration,
    and its dangling mass is a contiguous 1-D sum, as ``pi[dangling].sum()``.
    """
    n = graph.node_count
    sources = np.asarray(sources, dtype=np.int64)
    if not len(graph.indices):
        return np.ones(len(sources), dtype=np.int64), [sources.copy()], [np.ones(len(sources))]
    degree = np.diff(graph.indptr)
    if graph.directed:
        # The transpose, by one sorted key per edge as ``_csr`` builds the CSR.
        key = graph.indices * n
        key += np.repeat(np.arange(n), degree)
        key.sort()
        in_source = key % n
        in_degree = np.bincount(graph.indices, minlength=n)
    else:
        # The CSR is symmetric, so node v's row lists its in-edges ascending by source.
        in_source, in_degree = graph.indices, degree
    node = np.argsort(-in_degree, kind="stable")  # block row i holds node[i]
    position = np.empty(n, dtype=np.int64)
    position[node] = np.arange(n)
    first_in = (np.cumsum(in_degree) - in_degree)[node]
    at_least = np.bincount(in_degree)[::-1].cumsum()[::-1]  # nodes of in-degree d or more, by d
    columns = [position[in_source[first_in[:c] + j]] for j, c in enumerate(at_least[1:].tolist())]
    dangling = degree == 0
    has_dangling = bool(dangling.any())
    dangling_rows = position[np.flatnonzero(dangling)]
    safe_deg = np.where(dangling, 1.0, degree)[node][:, None]
    p, q = config.p, 1.0 - config.p
    filled = len(columns[0])  # the block rows with an in-edge
    chunk = max(1, min(len(sources), _RW_BLOCK_CELLS // n))
    # The walk's state, next state, shares and steps, as nodes x sources
    # arrays: every block and every narrower block after some sources stop
    # views the front of this one buffer.
    buffer = np.empty(4 * n * chunk)
    lengths, row_targets, row_scores = [], [], []
    for lo in range(0, len(sources), chunk):
        block = sources[lo : lo + chunk]
        k = len(block)
        done = np.empty((k, n))  # each source's fixed point, in node order
        live = np.arange(k)  # the block's sources that still walk, by index in ``block``
        at = position[block]
        pi, nxt, share, scratch = buffer[: 4 * n * k].reshape(4, n, k)
        pi.fill(0.0)
        pi[at, live] = 1.0
        for _ in range(_RW_MAX_ITERATIONS):
            np.multiply(q, pi, out=share)
            share /= safe_deg
            np.take(share, columns[0], axis=0, out=nxt[:filled])
            nxt[filled:] = 0.0
            for column in columns[1:]:
                nxt[: len(column)] += share[column]
            # Each source's dangling mass, summed over a contiguous row as the scalar walk sums it.
            back = p + q * np.ascontiguousarray(pi[dangling_rows].T).sum(axis=1) if has_dangling else p
            nxt[at, np.arange(len(live))] += back
            np.subtract(nxt, pi, out=scratch)
            step = np.abs(scratch, out=scratch).max(axis=0)
            pi, nxt = nxt, pi
            if (stop := step < config.rw_tolerance).any():
                done[np.ix_(live[stop], node)] = pi[:, stop].T
                go = ~stop
                live, at = live[go], at[go]
                if not len(live):
                    break
                kept = pi[:, go]
                pi, nxt, share, scratch = buffer[: 4 * n * len(live)].reshape(4, n, len(live))
                pi[...] = kept
                del kept
        else:
            raise ConvergenceError(
                f"random walk from node {block[live[0]]} did not converge within "
                f"{_RW_MAX_ITERATIONS} iterations (tolerance {config.rw_tolerance:g})"
            )
        keep = done >= config.floor
        lengths.append(np.count_nonzero(keep, axis=1))
        row_scores.append(done[keep])
        del done
        targets = np.flatnonzero(keep)
        targets %= n
        row_targets.append(targets)
    return np.concatenate(lengths), row_targets, row_scores


def _rw_spread(graph: Graph, weights: np.ndarray, config: ProximityConfig) -> np.ndarray:
    """``sum_u weights[u] * row(u)`` over random-walk rows, from one walk and no row.

    By linearity the summed rows are one restart walk (Jeh and Widom, WWW
    2003): a row hands its dangling mass back to its own source, so source u
    restarts with weight ``weights[u] * p / (p - q * delta[u])``, where
    ``delta`` is ``_dangling_mass``. The restart vector is scaled to unit
    mass (by its largest entry first, so no sum overflows), and the fixed
    point stops by the rows' rule tightened by a factor p, then is scaled
    back. An isolated source u has ``delta[u] = p`` and spreads
    ``weights[u]`` onto itself alone. No entry is floored.
    """
    n = graph.node_count
    top = float(weights.max(initial=0.0))
    if top == 0.0:
        return np.zeros(n)
    if top == math.inf:
        raise ValueError("cannot spread an infinite weight over random-walk rows")
    p, q = config.p, 1.0 - config.p
    degree = np.diff(graph.indptr)
    dangling = degree == 0
    step_weight = q / np.where(dangling, 1.0, degree)
    restart = weights / top
    total = restart.sum()
    if dangling.any():
        restart *= p / (p - q * _dangling_mass(graph, degree, dangling, step_weight, config))
    mass = restart.sum()
    restart /= mass
    # The rows' rule on the result, which is ``mass`` times the walk and
    # is measured against the weights' total.
    tolerance = config.rw_tolerance * p * total / mass
    pi = restart
    teleport = p * restart
    for _ in range(_RW_MAX_ITERATIONS):
        # bincount over no edge returns int64 zeros, so the sum makes a new array
        nxt = teleport + np.bincount(graph.indices, weights=(pi * step_weight).repeat(degree), minlength=n)
        if np.abs(nxt - pi).max() < tolerance:
            return nxt * mass * top
        pi = nxt
    raise ConvergenceError(
        f"random-walk spread over {np.count_nonzero(weights)} sources did not converge within "
        f"{_RW_MAX_ITERATIONS} iterations (tolerance {tolerance:g})"
    )


def _dangling_mass(graph: Graph, degree: np.ndarray, dangling: np.ndarray, step_weight: np.ndarray,
                   config: ProximityConfig) -> np.ndarray:
    """``delta[u]``: the mass a restart walk from u that keeps no dangling mass leaves on dangling nodes.

    The fixed point of the reverse walk ``y = q M^T y + p 1_D``, where M
    moves mass along out-edges and D is the set of dangling nodes; it stops
    at ``rw_tolerance * p**3``. A dangling node's value is p exactly.
    """
    n, p = graph.node_count, config.p
    source = np.repeat(np.arange(n), degree)
    base = np.where(dangling, p, 0.0)
    y = base
    for _ in range(_RW_MAX_ITERATIONS):
        nxt = base + step_weight * np.bincount(source, weights=y[graph.indices], minlength=n)
        if np.abs(nxt - y).max() < config.rw_tolerance * p**3:
            return nxt
        y = nxt
    raise ConvergenceError(
        f"reverse random walk for the dangling mass did not converge within "
        f"{_RW_MAX_ITERATIONS} iterations (tolerance {config.rw_tolerance * p**3:g})"
    )


def csr_row_sums(row_start: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The sum of every row of a CSR ``(row_start, scores)``, in one ``bincount``.

    ``bincount`` adds each row's scores one by one in entry order, a plain
    left-to-right fold; Python's ``sum`` of floats is compensated from 3.12
    on, so it would not give these bits on every version.
    """
    rows = len(row_start) - 1
    row = np.repeat(np.arange(rows), np.diff(row_start))
    # With no entries at all, bincount returns int64 zeros.
    return np.bincount(row, weights=scores, minlength=rows).astype(np.float64, copy=False)


def graph_fingerprint(graph: Graph) -> str:
    digest = hashlib.sha256()
    digest.update(graph.indptr.tobytes())
    digest.update(graph.indices.tobytes())
    digest.update("\n".join(graph.labels).encode("utf-8"))
    digest.update(b"directed" if graph.directed else b"undirected")
    return digest.hexdigest()[:16]


# Rows that ``row`` builds one at a time wait as ``Row``s and join the
# store in one concatenate: at the next ``gather`` or cache write, or once
# this many wait. A waiting row costs about 340 B of Python objects besides
# its entries (tracemalloc), so the buffer holds at most about 1.4 MB of
# them. A second ``row`` of a waiting row is a dict hit (30 ns), where a
# stored row needs a new view (1 us).
_FRESH_ROWS = 4096


class ProximityMap:
    """Lazy store of the proximity rows of a graph and kernel config.

    Rows are computed on first demand and kept in one CSR store: row u spans
    ``start[u]:stop[u]`` of the aligned ``targets`` and ``scores`` arrays,
    which grow as rows are added, and ``start[u]`` is -1 until u's row is built.
    ``gather`` and ``row_sums`` build all of their missing rows at once;
    ``row`` and ``row_sum`` build one, which waits among the fresh rows
    until the next merge (see ``_FRESH_ROWS``).
    """

    def __init__(self, graph: Graph, config: ProximityConfig) -> None:
        self.graph, self.config = graph, config
        self._start = np.full(graph.node_count, -1, dtype=np.int64)
        self._stop = np.full(graph.node_count, -1, dtype=np.int64)
        self._targets = np.empty(0, dtype=np.int64)
        self._scores = np.empty(0, dtype=np.float64)
        self._size = 0  # entries in use; the arrays may hold more
        self._fresh: dict[int, Row] = {}

    def row(self, source: int) -> Row:
        """``source``'s row: the kernel's own arrays while it waits to merge, else views of the store.

        A stored row gets a new ``Row`` on each call, so its mapping builds
        its lookup dict again on the first lookup; a caller that looks up
        many scores of one row keeps the ``Row``, or takes ``dict(row)``.
        """
        if (row := self._fresh.get(source)) is not None:
            return row
        if self._size and (a := self._start[source]) >= 0:
            b = self._stop[source]
            return Row(self._targets[a:b], self._scores[a:b])
        row = self._fresh[source] = self._build(source)
        if len(self._fresh) >= _FRESH_ROWS:
            self._merge()
        return row

    def _build(self, source: int) -> Row:
        """``source``'s row from the scalar kernel of the config's kind."""
        build = shortest_path_row if self.config.kind == "shortest_path" else random_walk_row
        return build(self.graph, source, self.config)

    def _append(self, sources: np.ndarray, lengths: np.ndarray, targets: list, scores: list) -> None:
        """Store the rows of distinct, unstored ``sources``, of ``lengths`` entries each.

        ``targets`` and ``scores`` are lists of arrays whose concatenation
        holds the rows' entries in order. They are joined straight into the
        store; an empty store adopts a lone array. When the arrays are full
        they grow to a quarter more than they must hold. Doubling instead
        made each forecast-sparse benchmark ``predict`` fault in about 600
        fresh memory pages, where a quarter made it fault in none.
        """
        size = self._size
        end = size + int(lengths.sum())
        if not size and len(targets) == 1:
            self._targets, self._scores = targets[0], scores[0]
        else:
            if end > len(self._targets):
                capacity = end + end // 4
                for name in ("_targets", "_scores"):
                    old = getattr(self, name)
                    grown = np.empty(capacity, dtype=old.dtype)
                    grown[:size] = old[:size]
                    setattr(self, name, grown)
            np.concatenate(targets, out=self._targets[size:end])
            np.concatenate(scores, out=self._scores[size:end])
        self._stop[sources] = stop = size + np.cumsum(lengths)
        self._start[sources] = stop - lengths
        self._size = end

    def _merge(self) -> None:
        """Move the fresh rows into the store with one concatenate."""
        if not self._fresh:
            return
        rows = self._fresh.values()
        count = len(rows)
        self._append(
            np.fromiter(self._fresh, dtype=np.int64, count=count),
            np.fromiter(map(len, rows), dtype=np.int64, count=count),
            [r.targets for r in rows],
            [r.scores for r in rows],
        )
        self._fresh = {}

    def _fill(self, sources: np.ndarray) -> None:
        """Store the rows of ``sources`` not stored yet, and every fresh row.

        Two or more missing shortest-path rows come from one ``_sp_rows``
        pass, and ``_RW_BLOCK_ROWS`` or more missing random-walk rows from
        one ``_rw_rows`` block. Fewer come from the scalar kernel, one row
        each, and join the store with one ``_merge``.
        """
        self._merge()
        missing = sources[self._start[sources] < 0]
        if not len(missing):
            return
        missing = np.fromiter(dict.fromkeys(missing.tolist()), dtype=np.int64)
        batch = _sp_rows if self.config.kind == "shortest_path" else _rw_rows
        if len(missing) < (2 if batch is _sp_rows else _RW_BLOCK_ROWS):
            self._fresh = {u: self._build(u) for u in missing.tolist()}
            self._merge()
            return
        self._append(missing, *batch(self.graph, missing, self.config))

    def stored_sources(self) -> np.ndarray:
        """The ascending sources whose rows are built."""
        self._merge()
        return np.flatnonzero(self._start >= 0)

    def gather(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows of ``sources``, in order, as CSR arrays (row_start, targets, scores).

        Missing rows are built first, all in one batch (see ``_fill``). Then
        one index, each row's store offset repeated over its entries plus the
        entry's position, copies them all out.
        """
        sources = np.asarray(sources, dtype=np.int64)
        self._fill(sources)
        start, stop = self._start[sources], self._stop[sources]
        lengths = stop - start
        row_start = np.zeros(len(sources) + 1, dtype=np.int64)
        np.cumsum(lengths, out=row_start[1:])
        index = np.repeat(start - row_start[:-1], lengths)
        index += np.arange(len(index))
        return row_start, self._targets[index], self._scores[index]

    def row_sum(self, source: int) -> float:
        """The sum of ``source``'s scores, by ``csr_row_sums``'s rule."""
        scores = self.row(source).scores
        return float(csr_row_sums(np.asarray([0, len(scores)]), scores)[0])

    def row_sums(self, sources: np.ndarray) -> np.ndarray:
        """The row sums of ``sources``, in order, from one ``gather``; see ``csr_row_sums``."""
        row_start, _, scores = self.gather(sources)
        return csr_row_sums(row_start, scores)

    def spread(self, weights: np.ndarray) -> np.ndarray:
        """The dense node vector ``sum_u weights[u] * row(u)``, for non-negative, finite ``weights``.

        Shortest-path maps ``gather`` the rows of the nonzero weights and
        add their weighted scores with one ``bincount``. Random-walk maps
        run one walk (``_rw_spread``) and neither read nor build a row:
        the result is the walk's fixed point, which equals the summed rows
        up to the walk tolerance and keeps the entries below ``floor``, so
        it does not depend on which rows are stored. A zero total gives
        zeros without a walk.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if self.config.kind == "random_walk":
            return _rw_spread(self.graph, weights, self.config)
        live = np.flatnonzero(weights)
        row_start, targets, scores = self.gather(live)
        spread = np.repeat(weights[live], np.diff(row_start)) * scores
        # With no entries at all, bincount returns int64 zeros.
        return np.bincount(targets, spread, self.graph.node_count).astype(np.float64, copy=False)

    def row_sum_cap(self) -> float:
        """Upper bound on every row sum from the kernel and the max degree; builds no row.

        Random-walk rows are probability vectors, so the cap is 1. A
        shortest-path row holds its source at 1 and each node at hop d at
        exp(-b*d). With max out-degree D, at most D*(D-1)**(d-1) nodes lie
        at hop d (D**d when directed), and at most N - 1 besides the source;
        filling the nearest hops first gives the largest sum the kernel
        allows. The loop stops at the floor depth or once N - 1 nodes are
        placed, so it runs at most min(depth, N) times.
        """
        if self.config.kind == "random_walk":
            return 1.0
        graph = self.graph
        degree = int(np.diff(graph.indptr).max(initial=0))
        growth = degree if graph.directed else degree - 1
        total, left, reach, hops = 1.0, graph.node_count - 1, degree, 0
        while left > 0 and reach > 0:
            hops += 1
            weight = math.exp(-self.config.b * hops)
            if weight < self.config.floor:
                break
            placed = min(left, reach)
            total += weight * placed
            left -= placed
            reach = min(reach * growth, graph.node_count)
        return total

    def row_sum_low(self) -> float:
        """Lower bound on every row sum from the kernel alone; builds no row.

        A shortest-path row holds its source at 1, so it sums to at least 1.
        A random-walk row is a probability vector less its entries below
        ``floor``; when ``floor <= p`` the source, at least p, keeps its
        entry, so at most N - 1 entries are dropped, else at most N.
        """
        if self.config.kind == "shortest_path":
            return 1.0
        n, floor = self.graph.node_count, self.config.floor
        return 1.0 - (n - 1 if floor <= self.config.p else n) * floor

    def fingerprint(self) -> dict:
        return {**self.config.to_dict(), "graph": graph_fingerprint(self.graph)}

    def save_cache(self, path: str) -> None:
        """Write the computed rows to one uncompressed ``.npz`` behind a fingerprint header.

        Its arrays are the ascending ``sources`` and ``gather``'s CSR form of
        their rows. Each row keeps its entry order: row sums and every draw
        over a row depend on it, so a loaded row must match a fresh one.
        """
        sources = self.stored_sources()
        row_start, targets, scores = self.gather(sources)
        if not np.isfinite(scores).all():
            raise ValueError("cannot write a non-finite proximity score")
        header = json.dumps({"format": CACHE_FORMAT, "fingerprint": self.fingerprint()},
                            sort_keys=True, allow_nan=False)
        with open(path, "wb") as fh:  # a handle: np.savez appends ".npz" to a bare path
            np.savez(fh, header=np.asarray(header), sources=sources,
                     row_start=row_start, targets=targets, scores=scores)

    @classmethod
    def load_cache(cls, path: str, graph: Graph, config: ProximityConfig) -> ProximityMap:
        """Load a cache file built for ``graph`` and for ``config``'s rows.

        The file's config must agree with ``config`` on ``row_fields``, the
        fields its kernel reads; the map carries ``config``. Rows keep the
        entry order of the file. A file that is not a readable
        ``.npz`` (an older JSON-lines cache included), a bad header, a missing
        or mistyped array, offsets that do not rise from 0 to the entry count,
        a node outside ``[0, node_count)``, a repeated source or target, or a
        score that is not positive and finite raises ValueError naming ``path``.
        """
        with open(path, "rb") as fh:
            try:
                if fh.read(4) != b"PK\x03\x04":
                    raise ValueError(f"not a {CACHE_FORMAT} file (JSON-lines caches of older versions "
                                     "are not read); rebuild it with 'trendcast prox-cache'")
                fh.seek(0)
                with np.load(fh, allow_pickle=False) as npz:
                    arrays = {name: npz[name] for name in npz.files}
                file_config, stored_graph = _cache_header(arrays.get("header"))
                if config.row_fields() != file_config.row_fields():
                    raise ValueError("cache was built with a different proximity config")
                if stored_graph != graph_fingerprint(graph):
                    raise ValueError("cache was built for a different graph")
                sources, row_start, targets, scores = _cache_arrays(arrays, graph.node_count)
            except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
                raise ValueError(f"{path}: {exc}") from None
        prox = cls(graph, config)
        prox._append(sources, np.diff(row_start), [targets], [scores])
        return prox


def _cache_header(header: np.ndarray | None) -> tuple[ProximityConfig, object]:
    """The config and graph fingerprint held by a cache's 0-d string ``header``."""
    try:
        is_text = header is not None and header.shape == () and header.dtype.kind == "U"
        meta = json.loads(header.item()) if is_text else None
        if not isinstance(meta, dict) or meta.get("format") != CACHE_FORMAT:
            raise ValueError(f"not a {CACHE_FORMAT} header")
        stored = dict(meta["fingerprint"])
        stored_graph = stored.pop("graph", None)
        return ProximityConfig.from_dict(stored), stored_graph
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"array 'header': {exc}") from None


def _cache_arrays(arrays: dict, n: int) -> list[np.ndarray]:
    """A cache's row arrays over ``n`` nodes, checked; each is 1-D with its ``_CACHE_ARRAYS`` dtype."""
    for name, dtype in _CACHE_ARRAYS.items():
        if name not in arrays:
            raise ValueError(f"missing array {name!r}")
        if (a := arrays[name]).ndim != 1 or a.dtype != dtype:
            raise ValueError(f"array {name!r} must be 1-D {np.dtype(dtype)}, got {a.ndim}-D {a.dtype}")
    sources, row_start, targets, scores = (arrays[name] for name in _CACHE_ARRAYS)
    if (len(row_start) != len(sources) + 1 or row_start[0] != 0 or (np.diff(row_start) < 0).any()
            or row_start[-1] != len(targets) or len(scores) != len(targets)):
        raise ValueError(f"array 'row_start' must rise from 0 to the entry count, one offset per source "
                         f"and one more ({len(sources)} sources, {len(targets)} targets, {len(scores)} scores)")
    row = np.repeat(np.arange(len(sources)), np.diff(row_start))  # each entry's row
    for name, nodes in (("sources", sources), ("targets", targets)):
        if len(bad := np.flatnonzero((nodes < 0) | (nodes >= n))):
            where = f" (row of source {sources[row[bad[0]]]})" if name == "targets" else ""
            raise ValueError(f"array {name!r}: node {nodes[bad[0]]} is not an index in [0, {n}){where}")
    if len(bad := np.flatnonzero(np.diff(sources) <= 0)):
        raise ValueError(f"array 'sources': source {sources[bad[0] + 1]} repeats or breaks the ascending order")
    key = np.sort(row * n + targets)
    if len(bad := np.flatnonzero(key[1:] == key[:-1])):
        k, node = divmod(int(key[bad[0]]), n)
        raise ValueError(f"array 'targets': node {node} appears twice (row of source {sources[k]})")
    if len(bad := np.flatnonzero(~((scores > 0) & (scores < math.inf)))):
        raise ValueError(f"array 'scores': score {scores[bad[0]]} is not positive and finite "
                         f"(row of source {sources[row[bad[0]]]})")
    return [sources, row_start, targets, scores]
