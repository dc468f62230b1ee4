"""Node-to-node proximity kernels.

A proximity row maps a source node to the influence weight it exerts on each
reachable node. Two kernels are provided: an exponentially decaying
shortest-path kernel and a restart random walk. Shortest-path entries
below a configurable floor are dropped, which keeps rows sparse and bounds
traversal depth; a random-walk row keeps every positive entry. Every row is
a pair of aligned ``targets`` and ``scores`` arrays in entry order: hop,
then ascending node, for shortest-path rows, ascending node for random-walk
rows.

``ProximityMap`` keeps its rows in one CSR store, a growable pair of
``targets`` and ``scores`` arrays that per-node ``start`` and ``stop``
offsets index. A batched build appends its rows in one copy, ``gather``
reads any list of rows with one index, and the cache writes the store's
rows in one ``.npz`` that loads back as the store itself, entry for entry;
none of these makes an object per row. The scalar kernels return one
``Row`` each, which is copied in, and ``row`` hands out one row as a
``Row`` view for callers that read a row at a time.

Shortest-path rows are built two ways. ``ProximityMap.gather`` builds all
of its missing rows, a lone one included, with ``_sp_rows``, one
level-synchronous BFS for many sources, which shares the per-level numpy
work among them. It lists each level's out-edges from the CSR arrays while
levels are small, and once a level would list more than the graph's
``E + N`` entries per 64 rows it pulls the rest in bits, 64 rows to a
uint64 word, over the in-edge CSR. ``row`` uses the scalar BFS
``shortest_path_row`` over ``Graph.adjacency``, the graph's CSR arrays as
Python sequences, built once per graph. For one row it costs about a
quarter of a batched pass on a sparse graph and about as much on a dense
one, but building the adjacency costs about 1 ms on a 10k-node graph, so a
gather does not pay for it. Both give the same row, entry for entry and in
the same order.
Random-walk rows are built two ways as well. A gather walks every missing
row in one block with ``_rw_rows``, one fixed-point iteration over a
nodes x sources block; ``row`` takes the scalar walk ``random_walk_row``.
The block adds every node's in-neighbour shares in the order the scalar
walk's ``bincount`` adds them, so both give the same row bit for bit.

``random_walk_ends`` draws from random-walk rows without building them: a
restart walk from v that stops with probability p before each step ends
at w with probability prox(v, w) exactly, the fixed point that
``random_walk_row`` iterates towards, with no tolerance (the walk
"fingerprints" of Fogaras et al., Internet Mathematics 2005). The
forecast and ``synth`` draw offspring with it.

``ProximityMap.spread`` gives the dense vector ``sum_u w[u] * row(u)``, the
stacked influence of weighted sources. Over shortest-path rows it is a
``gather`` and one ``bincount``. Over random-walk rows it is one walk whose
restart vector is the weights (with one reverse walk first on a graph with
dangling nodes), and it neither reads nor builds a row: it is the walk's
fixed point, equal to the summed rows up to the walk tolerance.

Row sums have one rule, ``csr_row_sums`` over ``gather``'s arrays. The
branching bound reads ``row_sum_cap`` and ``max_row_sum``, which store no row.
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

CACHE_FORMAT = "trendcast-prox-cache-v4"
_CACHE_ARRAYS = {"sources": np.int64, "row_start": np.int64, "targets": np.int64, "scores": np.float64}
_RW_MAX_ITERATIONS = 10_000  # cap on the random-walk fixed-point iteration and on a sampled walk's steps


class ConvergenceError(RuntimeError):
    """Random-walk fixed point failed to converge within the iteration cap."""


@dataclass(frozen=True)
class ProximityConfig:
    """Kernel selection and numeric knobs.

    ``b`` is the per-hop decay of the shortest-path kernel, ``p`` the restart
    probability of the random walk. ``floor`` trims negligible scores from
    shortest-path rows and must stay below 1 so a source always keeps its
    own entry; random-walk rows take no floor.
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
        read = ("b", "floor") if self.kind == "shortest_path" else ("p", "rw_tolerance")
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
    could add nothing. Entries run by hop, then by ascending node: hop 1
    is the source's CSR row, already ascending, and each later level is
    sorted.
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
        if hops > 1:
            next_frontier.sort()
        targets += next_frontier
        scores += [weight] * len(next_frontier)
        frontier = next_frontier
    return Row(np.fromiter(targets, np.int64, len(targets)), np.fromiter(scores, np.float64, len(scores)))


# Cells (rows x nodes) of the ``seen`` bitmap of one _sp_rows chunk: the
# sources are searched CELLS // node_count at a time, which bounds the
# kernel's scratch memory on large graphs. Each chunk pays a fixed numpy
# cost per BFS level. At 2^20 (a 1 MB bitmap) the 1,811 learn rows of the
# forecast-sparse benchmark (9,832 nodes) run as 18 chunks and take 1.8 ms,
# against 70 chunks and 3.5 ms at 2^18 and 5 chunks and 1.7 ms at 2^22
# (best of 60 builds, 2 vCPUs); an earlier kernel's 2^22 made the
# benchmark's learn and predict no faster and raised its peak RSS by 2.6 MB.
_SP_CHUNK_CELLS = 1 << 20


def _in_edges(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The in-edge CSR ``(indptr, sources)``: v's in-neighbours, ascending, are ``sources[indptr[v]:indptr[v + 1]]``.

    An undirected graph's CSR is symmetric, so it is its own; a directed
    graph's is the transpose, by one sorted key per edge as ``_csr`` builds
    the CSR.
    """
    if not graph.directed:
        return graph.indptr, graph.indices
    n = graph.node_count
    key = graph.indices * n
    key += np.repeat(np.arange(n), np.diff(graph.indptr))
    key.sort()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(graph.indices, minlength=n), out=indptr[1:])
    return indptr, key % n


_WORD = np.dtype("<u8")  # little-endian, so bit b of a word's byte k is row 8 * k + b


def _bit_matrix(cells: np.ndarray, size: int, n: int) -> np.ndarray:
    """A chunk's ``size * n`` row-major bool cells as n x words uint64: row r is bit r % 64 of word r // 64."""
    words = -(-size // 64)
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, : -(-size // 8)] = np.packbits(cells.reshape(size, n).T, axis=1, bitorder="little")
    return packed.view(_WORD)


def _spans(ends: np.ndarray, budget: int):
    """Yield consecutive item ranges ``(a, b)`` of at most ``budget`` in size, or one item of more.

    ``ends`` holds the items' running size total, so item i ends at ``ends[i]``.
    """
    if ends[-1] <= budget:
        yield 0, len(ends)
        return
    a, done = 0, 0
    while a < len(ends):
        b = max(a + 1, int(np.searchsorted(ends, done + budget, side="right")))
        yield a, b
        a, done = b, int(ends[b - 1])


def _pieces(in_indptr: np.ndarray, budget: int) -> list:
    """The in-edge CSR cut into node ranges of at most ``budget`` in-edges, or one node with more.

    Each piece is ``(lo, hi, nodes, starts)``: its in-edges span
    ``lo:hi``, and ``nodes``, its nodes with an in-edge, start theirs at
    ``starts``, offsets from ``lo``. Ranges with no in-edge are left out.
    """
    pieces = []
    for a, b in _spans(in_indptr[1:], budget):
        lo, hi = int(in_indptr[a]), int(in_indptr[b])
        if hi > lo:
            nodes = a + np.flatnonzero(in_indptr[a + 1 : b + 1] > in_indptr[a:b])
            pieces.append((lo, hi, nodes, in_indptr[nodes] - lo))
    return pieces


def _sp_rows(graph: Graph, sources: np.ndarray, config: ProximityConfig) -> tuple[np.ndarray, list, list]:
    """The shortest-path rows of ``sources``: (lengths, targets, scores).

    ``lengths`` holds each row's entry count; ``targets`` and ``scores``
    hold one array per chunk of sources (``_sp_chunks``), whose
    concatenation is the rows' entries in order.
    """
    lengths, targets, scores = zip(*_sp_chunks(graph, sources, config))
    return np.concatenate(lengths), list(targets), list(scores)


def row_sum_cap(graph: Graph, config: ProximityConfig) -> float:
    """Upper bound on every shortest-path row sum from the kernel and the max degree; builds no row.

    A row holds its source at 1 and each node at hop d at exp(-b*d). With
    max out-degree D, at most D*(D-1)**(d-1) nodes lie at hop d (D**d when
    directed), and at most N - 1 besides the source; filling the nearest
    hops first gives the largest sum the kernel allows. The loop stops at
    the floor depth or once N - 1 nodes are placed, so it runs at most
    min(depth, N) times.
    """
    degree = int(np.diff(graph.indptr).max(initial=0))
    growth = degree if graph.directed else degree - 1
    total, left, reach, hops = 1.0, graph.node_count - 1, degree, 0
    while left > 0 and reach > 0:
        hops += 1
        weight = math.exp(-config.b * hops)
        if weight < config.floor:
            break
        placed = min(left, reach)
        total += weight * placed
        left -= placed
        reach = min(reach * growth, graph.node_count)
    return total


def max_row_sum(graph: Graph, sources: np.ndarray, config: ProximityConfig) -> float:
    """The largest shortest-path row sum of ``sources``, by ``csr_row_sums``' rule; stores no row.

    The rows come from ``_sp_chunks`` one chunk at a time, each dropped
    once summed, so memory stays that of one chunk however many rows there
    are.
    """
    best = -math.inf
    for lengths, targets, scores in _sp_chunks(graph, sources, config):
        row_start = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=row_start[1:])
        best = max(best, float(csr_row_sums(row_start, scores).max()))
    return best


def _sp_chunks(graph: Graph, sources: np.ndarray, config: ProximityConfig):
    """Yield the shortest-path rows of ``sources`` a chunk of sources at a time: (lengths, targets, scores).

    ``lengths`` holds each row's entry count, and ``targets`` and
    ``scores`` the rows' entries in order. Each row equals
    ``shortest_path_row`` entry for entry: hop, then ascending node, each
    scored ``math.exp(-b * hops)``.

    One level-synchronous BFS runs for a chunk of sources at once (a
    multi-source BFS as in Then et al., VLDB 2014), with each reached node
    keyed ``row * n + node``. While levels are small it lists them: the
    frontier's out-edges from the CSR arrays, less the keys already
    ``seen``, sorted and deduplicated, which puts each level in (row, node)
    order. A level whose out-edges pass ``_SP_CHUNK_CELLS`` bytes as int64
    is listed in parts of the frontier, each part's new keys marked
    ``seen`` before the next part is listed. Once a level would list more
    out-edges than ``(E + N) * words``, where ``words = ceil(rows / 64)``,
    the chunk turns to bits for the rest of its search (the
    direction-optimizing switch of Beamer, Asanovic and Patterson, SC
    2012): its seen set and frontier become N x words matrices of uint64,
    one bit per row, and a level is each node's in-neighbours' frontier
    words ORed by one ``reduceat`` over the in-edge CSR, less ``seen``. Its
    new bits unpack to (row, node)-sorted keys. A stable sort by row of all
    levels' keys gives the rows.
    """
    n = graph.node_count
    chunk = max(1, _SP_CHUNK_CELLS // max(n, 1))
    seen = np.zeros(min(len(sources), chunk) * n, dtype=bool)
    degree = np.diff(graph.indptr)
    in_edges = []  # the in-edge CSR, built when a chunk first turns to bits
    for lo in range(0, len(sources), chunk):
        f_node = np.asarray(sources[lo : lo + chunk], dtype=np.int64)
        size = len(f_node)
        keys, weights = _sp_levels(graph, degree, f_node, seen, in_edges, config)
        level = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
        key = np.concatenate(keys)
        # Each array is dropped once used, so the sort by row holds about
        # three copies of the chunk's keys, one per entry, besides the rows.
        del keys
        row = key // n
        lengths = np.bincount(row, minlength=size)
        order = np.argsort(row, kind="stable")
        del row
        targets = key[order]
        del key
        targets %= n
        yield lengths, targets, np.repeat(weights, level)[order]


def _sp_levels(graph: Graph, degree: np.ndarray, f_node: np.ndarray, seen: np.ndarray, in_edges: list,
               config: ProximityConfig) -> tuple[list, list]:
    """One chunk's BFS from sources ``f_node``: each level's keys, in (row, node) order, and its score.

    ``degree`` holds the nodes' out-degrees. ``seen`` is the chunk's
    bitmap, all False, and is left so. ``in_edges`` caches the in-edge CSR
    for the chunks that turn to bits; see ``_sp_chunks``.
    """
    n = graph.node_count
    size = len(f_node)
    words = -(-size // 64)
    part = max(1, _SP_CHUNK_CELLS // 8)  # out-edges listed at once
    f_key = np.arange(size) * n + f_node
    listed = []  # the keys marked in ``seen``, one array per listed level or part
    keys, weights = [f_key], [1.0]
    reached = size
    hop = 0
    while reached < size * n:
        hop += 1
        if (weight := math.exp(-config.b * hop)) < config.floor:
            break
        seen[f_key] = True
        listed.append(f_key)
        count = degree[f_node]
        listed_end = np.cumsum(count)  # where each frontier node's out-edges end in the listing
        if listed_end[-1] > (graph.edge_count + n) * words:
            if not in_edges:
                in_edges.append(_in_edges(graph))
            _bit_levels(in_edges[0], seen[: size * n], keys, weights, size, hop, config)
            break
        level = []
        for a, b in _spans(listed_end, part):
            c_key = _listed_level(graph, seen, f_key[a:b], f_node[a:b], count[a:b],
                                  listed_end[a:b] - listed_end[a - 1] if a else listed_end[:b])
            if not len(c_key):
                continue
            if b < len(f_node):
                # the level's later parts must not list these keys again
                seen[c_key] = True
                listed.append(c_key)
            level.append(c_key)
        if not level:
            break
        f_key = level[0] if len(level) == 1 else np.sort(np.concatenate(level))
        f_node = f_key % n
        keys.append(f_key)
        weights.append(weight)
        reached += len(f_key)
    for key in listed:
        seen[key] = False
    return keys, weights


def _listed_level(graph: Graph, seen: np.ndarray, f_key: np.ndarray, f_node: np.ndarray, count: np.ndarray,
                  listed_end: np.ndarray) -> np.ndarray:
    """The keys one out-edge past frontier keys ``f_key`` and not ``seen``: ascending and distinct.

    ``count`` holds the frontier nodes' out-degrees and ``listed_end`` their running total.
    """
    edge = np.repeat(graph.indptr[f_node] - (listed_end - count), count)
    edge += np.arange(len(edge))
    c_node = graph.indices[edge]
    del edge
    c_key = np.repeat(f_key - f_node, count)
    c_key += c_node
    del c_node
    c_key = c_key[~seen[c_key]]
    c_key.sort()
    first = np.empty(len(c_key), dtype=bool)
    first[:1] = True
    np.not_equal(c_key[1:], c_key[:-1], out=first[1:])
    return c_key[first]


def _bit_levels(in_edges: tuple, seen: np.ndarray, keys: list, weights: list, size: int, hop: int,
                config: ProximityConfig) -> None:
    """Run the rest of one chunk's BFS in bits from hop ``hop``, appending each level to ``keys`` and ``weights``.

    ``seen`` is the chunk's ``seen`` bitmap and ``keys`` holds its levels
    so far, the frontier last. The seen set, the frontier and the next
    level are n x words matrices, each n * words * 8 bytes, about an eighth
    of the bitmap; the in-edges gathered at once hold at most
    ``_SP_CHUNK_CELLS`` bytes, and a level's unpacked bits, one byte per
    cell, are the bitmap's size twice.
    """
    in_indptr, in_source = in_edges
    n = len(in_indptr) - 1
    words = -(-size // 64)
    frontier = np.zeros(size * n, dtype=bool)
    frontier[keys[-1]] = True
    frontier = _bit_matrix(frontier, size, n)
    seen = _bit_matrix(seen, size, n)
    pieces = _pieces(in_indptr, max(1, _SP_CHUNK_CELLS // (8 * words)))
    reached = sum(map(len, keys))
    while True:
        # the next level: each node's in-neighbours' frontier words, ORed, less ``seen``
        new = np.zeros_like(frontier)
        for lo, hi, nodes, starts in pieces:
            pulled = np.bitwise_or.reduceat(frontier[in_source[lo:hi]], starts, axis=0)
            pulled &= ~seen[nodes]
            new[nodes] = pulled
        if not new.any():
            return
        seen |= new
        bits = np.unpackbits(new.view(np.uint8), axis=1, count=size, bitorder="little")  # nodes x rows
        f_key = np.flatnonzero(bits.T)  # row * n + node, in (row, node) order
        del bits
        keys.append(f_key)
        weights.append(math.exp(-config.b * hop))
        reached += len(f_key)
        hop += 1
        if reached == size * n or math.exp(-config.b * hop) < config.floor:
            return
        frontier = new


def random_walk_row(graph: Graph, source: int, config: ProximityConfig) -> Row:
    """Stationary mass of a restart walk from ``source``.

    Synchronous fixed-point iteration starting from all mass at the source.
    Dangling nodes hand their continuation mass back to the source, so the
    vector stays a probability distribution throughout; the row keeps every
    positive entry. Each edge carries its source's share; CSR lists a
    node's out-edges together, so repeating every share by its out-degree
    lays the shares out in edge order.
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
    keep = np.flatnonzero(pi > 0.0)
    return Row(keep.astype(np.int64), pi[keep])


def random_walk_ends(graph: Graph, starts: np.ndarray, config: ProximityConfig,
                     rng: np.random.Generator) -> np.ndarray:
    """Where one restart walk from each of ``starts`` stops: a draw from each start's row law.

    A walk stops with probability p before each step; otherwise it moves to
    a uniform out-neighbour, or, from a node with no out-edge, back to its
    own start, ``random_walk_row``'s dangling rule. So it takes k steps with
    probability p * q^k, and its end has law p * sum_k q^k e_s M^k, the
    fixed point ``random_walk_row`` iterates towards: the row's law with no
    walk tolerance (the Monte Carlo "fingerprints" of Fogaras et al.,
    Internet Mathematics 2005). All walks step together, one draw
    per live walk and step, after one geometric draw of every walk's length.
    A walk drawn longer than ``_RW_MAX_ITERATIONS`` steps raises
    ConvergenceError before any walk moves, as the fixed-point iteration
    does past the same cap: a walk passes it with probability
    (1 - p)^10,001, about 2e-9 at p = 0.002 and 0 in double precision at
    p = 0.1. So the cap bites only at tiny p, where a loose ``rw_tolerance``
    lets the fixed-point iteration stop early but the walks would take
    about ln(walks) / p rounds.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = starts.copy()
    steps = rng.geometric(config.p, len(ends)) - 1
    longest = int(steps.max(initial=0))
    if longest > _RW_MAX_ITERATIONS:
        raise ConvergenceError(
            f"a restart walk drew {longest} steps, past the cap of {_RW_MAX_ITERATIONS} (p {config.p:g})"
        )
    degree = np.diff(graph.indptr)
    live = np.flatnonzero(steps)
    while len(live):
        at = ends[live]
        out = degree[at]
        # u < 1 keeps u * d below d for every integer d < 2**52, so each pick is an out-edge
        pick = (rng.random(len(live)) * out).astype(np.int64)
        to = starts[live]  # a node with no out-edge sends the walk back to its start
        moves = np.flatnonzero(out)
        to[moves] = graph.indices[graph.indptr[at[moves]] + pick[moves]]
        ends[live] = to
        steps[live] -= 1
        live = live[steps[live] > 0]
    return ends


# Cells (nodes x sources) of one _rw_rows block: the sources walk
# CELLS // node_count at a time, which bounds the kernel's scratch memory to
# about six float64 arrays of that many cells (12 MB at 2^18). Building all
# 994 rows of the rw-dense benchmark graph took 270-300 ms at 2^16 to 2^19
# and 340 ms at 2^20; 300 rows of the 9,826-node forecast-sparse graph took
# 1.0-1.1 s at 2^18 to 2^20 and 1.6 s at 2^17, where blocks hold 13 sources
# (2 vCPUs, numpy 2.4).
_RW_BLOCK_CELLS = 1 << 18


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
    in_indptr, in_source = _in_edges(graph)
    in_degree = np.diff(in_indptr)
    node = np.argsort(-in_degree, kind="stable")  # block row i holds node[i]
    position = np.empty(n, dtype=np.int64)
    position[node] = np.arange(n)
    first_in = in_indptr[node]
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
        keep = done > 0.0
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
    ``weights[u]`` onto itself alone.
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
    ``gather`` builds all of its missing rows at once;
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
        build = shortest_path_row if self.config.kind == "shortest_path" else random_walk_row
        row = self._fresh[source] = build(self.graph, source, self.config)
        if len(self._fresh) >= _FRESH_ROWS:
            self._merge()
        return row

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

        Missing rows, a lone one included, come from one batched build:
        ``_sp_rows``, which needs no ``Graph.adjacency``, or ``_rw_rows``.
        """
        self._merge()
        missing = sources[self._start[sources] < 0]
        if not len(missing):
            return
        missing = np.fromiter(dict.fromkeys(missing.tolist()), dtype=np.int64)
        batch = _sp_rows if self.config.kind == "shortest_path" else _rw_rows
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

    def spread(self, weights: np.ndarray) -> np.ndarray:
        """The dense node vector ``sum_u weights[u] * row(u)``, for non-negative, finite ``weights``.

        Shortest-path maps ``gather`` the rows of the nonzero weights and
        add their weighted scores with one ``bincount``. Random-walk maps
        run one walk (``_rw_spread``) and neither read nor build a row:
        the result is the walk's fixed point, which equals the summed rows
        up to the walk tolerance, so it does not depend on which rows are
        stored. A zero total gives zeros without a walk.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if self.config.kind == "random_walk":
            return _rw_spread(self.graph, weights, self.config)
        live = np.flatnonzero(weights)
        row_start, targets, scores = self.gather(live)
        spread = np.repeat(weights[live], np.diff(row_start)) * scores
        # With no entries at all, bincount returns int64 zeros.
        return np.bincount(targets, spread, self.graph.node_count).astype(np.float64, copy=False)

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
            raise ValueError(f"not a {CACHE_FORMAT} header; rebuild it with 'trendcast prox-cache'")
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
