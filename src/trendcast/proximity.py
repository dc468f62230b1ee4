"""Node-to-node proximity kernels.

A proximity row maps a source node to the influence weight it exerts on each
reachable node. Two kernels are provided: an exponentially decaying
shortest-path kernel and a restart random walk. Entries below a configurable
floor are dropped, which keeps rows sparse and bounds traversal depth. Every
row is a ``Row`` of aligned ``targets`` and ``scores`` arrays in entry order:
BFS order for shortest-path rows, ascending node for random-walk rows. The
cache stores ``gather``'s CSR arrays of its rows in one ``.npz`` and loads
them back as views, entry for entry.

Shortest-path rows are built two ways. ``ProximityMap.gather`` builds all
of its missing rows with ``_sp_rows``, one level-synchronous BFS for many
sources over the CSR arrays, which shares the per-level numpy work among
them. A request for one missing row (``row``, or a gather that misses one)
uses the scalar BFS ``shortest_path_row`` over ``Graph.adjacency``, the
graph's CSR arrays as Python sequences, built once per graph. For one row
it costs a sixth of a batched pass on a sparse graph and about half on a
dense one. Both give the same row, entry for entry and in the same order.
Random-walk rows are built one source at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

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
# forecast-sparse benchmark (9,832 nodes) run as 18 chunks and take 6.4 ms,
# against 70 chunks and 11.7 ms at 2^18; 2^22 (5 chunks, 6.2 ms) raised the
# benchmark's peak RSS by another 4.5 MB.
_SP_CHUNK_CELLS = 1 << 20


def _sp_rows(graph: Graph, sources: np.ndarray, config: ProximityConfig) -> list[Row]:
    """The shortest-path rows of ``sources``, each equal to ``shortest_path_row`` entry for entry.

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
    rows: list[Row] = []
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
        node, score = node[order], np.concatenate(scores)[order]
        ends = np.cumsum(np.bincount(row, minlength=size)).tolist()
        rows.extend(Row(node[a:b], score[a:b]) for a, b in zip([0, *ends], ends))
    return rows


def random_walk_row(graph: Graph, source: int, config: ProximityConfig) -> Row:
    """Stationary mass of a restart walk from ``source``.

    Synchronous fixed-point iteration starting from all mass at the source.
    Dangling nodes hand their continuation mass back to the source, so the
    vector stays a probability distribution throughout. Each edge carries
    its source's share; CSR lists a node's out-edges together, so repeating
    every share by its out-degree lays the shares out in edge order.
    """
    n = graph.node_count
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


@dataclass
class ProximityMap:
    """Lazy per-source store of ``Row``s over a graph and kernel config.

    Rows are computed on first demand and memoized. ``gather`` and
    ``row_sums`` build all of their missing rows at once; ``row`` and
    ``row_sum`` build one.
    """

    graph: Graph
    config: ProximityConfig
    _rows: dict[int, Row] = field(default_factory=dict, repr=False)

    def row(self, source: int) -> Row:
        if source not in self._rows:
            build = shortest_path_row if self.config.kind == "shortest_path" else random_walk_row
            self._rows[source] = build(self.graph, source, self.config)
        return self._rows[source]

    def _fill(self, sources: list[int]) -> None:
        """Build and cache the rows of ``sources`` not cached yet.

        Two or more missing shortest-path rows come from one ``_sp_rows``
        pass; a single one, and every random-walk row, from ``row``.
        """
        missing = list(dict.fromkeys(u for u in sources if u not in self._rows))
        if len(missing) < 2 or self.config.kind != "shortest_path":
            for u in missing:
                self.row(u)
            return
        self._rows.update(zip(missing, _sp_rows(self.graph, np.asarray(missing), self.config)))

    def gather(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows of ``sources``, in order, as CSR arrays (row_start, targets, scores).

        Missing rows are built first, all in one batch (see ``_fill``).
        """
        sources = sources.tolist()
        self._fill(sources)
        rows = [self._rows[u] for u in sources]
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        targets = np.concatenate([np.empty(0, np.int64), *(r.targets for r in rows)])
        scores = np.concatenate([np.empty(0), *(r.scores for r in rows)])
        return np.concatenate([[0], np.cumsum(lengths)]), targets, scores

    def row_sum(self, source: int) -> float:
        """The sum of ``source``'s scores, by ``csr_row_sums``'s rule."""
        scores = self.row(source).scores
        return float(csr_row_sums(np.asarray([0, len(scores)]), scores)[0])

    def row_sums(self, sources: np.ndarray) -> np.ndarray:
        """The row sums of ``sources``, in order, from one ``gather``; see ``csr_row_sums``."""
        row_start, _, scores = self.gather(sources)
        return csr_row_sums(row_start, scores)

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

    def fingerprint(self) -> dict:
        return {**self.config.to_dict(), "graph": graph_fingerprint(self.graph)}

    def save_cache(self, path: str) -> None:
        """Write the computed rows to one uncompressed ``.npz`` behind a fingerprint header.

        Its arrays are the ascending ``sources`` and ``gather``'s CSR form of
        their rows. Each row keeps its entry order: row sums and every draw
        over a row depend on it, so a loaded row must match a fresh one.
        """
        sources = np.asarray(sorted(self._rows), dtype=np.int64)
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
        ends = row_start.tolist()
        rows = {u: Row(targets[a:b], scores[a:b]) for u, a, b in zip(sources.tolist(), ends, ends[1:])}
        return cls(graph, config, rows)


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
