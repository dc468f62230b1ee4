"""Core containers and file formats: graphs, action sequences, interval grids.

A trend is a time-ordered sequence of (node, timestamp) actions. All graph
nodes carry dense integer indices internally; string labels only appear at
file boundaries.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

MEASURES = ("intensity", "coverage")


class ParseError(ValueError):
    """Malformed input file; message carries path and line number."""


class UnknownNodeError(ValueError):
    """Action references a node label absent from the graph."""


@dataclass
class Graph:
    """Immutable graph over dense node indices 0..node_count-1.

    Adjacency is stored CSR-style (``indptr``, ``indices``), deduplicated and,
    for undirected graphs, symmetrized at construction. ``indices`` holds
    out-neighbors when the graph is directed.
    """

    node_count: int
    directed: bool
    labels: list[str]
    indptr: np.ndarray
    indices: np.ndarray
    _label_index: dict[str, int] = field(repr=False, default_factory=dict)
    _in_indptr: np.ndarray | None = field(repr=False, default=None)
    _in_indices: np.ndarray | None = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if not self._label_index:
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._label_index) != self.node_count:
            raise ValueError("node labels are not unique")

    @classmethod
    def from_edges(
        cls,
        edges: list[tuple[int, int]],
        node_count: int,
        labels: list[str] | None = None,
        directed: bool = False,
    ) -> Graph:
        """Build a graph from index pairs; duplicates collapse, undirected edges symmetrize."""
        if labels is None:
            labels = [f"u{i}" for i in range(node_count)]
        if edges:
            arr = np.asarray(edges, dtype=np.int64)
            if arr.min() < 0 or arr.max() >= node_count:
                raise ValueError("edge endpoint out of range")
            if not directed:
                arr = np.vstack([arr, arr[:, ::-1]])
            arr = np.unique(arr, axis=0)
            src, dst = arr[:, 0], arr[:, 1]
        else:
            src = dst = np.empty(0, dtype=np.int64)
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(node_count, directed, labels, indptr, dst.copy())

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise UnknownNodeError(f"unknown node label {label!r}") from None

    def neighbors(self, node: int) -> np.ndarray:
        """Out-neighbors of ``node`` (all neighbors when undirected)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        """In-neighbors; equals neighbors() for undirected graphs."""
        if not self.directed:
            return self.neighbors(node)
        if self._in_indptr is None:
            order = np.argsort(self.indices, kind="stable")
            src = np.repeat(np.arange(self.node_count), np.diff(self.indptr))
            indptr = np.zeros(self.node_count + 1, dtype=np.int64)
            np.add.at(indptr, self.indices + 1, 1)
            np.cumsum(indptr, out=indptr)
            self._in_indptr, self._in_indices = indptr, src[order]
        return self._in_indices[self._in_indptr[node] : self._in_indptr[node + 1]]

    @property
    def edge_count(self) -> int:
        return int(self.indices.shape[0])


@dataclass
class Trend:
    """Action sequence sorted by timestamp (stable for ties).

    Duplicate (node, timestamp) pairs are retained; a node may act any number
    of times.
    """

    nodes: np.ndarray
    times: np.ndarray

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.nodes.shape != self.times.shape:
            raise ValueError("nodes and times must have equal length")
        if self.times.size and np.any(np.diff(self.times) < 0):
            order = np.argsort(self.times, kind="stable")
            self.nodes = self.nodes[order]
            self.times = self.times[order]

    def __len__(self) -> int:
        return int(self.times.size)

    def __iter__(self):
        return zip(self.nodes.tolist(), self.times.tolist())

    def prefix(self, t_star: float) -> Trend:
        """Actions with timestamp <= t_star (closed on the right)."""
        k = int(np.searchsorted(self.times, t_star, side="right"))
        return Trend(self.nodes[:k].copy(), self.times[:k].copy())


@dataclass(frozen=True)
class IntervalGrid:
    """``count`` consecutive half-open intervals of equal length from ``t_start``."""

    t_start: float
    interval_length: float
    count: int

    def __post_init__(self) -> None:
        if self.interval_length <= 0:
            raise ValueError("interval_length must be positive")
        if self.count < 1:
            raise ValueError("grid needs at least one interval")

    @property
    def edges(self) -> np.ndarray:
        return self.t_start + np.arange(self.count + 1) * self.interval_length

    @property
    def t_end(self) -> float:
        return float(self.edges[-1])

    def bounds(self, i: int) -> tuple[float, float]:
        e = self.edges
        return float(e[i]), float(e[i + 1])


@dataclass
class AggregateSeries:
    """Per-interval intensity (action counts) and coverage (distinct actors)."""

    grid: IntervalGrid
    intensity: np.ndarray
    coverage: np.ndarray


def load_graph(path: str, directed: bool = False) -> Graph:
    """Read a tab-separated edge file: one ``src<TAB>dst`` pair per line.

    Lines starting with ``#`` and blank lines are skipped. Labels are interned
    in first-appearance order. Duplicate edges collapse; undirected input is
    symmetrized. An edge-free file is rejected.
    """
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


def load_trend(path: str, graph: Graph) -> Trend:
    """Read a tab-separated action file: one ``node<TAB>timestamp`` per line.

    Same comment and blank-line rules as edge files. Unknown labels and
    non-numeric or non-finite timestamps are rejected with the offending
    line number.
    """
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


def write_trend(path: str, trend: Trend, graph: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for node, t in trend:
            fh.write(f"{graph.labels[node]}\t{t!r}\n")


def write_graph(path: str, graph: Graph) -> None:
    """Write the edge file back out; undirected edges appear once, canonically."""
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(graph.node_count):
            for v in graph.neighbors(u).tolist():
                if graph.directed or u <= v:
                    fh.write(f"{graph.labels[u]}\t{graph.labels[v]}\n")


def intensity(trend: Trend, t_min: float, t_max: float) -> int:
    """Number of actions with t_min <= t < t_max."""
    if not t_min < t_max:
        raise ValueError("degenerate interval: need t_min < t_max")
    lo = np.searchsorted(trend.times, t_min, side="left")
    hi = np.searchsorted(trend.times, t_max, side="left")
    return int(hi - lo)


def coverage(trend: Trend, t_min: float, t_max: float) -> int:
    """Number of distinct nodes acting in [t_min, t_max)."""
    if not t_min < t_max:
        raise ValueError("degenerate interval: need t_min < t_max")
    lo = np.searchsorted(trend.times, t_min, side="left")
    hi = np.searchsorted(trend.times, t_max, side="left")
    return int(np.unique(trend.nodes[lo:hi]).size)


def aggregate(trend: Trend, grid: IntervalGrid) -> AggregateSeries:
    """Bucket actions into the grid; actions outside [t_start, t_end) are ignored."""
    edges = grid.edges
    idx = np.searchsorted(edges, trend.times, side="right") - 1
    keep = (idx >= 0) & (idx < grid.count)
    idx = idx[keep]
    inten = np.bincount(idx, minlength=grid.count).astype(np.int64)
    pairs = np.unique(np.stack([idx, trend.nodes[keep]], axis=1), axis=0)
    cov = np.bincount(pairs[:, 0], minlength=grid.count).astype(np.int64) if pairs.size else np.zeros(grid.count, dtype=np.int64)
    return AggregateSeries(grid, inten, cov)


def longest_run_above(values: np.ndarray, theta: float) -> int:
    """Length of the longest run of consecutive entries strictly above theta."""
    best = run = 0
    for v in np.asarray(values).tolist():
        run = run + 1 if v > theta else 0
        best = max(best, run)
    return best


def duration(series: AggregateSeries, theta: float, measure: str = "coverage") -> int:
    """Longest stretch of consecutive intervals whose measure exceeds theta."""
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}")
    return longest_run_above(getattr(series, measure), theta)


def write_aggregate_csv(out: str | io.TextIOBase, series: AggregateSeries) -> None:
    """Write 'interval_index,t_min,t_max,intensity,coverage' rows."""
    fh = open(out, "w", encoding="utf-8") if isinstance(out, str) else out
    try:
        fh.write("interval_index,t_min,t_max,intensity,coverage\n")
        for i in range(series.grid.count):
            t_min, t_max = series.grid.bounds(i)
            fh.write(f"{i},{t_min:.10g},{t_max:.10g},{series.intensity[i]},{series.coverage[i]}\n")
    finally:
        if isinstance(out, str):
            fh.close()


def random_graph(
    node_count: int,
    edge_count: int,
    seed: int,
    directed: bool = False,
) -> Graph:
    """Uniform random simple graph with exactly ``edge_count`` edges."""
    if node_count < 2:
        raise ValueError("need at least two nodes")
    limit = node_count * (node_count - 1) // (1 if directed else 2)
    if edge_count > limit:
        raise ValueError(f"edge_count {edge_count} exceeds maximum {limit}")
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    while len(edges) < edge_count:
        u, v = (int(x) for x in rng.integers(0, node_count, size=2))
        if u == v:
            continue
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        edges.append(key)
    return Graph.from_edges(edges, node_count, directed=directed)
