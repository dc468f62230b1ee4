"""Core containers and file formats: graphs, action sequences, interval grids.

A trend is a time-ordered sequence of (node, timestamp) actions. All graph
nodes carry dense integer indices internally; string labels only appear at
file boundaries.
"""

from __future__ import annotations

import array
import io
import math
import re
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Iterator, NoReturn

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
    out-neighbors when the graph is directed. Both arrays are made read-only
    at construction, so what is derived from them, such as ``adjacency``,
    stays valid for the graph's lifetime.
    """

    node_count: int
    directed: bool
    labels: list[str]
    indptr: np.ndarray
    indices: np.ndarray
    _label_index: dict[str, int] = field(repr=False, default_factory=dict)
    _adjacency: tuple[array.array, list[int]] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self._label_index:
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._label_index) != self.node_count:
            raise ValueError("node labels are not unique")
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    @classmethod
    def from_edges(
        cls,
        edges: list[tuple[int, int]] | np.ndarray,
        node_count: int,
        labels: list[str] | None = None,
        directed: bool = False,
    ) -> Graph:
        """Build a graph from index pairs, a list or an ``(m, 2)`` array.

        Duplicates collapse; undirected edges symmetrize.
        """
        if labels is None:
            labels = [f"u{i}" for i in range(node_count)]
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= node_count):
            raise ValueError("edge endpoint out of range")
        indptr, indices = _csr(arr, node_count, directed)
        return cls(node_count, directed, labels, indptr, indices)

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise UnknownNodeError(f"unknown node label {label!r}") from None

    def neighbors(self, node: int) -> np.ndarray:
        """Out-neighbors of ``node`` (all neighbors when undirected)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def adjacency(self) -> tuple[array.array, list[int]]:
        """``(indptr, indices)`` for walks in Python, built on the first call and kept.

        Node ``u``'s out-neighbors are ``indices[indptr[u]:indptr[u + 1]]``.
        ``indptr`` is an ``array('q')``; ``indices`` is a list that refers to
        one int object per node, so a slice of it creates no int objects and
        the list costs 8 bytes per entry. A walk over these pays a fraction
        of a numpy slice and ``tolist`` per node.
        """
        if self._adjacency is None:
            nodes = np.array(range(self.node_count), dtype=object)
            self._adjacency = (array.array("q", self.indptr.tolist()), nodes[self.indices].tolist())
        return self._adjacency

    @property
    def edge_count(self) -> int:
        return int(self.indices.shape[0])


def _csr(edges: np.ndarray, node_count: int, directed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated CSR ``(indptr, indices)``, both int64, of in-range ``(m, 2)`` index pairs."""
    src, dst = edges[:, 0], edges[:, 1]
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    # One sorted key per edge orders edges by (src, dst); dropping a key equal
    # to its predecessor dedups. np.unique would hash instead, which is far
    # slower on int64 keys.
    key = np.sort(src * node_count + dst)
    fresh = np.empty(key.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    src, dst = np.divmod(key[fresh], node_count)
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    return indptr, dst


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
        if not math.isfinite(self.t_start):
            raise ValueError(f"t_start must be finite, got {self.t_start!r}")
        if not 0 < self.interval_length < math.inf:
            raise ValueError(f"interval_length must be positive and finite, got {self.interval_length!r}")
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

    def bin(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(keep, idx)``: which ``times`` lie in [t_start, t_end), and the interval of each kept one.

        A time on an edge falls into the interval that starts there.
        """
        idx = np.searchsorted(self.edges, times, side="right") - 1
        keep = (idx >= 0) & (idx < self.count)
        return keep, idx[keep]


@dataclass
class AggregateSeries:
    """Per-interval intensity (action counts) and coverage (distinct actors)."""

    grid: IntervalGrid
    intensity: np.ndarray
    coverage: np.ndarray


# Matches a line holding two or more tabs.
_TWO_TABS = re.compile(r"\t[^\n]*\t")

# Data text is split into fields about this many characters at a time.
_BLOCK_CHARS = 1 << 16


def _read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file; a byte that is not UTF-8 raises ParseError naming ``path:line``.

    CRLF and lone CR end a line, as in text mode. Lines are split on LF
    alone, as iterating a file does: splitlines() also breaks at characters
    such as \x1c or \u2028, which would shift line numbers.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        line = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise ParseError(f"{path}:{line}: not valid UTF-8") from None
    del data
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _data_text(path: str) -> str | None:
    """The data lines of a two-column file, stripped and joined by newlines.

    Data lines are those left non-blank and not starting with ``#`` once
    surrounding whitespace is stripped. Returns None when a data line has
    other than exactly two non-empty tab-separated fields.
    """
    lines = [s for s in map(str.strip, _read_lines(path)) if s and s[0] != "#"]
    text = "\n".join(lines)
    # As many tabs as lines and no line with two means exactly one tab per
    # line. A stripped line neither starts nor ends with a tab, so both of
    # its fields are non-empty.
    if text.count("\t") != len(lines) or _TWO_TABS.search(text):
        return None
    return text


def _fields(text: str) -> Iterator[str]:
    """The fields of data text in file order, split one block of lines at a time.

    Splitting it all at once would hold two string objects per line together.
    The labels that interning keeps would then lie scattered over memory the
    freed fields leave mostly empty, which raises the peak RSS of a process
    that loads graphs repeatedly.
    """

    def blocks() -> Iterator[list[str]]:
        start = 0
        while start < len(text):
            end = text.find("\n", start + _BLOCK_CHARS)
            if end < 0:
                end = len(text)
            yield text[start:end].replace("\n", "\t").split("\t")
            start = end + 1

    return chain.from_iterable(blocks())


def _raise_first_error(path: str, check: Callable[[str, str, list[str]], None]) -> NoReturn:
    """Re-read ``path`` line by line; ``check(where, raw, fields)`` raises at the first bad line."""
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            check(f"{path}:{lineno}", raw, line.split("\t"))
    raise RuntimeError(f"{path}: the whole-file parse rejected a file that every line check accepts")


def _check_edge_line(where: str, raw: str, parts: list[str]) -> None:
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ParseError(f"{where}: expected 'src<TAB>dst', got {raw.rstrip()!r}")


def load_graph(path: str, directed: bool = False) -> Graph:
    """Read a tab-separated edge file: one ``src<TAB>dst`` pair per line.

    Lines starting with ``#`` and blank lines are skipped. Labels are interned
    in first-appearance order. Duplicate edges collapse; undirected input is
    symmetrized. An edge-free file is rejected. The file is read and checked
    whole; a malformed line is reported as ``path:line``.
    """
    text = _data_text(path)
    if text is None:
        _raise_first_error(path, _check_edge_line)
    if not text:
        raise ParseError(f"{path}: no edges found")
    # A missing label gets the next free index: the dict's size before insertion.
    interned: defaultdict[str, int] = defaultdict()
    interned.default_factory = interned.__len__
    ids = np.fromiter(map(interned.__getitem__, _fields(text)), dtype=np.int64)
    del text
    index = dict(interned)
    labels = list(index)
    indptr, indices = _csr(ids.reshape(-1, 2), len(labels), directed)
    return Graph(len(labels), directed, labels, indptr, indices, index)


def load_trend(path: str, graph: Graph) -> Trend:
    """Read a tab-separated action file: one ``node<TAB>timestamp`` per line.

    Same comment and blank-line rules as edge files. Unknown labels and
    non-numeric or non-finite timestamps are rejected with the offending
    line number.
    """
    text = _data_text(path)
    if text is not None:
        fields = list(_fields(text))
        nodes = np.fromiter(map(graph._label_index.get, fields[0::2], repeat(-1)), dtype=np.int64)
        try:
            times = np.fromiter(map(float, fields[1::2]), dtype=np.float64)
        except ValueError:
            times = None
        if times is not None and (nodes >= 0).all() and np.isfinite(times).all():
            return Trend(nodes, times)

    def check(where: str, raw: str, parts: list[str]) -> None:
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(f"{where}: expected 'node<TAB>timestamp', got {raw.rstrip()!r}")
        if parts[0] not in graph._label_index:
            raise UnknownNodeError(f"{where}: unknown node label {parts[0]!r}")
        try:
            t = float(parts[1])
        except ValueError:
            raise ParseError(f"{where}: bad timestamp {parts[1]!r}") from None
        if not math.isfinite(t):
            raise ParseError(f"{where}: non-finite timestamp {parts[1]!r}")

    _raise_first_error(path, check)


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
    keep, idx = grid.bin(trend.times)
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
    """Uniform random simple graph with exactly ``edge_count`` edges.

    The edges are ``edge_count`` distinct pair indices drawn without
    replacement, so every simple graph of that size is equally likely.
    """
    if node_count < 2:
        raise ValueError("need at least two nodes")
    limit = node_count * (node_count - 1) // (1 if directed else 2)
    if edge_count > limit:
        raise ValueError(f"edge_count {edge_count} exceeds maximum {limit}")
    rng = np.random.default_rng(seed)
    k = rng.choice(limit, size=edge_count, replace=False).astype(np.int64)
    n = node_count
    if directed:
        # Pair index k enumerates ordered pairs row by row, n - 1 per row,
        # skipping the diagonal.
        u, r = np.divmod(k, n - 1)
        v = r + (r >= u)
    else:
        # Pair index k enumerates the upper triangle row by row; row u starts
        # at u * (2n - u - 1) / 2 and holds the pairs (u, u+1) .. (u, n-1).
        rows = np.arange(n - 1, dtype=np.int64)
        starts = rows * (2 * n - rows - 1) // 2
        u = np.searchsorted(starts, k, side="right") - 1
        v = k - starts[u] + u + 1
    return Graph.from_edges(np.stack([u, v], axis=1), node_count, directed=directed)


def drop_edgeless_nodes(graph: Graph) -> Graph:
    """``graph`` without the nodes that have neither an in-edge nor an out-edge.

    An edge file cannot name such a node, so a trend that acts on one would
    not load back with the graph's written edges. The other nodes keep their
    order and labels; a graph without edgeless nodes is returned as is.
    """
    out_degree = np.diff(graph.indptr)
    has_edge = (out_degree + np.bincount(graph.indices, minlength=graph.node_count)) > 0
    if has_edge.all():
        return graph
    index = np.cumsum(has_edge) - 1
    src = np.repeat(np.arange(graph.node_count), out_degree)
    edges = np.stack([index[src], index[graph.indices]], axis=1)
    labels = [graph.labels[i] for i in np.flatnonzero(has_edge)]
    return Graph.from_edges(edges, len(labels), labels, graph.directed)
