"""Core containers and file formats: graphs, action sequences, interval grids.

A trend is a time-ordered sequence of (node, timestamp) actions. All graph
nodes carry dense integer indices internally; string labels only appear at
file boundaries.

The trend measures are computed here, each one way: ``aggregate`` counts a
trend's intensity and coverage on a grid, and ``longest_run_above`` is the
duration rule, applied to one series or to a stack of per-run series. The
forecast's duration vote and the evaluation's true flag both read it.

Graph and action files are read as bytes with numpy. A file with no CR, no
comment or blank line, and no line that starts or ends with whitespace or a
non-ASCII byte is split as it is; any other file is first cleaned as text,
line by line, and both forms give the same fields. Labels are interned by
sorting their bytes packed into 8-byte words. A loaded graph keeps only its
distinct labels' packed keys: ``Graph.labels`` is decoded from them on the
first read, and the ``label -> index`` dict is built on first use, so the
commands that never name a node (learn, predict, eval) decode no label.
``write_trend`` decodes the labels of the nodes it writes and no other. A
trend's node fields are packed the same way and found among the graph's
keys in numpy, so no label of a trend is looked up as a ``str``. A
malformed file is read again line by line to report its first bad line as
``path:line``.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NoReturn

import numpy as np

MEASURES = ("intensity", "coverage")


class ParseError(ValueError):
    """Malformed input file; message carries path and line number."""


class UnknownNodeError(ValueError):
    """Action references a node label absent from the graph."""


class _DecodedOnRead:
    """``Graph.labels``: a label list given to the constructor is kept as it is; packed labels are decoded on the first read.

    A descriptor without ``__set__``, so a list stored in the instance's
    ``__dict__`` (by ``__init__`` or by the first read) is found before it.
    """

    def __get__(self, graph: Graph | None, owner: type | None = None) -> list[str]:
        if graph is None:
            # No value on the class, so the dataclass field has no default.
            raise AttributeError("labels")
        labels = graph.__dict__["labels"] = graph._keys.decode()
        return labels


@dataclass
class Graph:
    """Immutable graph over dense node indices 0..node_count-1.

    Adjacency is stored CSR-style (``indptr``, ``indices``), deduplicated and,
    for undirected graphs, symmetrized at construction. ``indices`` holds
    out-neighbors when the graph is directed. Both arrays are made read-only
    at construction, so what is derived from them, such as ``adjacency``,
    stays valid for the graph's lifetime.

    ``labels`` is a list of distinct strings, or ``load_graph``'s packed
    label keys (``_LabelKeys``). Packed labels are decoded on the first read
    of ``labels``; a graph given a list packs it on the first ``load_trend``.
    Either way the ``label -> index`` dict behind ``index_of`` is built on
    first use, except that a given list is checked at construction for its
    length and for repeats, which builds the dict.
    """

    node_count: int
    directed: bool
    labels: list[str] = _DecodedOnRead()  # a required field: the descriptor gives no default
    indptr: np.ndarray
    indices: np.ndarray
    _adjacency: tuple[array.array, list[int]] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = self.__dict__["labels"]
        if len(labels) != self.node_count:
            raise ValueError(f"{len(labels)} node labels given for {self.node_count} nodes")
        if isinstance(labels, _LabelKeys):
            # Distinct by construction; the list is decoded on the first read.
            del self.__dict__["labels"]
            self._keys = labels
        else:
            self._label_index = dict(zip(labels, range(len(labels))))
            if len(self._label_index) != self.node_count:
                raise ValueError("node labels are not unique")
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return dict(zip(self.labels, range(self.node_count)))

    @cached_property
    def _keys(self) -> _LabelKeys:
        return _LabelKeys.pack(self.labels)

    def __eq__(self, other: object) -> bool:
        """Equal node count, direction, labels and CSR arrays, compared by value."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.directed == other.directed
            and self.labels == other.labels
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

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

    def _labels_of(self, nodes: np.ndarray) -> list[str]:
        """The labels of the distinct ``nodes``, in order; packed labels not yet decoded stay packed."""
        if "labels" in self.__dict__:
            labels = self.labels
            return [labels[u] for u in nodes.tolist()]
        return self._keys.decode(nodes)

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
    # One sorted key per edge orders edges by (src, dst); dropping a key equal
    # to its predecessor dedups. np.unique would hash instead, which is far
    # slower on int64 keys. The steps work in place where they can, so the
    # peak memory is about two key arrays.
    src, dst = edges[:, 0], edges[:, 1]
    key = src * node_count
    key += dst
    if not directed:
        back = dst * node_count
        back += src
        key = np.concatenate([key, back])
        del back
    key.sort()
    fresh = np.empty(key.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    key = key[fresh]
    del fresh
    src = key // node_count
    key -= src * node_count  # each edge's target
    indptr = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])
    return indptr, key


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
        try:
            t_end = self.t_start + self.count * self.interval_length
        except OverflowError:  # a count past the float range
            t_end = math.inf
        if not math.isfinite(t_end):
            raise ValueError(f"grid end t_start + count * interval_length overflows at count {self.count}")
        try:
            edges = self.edges
        except MemoryError:
            raise ValueError(f"grid of {self.count} intervals is too large: its edges do not fit in memory") from None
        if not (np.diff(edges) > 0.0).all():
            raise ValueError(
                f"grid edges must increase, but interval_length {self.interval_length!r} "
                f"is lost to rounding at t_start {self.t_start!r}"
            )

    @property
    def edges(self) -> np.ndarray:
        return self.t_start + np.arange(self.count + 1) * self.interval_length

    @property
    def t_end(self) -> float:
        return float(self.edges[-1])

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


# Bytes that str.strip() removes, and every non-ASCII byte (a character
# such as U+2028 or U+00A0 is also whitespace): a line that ends in one needs
# the str cleaning, and so does a line that starts with one or with '#'.
_UNCLEAN_END = np.array([b >= 0x80 or chr(b).isspace() for b in range(256)])
_UNCLEAN_START = _UNCLEAN_END | (np.arange(256) == ord("#"))


def _split_lines(text: str) -> list[str]:
    """The lines of ``text``: CRLF and lone CR end a line, as in text mode.

    Lines are split on LF alone, as iterating a file does: splitlines() also
    breaks at characters such as \x1c or \u2028, which would shift line
    numbers.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read_bytes(path: str) -> bytes:
    """The bytes of a UTF-8 text file; a byte that is not UTF-8 raises ParseError naming ``path:line``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len(_split_lines(data[: exc.start].decode("utf-8")))
            raise ParseError(f"{path}:{line}: not valid UTF-8") from None
    return data


def _read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file, split as ``_split_lines`` does."""
    return _split_lines(_read_bytes(path).decode("utf-8"))


def _read_fields(path: str, check: Callable[[str, str, list[str]], None]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The data fields of a two-column file as ``(buf, starts, lengths)``.

    Data lines are those left non-blank and not starting with ``#`` once
    surrounding whitespace is stripped. ``buf`` holds them joined by LF,
    then 8 more bytes; fields ``2k`` and ``2k + 1`` are the two sides of data
    line k, field i being ``buf[starts[i]:starts[i] + lengths[i]]``. When a
    data line has other than exactly two non-empty tab-separated fields,
    ``_raise_first_error(path, check)`` reports the first bad line.
    """
    data = _read_bytes(path)
    if b"\r" not in data:
        # A file whose lines need no stripping and hold no comment or blank
        # line is its own data: split its bytes as they are.
        fields = _split_fields(data, len(data) - data.endswith(b"\n"))
        if fields is not None:
            buf, starts, lengths = fields
            line_ends = starts[1::2] + lengths[1::2] - 1
            if not (_UNCLEAN_START[buf[starts[0::2]]].any() or _UNCLEAN_END[buf[line_ends]].any()):
                return fields
            del fields, buf, starts, lengths, line_ends
    lines = [s for s in map(str.strip, _split_lines(data.decode("utf-8"))) if s and s[0] != "#"]
    del data
    body = "\n".join(lines).encode("utf-8")
    del lines
    fields = _split_fields(body, len(body))
    if fields is None:
        _raise_first_error(path, check)
    return fields


def _split_fields(data: bytes, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(buf, starts, lengths)`` of the LF-separated lines ``data[:n]``; None unless each holds exactly one tab.

    A line that holds one tab and neither starts nor ends with whitespace
    has two non-empty fields.
    """
    buf = np.frombuffer(data + bytes(8), dtype=np.uint8)
    # Offsets take half the memory as int32, which holds any offset of a file under 2 GiB.
    offset = np.int32 if buf.size < 2**31 else np.int64
    if not n:
        return buf, np.empty(0, dtype=offset), np.empty(0, dtype=offset)
    is_sep = buf[:n] == 9
    is_sep |= buf[:n] == 10
    seps = np.flatnonzero(is_sep).astype(offset)
    del is_sep
    kinds = buf[seps]
    # Tab, LF, tab, ..., LF, tab is exactly one tab on each line.
    if seps.size % 2 == 0 or not ((kinds[0::2] == 9).all() and (kinds[1::2] == 10).all()):
        return None
    starts = np.empty(seps.size + 1, dtype=offset)
    starts[0] = 0
    np.add(seps, 1, out=starts[1:])
    lengths = np.empty_like(starts)
    lengths[:-1] = seps
    lengths[-1] = n
    lengths -= starts
    return buf, starts, lengths


def _field_keys(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Yield ``(w, sel, keys)`` for each word count ``w`` of the given fields: the fields' keys, as ``w`` int64 arrays.

    ``sel`` indexes the fields of ``w`` words, or is None when every field
    has ``w`` words. A field's key is its bytes as little-endian 8-byte
    words, ``length // 8 + 1`` of them, zero-padded; the top byte of the last
    word, past the field's end, holds ``length % 8``. Two fields with as many
    words have equal keys exactly when their bytes are equal, and a key holds
    all of its field's bytes. ``buf`` ends with 8 bytes past the last field.
    """
    if not lengths.size:
        return
    # windows[i] is the word of bytes i..i+7: an unaligned view, no copy. The
    # words are signed so that they sort and compare in the numpy loops the
    # package's other int64 keys use: a uint64 sort maps about 0.1 MB more
    # of numpy's code into every process.
    windows = np.ndarray((buf.size - 7,), dtype="<i8", buffer=buf, strides=(1,))
    if lengths.max() < 8:
        # Every field fits one word, as short labels do: no count to take.
        words = counts = None
        sizes = [1]
    else:
        words = (lengths >> 3) + 1
        counts = np.bincount(words)
        sizes = np.flatnonzero(counts).tolist()
    for w in sizes:
        sel = np.flatnonzero(words == w) if counts is not None and counts[w] < words.size else None
        s, n = (starts, lengths) if sel is None else (starts[sel], lengths[sel])
        keys = [windows[s + 8 * j] for j in range(w)]
        # The last word keeps its low ``n % 8`` bytes and holds that count in its top byte.
        bits = np.bitwise_and(n, 7, dtype=np.int64)
        bits <<= 3
        low = np.left_shift(1, bits)
        low -= 1
        keys[-1] &= low
        bits <<= 53
        keys[-1] |= bits
        del s, n, bits, low
        yield w, sel, keys


def _intern(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, _LabelKeys]:
    """Each field's label id, ids numbered in order of first appearance, and the labels' packed keys.

    One sort per word count of the fields' keys (``_field_keys``: argsort of
    one word, or lexsort of several) groups the fields by label, in memory
    about the size of the file.
    """
    order_parts, fresh_parts, known = [], [], {}
    for w, sel, keys in _field_keys(buf, starts, lengths):
        order = np.argsort(keys[0]) if w == 1 else np.lexsort(keys)
        fresh = np.zeros(order.size, dtype=bool)
        fresh[0] = True
        for key in keys:
            key = key[order]
            fresh[1:] |= key[1:] != key[:-1]
        del key
        known[w] = [key[order[np.flatnonzero(fresh)]] for key in keys]
        order_parts.append(order if sel is None else sel[order])
        fresh_parts.append(fresh)
    order = np.concatenate(order_parts)
    # group[k]: the label of the field at order[k], labels numbered in key order
    group = np.concatenate(fresh_parts).astype(np.int64)
    del order_parts, fresh_parts
    np.cumsum(group, out=group)
    group -= 1
    first = np.full(int(group[-1]) + 1, order.size, dtype=np.int64)
    np.minimum.at(first, group, order)
    # Fields where a label first appears, in file order, are ids 0, 1, ...
    label = np.empty(first.size, dtype=np.int64)
    label[np.argsort(first)] = np.arange(first.size)
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = label[group]
    # The groups run word count by word count, in key order within each.
    bounds = np.cumsum([0] + [keys[0].size for keys in known.values()]).tolist()
    packed = {w: (keys, label[a:b]) for (w, keys), a, b in zip(known.items(), bounds, bounds[1:])}
    return ids, _LabelKeys(packed, label.size)


class _LabelKeys:
    """Distinct labels packed into keys, as ``_field_keys`` packs fields, and the node of each.

    ``groups[w]`` is ``(keys, nodes)`` for the labels of ``w`` words: ``w``
    int64 arrays holding the keys in ``np.lexsort`` order (ascending when
    ``w`` is 1), and an int64 array of their nodes. A key holds every byte
    of its label, so the keys are the only copy of the labels a loaded graph
    keeps.
    """

    def __init__(self, groups: dict[int, tuple[list[np.ndarray], np.ndarray]], count: int) -> None:
        self.groups = groups
        self.count = count

    def __len__(self) -> int:
        return self.count

    @classmethod
    def pack(cls, labels: list[str]) -> _LabelKeys:
        """The keys of a list of distinct labels, label i being node i."""
        if not labels:
            return cls({}, 0)
        # A lone surrogate cannot be UTF-8 and no file field matches it; its
        # bytes still give it a key of its own.
        encoded = [label.encode("utf-8", "surrogatepass") for label in labels]
        lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
        starts = np.cumsum(lengths) - lengths
        buf = np.frombuffer(b"".join(encoded) + bytes(8), dtype=np.uint8)
        return _intern(buf, starts, lengths)[1]

    def decode(self, nodes: np.ndarray | None = None) -> list[str]:
        """The labels of the distinct ``nodes`` as strings, in order; every label, in node order, when None."""
        count = self.count if nodes is None else len(nodes)
        if not count:
            return []
        if nodes is not None:
            slot = np.full(self.count, -1, dtype=np.int64)
            slot[nodes] = np.arange(count)
        parts, done = [], 0
        starts = np.empty(count, dtype=np.int64)
        lengths = np.empty(count, dtype=np.int64)
        for w, (keys, ids) in self.groups.items():
            # ids: each key's place in the output
            if nodes is not None:
                ids = slot[ids]
                picked = np.flatnonzero(ids >= 0)
                keys, ids = [key[picked] for key in keys], ids[picked]
            # Row r of the (n, w) stack holds label r's bytes, then its padding.
            parts.append(np.stack(keys, axis=1).astype("<i8", copy=False).view(np.uint8).reshape(-1))
            starts[ids] = np.arange(done, done + 8 * w * ids.size, 8 * w)
            lengths[ids] = (keys[-1] >> 56) + 8 * (w - 1)
            done += 8 * w * ids.size
        return _decode(np.concatenate(parts), starts, lengths)

    def find(self, buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
        """The node each given field of ``buf`` names, or None when some field names no node."""
        nodes = np.empty(starts.size, dtype=np.int64)
        for w, sel, keys in _field_keys(buf, starts, lengths):
            if w not in self.groups:
                return None
            known, ids = self.groups[w]
            if w == 1:
                known, keys = known[0], keys[0]
            else:
                known, keys = _sortable_rows(known), _sortable_rows(keys)
            # Sorted needles search in about half the time of a trend's own order.
            order = np.argsort(keys)
            keys = keys[order]
            # The only key that can equal a field's is the first one not
            # below it; past the next-to-last key, that is the last.
            at = known[:-1].searchsorted(keys)
            if not (known[at] == keys).all():
                return None
            nodes[order if sel is None else sel[order]] = ids[at]
        return nodes


def _sortable_rows(keys: list[np.ndarray]) -> np.ndarray:
    """Row i of the ``w`` key words as one ``8 * w``-byte string; the strings sort as ``np.lexsort(keys)`` orders the rows.

    The words go last one first, big-endian and with the sign bit flipped,
    so that comparing the strings byte by byte compares the signed words.
    """
    rows = np.stack(keys[::-1], axis=1)
    rows ^= np.iinfo(np.int64).min
    return rows.astype(">i8").view(f"S{8 * len(keys)}").ravel()


def _decode(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> list[str]:
    """The given fields of ``buf`` as strings, decoded once as one tab-joined buffer."""
    if not starts.size:
        return []
    # Each field is gathered with the byte after it, which becomes the tab.
    spans = lengths + 1
    ends = np.cumsum(spans, dtype=np.int64)
    index = np.repeat(starts - ends + spans, spans)
    index += np.arange(ends[-1], dtype=index.dtype)
    joined = buf[index]
    del index
    joined[ends - 1] = 9
    return joined[:-1].tobytes().decode("utf-8").split("\t")


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
    buf, starts, lengths = _read_fields(path, _check_edge_line)
    if not starts.size:
        raise ParseError(f"{path}: no edges found")
    ids, keys = _intern(buf, starts, lengths)
    del buf, starts, lengths
    indptr, indices = _csr(ids.reshape(-1, 2), len(keys), directed)
    return Graph(len(keys), directed, keys, indptr, indices)


def load_trend(path: str, graph: Graph) -> Trend:
    """Read a tab-separated action file: one ``node<TAB>timestamp`` per line.

    Same comment and blank-line rules as edge files. Unknown labels and
    non-numeric or non-finite timestamps are rejected with the offending
    line number. The node fields are found among the graph's packed label
    keys (``_LabelKeys.find``), so loading a trend decodes no graph label.
    """

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

    buf, starts, lengths = _read_fields(path, check)
    nodes = graph._keys.find(buf, starts[0::2], lengths[0::2])
    if nodes is None:
        _raise_first_error(path, check)
    # Up to the end of its last field, buf holds the fields each followed by
    # one tab or LF; splitting its text costs less than gathering the
    # timestamp column's bytes, at every trend size measured.
    end = int(starts[-1] + lengths[-1]) if starts.size else 0
    stamps = buf[:end].tobytes().decode("utf-8").replace("\n", "\t").split("\t")[1::2]
    try:
        times = np.fromiter(map(float, stamps), dtype=np.float64)
    except ValueError:
        _raise_first_error(path, check)
    if not np.isfinite(times).all():
        _raise_first_error(path, check)
    return Trend(nodes, times)


_WRITE_LINES = 1 << 16


def write_trend(path: str, trend: Trend, graph: Graph) -> None:
    """Write one ``label<TAB>timestamp`` line per action, the timestamp exactly, with ``repr``.

    Only the labels of the acting nodes are looked up: a loaded graph whose
    labels are still packed decodes just these (``Graph._labels_of``).
    """
    nodes, inverse = np.unique(trend.nodes, return_inverse=True)
    labels = graph._labels_of(nodes)
    with open(path, "w", encoding="utf-8") as fh:
        # One write per block of lines keeps a long run's text, and its
        # Python objects, to a block at a time.
        for lo in range(0, len(trend), _WRITE_LINES):
            hi = lo + _WRITE_LINES
            fh.write("".join(f"{labels[k]}\t{t!r}\n" for k, t in zip(inverse[lo:hi].tolist(), trend.times[lo:hi].tolist())))


def write_graph(path: str, graph: Graph) -> None:
    """Write the edge file back out; undirected edges appear once, canonically."""
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(graph.node_count):
            for v in graph.neighbors(u).tolist():
                if graph.directed or u <= v:
                    fh.write(f"{graph.labels[u]}\t{graph.labels[v]}\n")


def aggregate(trend: Trend, grid: IntervalGrid) -> AggregateSeries:
    """Bucket actions into the grid; actions outside [t_start, t_end) are ignored.

    Coverage counts the distinct (interval, node) pairs of each interval,
    keyed ``interval * span + node`` with span = max node + 1, so one
    integer ``unique`` finds them.
    """
    keep, idx = grid.bin(trend.times)
    inten = np.bincount(idx, minlength=grid.count).astype(np.int64)
    nodes = trend.nodes[keep]
    span = int(nodes.max(initial=0)) + 1
    cells = np.unique(idx * span + nodes)
    cov = np.bincount(cells // span, minlength=grid.count).astype(np.int64)
    return AggregateSeries(grid, inten, cov)


def longest_run_above(values: np.ndarray, theta: float) -> int | np.ndarray:
    """Length of the longest run of consecutive entries strictly above theta, along the last axis.

    A 1-D input gives an int; a stack of series gives one length per series.
    """
    above = np.asarray(values) > theta
    position = np.arange(1, above.shape[-1] + 1)
    # The run ending at each entry starts after the latest entry not above theta.
    runs = position - np.maximum.accumulate(np.where(above, 0, position), axis=-1)
    best = runs.max(axis=-1, initial=0)
    return int(best) if best.ndim == 0 else best


def check_measure(measure: str) -> None:
    """Raise ValueError unless ``measure`` names a series of ``AggregateSeries``."""
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")


def duration(series: AggregateSeries, theta: float, measure: str = "coverage") -> int:
    """Longest stretch of consecutive intervals whose measure exceeds theta."""
    check_measure(measure)
    return longest_run_above(getattr(series, measure), theta)


def write_aggregate_csv(path: str, series: AggregateSeries) -> None:
    """Write 'interval_index,t_min,t_max,intensity,coverage' rows; the bounds exactly, with ``repr``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("interval_index,t_min,t_max,intensity,coverage\n")
        edges = series.grid.edges.tolist()  # once: each ``edges`` read builds the whole array
        for i in range(series.grid.count):
            fh.write(f"{i},{edges[i]!r},{edges[i + 1]!r},{series.intensity[i]},{series.coverage[i]}\n")


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
