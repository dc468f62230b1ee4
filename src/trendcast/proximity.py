"""Node-to-node proximity kernels.

A proximity row maps a source node to the influence weight it exerts on each
reachable node. Two kernels are provided: an exponentially decaying
shortest-path kernel and a restart random walk. Entries below a configurable
floor are dropped, which keeps rows sparse and bounds traversal depth.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import Graph

KINDS = ("shortest_path", "random_walk")
KIND_ALIASES = {"sp": "shortest_path", "rw": "random_walk"}

CACHE_FORMAT = "trendcast-prox-cache-v1"


class ConvergenceError(RuntimeError):
    """Random-walk fixed point failed to converge within the iteration cap."""


class MissingRowError(LookupError):
    """Row requested from a detached map that does not hold it."""


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
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", KIND_ALIASES.get(self.kind, self.kind))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS} (aliases sp, rw)")
        if self.b <= 0:
            raise ValueError("b must be positive")
        if not 0 < self.p < 1:
            raise ValueError("p must lie in (0, 1)")
        if not 0 < self.floor < 1:
            raise ValueError("floor must lie in (0, 1)")
        if self.rw_tolerance <= 0:
            raise ValueError("rw_tolerance must be positive")

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


def shortest_path_row(graph: Graph, source: int, config: ProximityConfig) -> dict[int, float]:
    """Scores exp(-b * hops) along out-edges; BFS stops once a hop level floors out."""
    scores = {source: 1.0}
    seen = {source}
    frontier = deque([source])
    hops = 0
    while frontier:
        hops += 1
        weight = math.exp(-config.b * hops)
        if weight < config.floor:
            break
        next_frontier: deque[int] = deque()
        while frontier:
            u = frontier.popleft()
            for v in graph.neighbors(u).tolist():
                if v not in seen:
                    seen.add(v)
                    scores[v] = weight
                    next_frontier.append(v)
        frontier = next_frontier
    return scores


def random_walk_row(graph: Graph, source: int, config: ProximityConfig) -> dict[int, float]:
    """Stationary mass of a restart walk from ``source``.

    Synchronous fixed-point iteration starting from all mass at the source.
    Dangling nodes hand their continuation mass back to the source, so the
    vector stays a probability distribution throughout.
    """
    n = graph.node_count
    out_deg = np.diff(graph.indptr).astype(np.float64)
    dangling = out_deg == 0
    safe_deg = np.where(dangling, 1.0, out_deg)
    edge_src = np.repeat(np.arange(n), np.diff(graph.indptr))
    pi = np.zeros(n)
    pi[source] = 1.0
    for _ in range(config.max_iterations):
        share = (1.0 - config.p) * pi / safe_deg
        nxt = np.bincount(graph.indices, weights=share[edge_src], minlength=n)
        nxt[source] += config.p + (1.0 - config.p) * pi[dangling].sum()
        if np.max(np.abs(nxt - pi)) < config.rw_tolerance:
            pi = nxt
            break
        pi = nxt
    else:
        raise ConvergenceError(
            f"random walk from node {source} did not converge within "
            f"{config.max_iterations} iterations (tolerance {config.rw_tolerance:g})"
        )
    keep = np.flatnonzero(pi >= config.floor)
    return {int(v): float(pi[v]) for v in keep}


def _compute_row(graph: Graph, source: int, config: ProximityConfig) -> dict[int, float]:
    if config.kind == "shortest_path":
        return shortest_path_row(graph, source, config)
    return random_walk_row(graph, source, config)


def graph_fingerprint(graph: Graph) -> str:
    digest = hashlib.sha256()
    digest.update(graph.indptr.tobytes())
    digest.update(graph.indices.tobytes())
    digest.update("\n".join(graph.labels).encode("utf-8"))
    digest.update(b"directed" if graph.directed else b"undirected")
    return digest.hexdigest()[:16]


@dataclass
class ProximityMap:
    """Lazy per-source row cache over a graph and kernel config.

    Rows are computed on first demand and memoized. A map loaded from a cache
    file without a graph is detached: it only serves the rows it holds.
    """

    graph: Graph | None
    config: ProximityConfig
    _rows: dict[int, dict[int, float]] = field(default_factory=dict, repr=False)
    _row_sums: dict[int, float] = field(default_factory=dict, repr=False)

    def row(self, source: int) -> dict[int, float]:
        cached = self._rows.get(source)
        if cached is not None:
            return cached
        if self.graph is None:
            raise MissingRowError(f"row for node {source} not present in detached proximity map")
        computed = self._rows[source] = _compute_row(self.graph, source, self.config)
        return computed

    def row_sum(self, source: int) -> float:
        cached = self._row_sums.get(source)
        if cached is None:
            cached = self._row_sums[source] = float(sum(self.row(source).values()))
        return cached

    def fingerprint(self) -> dict:
        data = self.config.to_dict()
        if self.graph is not None:
            data["graph"] = graph_fingerprint(self.graph)
        return data

    def save_cache(self, path: str) -> None:
        """Persist computed rows as JSON lines behind a fingerprint header."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {"format": CACHE_FORMAT, "fingerprint": self.fingerprint()}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for source in sorted(self._rows):
                row = self._rows[source]
                targets = sorted(row)
                record = {
                    "source": source,
                    "targets": targets,
                    "scores": [row[t] for t in targets],
                }
                fh.write(json.dumps(record) + "\n")

    @classmethod
    def load_cache(
        cls,
        path: str,
        graph: Graph | None = None,
        config: ProximityConfig | None = None,
    ) -> ProximityMap:
        """Load a cache file; fingerprint must match the supplied graph and config."""
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            if header.get("format") != CACHE_FORMAT:
                raise ValueError(f"{path}: not a proximity cache file")
            stored = dict(header["fingerprint"])
            stored_graph = stored.pop("graph", None)
            file_config = ProximityConfig.from_dict(stored)
            if config is not None and config.to_dict() != file_config.to_dict():
                raise ValueError(f"{path}: cache was built with a different proximity config")
            if graph is not None and stored_graph is not None and stored_graph != graph_fingerprint(graph):
                raise ValueError(f"{path}: cache was built for a different graph")
            prox = cls(graph, file_config)
            for line in fh:
                record = json.loads(line)
                row = dict(zip(record["targets"], record["scores"]))
                prox._rows[record["source"]] = row
        return prox
