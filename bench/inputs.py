"""Seeded input generators for the benchmark workloads.

Every input file is made here from the workload's seed with plain numpy, so
the program under test only ever sees the generated files. The library's own
generators (``random_graph``, ``generate_synthetic``) are deliberately not
used: their per-seed output may change between versions, which would
silently change every workload's inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

# File names inside a workload's input directory.
GRAPH = "graph.tsv"
LEARN = "learn.tsv"
PREFIX = "prefix.tsv"
TRUTH = "truth.tsv"
PARAMS = "params.json"
INPUT_FILES = (GRAPH, LEARN, PREFIX, TRUTH, PARAMS)


@dataclass(frozen=True)
class Inputs:
    """Generated arrays, in the benchmark's own node numbering (label ``u<i>``)."""

    edges: np.ndarray  # (m, 2) int64, i < j
    learn_nodes: np.ndarray
    learn_times: np.ndarray
    prefix_nodes: np.ndarray
    prefix_times: np.ndarray
    truth_nodes: np.ndarray
    truth_times: np.ndarray
    params: dict


def sample_edges(rng: np.random.Generator, nodes: int, edges: int) -> np.ndarray:
    """``edges`` distinct undirected pairs i < j, drawn without replacement."""
    total = nodes * (nodes - 1) // 2
    if not 0 < edges <= total:
        raise ValueError(f"cannot draw {edges} edges on {nodes} nodes")
    k = np.sort(rng.choice(total, size=edges, replace=False)).astype(np.int64)
    # Pair index k enumerates the upper triangle row by row; row i starts at
    # start(i) = i * (2n - i - 1) / 2. Invert with a float estimate, then
    # correct the estimate by at most one row either way in integers.
    n = nodes

    def start(i: np.ndarray) -> np.ndarray:
        return i * (2 * n - i - 1) // 2

    b = 2 * n - 1
    i = np.floor((b - np.sqrt(b * b - 8.0 * k)) / 2.0).astype(np.int64)
    i = np.clip(i, 0, n - 2)
    i = np.where(start(i) > k, i - 1, i)
    i = np.where(start(i + 1) <= k, i + 1, i)
    j = k - start(i) + i + 1
    return np.stack([i, j], axis=1)


def uniform_actions(
    rng: np.random.Generator, actors: np.ndarray, count: int, t_lo: float, t_hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` actions by uniformly drawn actors at uniform times in [t_lo, t_hi).

    Times are stratified: one uniform draw in each of ``count`` equal slices.
    The marginal law stays uniform, but how recent the last actions are, and
    with it the load of a forecast, varies much less from seed to seed.
    """
    nodes = rng.choice(actors, size=count)
    times = t_lo + (np.arange(count) + rng.uniform(size=count)) * ((t_hi - t_lo) / count)
    return nodes, np.minimum(times, np.nextafter(t_hi, t_lo))


def generate(spec, seed: int) -> Inputs:
    """All inputs of one workload; the same (spec, seed) gives the same arrays."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(spec.key,)))
    edges = sample_edges(rng, spec.nodes, spec.edges)
    # Only nodes that appear in the edge file exist for the program.
    actors = np.unique(edges)
    learn = uniform_actions(rng, actors, spec.learn_actions, 0.0, spec.t_star)
    prefix = uniform_actions(rng, actors, spec.prefix_actions, 0.0, spec.t_star)
    future = uniform_actions(rng, actors, spec.future_actions, spec.t_star, spec.grid_end)
    params = {
        "alpha": spec.alpha,
        "tau": spec.tau,
        "epsilon": 1e-9,
        "t0": 0.0,
        "proximity": spec.prox_config(),
    }
    return Inputs(
        edges=edges,
        learn_nodes=learn[0],
        learn_times=learn[1],
        prefix_nodes=prefix[0],
        prefix_times=prefix[1],
        truth_nodes=np.concatenate([prefix[0], future[0]]),
        truth_times=np.concatenate([prefix[1], future[1]]),
        params=params,
    )


def _actions_text(nodes: np.ndarray, times: np.ndarray) -> str:
    return "".join(f"u{v}\t{t!r}\n" for v, t in zip(nodes.tolist(), times.tolist()))


def write(inputs: Inputs, directory: str) -> str:
    """Write every input file into ``directory``; returns a hash of their bytes."""
    os.makedirs(directory, exist_ok=True)
    texts = {
        GRAPH: "".join(f"u{i}\tu{j}\n" for i, j in inputs.edges.tolist()),
        LEARN: _actions_text(inputs.learn_nodes, inputs.learn_times),
        PREFIX: _actions_text(inputs.prefix_nodes, inputs.prefix_times),
        TRUTH: _actions_text(inputs.truth_nodes, inputs.truth_times),
        # The format ``save_params`` writes.
        PARAMS: json.dumps(inputs.params, indent=2, sort_keys=True) + "\n",
    }
    digest = hashlib.sha256()
    for name in INPUT_FILES:
        data = texts[name].encode("utf-8")
        digest.update(name.encode("utf-8") + b"\0" + data)
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)
    return digest.hexdigest()[:16]


def later_pairs(nodes: list[int], node_count: int, row_targets) -> int:
    """Number of (earlier j, later i) action pairs with node_i in row(node_j).

    ``row_targets(u)`` returns the target indices of u's proximity row. This
    is the size of the pair table the likelihood builds.
    """
    seen_after = np.zeros(node_count, dtype=np.int64)
    pairs = 0
    for u in reversed(nodes):
        pairs += int(seen_after[row_targets(u)].sum())
        seen_after[u] += 1
    return pairs
