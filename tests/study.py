"""A planted self-exciting trend drawn with plain numpy, for recovery criteria.

The sampler is independent of ``trendcast.simulation``: a change to the
shipped sampler's random stream cannot change the data a criterion reads.
Seeds act at t0 = 0; every action (v, t) has Poisson(alpha * tau *
row_sum(v)) children, each after an Exp(tau) delay, at a target of v's row
drawn in proportion to its score; children past the horizon are dropped.
"""

from __future__ import annotations

import numpy as np

from trendcast.core import Trend, random_graph
from trendcast.proximity import ProximityConfig, ProximityMap

# The probe setup: a 1,000-node graph of 3,000 edges, sp rows at b = 3,
# alpha 0.4, tau 1.0 and 150 seeds, observed up to t* = 2.
PROBE = {"nodes": 1000, "edges": 3000, "graph_seed": 3, "b": 3.0,
         "alpha": 0.4, "tau": 1.0, "n_seeds": 150, "t_star": 2.0}


def planted_trend(prox: ProximityMap, alpha: float, tau: float, n_seeds: int, horizon: float,
                  seed: int) -> Trend:
    """Seeds at t = 0 and their descendants before ``horizon``, one generation at a time."""
    rng = np.random.default_rng(seed)
    n = prox.graph.node_count
    nodes = rng.choice(n, size=n_seeds, replace=False)
    times = np.zeros(n_seeds)
    all_nodes, all_times = [nodes], [times]
    while len(nodes):
        row_start, targets, scores = prox.gather(nodes)
        rows = [slice(a, b) for a, b in zip(row_start[:-1].tolist(), row_start[1:].tolist())]
        mass = np.asarray([scores[row].sum() for row in rows])
        counts = rng.poisson(alpha * tau * mass)
        parent = np.repeat(np.arange(len(nodes)), counts)
        child_times = times[parent] + rng.exponential(tau, len(parent))
        child_nodes = np.asarray([rng.choice(targets[rows[k]], p=scores[rows[k]] / mass[k]) for k in parent.tolist()],
                                 dtype=np.int64)
        keep = child_times < horizon
        nodes, times = child_nodes[keep], child_times[keep]
        all_nodes.append(nodes)
        all_times.append(times)
    return Trend(np.concatenate(all_nodes), np.concatenate(all_times))


def probe_setup() -> ProximityMap:
    """The probe graph's shortest-path map at its b."""
    graph = random_graph(PROBE["nodes"], PROBE["edges"], seed=PROBE["graph_seed"])
    return ProximityMap(graph, ProximityConfig(kind="sp", b=PROBE["b"]))
