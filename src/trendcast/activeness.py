"""Per-node activeness: an exponentially decaying action rate.

Every action (u, t_i) raises the activeness of each node v by
alpha * prox(u, v); between actions the rate relaxes toward zero with time
constant tau. Each node additionally carries a residual rate epsilon from t0
that decays the same way, so nodes with no influence history can still act.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Mapping

from .core import Trend
from .proximity import ProximityConfig, ProximityMap

# exp(-x) underflows to 0.0 well before x = 745; skipping past this point
# avoids churning on dead terms.
DECAY_CUTOFF = 700.0


@dataclass(frozen=True)
class ActivenessParams:
    """Model parameters: jump scale alpha, decay constant tau, residual epsilon from t0."""

    alpha: float
    tau: float
    epsilon: float = 1e-9
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "tau": self.tau, "epsilon": self.epsilon, "t0": self.t0}


def save_params(path: str, params: ActivenessParams, prox_config: ProximityConfig) -> None:
    data = params.to_dict()
    data["proximity"] = prox_config.to_dict()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_params(path: str) -> tuple[ActivenessParams, ProximityConfig]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    prox_data = data.pop("proximity")
    _reject_unknown_keys(path, data, ActivenessParams, "")
    _reject_unknown_keys(path, prox_data, ProximityConfig, "proximity.")
    return ActivenessParams(**data), ProximityConfig.from_dict(prox_data)


def _reject_unknown_keys(path: str, data: dict, cls: type, prefix: str) -> None:
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        names = ", ".join(repr(prefix + key) for key in unknown)
        raise ValueError(f"{path}: unknown parameter key {names}")


def _decay(dt: float, tau: float) -> float:
    x = dt / tau
    return 0.0 if x > DECAY_CUTOFF else math.exp(-x)


@dataclass
class ActivenessModel:
    """Activeness queries against an observed action prefix."""

    trend: Trend
    prox: ProximityMap
    params: ActivenessParams

    def decayed_influence(self, node: int, t: float) -> float:
        """Sum of prox(u, node) * exp(-(t - t_i)/tau) over actions with t_i <= t."""
        total = 0.0
        for u, t_i in self.trend.prefix(t):
            score = self.prox.row(u).get(node)
            if score:
                total += score * _decay(t - t_i, self.params.tau)
        return total

    def integrated_influence(self, node: int, t: float) -> float:
        """Integral of decayed_influence from each action time up to t."""
        tau = self.params.tau
        total = 0.0
        for u, t_i in self.trend.prefix(t):
            score = self.prox.row(u).get(node)
            if score:
                total += score * (1.0 - _decay(t - t_i, tau))
        return tau * total

    def activeness(self, node: int, t: float) -> float:
        """Instantaneous action rate of ``node`` at time t."""
        params = self.params
        residual = params.epsilon * _decay(t - params.t0, params.tau)
        return params.alpha * self.decayed_influence(node, t) + residual


def total_integrated_influence(
    trend: Trend,
    tau: float,
    t_star: float,
    row_sums: Mapping[int, float],
) -> float:
    """Sum over all nodes of the influence integral up to t_star.

    Folding the node sum into precomputed proximity row sums turns the
    all-nodes double loop into a single pass over the observed actions.
    """
    total = 0.0
    for u, t_i in trend.prefix(t_star):
        try:
            rs = row_sums[u]
        except KeyError:
            raise LookupError(f"row sum for acting node {u} was not precomputed") from None
        total += rs * (1.0 - _decay(t_star - t_i, tau))
    return tau * total
