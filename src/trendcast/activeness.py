"""Parameters of per-node activeness, an exponentially decaying action rate.

Every action (u, t_i) raises the activeness of each node v by
alpha * prox(u, v); between actions the rate relaxes toward zero with time
constant tau. Each node additionally carries a residual rate epsilon from t0
that decays the same way, so nodes with no influence history can still act.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .proximity import ProximityConfig

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
