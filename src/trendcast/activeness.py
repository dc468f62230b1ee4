"""Parameters of per-node activeness, an exponentially decaying action rate.

Every action (u, t_i) raises the activeness of each node v by
alpha * prox(u, v); between actions the rate relaxes toward zero with time
constant tau. Each node additionally carries a residual rate epsilon from t0
that decays the same way, so nodes with no influence history can still act.
Every decay is a plain ``exp``, with no cutoff, in the likelihood and the
sampler alike: past about 745 time constants it reaches 0.0 by itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .proximity import ProximityConfig


@dataclass(frozen=True)
class ActivenessParams:
    """Model parameters: jump scale alpha, decay constant tau, residual epsilon from t0."""

    alpha: float
    tau: float
    epsilon: float = 1e-9
    t0: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau!r}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be non-negative and finite, got {self.epsilon!r}")
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0!r}")

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "tau": self.tau, "epsilon": self.epsilon, "t0": self.t0}


def save_params(path: str, params: ActivenessParams, prox_config: ProximityConfig) -> None:
    data = params.to_dict()
    data["proximity"] = prox_config.to_dict()
    # Strict JSON, serialized in full first: a non-finite value writes no file.
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_params(path: str) -> tuple[ActivenessParams, ProximityConfig]:
    """Read a ``save_params`` file; malformed content raises ValueError naming ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or not isinstance(data.get("proximity"), dict):
            raise ValueError("expected a JSON object with a 'proximity' object")
        prox_data = data.pop("proximity")
        _check_keys(data, ActivenessParams, "")
        _check_keys(prox_data, ProximityConfig, "proximity.")
        return ActivenessParams(**data), ProximityConfig.from_dict(prox_data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_keys(data: dict, cls: type, prefix: str) -> None:
    """Reject keys ``cls`` lacks, and a numeric field that is not a number
    (a bool included) or does not convert to a finite float."""
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(data) - set(types))
    if unknown:
        names = ", ".join(repr(prefix + key) for key in unknown)
        raise ValueError(f"unknown parameter key {names}")
    for key, value in data.items():
        if types[key] not in ("float", "int"):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{prefix + key!r} must be a number, got {json.dumps(value)}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # a JSON integer beyond float range
            finite = False
        if not finite:
            raise ValueError(f"{prefix + key!r} must be a finite number")
