"""Output checks for each CLI operation.

Every check holds for any correct implementation of the model, whatever its
speed or internal design: it compares outputs against closed forms, the
library's own likelihood, or counts the benchmark makes itself. A check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

from inputs import GRAPH, LEARN, PARAMS, PREFIX
from trendcast import learning
from trendcast.activeness import load_params
from trendcast.core import load_graph, load_trend
from trendcast.proximity import ProximityConfig, ProximityMap
from trendcast.simulation import PredictionReport

# A Monte Carlo mean is tested against its expectation with this many
# standard deviations of slack, so a correct program fails by chance with a
# probability far below one in a million per check.
Z = 6.0


class Checker:
    """Checks one workload's outputs; library-side reference data is built lazily, once."""

    def __init__(self, workload, workdir: str, inputs) -> None:
        self.w = workload
        self.workdir = workdir
        self.inputs = inputs

    def path(self, name: str) -> str:
        return f"{self.workdir}/{name}"

    @cached_property
    def graph(self):
        return load_graph(self.path(GRAPH))

    @cached_property
    def prox(self) -> ProximityMap:
        return ProximityMap(self.graph, ProximityConfig.from_dict(self.w.prox_config()))

    @cached_property
    def max_row_sum(self) -> float:
        if self.w.prox == "rw":
            # Random-walk rows are probability vectors.
            return 1.0
        return max(self.prox.row_sum(v) for v in range(self.graph.node_count))

    def check(self, kind: str, out: str) -> list[str]:
        if kind == "learn":
            return self.learn(out)
        if kind == "predict-da":
            return self.predict_da(out)
        if kind.startswith("predict-"):
            return self.forecast(out, self.w.cascade_runs)[1]
        if kind == "synth":
            return self.synth(out)
        if kind == "eval":
            return self.eval(out)
        raise ValueError(f"no check for {kind}")

    def learn(self, out: str) -> list[str]:
        params, _ = load_params(out)
        with open(out + ".report.csv", encoding="utf-8") as fh:
            fh.readline()
            reported = float(fh.readline().split(",")[2])
        trend = load_trend(self.path(LEARN), self.graph)
        t_star, eps = self.w.t_star, params.epsilon
        problems = []
        alpha = learning.estimate_alpha(trend, self.prox, params.tau, t_star)
        if not math.isclose(alpha, params.alpha, rel_tol=1e-9):
            problems.append(f"alpha {params.alpha!r} != estimate_alpha at tau, {alpha!r}")
        logl = learning.log_likelihood(trend, self.prox, params.tau, params.alpha, t_star, eps)
        # The report prints 10 significant digits.
        if not math.isclose(logl, reported, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"reported logL {reported!r} != log_likelihood {logl!r}")
        for factor in (0.99, 1.01):
            tau = params.tau * factor
            a = learning.estimate_alpha(trend, self.prox, tau, t_star)
            other = learning.log_likelihood(trend, self.prox, tau, a, t_star, eps)
            if other > logl + 1e-9 * abs(logl):
                problems.append(f"profile logL at tau*{factor} is higher: {other!r} > {logl!r}")
        return problems

    def forecast(self, out: str, runs: int) -> tuple[PredictionReport | None, list[str]]:
        """Shared prediction CSV checks: parses, right grid, finite, coverage <= intensity."""
        try:
            report = PredictionReport.read_csv(out)
        except (OSError, ValueError, IndexError) as exc:
            return None, [f"prediction CSV does not parse: {exc}"]
        problems = []
        w = self.w
        if report.runs != runs or report.grid.count != w.intervals:
            problems.append(f"report has {report.runs} runs, {report.grid.count} intervals")
        if not math.isclose(report.grid.t_start, w.t_star) or not math.isclose(report.grid.t_end, w.grid_end):
            problems.append(f"grid [{report.grid.t_start}, {report.grid.t_end}) is not the requested one")
        means = np.concatenate([report.intensity_mean, report.coverage_mean])
        if not np.all(np.isfinite(means)) or np.any(means < 0):
            problems.append("non-finite or negative means")
        cvs = np.concatenate([report.intensity_cv, report.coverage_cv])
        if np.any(np.isinf(cvs)) or np.any(cvs < 0):
            problems.append("infinite or negative coefficient of variation")
        if np.any(report.coverage_mean > report.intensity_mean * (1 + 1e-9)):
            problems.append("coverage above intensity")
        return report, problems

    @cached_property
    def first_generation(self) -> float:
        """Expected events per run from the observed prefix alone, on the grid."""
        w = self.w
        params, _ = load_params(self.path(PARAMS))
        prefix = load_trend(self.path(PREFIX), self.graph).prefix(w.t_star)
        window = -math.expm1(-(w.grid_end - w.t_star) / params.tau)
        decay = np.exp(-(w.t_star - prefix.times) / params.tau)
        sums = np.asarray([self.prox.row_sum(u) for u in prefix.nodes.tolist()])
        residual = params.epsilon * math.exp(-(w.t_star - params.t0) / params.tau)
        per_tau = params.alpha * float(np.sum(decay * sums)) + residual * self.graph.node_count
        return per_tau * params.tau * window

    def predict_da(self, out: str) -> list[str]:
        report, problems = self.forecast(out, self.w.runs)
        if report is None:
            return problems
        w = self.w
        # Mean events per run lie between the first generation's mass and
        # that mass / (1 - bound), where bound = alpha * tau * max row sum
        # bounds the expected children of any event.
        mass = self.first_generation
        bound = w.alpha * w.tau * self.max_row_sum
        mean = float(report.intensity_mean.sum())
        lo = mass - Z * math.sqrt(mass / w.runs)
        hi = mass / (1 - bound) + Z * math.sqrt(mass / ((1 - bound) ** 3 * w.runs))
        if not lo <= mean <= hi:
            problems.append(f"mean events per run {mean:.6g} outside [{lo:.6g}, {hi:.6g}]")
        return problems

    def synth(self, out: str) -> list[str]:
        w = self.w
        with open(out + ".manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        trend = load_trend(out, self.graph)
        problems = []
        alpha_tau = w.synth_alpha * w.synth_tau
        bound = float(manifest["branching_bound"])
        if w.prox == "rw" and bound > alpha_tau * (1 + 1e-9):
            problems.append(f"manifest bound {bound!r} above alpha*tau {alpha_tau!r} for rw rows")
        if w.prox == "sp" and bound < alpha_tau * (1 - 1e-9):
            problems.append(f"manifest bound {bound!r} below alpha*tau; sp rows hold their source at 1")
        if len(trend) != manifest["actions"]:
            problems.append(f"{len(trend)} actions written, manifest says {manifest['actions']}")
        t0, horizon = 0.0, w.synth_horizon
        if len(trend) and (trend.times.min() < t0 or trend.times.max() >= horizon):
            problems.append("action time outside [t0, horizon)")
        at_t0 = trend.nodes[trend.times == t0]
        seeds = sorted(manifest["seed_nodes"])
        if len(seeds) != w.synth_seeds or len(set(seeds)) != len(seeds):
            problems.append(f"manifest seeds {seeds} are not {w.synth_seeds} distinct nodes")
        if not set(seeds) <= set(at_t0.tolist()):
            problems.append("a seed node has no action at t0")
        return problems

    def eval(self, out: str) -> list[str]:
        w = self.w
        rows = []
        with open(out, encoding="utf-8") as fh:
            fh.readline()
            for line in fh:
                if not line.startswith("#"):
                    rows.append(line.rstrip("\n").split(","))
        got = {m: [float(r[2]) for r in rows if r[1] == m] for m in ("intensity", "coverage")}
        times, nodes = self.inputs.truth_times, self.inputs.truth_nodes
        edges = w.t_star + np.arange(w.intervals + 1) * w.interval
        idx = np.searchsorted(edges, times, side="right") - 1
        keep = (idx >= 0) & (idx < w.intervals)
        inten = np.bincount(idx[keep], minlength=w.intervals)
        pairs = np.unique(np.stack([idx[keep], nodes[keep]], axis=1), axis=0)
        cov = np.bincount(pairs[:, 0], minlength=w.intervals)
        problems = []
        if got["intensity"] != inten.tolist() or got["coverage"] != cov.tolist():
            problems.append(
                f"truth columns {got} differ from counts {inten.tolist()}, {cov.tolist()}"
            )
        return problems

