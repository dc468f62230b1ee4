"""Workload definitions and the CLI operations each one runs.

Every workload runs the same user pipeline, so every end-to-end metric is
defined on every workload: learn, predict with the activeness model, predict
with the three cascade baselines, synth, and eval. The sizes decide which
layer dominates; see README.md for why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from inputs import GRAPH, LEARN, PARAMS, PREFIX, TRUTH

BASELINES = ("tequ", "texp", "eexp")


@dataclass(frozen=True)
class Workload:
    name: str
    key: int  # separates the workloads' input streams for one seed
    nodes: int
    edges: int
    prox: str  # "sp" or "rw"
    b: float
    p: float
    learn_actions: int
    prefix_actions: int
    future_actions: int
    t_star: float
    interval: float
    intervals: int
    alpha: float  # fixed predict parameters
    tau: float
    runs: int
    cascade_runs: int
    synth_alpha: float
    synth_tau: float
    synth_seeds: int
    synth_horizon: float

    @property
    def grid_end(self) -> float:
        return self.t_star + self.interval * self.intervals

    @property
    def grid(self) -> str:
        return f"{self.t_star!r}:{self.interval!r}:{self.intervals}"

    def prox_config(self) -> dict:
        kind = "shortest_path" if self.prox == "sp" else "random_walk"
        return {"kind": kind, "b": self.b, "p": self.p, "floor": 1e-12, "rw_tolerance": 1e-8}

    def prox_flags(self) -> list[str]:
        return ["--prox", self.prox, "--b", repr(self.b), "--p", repr(self.p)]

    def tiny(self) -> Workload:
        """The same workload shape at a size that runs in well under a second."""
        return replace(
            self,
            nodes=min(self.nodes, 60),
            edges=min(self.edges, 120),
            learn_actions=min(self.learn_actions, 60),
            prefix_actions=min(self.prefix_actions, 10),
            future_actions=min(self.future_actions, 20),
            runs=2,
            cascade_runs=2,
            synth_seeds=min(self.synth_seeds, 3),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="learn-dense", key=1, nodes=200, edges=600, prox="sp", b=2.0, p=0.4,
            learn_actions=1500, prefix_actions=40, future_actions=200,
            t_star=10.0, interval=1.0, intervals=4,
            alpha=0.15, tau=1.0, runs=2, cascade_runs=20,
            synth_alpha=0.08, synth_tau=1.0, synth_seeds=60, synth_horizon=4.0,
        ),
        Workload(
            name="forecast-sparse", key=2, nodes=10_000, edges=20_000, prox="sp", b=10.0, p=0.4,
            learn_actions=2000, prefix_actions=2000, future_actions=800,
            t_star=10.0, interval=1.0, intervals=4,
            alpha=0.5, tau=1.0, runs=3, cascade_runs=10,
            synth_alpha=0.5, synth_tau=1.0, synth_seeds=50, synth_horizon=4.0,
        ),
        Workload(
            name="rw-dense", key=3, nodes=1000, edges=3000, prox="rw", b=10.0, p=0.4,
            learn_actions=40, prefix_actions=20, future_actions=200,
            t_star=10.0, interval=1.0, intervals=4,
            alpha=0.5, tau=1.0, runs=2, cascade_runs=20,
            synth_alpha=0.5, synth_tau=1.0, synth_seeds=8, synth_horizon=4.0,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One CLI call; ``metric`` names the end-to-end metric its time adds to, besides wall_s."""

    kind: str  # learn, predict-da, predict-<baseline>, synth, eval
    metric: str | None
    argv: list[str]
    out: str


def ops(w: Workload, workdir: str, outdir: str, seed: int) -> list[Op]:
    """The CLI calls of one pass, in order; outputs go to ``outdir``."""

    def inp(name: str) -> str:
        return f"{workdir}/{name}"

    def out(name: str) -> str:
        return f"{outdir}/{name}"

    s = str(seed)
    graph = ["--graph", inp(GRAPH)]
    forecast = [
        *graph, "--actions", inp(PREFIX), "--t-star", repr(w.t_star), "--grid", w.grid, "--seed", s,
    ]
    result = [
        Op("learn", "learn_s", [
            "learn", *graph, "--actions", inp(LEARN), "--t-star", repr(w.t_star),
            *w.prox_flags(), "--seed", s, "--out", out("learned.json"),
        ], out("learned.json")),
        Op("predict-da", "predict_da_s", [
            "predict", *forecast, "--model", "da", "--params", inp(PARAMS), "--runs", str(w.runs),
            "--out", out("pred-da.csv"),
        ], out("pred-da.csv")),
    ]
    for kind in BASELINES:
        result.append(Op(f"predict-{kind}", "predict_cascade_s", [
            "predict", *forecast, "--model", kind, "--runs", str(w.cascade_runs), "--out", out(f"pred-{kind}.csv"),
        ], out(f"pred-{kind}.csv")))
    result.append(Op("synth", "synth_s", [
        "synth", *graph, *w.prox_flags(), "--alpha", repr(w.synth_alpha),
        "--tau", repr(w.synth_tau), "--horizon", repr(w.synth_horizon),
        "--n-seeds", str(w.synth_seeds), "--seed", s, "--out", out("synth.tsv"),
    ], out("synth.tsv")))
    result.append(Op("eval", None, [
        "eval", *graph, "--pred", out("pred-da.csv"), "--actions", inp(TRUTH),
        "--theta", "0", "--out", out("eval.csv"),
    ], out("eval.csv")))
    return result
