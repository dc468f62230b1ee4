"""Timed and traced runs of one workload.

The timed run calls ``trendcast.cli.main`` in process, exactly as a user
would, pass after pass until the time is up, and reports medians over passes.
The traced run alternates a plain CLI pass with a pass that makes the same
library calls layer by layer under spans (see tracing.py), and reports the
per-layer numbers. Both runs check every output.
"""

from __future__ import annotations

import contextlib
import gc
import glob
import hashlib
import io
import os
import resource
import shutil
import statistics
import time

import numpy as np

import inputs
from checks import Checker
from tracing import Tracer, memory_peaks, traced_pass
from trendcast import cli
from trendcast.core import load_graph, load_trend
from trendcast.proximity import ProximityConfig, ProximityMap
from workloads import ops

# Each pass runs the CLI with its own seed, so medians over passes also
# average over simulation randomness.
MIN_PASSES = 2

# What the speed probe takes when the machine runs at full speed (Intel Xeon,
# 2 vCPUs, Python 3.11, numpy 2.4). Timings are reported at this speed.
PROBE_REF_S = 0.006
PROBE_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "learn_s": "s",
    "predict_da_s": "s",
    "predict_cascade_s": "s",
    "synth_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
OP_METRICS = ("learn_s", "predict_da_s", "predict_cascade_s", "synth_s")

PER_LAYER = {
    "core.load_graph_s": "s",
    "core.load_trend_s": "s",
    "core.aggregate_s": "s",
    "proximity.rows": "count",
    "proximity.row_len_mean": "count",
    "proximity.rows_s": "s",
    "learning.fit_s": "s",
    "learning.evaluations": "count",
    "learning.log_likelihood_s": "s",
    "learning.eval_ms": "ms",
    "learning.pairs": "count",
    "learning.fit_peak_mb": "MB",
    "simulation.init_streams": "count",
    "simulation.init_streams_s": "s",
    "simulation.simulate_s": "s",
    "simulation.events": "count",
    "simulation.child_events": "count",
    "simulation.streams_spawned": "count",
    "simulation.us_per_stream": "us",
    "simulation.branching_bound_s": "s",
    "simulation.generate_synthetic_s": "s",
    "simulation.peak_mb": "MB",
    "baselines.fit_s": "s",
    "baselines.simulate_s": "s",
    "baselines.activations": "count",
    "evaluation.evaluate_s": "s",
    "cli.write_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_share": "%",
}


def setup_once(w, seed: int, workdir: str) -> tuple[inputs.Inputs, dict]:
    """Generate and write the inputs, load them through the library, measure them."""
    generated = inputs.generate(w, seed)
    digest = inputs.write(generated, workdir)
    graph = load_graph(os.path.join(workdir, inputs.GRAPH))
    learn = load_trend(os.path.join(workdir, inputs.LEARN), graph)
    prefix = load_trend(os.path.join(workdir, inputs.PREFIX), graph)
    prox = ProximityMap(graph, ProximityConfig.from_dict(w.prox_config()))
    actors = np.unique(np.concatenate([learn.nodes, prefix.nodes])).tolist()
    row_len = [len(prox.row(u)) for u in actors]

    def targets(u: int) -> np.ndarray:
        return np.fromiter(prox.row(u), dtype=np.int64)

    props = {
        "nodes": graph.node_count,
        "edges": int(graph.indices.size // 2),
        "learn_actions": len(learn),
        "prefix_actions": len(prefix),
        "row_len_mean": float(np.mean(row_len)),
        "pairs": inputs.later_pairs(learn.nodes.tolist(), graph.node_count, targets),
        "hash": digest,
    }
    return generated, props


def _probe_once() -> float:
    start = time.perf_counter()
    counts: dict[int, float] = {}
    for i in range(30_000):
        counts[i % 977] = counts.get(i % 977, 0.0) + i * 0.5
    values = np.arange(50_000, dtype=np.float64)
    for _ in range(30):
        values = np.sqrt(values + 1.0)
    return time.perf_counter() - start


class SpeedProbe:
    """Measures how fast the machine runs right now, with a fixed piece of work.

    On a shared machine the clock rate of the core changes with the load of
    other tenants: the probe takes either about 6 ms or about 10 ms, and a
    slow phase can last minutes, longer than a whole run. Every time this
    benchmark reports is therefore scaled to full speed: the measured time
    times PROBE_REF_S over the mean of the probes taken just before and just
    after the interval. The probe is plain Python and numpy and calls no
    trendcast code, so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        self.last = self._measure()
        self.factors: list[float] = []

    @staticmethod
    def _measure() -> float:
        return min(_probe_once() for _ in range(PROBE_REPEATS))

    def factor(self) -> float:
        """Scale for the interval since the previous call (or construction)."""
        now = self._measure()
        self.factors.append(PROBE_REF_S / ((self.last + now) / 2))
        self.last = now
        return self.factors[-1]


class SetUp:
    """Set-up, repeated after every timed pass.

    Repeating it across the whole run, rather than back to back, lets its
    median ride out the same machine noise the other medians do. Every
    repetition must write the same bytes.
    """

    def __init__(self, w, seed: int, workdir: str, probe: SpeedProbe) -> None:
        self.w, self.seed, self.workdir, self.probe = w, seed, workdir, probe
        self.times: list[float] = []
        self.digests: set[str] = set()
        shutil.rmtree(workdir, ignore_errors=True)

    def __call__(self) -> tuple[inputs.Inputs, dict]:
        gc.collect()
        start = time.perf_counter()
        generated, props = setup_once(self.w, self.seed, self.workdir)
        elapsed = time.perf_counter() - start
        self.times.append(elapsed * self.probe.factor())
        self.digests.add(props["hash"])
        return generated, props

    def problems(self) -> list[str]:
        if len(self.digests) == 1:
            return []
        return [f"set-up wrote different inputs: {sorted(self.digests)}"]


def _outputs_digest(out: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(glob.escape(out) + "*")):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


class Runner:
    """Runs CLI operations and checks their outputs, counting failures."""

    def __init__(self, checker: Checker) -> None:
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Outputs already checked, by content: a repeated output needs no
        # second check.
        self._verdicts: dict[tuple[str, str], list[str]] = {}

    def fail(self, kind: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{kind}: {p}" for p in problems)

    def run(self, op) -> float:
        """Run one operation; returns its wall time. Failures are counted, not raised."""
        self.attempted += 1
        sink = io.StringIO()
        gc.collect()  # garbage left by earlier operations is not this one's cost
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
        except Exception as exc:  # an operation that raises counts as failed
            elapsed = time.perf_counter() - start
            self.fail(op.kind, [f"raised {exc!r}"])
            return elapsed
        elapsed = time.perf_counter() - start
        if code != 0:
            self.fail(op.kind, [f"exit code {code}: {sink.getvalue().strip()[-300:]}"])
            return elapsed
        key = (op.kind, _outputs_digest(op.out))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self.checker.check(op.kind, op.out)
            except Exception as exc:  # unreadable output fails its check
                self._verdicts[key] = [f"output check raised {exc!r}"]
        if self._verdicts[key]:
            self.fail(op.kind, self._verdicts[key])
        return elapsed


def _cli_pass(runner: Runner, op_list) -> dict[str, float]:
    times = {metric: 0.0 for metric in OP_METRICS}
    wall = 0.0
    for op in op_list:
        elapsed = runner.run(op)
        wall += elapsed
        if op.metric:
            times[op.metric] += elapsed
    times["wall_s"] = wall
    return times


def pass_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def timed(w, seed: int, seconds: float, workdir: str, runner: Runner, set_up: SetUp) -> dict[str, float]:
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir, exist_ok=True)
    samples: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        op_list = ops(w, workdir, outdir, pass_seed(seed, passes))
        times = _cli_pass(runner, op_list)
        speed = set_up.probe.factor()
        for metric, value in times.items():
            samples.setdefault(metric, []).append(value * speed)
        passes += 1
        set_up()
    metrics = {metric: statistics.median(values) for metric, values in samples.items()}
    metrics["setup_s"] = statistics.median(set_up.times)
    metrics["passes"] = passes
    return metrics


def _layer_metrics(tr: Tracer, props: dict) -> dict[str, float]:
    own = tr.totals()
    counts = tr.counts

    def t(name: str) -> float:
        return own.get(name, 0.0)

    fit, ll, evals = t("learning.fit"), t("learning.log_likelihood"), counts["learning.evaluations"]
    runs_streams = counts["simulation.init_streams"] * counts["simulation.runs"]
    return {
        "core.load_graph_s": t("core.load_graph"),
        "core.load_trend_s": t("core.load_trend"),
        "core.aggregate_s": t("core.aggregate"),
        "proximity.rows": counts["proximity.rows"],
        "proximity.row_len_mean": counts["proximity.row_entries"] / counts["proximity.rows"],
        "proximity.rows_s": t("proximity.rows"),
        "learning.fit_s": fit,
        "learning.evaluations": evals,
        "learning.log_likelihood_s": ll,
        "learning.eval_ms": 1e3 * (fit - ll) / evals,
        "learning.pairs": props["pairs"],
        "simulation.init_streams": counts["simulation.init_streams"],
        "simulation.init_streams_s": t("simulation.init_streams"),
        "simulation.simulate_s": t("simulation.simulate"),
        "simulation.events": counts["simulation.events"],
        "simulation.child_events": counts["simulation.child_events"],
        "simulation.streams_spawned": counts["simulation.streams_spawned"],
        "simulation.us_per_stream": 1e6 * t("simulation.simulate")
        / (runs_streams + counts["simulation.streams_spawned"]),
        "simulation.branching_bound_s": t("simulation.branching_bound"),
        "simulation.generate_synthetic_s": t("simulation.generate_synthetic"),
        "baselines.fit_s": t("baselines.fit"),
        "baselines.simulate_s": t("baselines.simulate"),
        "baselines.activations": counts["baselines.activations"],
        "evaluation.evaluate_s": t("evaluation.evaluate"),
        "cli.write_s": t("cli.write"),
        "trace.layer_share": 100.0 * min(tr.layer_shares().values()),
    }


def _same_bytes(a: str, b: str) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def _op_wall(tr: Tracer) -> float:
    return sum(end - start for name, start, end, parent in tr.spans if parent == -1 and name.startswith("op."))


def traced(
    w, seed: int, seconds: float, workdir: str, runner: Runner, props: dict, probe: SpeedProbe
) -> tuple[dict, list[Tracer]]:
    cli_out = os.path.join(workdir, "out")
    trace_out = os.path.join(workdir, "traced")
    os.makedirs(cli_out, exist_ok=True)
    os.makedirs(trace_out, exist_ok=True)
    samples: dict[str, list[float]] = {}
    untraced_walls, traced_walls, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(tracers) < MIN_PASSES or time.perf_counter() < deadline:
        cli_seed = pass_seed(seed, len(tracers))
        op_list = ops(w, workdir, cli_out, cli_seed)
        untraced_walls.append(_cli_pass(runner, op_list)["wall_s"] * probe.factor())
        tr = Tracer()
        try:
            traced_pass(w, workdir, trace_out, cli_seed, tr)
        except Exception as exc:  # a traced pass that raises counts as failed
            runner.attempted += len(op_list)
            runner.fail("traced pass", [f"raised {exc!r}"])
            break
        speed = probe.factor()
        tracers.append(tr)
        # The traced pass must do the same work: its outputs equal the CLI's.
        for op in op_list:
            runner.attempted += 1
            twin = os.path.join(trace_out, os.path.basename(op.out))
            names = [os.path.basename(p) for p in glob.glob(glob.escape(twin) + "*")]
            differ = [n for n in sorted(names) if not _same_bytes(os.path.join(trace_out, n), os.path.join(cli_out, n))]
            if differ or not names:
                runner.fail(op.kind, [f"traced outputs {differ or 'missing'} differ from the CLI's"])
        traced_walls.append(_op_wall(tr) * speed)
        for name, value in _layer_metrics(tr, props).items():
            if PER_LAYER[name] in ("s", "ms", "us"):
                value *= speed
            samples.setdefault(name, []).append(value)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    if tracers:
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
        metrics.update(memory_peaks(w, workdir, seed))
    return metrics, tracers


def run(w, seed: int, seconds: float, trace: bool, work_root: str) -> dict:
    """One benchmark run; returns the result object and the run's details."""
    workdir = os.path.join(work_root, w.name)
    probe = SpeedProbe()
    set_up = SetUp(w, seed, workdir, probe)
    generated, props = set_up()
    runner = Runner(Checker(w, workdir, generated))
    if trace:
        found, tracers = traced(w, seed, seconds, workdir, runner, props, probe)
        wanted = PER_LAYER
    else:
        found, tracers = timed(w, seed, seconds, workdir, runner, set_up), []
        found["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = END_TO_END
    if set_up.problems():
        runner.fail("setup", set_up.problems())
    metrics = {name: {"value": found[name], "unit": unit} for name, unit in wanted.items() if name in found}
    result = {
        "correct": runner.failed == 0 and len(metrics) == len(wanted),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    details = {
        "workload": w.name,
        "seed": seed,
        "inputs": props,
        "passes": found.get("passes", len(tracers)),
        "speed_factor_median": statistics.median(probe.factors),
        "problems": runner.problems,
    }
    return {"result": result, "details": details, "tracers": tracers}
