"""Traced pass: the workload's operations replayed layer by layer.

Each operation makes the same library calls the CLI makes for it, with a span
around every call into a layer. Spans are named ``<module>.<call>`` after the
module that does the work, kept in memory, and written out when the run ends.
Tracing lives only here; the library itself is not instrumented.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from inputs import GRAPH, LEARN, PARAMS, PREFIX, TRUTH
from workloads import BASELINES
from trendcast import baselines, evaluation, learning, simulation
from trendcast.activeness import ActivenessParams, load_params, save_params
from trendcast.core import IntervalGrid, aggregate, load_graph, load_trend, write_trend
from trendcast.proximity import ProximityConfig, ProximityMap


@dataclass
class Tracer:
    """Spans as (name, start, end, parent index); parent -1 marks a root."""

    spans: list[tuple[str, float, float, int]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, float]:
        """Self time summed per span name."""
        result: dict[str, float] = {}
        for (name, *_), own in zip(self.spans, self.self_times()):
            result[name] = result.get(name, 0.0) + own
        return result

    def layer_shares(self) -> dict[str, float]:
        """Per root span (an operation): share of its wall covered by layer self time."""
        own = self.self_times()
        shares = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent == -1 and name.startswith("op."):
                shares[name] = 1.0 - own[i] / (end - start)
        return shares

    def as_dict(self) -> dict:
        return {"spans": self.spans, "self_time_s": self.totals(), "counts": self.counts}


def _sim_config(w, seed: int, runs: int) -> simulation.SimConfig:
    return simulation.SimConfig(t_start=w.t_star, t_end=w.grid_end, runs=runs, seed=seed)


def _warm_rows(tr: Tracer, prox: ProximityMap, nodes: np.ndarray) -> None:
    with tr.span("proximity.rows"):
        lengths = [len(prox.row(u)) for u in np.unique(nodes).tolist()]
    tr.count("proximity.rows", len(lengths))
    tr.count("proximity.row_entries", sum(lengths))


def traced_pass(w, workdir: str, outdir: str, seed: int, tr: Tracer) -> None:
    """One pass of the workload's operations, writing the CLI's output files."""

    def inp(name: str) -> str:
        return f"{workdir}/{name}"

    def out(name: str) -> str:
        return f"{outdir}/{name}"

    config = ProximityConfig.from_dict(w.prox_config())
    grid = IntervalGrid(w.t_star, w.interval, w.intervals)

    with tr.span("op.learn"):
        with tr.span("core.load_graph"):
            graph = load_graph(inp(GRAPH))
        with tr.span("core.load_trend"):
            trend = load_trend(inp(LEARN), graph)
        prox = ProximityMap(graph, config)
        prefix = trend.prefix(w.t_star)
        _warm_rows(tr, prox, prefix.nodes)
        with tr.span("learning.fit"):
            result = learning.fit(trend, prox, w.t_star, learning.LearnConfig(), epsilon=1e-9)
        with tr.span("cli.write"):
            params = ActivenessParams(result.alpha, result.tau, 1e-9, float(prefix.times[0]))
            save_params(out("learned.json"), params, config)
    tr.count("learning.evaluations", result.evaluations)
    # One likelihood evaluation from scratch, outside any operation: it
    # separates the fit's per-evaluation cost from its table build.
    with tr.span("probe.log_likelihood"):
        with tr.span("learning.log_likelihood"):
            learning.log_likelihood(trend, prox, result.tau, result.alpha, w.t_star)

    with tr.span("op.predict-da"):
        with tr.span("core.load_graph"):
            graph = load_graph(inp(GRAPH))
        with tr.span("core.load_trend"):
            trend = load_trend(inp(PREFIX), graph)
        with tr.span("cli.read"):
            params, prox_config = load_params(inp(PARAMS))
        prox = ProximityMap(graph, prox_config)
        _warm_rows(tr, prox, trend.prefix(w.t_star).nodes)
        sim = _sim_config(w, seed, w.runs)
        tr.count("simulation.runs", sim.runs)
        with tr.span("simulation.init_streams"):
            streams = simulation.init_streams(
                trend, prox, params, sim.t_start, graph.node_count, sim.mass_floor
            )
        tr.count("simulation.init_streams", len(streams))
        inten, cov = [], []
        events = children = 0
        run_trends = []
        for run_index in range(sim.runs):
            with tr.span("simulation.simulate"):
                run_trend, stats = simulation.simulate(streams, prox, params, sim, run_index)
            with tr.span("core.aggregate"):
                series = aggregate(run_trend, grid)
            inten.append(series.intensity)
            cov.append(series.coverage)
            events += stats.events
            children += stats.child_events
            run_trends.append(run_trend)
        with tr.span("simulation.summarize"):
            ratio = children / events if events else float("nan")
            report = simulation.summarize_runs(grid, inten, cov, 0.0, "coverage", ratio)
        with tr.span("cli.write"):
            report.write_csv(out("pred-da.csv"))
    tr.count("simulation.events", events)
    tr.count("simulation.child_events", children)
    # Streams an event spawns: its row's entries whose mass passes the floor.
    spawned = 0
    for run_trend in run_trends:
        for v in run_trend.nodes.tolist():
            scores = np.fromiter(prox.row(v).values(), dtype=np.float64)
            spawned += int(np.count_nonzero(params.alpha * scores * params.tau >= sim.mass_floor))
    tr.count("simulation.streams_spawned", spawned)

    for kind in BASELINES:
        with tr.span(f"op.predict-{kind}"):
            with tr.span("core.load_graph"):
                graph = load_graph(inp(GRAPH))
            with tr.span("core.load_trend"):
                trend = load_trend(inp(PREFIX), graph)
            with tr.span("baselines.fit"):
                bparams = baselines.fit_baseline(kind, trend, graph, w.t_star)
            with tr.span("baselines.simulate"):
                report = baselines.predict_baseline(
                    bparams, graph, trend, _sim_config(w, seed, w.cascade_runs), grid
                )
            with tr.span("cli.write"):
                report.write_csv(out(f"pred-{kind}.csv"))
        tr.count("baselines.activations", round(float(report.intensity_mean.sum()) * report.runs))

    with tr.span("op.synth"):
        with tr.span("core.load_graph"):
            graph = load_graph(inp(GRAPH))
        prox = ProximityMap(graph, config)
        planted = ActivenessParams(w.synth_alpha, w.synth_tau, 1e-9, 0.0)
        with tr.span("simulation.branching_bound"):
            simulation.branching_bound(prox, planted, graph.node_count)
        with tr.span("simulation.generate_synthetic"):
            synth, manifest = simulation.generate_synthetic(
                graph.node_count, prox, planted, w.synth_seeds, w.synth_horizon, seed
            )
        with tr.span("cli.write"):
            write_trend(out("synth.tsv"), synth, graph)
            manifest["proximity"] = config.to_dict()
            with open(out("synth.tsv") + ".manifest.json", "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")

    with tr.span("op.eval"):
        with tr.span("core.load_graph"):
            graph = load_graph(inp(GRAPH))
        with tr.span("cli.read"):
            report = simulation.PredictionReport.read_csv(out("pred-da.csv"))
        with tr.span("core.load_trend"):
            truth = load_trend(inp(TRUTH), graph)
        with tr.span("evaluation.evaluate"):
            scored = evaluation.evaluate_prediction(report, truth, 0.0, "coverage")
        with tr.span("cli.write"):
            evaluation.write_eval_csv(out("eval.csv"), [scored])


def memory_peaks(w, workdir: str, seed: int) -> dict[str, float]:
    """tracemalloc peaks (MB) of the fit and of the activeness simulation.

    tracemalloc slows allocation-heavy code several times over, so this runs
    apart from the timed spans.
    """

    def inp(name: str) -> str:
        return f"{workdir}/{name}"

    graph = load_graph(inp(GRAPH))
    learn_trend = load_trend(inp(LEARN), graph)
    prefix = load_trend(inp(PREFIX), graph)
    params, prox_config = load_params(inp(PARAMS))
    prox = ProximityMap(graph, prox_config)
    for u in np.unique(np.concatenate([learn_trend.nodes, prefix.nodes])).tolist():
        prox.row(u)
    sim = _sim_config(w, seed, w.runs)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        learning.fit(learn_trend, prox, w.t_star, learning.LearnConfig(), epsilon=1e-9)
        fit_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        streams = simulation.init_streams(prefix, prox, params, sim.t_start, graph.node_count, sim.mass_floor)
        for run_index in range(sim.runs):
            simulation.simulate(streams, prox, params, sim, run_index)
        sim_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"learning.fit_peak_mb": fit_peak / 2**20, "simulation.peak_mb": sim_peak / 2**20}
