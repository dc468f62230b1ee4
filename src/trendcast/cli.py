"""Command-line interface.

Subcommands: learn, predict, eval, aggregate, synth, prox-cache. Exit codes:
0 on success, 1 on validation problems (bad flags, malformed or missing
inputs, degenerate data), 2 on runtime failures (simulation explosion,
non-convergence).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import baselines, evaluation, learning, simulation
from .activeness import ActivenessParams, load_params, save_params
from .core import (
    IntervalGrid,
    Trend,
    aggregate,
    drop_edgeless_nodes,
    load_graph,
    load_trend,
    random_graph,
    write_aggregate_csv,
    write_graph,
    write_trend,
)
from .proximity import ConvergenceError, ProximityConfig, ProximityMap
from .simulation import ExplosionError, SimConfig

MODELS = ("da", "tequ", "texp", "eexp")


class _Parser(argparse.ArgumentParser):
    # No prefix matching: a flag a command lacks must not resolve to a longer
    # one it has (predict --prox would be read as --prox-cache).
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # Usage problems are validation failures; argparse defaults to exit 2.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_grid(text: str) -> IntervalGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be 't_start:interval_length:count', got {text!r}")
    try:
        return IntervalGrid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ValueError(f"grid {text!r}: {exc}") from None


def _parse_tau_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError as exc:
        raise ValueError(f"--tau-range must be 'lo:hi', got {text!r}: {exc}") from None
    return lo, hi


def _add_graph_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--graph", required=required, help="edge file, one 'src<TAB>dst' per line")
    p.add_argument("--directed", action="store_true", help="treat edges as directed")


def _add_prox_flags(p: argparse.ArgumentParser) -> None:
    """The kernel flags, for the commands that build proximity rows from them."""
    p.add_argument("--prox", default="sp", choices=["sp", "rw"], help="proximity kernel")
    p.add_argument("--b", type=float, default=10.0, help="shortest-path decay per hop")
    p.add_argument("--p", type=float, default=0.4, help="random-walk restart probability")
    p.add_argument("--floor", type=float, default=1e-12, help="drop proximity scores below this")
    p.add_argument("--rw-tolerance", type=float, default=1e-8, help="random-walk stop tolerance")


def _prox_config(args: argparse.Namespace) -> ProximityConfig:
    return ProximityConfig(
        kind=args.prox, b=args.b, p=args.p, floor=args.floor, rw_tolerance=args.rw_tolerance
    )


def _proximity(args: argparse.Namespace, graph, config: ProximityConfig) -> ProximityMap:
    if args.prox_cache:
        return ProximityMap.load_cache(args.prox_cache, graph, config)
    return ProximityMap(graph, config)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    if os.environ.get("TRENDCAST_REQUIRE_SEED"):
        raise ValueError("--seed is required when TRENDCAST_REQUIRE_SEED is set")
    seed = time.time_ns() & (2**63 - 1)
    print(f"note: no --seed given, using {seed}", file=sys.stderr)
    return seed


def _finite_theta(value: object, where: str) -> float:
    """A duration threshold as a finite float; ``where`` names its source in errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {value!r}")
    return float(value)


def _apply_jitter(trend: Trend, width: float, seed: int) -> Trend:
    # Optional tie breaking: timestamps keep their recorded values by
    # default; a uniform jitter in [0, width) separates exact ties.
    if not 0 <= width < math.inf:
        raise ValueError(f"--jitter must be finite and non-negative, got {width!r}")
    if width == 0:
        return trend
    rng = simulation.derived_rng(seed, simulation._JITTER_KEY)
    return Trend(trend.nodes.copy(), trend.times + rng.uniform(0.0, width, size=len(trend)))


def cmd_learn(args: argparse.Namespace) -> int:
    # The residual rate starts at t0, so params with t0 after t_star cannot forecast from t_star.
    if args.t0 is not None and args.t0 > args.t_star:
        raise ValueError(f"--t0 {args.t0!r} follows --t-star {args.t_star!r}")
    graph = load_graph(args.graph, args.directed)
    trend = load_trend(args.actions, graph)
    if args.jitter:
        trend = _apply_jitter(trend, args.jitter, _resolve_seed(args))
    prox_config = _prox_config(args)
    prox = _proximity(args, graph, prox_config)
    config = learning.LearnConfig(_parse_tau_range(args.tau_range) if args.tau_range else None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = learning.fit(trend, prox, args.t_star, config, epsilon=args.epsilon)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    prefix = trend.prefix(args.t_star)
    t0 = args.t0 if args.t0 is not None else float(prefix.times[0])
    params = ActivenessParams(result.alpha, result.tau, args.epsilon, t0)
    save_params(args.out, params, prox_config)
    with open(args.out + ".report.csv", "w", encoding="utf-8") as fh:
        fh.write("alpha,tau,logL,evaluations\n")
        fh.write(f"{result.alpha:.10g},{result.tau:.10g},{result.log_likelihood:.10g},{result.evaluations}\n")
    print(f"alpha={result.alpha:.6g} tau={result.tau:.6g} logL={result.log_likelihood:.6g}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    theta = _finite_theta(args.theta, "--theta")
    graph = load_graph(args.graph, args.directed)
    trend = load_trend(args.actions, graph)
    seed = _resolve_seed(args)
    if args.jitter:
        trend = _apply_jitter(trend, args.jitter, seed)
    grid = _parse_grid(args.grid)
    if grid.t_start != args.t_star:
        raise ValueError(
            f"grid starts at {grid.t_start:g} but --t-star is {args.t_star:g}"
        )
    if args.model == "da":
        if args.mult:
            raise ValueError("--mult applies to cascade baselines only")
        if not args.params:
            raise ValueError("--model da requires --params from a prior learn run")
    else:
        for flag, value in (("--params", args.params), ("--prox-cache", args.prox_cache),
                            ("--max-events", args.max_events)):
            if value is not None:
                raise ValueError(f"{flag} applies to --model da only, not --model {args.model}")
    sim_config = SimConfig(
        t_start=args.t_star,
        t_end=grid.t_end,
        runs=args.runs,
        seed=seed,
        max_events=SimConfig.max_events if args.max_events is None else args.max_events,
    )
    if args.model == "da":
        params, prox_config = load_params(args.params)
        simulation.check_start(params, args.t_star)
        prox = _proximity(args, graph, prox_config)
        bound = simulation.branching_bound(prox, params, graph.node_count)
        if bound >= 1.0:
            print(
                f"warning: parameters are supercritical: alpha * tau * max_row_sum = {bound:.6g} >= 1; "
                "runs may grow until --max-events",
                file=sys.stderr,
            )
        run_dump = _run_dump(args.dump_runs)
        report = simulation.predict(
            trend, graph.node_count, prox, params, sim_config, grid,
            theta=theta, measure=args.measure, run_dump=run_dump,
        )
    else:
        params = baselines.fit_baseline(args.model, trend, graph, args.t_star)
        if params.fallback:
            print("warning: no attributable activations; using fallback cascade parameters", file=sys.stderr)
        if args.mult:
            params.mult_factor = _training_mult_factor(trend, args.t_star, grid.interval_length)
        run_dump = _run_dump(args.dump_runs)
        report = baselines.predict_baseline(
            params, graph, trend, sim_config, grid,
            theta=theta, measure=args.measure, mult=args.mult, run_dump=run_dump,
        )
    if run_dump is not None:
        for i, run_trend in enumerate(run_dump):
            write_trend(os.path.join(args.dump_runs, f"run_{i:04d}.tsv"), run_trend, graph)
    report.write_csv(args.out)
    return 0


def _run_dump(path: str | None) -> list[Trend] | None:
    """The list predict fills with its runs, after making the --dump-runs directory; None without one.

    The directory is made before any run, so a path that cannot be one fails
    before the forecast is paid for.
    """
    if not path:
        return None
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--dump-runs {path}: cannot make the directory: {exc.strerror}") from exc
    return []


def _training_mult_factor(trend: Trend, t_star: float, interval_length: float) -> float:
    """Fit the coverage-to-intensity slope on full intervals before t_star."""
    prefix = trend.prefix(t_star)
    if len(prefix) == 0:
        raise ValueError("no observed actions before t_star to fit --mult")
    span = t_star - float(prefix.times[0])
    count = int(math.floor(span / interval_length))
    if count < 1:
        raise ValueError("observation span shorter than one interval; cannot fit --mult")
    grid = IntervalGrid(t_star - count * interval_length, interval_length, count)
    return baselines.fit_mult_factor(prefix, grid)


def _eval_theta(args: argparse.Namespace, trend: Trend) -> float:
    if args.theta is not None:
        return _finite_theta(args.theta, "--theta")
    if args.theta_from_train:
        grid = _parse_grid(args.theta_from_train)
        return float(evaluation.threshold_from_last_observed(trend, grid, args.measure))
    raise ValueError("eval needs --theta or --theta-from-train")


def _manifest_entries(path: str) -> list[dict]:
    """The 'trends' entries of an eval manifest; a malformed one raises ValueError naming ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    entries = manifest.get("trends") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{path}: expected a JSON object with a 'trends' list")
    if not entries:
        raise ValueError(f"{path}: the 'trends' list is empty")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or not all(isinstance(entry.get(key), str) for key in ("pred", "actions")):
            raise ValueError(f"{path}: trends[{k}] needs 'pred' and 'actions' file paths")
    return entries


def cmd_eval(args: argparse.Namespace) -> int:
    if args.manifest is not None:
        for flag, value in (("--pred", args.pred), ("--actions", args.actions)):
            if value is not None:
                raise ValueError(f"{flag} cannot be combined with --manifest, which names each trend's files")
    if args.theta is not None and args.theta_from_train is not None:
        raise ValueError("--theta and --theta-from-train cannot be combined; give one")
    if args.manifest:
        entries = _manifest_entries(args.manifest)
    else:
        if not (args.pred and args.actions):
            raise ValueError("eval needs --pred and --actions, or --manifest")
        entries = [{"pred": args.pred, "actions": args.actions}]
    graph = load_graph(args.graph, args.directed)
    reports = []
    for k, entry in enumerate(entries):
        report = simulation.PredictionReport.read_csv(entry["pred"])
        trend = load_trend(entry["actions"], graph)
        if "theta" in entry:
            theta = _finite_theta(entry["theta"], f"{args.manifest}: trends[{k}].theta")
        else:
            theta = _eval_theta(args, trend)
        reports.append(evaluation.evaluate_prediction(report, trend, theta, args.measure))
    evaluation.write_eval_csv(args.out, reports)
    matches = sum(r.duration_match for r in reports)
    print(f"evaluated {len(reports)} trend(s); duration flags matched on {matches}")
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph, args.directed)
    trend = load_trend(args.actions, graph)
    series = aggregate(trend, _parse_grid(args.grid))
    write_aggregate_csv(args.out, series)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    if bool(args.graph) == bool(args.random_graph):
        raise ValueError("synth needs exactly one of --graph or --random-graph")
    if args.graph and args.graph_out is not None:
        raise ValueError("--graph-out applies to --random-graph only, not --graph")
    prox_config = _prox_config(args)
    params = ActivenessParams(args.alpha, args.tau, args.epsilon, args.t0)
    if args.graph:
        graph = load_graph(args.graph, args.directed)
    else:
        parts = args.random_graph.split(":")
        if len(parts) != 2:
            raise ValueError("--random-graph must be 'nodes:edges'")
        if not args.graph_out:
            raise ValueError("--random-graph requires --graph-out for the generated edges")
        graph = drop_edgeless_nodes(random_graph(int(parts[0]), int(parts[1]), seed, args.directed))
        if graph.node_count == 0:
            raise ValueError(f"--random-graph {args.random_graph} has no edges, and no node is left once "
                             "the edgeless nodes are dropped")
    prox = ProximityMap(graph, prox_config)
    trend, manifest = simulation.generate_synthetic(
        graph.node_count,
        prox,
        params,
        args.n_seeds,
        args.horizon,
        seed,
        allow_supercritical=args.allow_supercritical,
        max_events=args.max_events,
    )
    manifest["proximity"] = prox_config.to_dict()
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    # Outputs are written only once generation succeeded and the manifest is
    # valid strict JSON, so a failed run leaves none.
    if args.random_graph:
        write_graph(args.graph_out, graph)
    write_trend(args.out, trend, graph)
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(manifest_text + "\n")
    print(f"wrote {len(trend)} actions to {args.out}")
    return 0


def cmd_prox_cache(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph, args.directed)
    prox = ProximityMap(graph, _prox_config(args))
    if args.actions:
        trend = load_trend(args.actions, graph)
        sources = np.unique(trend.nodes)
    else:
        sources = np.arange(graph.node_count)
    prox.gather(sources)
    prox.save_cache(args.out)
    print(f"cached {len(sources)} rows to {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="trendcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="fit activeness parameters from an action prefix")
    _add_graph_flags(p)
    p.add_argument("--actions", required=True, help="action file, 'node<TAB>timestamp' per line")
    p.add_argument("--t-star", type=float, required=True, help="end of the observed prefix")
    _add_prox_flags(p)
    p.add_argument("--prox-cache", help="proximity cache file to load")
    p.add_argument("--tau-range", help="tau bracket 'lo:hi' (default derived from span)")
    p.add_argument("--epsilon", type=float, default=1e-9)
    p.add_argument("--t0", type=float, default=None, help="trend start (default: first action)")
    p.add_argument("--jitter", type=float, default=0.0, help="uniform tie-breaking jitter width")
    p.add_argument("--seed", type=int, default=None, help="seeds --jitter only; the fit draws nothing")
    p.add_argument("--out", required=True, help="parameter JSON output path")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("predict", help="Monte Carlo forecast past t-star")
    _add_graph_flags(p)
    p.add_argument("--actions", required=True)
    p.add_argument("--t-star", type=float, required=True)
    p.add_argument("--grid", required=True, help="prediction grid 't_start:interval_length:count'")
    p.add_argument("--model", default="da", choices=list(MODELS),
                   help="forecaster: da, or a cascade baseline; eexp currently forecasts exactly what texp "
                        "does, because its per-edge rates are fitted on edges into prefix-active nodes, "
                        "which never activate again")
    p.add_argument("--mult", action="store_true", help="scale cascade coverage into intensity")
    p.add_argument("--params", help="parameter JSON from learn, which also fixes the proximity kernel "
                                    "(da only, required)")
    p.add_argument("--prox-cache", help="proximity cache file to load (da only)")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--theta", type=float, default=0.0, help="duration threshold")
    p.add_argument("--measure", default="coverage", choices=["coverage", "intensity"])
    p.add_argument("--max-events", type=int, default=None,
                   help="event cap per run of --model da (default 10000000; exit 2 when hit)")
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--dump-runs", help="directory for per-run action dumps, run_0000.tsv onward")
    p.add_argument("--out", required=True, help="prediction CSV output path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a prediction CSV against realized actions")
    _add_graph_flags(p)
    p.add_argument("--pred", help="prediction CSV from predict (not with --manifest)")
    p.add_argument("--actions", help="realized action file (not with --manifest)")
    p.add_argument("--manifest", help="JSON manifest with a 'trends' list of pred/actions pairs")
    p.add_argument("--theta", type=float, default=None, help="duration threshold")
    p.add_argument("--theta-from-train", help="training grid 't0:len:count' to derive theta (not with --theta)")
    p.add_argument("--measure", default="coverage", choices=["coverage", "intensity"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("aggregate", help="bucket actions into per-interval counts")
    _add_graph_flags(p)
    p.add_argument("--actions", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("synth", help="generate a synthetic trend with planted parameters")
    _add_graph_flags(p, required=False)
    p.add_argument("--random-graph", help="'nodes:edges' to generate a random graph")
    p.add_argument("--graph-out", help="where to write the generated edge file (--random-graph only)")
    _add_prox_flags(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=1e-9)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--n-seeds", type=int, default=5)
    p.add_argument("--allow-supercritical", action="store_true",
                   help="generate even when alpha*tau*max_row_sum >= 1 (checked against "
                        "a max-degree cap on the row sums; exact rows only near 1)")
    p.add_argument("--max-events", type=int, default=10_000_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="action file output path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prox-cache", help="precompute and store proximity rows")
    _add_graph_flags(p)
    _add_prox_flags(p)
    p.add_argument("--actions", help="restrict rows to nodes acting in this file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prox_cache)

    parser.commands = sub.choices  # name -> subparser, for main's leftover report
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # Through the chosen command's parser, so the usage shown is its own.
        parser.commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (ExplosionError, ConvergenceError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's MemoryError names the allocation it could not make; a bare one says nothing.
        print(f"error: {args.command}: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
