"""Forward simulation of activeness by its Poisson cluster representation.

The model is linear: every action adds alpha * prox(u, .) to the node rates
and the boost decays as exp(-(t - t_i)/tau). A run is therefore a cluster
process. The observed prefix leaves one stream per node with rate
A * exp(-(t - t_start)/tau), and every realized event (v, t) starts one
offspring stream of total rate alpha * row_sum(v) * exp(-(s - t)/tau) whose
events land on row targets drawn in proportion to prox(v, .). A stream's
event count before the horizon is Poisson and, given the count, its times
are iid inverse-CDF draws: one generation at a time, with no thinning.

Streams live in one ``Streams`` record of aligned arrays. Rows come in CSR
form from ``ProximityMap.gather``: ``init_streams`` spreads the actors'
summed decayed weights over their rows with one ``bincount``, and
``simulate`` marks a generation's events with one ``gather`` of its parents
and one ``searchsorted`` over their joined cumulative scores. A
generation's coefficients come from one ``ProximityMap.row_sums`` of its
acting nodes. ``gather`` and ``row_sums`` build all of their missing
shortest-path rows in one batched BFS, and a lone missing row with the
scalar BFS, which is cheaper for one row; both give the same rows, so a
run does not depend on which path built them.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import IntervalGrid, Trend, _read_lines, aggregate
from .proximity import ProximityMap
from .activeness import DECAY_CUTOFF, ActivenessParams, _decay

# spawn_key name spaces for derived generators: run r draws from key (r,),
# auxiliary generators (seed picking here, jitter in the CLI, cascade runs in
# baselines) use keys from 2**61 up, so the two never meet.
_SEED_PICK_KEY = 2**61

_CSV_HEADER = "interval_index,t_min,t_max,intensity_mean,intensity_cv,coverage_mean,coverage_cv"


class ExplosionError(RuntimeError):
    """A run exceeded the hard event cap; parameters are likely supercritical."""


@dataclass(frozen=True)
class Streams:
    """Aligned stream arrays: stream k on node[k] has rate coefficient[k] * exp(-(t - anchor[k])/tau[k])."""

    node: np.ndarray
    coefficient: np.ndarray
    anchor: np.ndarray
    tau: np.ndarray

    def __post_init__(self) -> None:
        if not len(self.node) == len(self.coefficient) == len(self.anchor) == len(self.tau):
            raise ValueError("node, coefficient, anchor and tau must have equal length")

    def __len__(self) -> int:
        return len(self.node)


@dataclass(frozen=True)
class SimConfig:
    """Horizon, run count, and root seed for Monte Carlo prediction."""

    t_start: float
    t_end: float
    runs: int = 1
    seed: int = 0
    max_events: int = 10_000_000
    mass_floor: float = 1e-12

    def __post_init__(self) -> None:
        if not -math.inf < self.t_start < self.t_end < math.inf:
            raise ValueError(f"need finite t_start < t_end, got {self.t_start!r} and {self.t_end!r}")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.max_events < 1:
            raise ValueError("max_events must be positive")


def derived_rng(seed: int, key: int) -> np.random.Generator:
    """Generator for spawn key ``key`` off the root seed (runs, seed picking, jitter)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def init_streams(
    trend: Trend,
    prox: ProximityMap,
    params: ActivenessParams,
    t_start: float,
    node_count: int,
    mass_floor: float = 1e-12,
) -> Streams:
    """Streams carrying the observed prefix past t_start.

    One stream per node, anchored at t_start with decay tau. Its coefficient
    sums every prefix action's decayed influence alpha * prox(u, v) *
    exp(-(t_start - t_i)/tau) and the residual rate. Streams whose total mass
    falls below ``mass_floor`` are dropped.
    """
    tau = params.tau
    prefix = trend.prefix(t_start)
    x = (t_start - prefix.times) / tau
    decay = np.where(x > DECAY_CUTOFF, 0.0, np.exp(-x))
    weight = np.bincount(prefix.nodes, weights=decay, minlength=node_count)
    live = np.flatnonzero(weight)
    row_start, targets, scores = prox.gather(live)
    spread = np.repeat(params.alpha * weight[live], np.diff(row_start)) * scores
    coeff = params.epsilon * _decay(t_start - params.t0, tau) + np.bincount(targets, spread, node_count)
    keep = np.flatnonzero((coeff > 0.0) & (coeff * tau >= mass_floor))
    return Streams(keep, coeff[keep], np.full(len(keep), t_start), np.full(len(keep), tau))


@dataclass(frozen=True)
class RunStats:
    events: int
    child_events: int

    @property
    def branching_ratio(self) -> float:
        """Fraction of events generated by event-spawned streams."""
        return self.child_events / self.events if self.events else math.nan


def simulate(
    streams: Streams,
    prox: ProximityMap,
    params: ActivenessParams,
    config: SimConfig,
    run_index: int = 0,
) -> tuple[Trend, RunStats]:
    """One run: the given streams are generation 0, each event starts a stream of the next.

    A stream c * exp(-(t - s)/tau) has Poisson(c * tau * w) events before
    t_end, w = 1 - exp(-(t_end - s)/tau), at iid times of CDF
    (1 - exp(-(t - s)/tau)) / w. Event (v, t) starts alpha * row_sum(v) at t,
    whose events land on v's row targets drawn in proportion to score. A
    drawn count past ``config.max_events`` raises ExplosionError first.
    """
    if not 0 <= run_index < _SEED_PICK_KEY:
        raise ValueError("run_index must lie in [0, 2**61)")
    rng = derived_rng(config.seed, run_index)
    nodes, coeff, anchor, tau = streams.node, streams.coefficient, streams.anchor, streams.tau
    node_parts, time_parts = [], []
    drawn = 0.0
    while True:
        w = -np.expm1(-(config.t_end - anchor) / tau)
        # numpy draws no Poisson mean past ~9.2e18; one past 1e18 passes any cap anyway
        counts = rng.poisson(np.clip(coeff * tau * w, 0.0, 1e18))
        drawn += counts.sum(dtype=np.float64)
        if drawn > config.max_events:
            raise ExplosionError(
                f"run {run_index} exceeded {config.max_events} events; "
                "check subcriticality of alpha * tau * row sums"
            )
        parent = np.repeat(np.arange(len(counts)), counts)
        times = anchor[parent] - tau[parent] * np.log1p(-rng.random(len(parent)) * w[parent])
        keep = times < config.t_end  # rounding can put a time on t_end itself
        parent, times = parent[keep], times[keep]
        if not node_parts:
            nodes = nodes[parent]
        else:  # events past generation 0 land on targets of their parent's row
            parents, row = np.unique(group[parent], return_inverse=True)
            order = np.argsort(row, kind="stable")
            times, row = times[order], row[order]
            row_start, targets, scores = prox.gather(acting[parents])
            cum = np.concatenate([[0.0], np.cumsum(scores)])
            lo, hi = row_start[row], row_start[row + 1]
            pick = cum[lo] + rng.random(len(times)) * (cum[hi] - cum[lo])
            # rounding can put a pick on its row's end, past the row's last entry
            nodes = targets[np.minimum(np.searchsorted(cum, pick, side="right") - 1, hi - 1)]
        node_parts.append(nodes)
        time_parts.append(times)
        if not len(times):
            break
        acting, group = np.unique(nodes, return_inverse=True)
        coeff = params.alpha * prox.row_sums(acting)[group]
        anchor, tau = times, np.full(len(times), params.tau)
    trend = Trend(np.concatenate(node_parts), np.concatenate(time_parts))
    return trend, RunStats(len(trend), len(trend) - len(node_parts[0]))


@dataclass
class PredictionReport:
    """Per-interval Monte Carlo summary plus the duration-coverage vote."""

    grid: IntervalGrid
    runs: int
    theta: float
    measure: str
    intensity_mean: np.ndarray
    intensity_cv: np.ndarray
    coverage_mean: np.ndarray
    coverage_cv: np.ndarray
    duration_covering_fraction: float
    branching_ratio: float = math.nan
    # 'path:line' of the summary line, for a report read_csv read.
    summary_at: str = field(default="", compare=False)

    def write_csv(self, out: str | io.TextIOBase) -> None:
        fh = open(out, "w", encoding="utf-8") if isinstance(out, str) else out
        try:
            fh.write(_CSV_HEADER + "\n")
            for i in range(self.grid.count):
                t_min, t_max = self.grid.bounds(i)
                fh.write(
                    f"{i},{t_min!r},{t_max!r},"
                    f"{_fmt(self.intensity_mean[i])},{_fmt(self.intensity_cv[i])},"
                    f"{_fmt(self.coverage_mean[i])},{_fmt(self.coverage_cv[i])}\n"
                )
            fh.write(
                f"# summary runs={self.runs} theta={self.theta:.10g} measure={self.measure} "
                f"duration_covering_fraction={self.duration_covering_fraction:.10g} "
                f"branching_ratio={_fmt(self.branching_ratio)} "
                f"interval_length={self.grid.interval_length!r}\n"
            )
        finally:
            if isinstance(out, str):
                fh.close()

    @classmethod
    def read_csv(cls, path: str) -> PredictionReport:
        """Read a prediction CSV as ``write_csv`` writes it.

        It needs the header, one row of 7 numeric fields per interval (an
        empty mean or CV reads as NaN) and a summary line with every key
        ``write_csv`` writes; an empty ``branching_ratio`` reads as NaN. Row
        k must hold interval k with exactly the grid's bounds, the grid
        starting at row 0's ``t_min`` with the summary's ``interval_length``.
        Anything else raises ValueError naming ``path`` and the line.
        """
        lines = _read_lines(path)
        if lines[0].strip() != _CSV_HEADER:
            raise ValueError(f"{path}:1: unexpected header {lines[0].strip()!r}")
        rows: list[list[float]] = []
        row_lines: list[int] = []
        summary: dict[str, str] | None = None
        for lineno, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line:
                continue
            if line.startswith("# summary"):
                summary_line = lineno
                summary = dict(token.partition("=")[::2] for token in line.removeprefix("# summary").split())
                continue
            fields = line.split(",")
            if len(fields) != 7:
                raise ValueError(f"{path}:{lineno}: expected 7 fields, got {len(fields)}")
            try:
                rows.append([float(f) if f or k < 3 else math.nan for k, f in enumerate(fields)])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            row_lines.append(lineno)
        if not rows:
            raise ValueError(f"{path}: no interval rows")
        if summary is None:
            raise ValueError(f"{path}: no '# summary' line")
        if not math.isfinite(rows[0][1]):
            raise ValueError(f"{path}:{row_lines[0]}: t_min must be finite, got {rows[0][1]!r}")
        columns = np.asarray(rows).T
        try:
            # The bounds are sums t_start + k * length, so their difference need
            # not give the length back; the summary carries it exactly.
            grid = IntervalGrid(float(columns[1, 0]), float(summary["interval_length"]), len(rows))
            report = cls(
                grid=grid,
                runs=int(summary["runs"]),
                theta=float(summary["theta"]),
                measure=summary["measure"],
                intensity_mean=columns[3],
                intensity_cv=columns[4],
                coverage_mean=columns[5],
                coverage_cv=columns[6],
                duration_covering_fraction=float(summary["duration_covering_fraction"]),
                branching_ratio=float(summary["branching_ratio"] or "nan"),
                summary_at=f"{path}:{summary_line}",
            )
        except KeyError as exc:
            raise ValueError(f"{path}:{summary_line}: summary lacks key {exc.args[0]!r}") from None
        except ValueError as exc:
            raise ValueError(f"{path}:{summary_line}: {exc}") from None
        # write_csv writes each bound with repr, so a file it wrote matches exactly.
        edges = grid.edges.tolist()
        for k, lineno in enumerate(row_lines):
            index, t_min, t_max = rows[k][:3]
            if (index, t_min, t_max) != (k, edges[k], edges[k + 1]):
                raise ValueError(
                    f"{path}:{lineno}: expected interval {k} [{edges[k]!r}, {edges[k + 1]!r}), "
                    f"got {index:g} [{t_min!r}, {t_max!r})"
                )
        return report


def _fmt(x: float) -> str:
    return "" if math.isnan(x) else f"{x:.10g}"


def _column_cv(matrix: np.ndarray) -> np.ndarray:
    runs = matrix.shape[0]
    means = matrix.mean(axis=0)
    if runs < 2:
        return np.full(matrix.shape[1], math.nan)
    stds = matrix.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = np.where(means > 0, stds / means, math.nan)
    return cv


def summarize_runs(
    grid: IntervalGrid,
    intensity_rows: Sequence[np.ndarray],
    coverage_rows: Sequence[np.ndarray],
    theta: float,
    measure: str,
    branching_ratio: float = math.nan,
) -> PredictionReport:
    """Fold per-run interval series into means, CVs, and the duration vote.

    With a single run the CVs are undefined and reported as absent (NaN in
    memory, empty fields in CSV).
    """
    if measure not in ("intensity", "coverage"):
        raise ValueError("measure must be 'intensity' or 'coverage'")
    inten = np.vstack(intensity_rows).astype(np.float64)
    cov = np.vstack(coverage_rows).astype(np.float64)
    chosen = inten if measure == "intensity" else cov
    # A run's longest stretch above theta spans the grid exactly when every interval is above it.
    covering = (chosen > theta).all(axis=1)
    return PredictionReport(
        grid=grid,
        runs=inten.shape[0],
        theta=theta,
        measure=measure,
        intensity_mean=inten.mean(axis=0),
        intensity_cv=_column_cv(inten),
        coverage_mean=cov.mean(axis=0),
        coverage_cv=_column_cv(cov),
        duration_covering_fraction=float(np.mean(covering)),
        branching_ratio=branching_ratio,
    )


def predict(
    trend: Trend,
    node_count: int,
    prox: ProximityMap,
    params: ActivenessParams,
    config: SimConfig,
    grid: IntervalGrid,
    theta: float = 0.0,
    measure: str = "coverage",
    run_dump: list[Trend] | None = None,
) -> PredictionReport:
    """Monte Carlo forecast of the trend past config.t_start on the grid.

    The observed prefix is folded into initial streams once; each run then
    draws from its own derived generator, so results are independent of
    scheduling and reproducible from config.seed alone.
    """
    if grid.t_start != config.t_start:
        raise ValueError("grid must start at the simulation start time")
    streams = init_streams(
        trend, prox, params, config.t_start, node_count, config.mass_floor
    )
    intensity_rows: list[np.ndarray] = []
    coverage_rows: list[np.ndarray] = []
    total_events = total_children = 0
    for run_index in range(config.runs):
        run_trend, stats = simulate(streams, prox, params, config, run_index)
        series = aggregate(run_trend, grid)
        intensity_rows.append(series.intensity)
        coverage_rows.append(series.coverage)
        total_events += stats.events
        total_children += stats.child_events
        if run_dump is not None:
            run_dump.append(run_trend)
    ratio = total_children / total_events if total_events else math.nan
    return summarize_runs(grid, intensity_rows, coverage_rows, theta, measure, ratio)


# Float row sums can exceed their analytic cap by a few ulps (1 + 2.7e-15 on
# random-walk rows of 1k nodes). Below 1 - _CAP_MARGIN the cap alone accepts,
# and the exact max row sum would have accepted too.
_CAP_MARGIN = 1e-9


def branching_bound(prox: ProximityMap, params: ActivenessParams, node_count: int) -> float:
    """Upper bound on the expected offspring per event: alpha * tau * C.

    C is ``prox.row_sum_cap()``, a cap on every row sum from the kernel and
    the max degree that builds no row. Only when alpha * tau * C comes
    within _CAP_MARGIN of 1 is C replaced by the exact max row sum over
    nodes 0..node_count-1, so the verdict ``bound >= 1`` is the one the
    exact rows give. The value depends on the graph, kernel and params
    only, never on which rows are cached.
    """
    scale = params.alpha * params.tau
    capped = scale * prox.row_sum_cap()
    if capped < 1.0 - _CAP_MARGIN:
        return capped
    return scale * float(prox.row_sums(np.arange(node_count)).max())


def generate_synthetic(
    graph_node_count: int,
    prox: ProximityMap,
    params: ActivenessParams,
    n_seeds: int,
    horizon: float,
    seed: int,
    allow_supercritical: bool = False,
    max_events: int = 10_000_000,
) -> tuple[Trend, dict]:
    """Plant params, seed a few actions at t0, and simulate forward to ``horizon``.

    Supercritical parameter sets (alpha * tau * max row sum >= 1, decided by
    ``branching_bound``) are refused unless explicitly allowed; the event
    cap still bounds allowed runs. The manifest's ``branching_bound`` is
    that function's value: the degree cap when it is safely below 1, else
    the exact alpha * tau * max row sum.
    Returns the seeded-plus-generated trend and a manifest dict.
    """
    if not 1 <= n_seeds <= graph_node_count:
        raise ValueError("n_seeds must lie in [1, node_count]")
    if horizon <= params.t0:
        raise ValueError("horizon must exceed t0")
    bound = branching_bound(prox, params, graph_node_count)
    if bound >= 1.0 and not allow_supercritical:
        raise ValueError(
            f"planted parameters are supercritical: alpha * tau * max_row_sum = "
            f"{bound:.6g} >= 1; generation may not terminate"
        )
    pick = derived_rng(seed, _SEED_PICK_KEY)
    seed_nodes = np.sort(pick.choice(graph_node_count, size=n_seeds, replace=False))
    seeds = Trend(seed_nodes, np.full(n_seeds, params.t0))
    config = SimConfig(
        t_start=params.t0, t_end=horizon, runs=1, seed=seed, max_events=max_events
    )
    streams = init_streams(seeds, prox, params, params.t0, graph_node_count, config.mass_floor)
    generated, stats = simulate(streams, prox, params, config, run_index=0)
    trend = Trend(
        np.concatenate([seeds.nodes, generated.nodes]),
        np.concatenate([seeds.times, generated.times]),
    )
    manifest = {
        "alpha": params.alpha,
        "tau": params.tau,
        "epsilon": params.epsilon,
        "t0": params.t0,
        "horizon": horizon,
        "n_seeds": n_seeds,
        "seed_nodes": seed_nodes.tolist(),
        "seed": seed,
        "branching_bound": bound,
        "supercritical": bound >= 1.0,
        "actions": len(trend),
        "generated_events": stats.events,
        "child_events": stats.child_events,
    }
    return trend, manifest
