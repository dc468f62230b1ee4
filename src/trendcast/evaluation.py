"""Forecast scoring: error ratios and duration agreement.

The truth comes from ``core.aggregate`` and its duration flag from
``core.longest_run_above``, the same code that builds the forecast and its
duration vote. An error ratio against a zero truth is undefined: it is
reported as NaN and excluded from averages rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import IntervalGrid, Trend, aggregate, check_measure, duration
from .simulation import PredictionReport


def error_ratio(truth: np.ndarray | float, prediction: np.ndarray | float) -> np.ndarray:
    """|truth - prediction| / truth, elementwise; NaN where the truth is zero."""
    truth = np.asarray(truth, dtype=np.float64)
    if (truth < 0).any():
        raise ValueError("truth must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(truth == 0, math.nan, np.abs(truth - prediction) / truth)


def mean_defined(values: Sequence[float]) -> float:
    """Mean over the defined entries; NaN when every entry is undefined."""
    arr = np.asarray(values, dtype=np.float64)
    defined = arr[~np.isnan(arr)]
    return float(defined.mean()) if defined.size else math.nan


def duration_accuracy(pairs: Sequence[tuple[bool, bool]]) -> float:
    """Fraction of (predicted, true) duration flags that agree."""
    if not pairs:
        raise ValueError("no duration flag pairs to score")
    return sum(p == t for p, t in pairs) / len(pairs)


def threshold_from_last_observed(trend: Trend, training_grid: IntervalGrid, measure: str = "coverage") -> int:
    """Duration threshold: the measure on the final training interval."""
    check_measure(measure)
    return int(getattr(aggregate(trend, training_grid), measure)[-1])


@dataclass
class EvalReport:
    """Per-interval error ratios and the duration-flag comparison for one trend."""

    grid: IntervalGrid
    truth_intensity: np.ndarray
    truth_coverage: np.ndarray
    pred_intensity: np.ndarray
    pred_coverage: np.ndarray
    intensity_error: np.ndarray
    coverage_error: np.ndarray
    theta: float
    measure: str
    duration_true: bool
    duration_predicted: bool

    @property
    def duration_match(self) -> bool:
        return self.duration_true == self.duration_predicted


def evaluate_prediction(
    report: PredictionReport,
    truth: Trend,
    theta: float,
    measure: str = "coverage",
) -> EvalReport:
    """Score a prediction report against the realized actions on its own grid.

    The predicted duration flag is the majority vote over simulation runs
    (covering fraction > 0.5). The true flag applies the rule each run voted
    by to the realized series: its longest run above theta spans the grid.
    Both flags must use one threshold: a report made with another ``theta``
    (as the CSV writes it, to 10 significant digits) or ``measure`` raises
    ValueError.
    """
    if (f"{report.theta:.10g}", report.measure) != (f"{theta:.10g}", measure):
        raise ValueError(
            f"{report.summary_at or 'prediction'}: the prediction's duration vote uses "
            f"theta={report.theta:.10g} measure={report.measure}, but eval was given "
            f"theta={theta:.10g} measure={measure}"
        )
    grid = report.grid
    truth_series = aggregate(truth, grid)
    return EvalReport(
        grid=grid,
        truth_intensity=truth_series.intensity,
        truth_coverage=truth_series.coverage,
        pred_intensity=report.intensity_mean,
        pred_coverage=report.coverage_mean,
        intensity_error=error_ratio(truth_series.intensity, report.intensity_mean),
        coverage_error=error_ratio(truth_series.coverage, report.coverage_mean),
        theta=theta,
        measure=measure,
        duration_true=duration(truth_series, theta, measure) == grid.count,
        duration_predicted=report.duration_covering_fraction > 0.5,
    )


def write_eval_csv(path: str, reports: Sequence[EvalReport]) -> None:
    """Write per-interval rows, then a summary block as trailing comments.

    With several reports the rows concatenate in order and the summary adds
    the duration accuracy across trends. No reports raise ValueError before
    anything is written.
    """
    accuracy = duration_accuracy([(r.duration_predicted, r.duration_true) for r in reports])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("interval_index,measure,truth,prediction,error_ratio\n")
        for k, rep in enumerate(reports):
            if len(reports) > 1:
                fh.write(f"# trend {k}\n")
            for i in range(rep.grid.count):
                for measure, truth_arr, pred_arr, err_arr in (
                    ("intensity", rep.truth_intensity, rep.pred_intensity, rep.intensity_error),
                    ("coverage", rep.truth_coverage, rep.pred_coverage, rep.coverage_error),
                ):
                    err = err_arr[i]
                    err_s = "" if math.isnan(err) else f"{err:.10g}"
                    fh.write(f"{i},{measure},{truth_arr[i]:.10g},{pred_arr[i]:.10g},{err_s}\n")
        fh.write("# summary\n")
        for k, rep in enumerate(reports):
            fh.write(
                f"# trend {k}: theta={rep.theta:.10g} measure={rep.measure} "
                f"duration_true={rep.duration_true} duration_predicted={rep.duration_predicted} "
                f"mean_intensity_error={_fmt_nan(mean_defined(rep.intensity_error))} "
                f"mean_coverage_error={_fmt_nan(mean_defined(rep.coverage_error))}\n"
            )
        fh.write(f"# duration_accuracy={accuracy:.10g}\n")


def _fmt_nan(x: float) -> str:
    return "nan" if math.isnan(x) else f"{x:.10g}"
