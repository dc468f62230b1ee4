"""Forecast scoring: error ratios, dispersion, and duration agreement.

Undefined quantities (error ratio against a zero truth, CV of fewer than two
samples or around a zero mean) are reported as NaN and excluded from
averages rather than raising.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AggregateSeries, IntervalGrid, Trend, aggregate, duration, intensity, coverage
from .simulation import PredictionReport


def error_ratio(truth: float, prediction: float) -> float:
    """|truth - prediction| / truth; NaN when the truth is zero."""
    if truth < 0:
        raise ValueError("truth must be non-negative")
    if truth == 0:
        return math.nan
    return abs(truth - prediction) / truth


def coefficient_of_variation(samples: Sequence[float]) -> float:
    """Sample standard deviation over mean; NaN for < 2 samples or zero mean."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 2:
        return math.nan
    mean = float(arr.mean())
    if mean == 0.0:
        return math.nan
    return float(arr.std(ddof=1)) / mean


def mean_defined(values: Sequence[float]) -> float:
    """Mean over the defined entries; NaN when every entry is undefined."""
    arr = np.asarray(values, dtype=np.float64)
    defined = arr[~np.isnan(arr)]
    return float(defined.mean()) if defined.size else math.nan


def duration_flag(series: AggregateSeries, theta: float, measure: str = "coverage") -> bool:
    """Whether the trend stays above theta across the whole grid."""
    return duration(series, theta, measure) == series.grid.count


def duration_accuracy(pairs: Sequence[tuple[bool, bool]]) -> float:
    """Fraction of (predicted, true) duration flags that agree."""
    if not pairs:
        raise ValueError("no duration flag pairs to score")
    return sum(p == t for p, t in pairs) / len(pairs)


def threshold_from_last_observed(trend: Trend, training_grid: IntervalGrid, measure: str = "coverage") -> int:
    """Duration threshold: the measure on the final training interval."""
    t_min, t_max = training_grid.bounds(training_grid.count - 1)
    if measure == "intensity":
        return intensity(trend, t_min, t_max)
    if measure == "coverage":
        return coverage(trend, t_min, t_max)
    raise ValueError("measure must be 'intensity' or 'coverage'")


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
    (covering fraction > 0.5); the true flag comes from the realized series.
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
    inten_err = np.asarray(
        [error_ratio(t, p) for t, p in zip(truth_series.intensity.tolist(), report.intensity_mean.tolist())]
    )
    cov_err = np.asarray(
        [error_ratio(t, p) for t, p in zip(truth_series.coverage.tolist(), report.coverage_mean.tolist())]
    )
    return EvalReport(
        grid=grid,
        truth_intensity=truth_series.intensity,
        truth_coverage=truth_series.coverage,
        pred_intensity=report.intensity_mean,
        pred_coverage=report.coverage_mean,
        intensity_error=inten_err,
        coverage_error=cov_err,
        theta=theta,
        measure=measure,
        duration_true=duration_flag(truth_series, theta, measure),
        duration_predicted=report.duration_covering_fraction > 0.5,
    )


def write_eval_csv(out: str | io.TextIOBase, reports: Sequence[EvalReport]) -> None:
    """Write per-interval rows, then a summary block as trailing comments.

    With several reports the rows concatenate in order and the summary adds
    the duration accuracy across trends.
    """
    fh = open(out, "w", encoding="utf-8") if isinstance(out, str) else out
    try:
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
        accuracy = duration_accuracy([(r.duration_predicted, r.duration_true) for r in reports])
        fh.write(f"# duration_accuracy={accuracy:.10g}\n")
    finally:
        if isinstance(out, str):
            fh.close()


def _fmt_nan(x: float) -> str:
    return "nan" if math.isnan(x) else f"{x:.10g}"
