"""Scoring tests: error ratios, CV markers, duration flags, and the eval CSV."""

from __future__ import annotations

import math

import numpy as np
import pytest

from trendcast.core import IntervalGrid, Trend
from trendcast.evaluation import (
    EvalReport,
    duration_accuracy,
    error_ratio,
    evaluate_prediction,
    mean_defined,
    threshold_from_last_observed,
    write_eval_csv,
)
from trendcast.simulation import PredictionReport, summarize_runs


def make_trend(nodes, times) -> Trend:
    return Trend(np.asarray(nodes, dtype=np.int64), np.asarray(times, dtype=np.float64))


def test_error_ratio_examples():
    assert error_ratio(86.0, 129.0) == pytest.approx(0.5)
    assert error_ratio(4.0, 3.0) == pytest.approx(0.25)
    assert error_ratio(2.0, 2.0) == 0.0
    # elementwise over arrays, NaN where the truth is zero
    np.testing.assert_array_equal(error_ratio([86, 4, 2, 0], [129.0, 3.0, 2.0, 5.0]), [0.5, 0.25, 0.0, math.nan])


def test_error_ratio_is_symmetric_around_truth():
    assert error_ratio(10.0, 7.0) == error_ratio(10.0, 13.0)


def test_error_ratio_zero_truth_is_undefined():
    assert math.isnan(error_ratio(0.0, 5.0))


def test_error_ratio_rejects_negative_truth():
    with pytest.raises(ValueError, match="non-negative"):
        error_ratio(-1.0, 0.0)


def column_cv(*runs: float) -> float:
    """The CV that summarize_runs reports for one interval over the given runs."""
    rows = [np.asarray([value]) for value in runs]
    report = summarize_runs(IntervalGrid(0.0, 1.0, 1), rows, rows, 0.0, "coverage")
    assert np.array_equal(report.intensity_cv, report.coverage_cv, equal_nan=True)
    return float(report.coverage_cv[0])


def test_coefficient_of_variation_two_samples():
    # mean 2, sample standard deviation sqrt(2)
    assert column_cv(1.0, 3.0) == pytest.approx(math.sqrt(2.0) / 2.0)


def test_coefficient_of_variation_markers():
    # one run, a zero mean, and constant runs
    assert math.isnan(column_cv(5.0))
    assert math.isnan(column_cv(-1.0, 1.0))
    assert math.isnan(column_cv(0.0, 0.0))
    assert column_cv(2.0, 2.0, 2.0) == 0.0


def test_mean_defined_skips_nan():
    assert mean_defined([0.5, math.nan, 1.5]) == pytest.approx(1.0)
    assert math.isnan(mean_defined([math.nan, math.nan]))
    assert math.isnan(mean_defined([]))


def test_duration_accuracy_counts_agreements():
    pairs = [(True, True), (False, True), (False, False), (True, True)]
    assert duration_accuracy(pairs) == pytest.approx(0.75)
    with pytest.raises(ValueError, match="pairs"):
        duration_accuracy([])


def test_threshold_from_last_observed(toy_trend):
    # final training interval [2009, 2010): coverage 3; [2008, 2009): intensity 5
    assert threshold_from_last_observed(toy_trend, IntervalGrid(2007.0, 1.0, 3)) == 3
    assert (
        threshold_from_last_observed(toy_trend, IntervalGrid(2007.0, 1.0, 2), "intensity") == 5
    )
    with pytest.raises(ValueError, match="measure"):
        threshold_from_last_observed(toy_trend, IntervalGrid(2007.0, 1.0, 2), "volume")


def stub_report(
    grid: IntervalGrid, intensity_mean, coverage_mean, fraction: float, theta: float = 0.0, measure: str = "coverage"
) -> PredictionReport:
    count = grid.count
    return PredictionReport(
        grid=grid,
        runs=10,
        theta=theta,
        measure=measure,
        intensity_mean=np.asarray(intensity_mean, dtype=np.float64),
        intensity_cv=np.full(count, math.nan),
        coverage_mean=np.asarray(coverage_mean, dtype=np.float64),
        coverage_cv=np.full(count, math.nan),
        duration_covering_fraction=fraction,
    )


def test_evaluate_prediction_per_interval_errors():
    grid = IntervalGrid(0.0, 1.0, 3)
    report = stub_report(grid, [2.0, 0.5, 1.0], [1.0, 0.5, 0.0], fraction=0.6)
    truth = make_trend([0, 0, 1], [0.2, 0.4, 1.5])
    result = evaluate_prediction(report, truth, theta=0.0)
    assert result.truth_intensity.tolist() == [2, 1, 0]
    assert result.truth_coverage.tolist() == [1, 1, 0]
    np.testing.assert_allclose(result.intensity_error[:2], [0.0, 0.5])
    assert math.isnan(result.intensity_error[2])
    np.testing.assert_allclose(result.coverage_error[:2], [0.0, 0.5])
    assert math.isnan(result.coverage_error[2])
    # truth covers only 2 of 3 intervals; the run vote 0.6 crosses 0.5
    assert result.duration_true is False
    assert result.duration_predicted is True
    assert result.duration_match is False


def test_evaluate_prediction_majority_vote_boundary():
    grid = IntervalGrid(0.0, 1.0, 1)
    truth = make_trend([0], [0.5])
    at_half = evaluate_prediction(stub_report(grid, [1.0], [1.0], 0.5), truth, 0.0)
    assert at_half.duration_predicted is False
    above = evaluate_prediction(stub_report(grid, [1.0], [1.0], 0.51), truth, 0.0)
    assert above.duration_predicted is True


def test_evaluate_prediction_duration_flag_requires_full_cover(toy_trend):
    # the toy trend's intensity is [1, 5, 4, 2, 0] and its coverage [1, 2, 3, 2, 0]
    def duration_true(count: int, theta: float, measure: str = "coverage") -> bool:
        grid = IntervalGrid(2007.0, 1.0, count)
        report = stub_report(grid, np.ones(count), np.ones(count), 0.6, theta, measure)
        return evaluate_prediction(report, toy_trend, theta, measure).duration_true

    assert duration_true(5, 0.0) is False
    assert duration_true(4, 0.0) is True
    assert duration_true(4, 1.0) is False
    assert duration_true(4, 1.0, "intensity") is False
    assert duration_true(4, 0.0, "intensity") is True


def test_write_eval_csv_single_trend_golden(tmp_path):
    grid = IntervalGrid(0.0, 1.0, 3)
    report = stub_report(grid, [2.0, 0.5, 1.0], [1.0, 0.5, 0.0], fraction=0.6)
    truth = make_trend([0, 0, 1], [0.2, 0.4, 1.5])
    result = evaluate_prediction(report, truth, theta=0.0)
    out = tmp_path / "eval.csv"
    write_eval_csv(str(out), [result])
    assert out.read_text(encoding="utf-8").splitlines() == [
        "interval_index,measure,truth,prediction,error_ratio",
        "0,intensity,2,2,0",
        "0,coverage,1,1,0",
        "1,intensity,1,0.5,0.5",
        "1,coverage,1,0.5,0.5",
        "2,intensity,0,1,",
        "2,coverage,0,0,",
        "# summary",
        "# trend 0: theta=0 measure=coverage duration_true=False duration_predicted=True "
        "mean_intensity_error=0.25 mean_coverage_error=0.25",
        "# duration_accuracy=0",
    ]


def test_write_eval_csv_without_reports_writes_nothing(tmp_path):
    out = tmp_path / "eval.csv"
    with pytest.raises(ValueError, match="no duration flag pairs"):
        write_eval_csv(str(out), [])
    assert not out.exists()


def test_write_eval_csv_multiple_trends(tmp_path):
    grid = IntervalGrid(0.0, 1.0, 1)
    truth = make_trend([0], [0.5])
    matching = evaluate_prediction(stub_report(grid, [1.0], [1.0], 0.9), truth, 0.0)
    missing = evaluate_prediction(stub_report(grid, [1.0], [1.0], 0.1), truth, 0.0)
    out = tmp_path / "eval.csv"
    write_eval_csv(str(out), [matching, missing])
    text = out.read_text(encoding="utf-8")
    assert "# trend 0\n" in text
    assert "# trend 1\n" in text
    assert "# duration_accuracy=0.5" in text
