"""End-to-end command tests: every subcommand through main() plus exit codes."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trendcast
from trendcast import baselines, proximity, simulation
from trendcast.activeness import ActivenessParams, save_params
from trendcast.cli import build_parser, main
from trendcast.core import (
    IntervalGrid,
    Trend,
    aggregate,
    drop_edgeless_nodes,
    load_graph,
    load_trend,
    random_graph,
    write_graph,
    write_trend,
)
from trendcast.evaluation import threshold_from_last_observed
from trendcast.proximity import ProximityConfig, ProximityMap


@pytest.fixture()
def tiny_files(tmp_path):
    graph = tmp_path / "graph.tsv"
    graph.write_text("# two nodes\na\tb\nb\tc\n", encoding="utf-8")
    actions = tmp_path / "actions.tsv"
    actions.write_text("a\t0.5\nb\t1.5\na\t1.7\nc\t2.5\n", encoding="utf-8")
    return graph, actions


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> learn chain shared by the predict and eval tests."""
    d = tmp_path_factory.mktemp("pipeline")
    graph = d / "graph.tsv"
    actions = d / "actions.tsv"
    params = d / "params.json"
    assert main([
        "synth", "--random-graph", "30:60", "--graph-out", str(graph),
        "--alpha", "0.9", "--tau", "1.0", "--horizon", "8.0",
        "--n-seeds", "10", "--seed", "7", "--out", str(actions),
    ]) == 0
    # A real trend, not only seed actions at t = 0, so that learn, predict
    # and eval run on a non-degenerate prefix.
    stamps = [line.split("\t")[1] for line in actions.read_text(encoding="utf-8").splitlines()]
    assert len(set(stamps)) >= 100
    assert main([
        "learn", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--seed", "1", "--out", str(params),
    ]) == 0
    return d, graph, actions, params


def test_aggregate_golden(tiny_files, tmp_path, capsys):
    graph, actions = tiny_files
    out = tmp_path / "agg.csv"
    code = main([
        "aggregate", "--graph", str(graph), "--actions", str(actions),
        "--grid", "0:1:3", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text(encoding="utf-8").splitlines() == [
        "interval_index,t_min,t_max,intensity,coverage",
        "0,0.0,1.0,1,1",
        "1,1.0,2.0,2,2",
        "2,2.0,3.0,1,1",
    ]


def test_learn_writes_params_and_report(pipeline, capsys):
    d, graph, actions, params = pipeline
    saved = json.loads(params.read_text(encoding="utf-8"))
    assert set(saved) == {"alpha", "tau", "epsilon", "t0", "proximity"}
    assert saved["alpha"] > 0 and saved["tau"] > 0
    report = (d / "params.json.report.csv").read_text(encoding="utf-8").splitlines()
    assert report[0] == "alpha,tau,logL,evaluations"
    assert len(report) == 2


def test_learn_warns_on_stderr_when_tau_lands_on_the_bracket_edge(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    out = tmp_path / "edge.json"
    assert main([
        "learn", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--tau-range", "100:110", "--out", str(out),
    ]) == 0
    assert "warning: tau_hat=100 lies on the edge of the tau search range" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--tau-range", "1:2:3"], "--tau-range must be 'lo:hi'"),
    (["--tau-range", "1:x"], "--tau-range must be 'lo:hi', got '1:x'"),
    (["--tau-range", "1:inf"], "tau_range must satisfy 0 < lo < hi < inf"),
])
def test_learn_rejects_bad_tau_range(pipeline, tmp_path, capsys, flags, message):
    d, graph, actions, params = pipeline
    out = tmp_path / "p.json"
    assert main([
        "learn", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", *flags, "--out", str(out),
    ]) == 1
    [line] = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert line.startswith("error:") and message in line
    assert not out.exists()


def test_predict_da_is_reproducible(pipeline, tmp_path):
    d, graph, actions, params = pipeline
    argv = [
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "da",
        "--params", str(params), "--runs", "20", "--seed", "3",
    ]
    first = tmp_path / "pred_a.csv"
    second = tmp_path / "pred_b.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("interval_index,t_min,t_max,intensity_mean")


@pytest.mark.parametrize("model", ["da", "tequ", "texp", "eexp"])
def test_predict_dump_runs_for_every_model(pipeline, tmp_path, model):
    # one file per run; the dump changes no forecast, and the dumped runs are the summarized ones.
    # Only the pipeline's seeds ever act, at t = 0 first, so cascades from t = 1 still reach new nodes.
    d, graph, actions, params = pipeline
    argv = [
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "1.0", "--grid", "1:1:4", "--model", model,
        *(["--params", str(params)] if model == "da" else []), "--runs", "5", "--seed", "3",
    ]
    dump, plain, dumped = tmp_path / "runs", tmp_path / "plain.csv", tmp_path / "dumped.csv"
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--dump-runs", str(dump), "--out", str(dumped)]) == 0
    assert dumped.read_bytes() == plain.read_bytes()
    names = sorted(p.name for p in dump.iterdir())
    assert names == [f"run_{i:04d}.tsv" for i in range(5)]
    g = load_graph(str(graph))
    grid = IntervalGrid(1.0, 1.0, 4)
    coverage = np.array([aggregate(load_trend(str(dump / name), g), grid).coverage for name in names])
    assert coverage.sum() > 0
    report = simulation.PredictionReport.read_csv(str(plain))
    np.testing.assert_allclose(report.coverage_mean, coverage.mean(axis=0), rtol=1e-9)


@pytest.mark.parametrize("model", ["da", "texp"])
def test_predict_dump_runs_into_a_file_fails_before_the_forecast(pipeline, tmp_path, capsys, monkeypatch, model):
    d, graph, actions, params = pipeline
    notadir = tmp_path / "notadir"
    notadir.write_text("a file\n")

    def no_forecast(*args, **kwargs):
        raise AssertionError("the forecast ran")

    monkeypatch.setattr(simulation, "predict", no_forecast)
    monkeypatch.setattr(baselines, "predict_baseline", no_forecast)
    out = tmp_path / "pred.csv"
    assert main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "1.0", "--grid", "1:1:4", "--model", model,
        *(["--params", str(params)] if model == "da" else []), "--runs", "5", "--seed", "3",
        "--dump-runs", str(notadir), "--out", str(out),
    ]) == 1
    [line] = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert f"--dump-runs {notadir}" in line
    assert not out.exists()
    assert notadir.read_text() == "a file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["notadir"]


def test_predict_da_requires_params(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "da",
        "--seed", "3", "--out", str(tmp_path / "pred.csv"),
    ])
    assert code == 1
    assert "requires --params" in capsys.readouterr().err


def test_predict_rejects_mult_for_da(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "da",
        "--params", str(params), "--mult", "--seed", "3",
        "--out", str(tmp_path / "pred.csv"),
    ])
    assert code == 1
    assert "cascade baselines only" in capsys.readouterr().err


def test_predict_grid_must_start_at_t_star(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "9:1:4", "--model", "tequ",
        "--seed", "3", "--out", str(tmp_path / "pred.csv"),
    ])
    assert code == 1
    assert "grid starts at 9" in capsys.readouterr().err


def test_predict_rejects_malformed_grid(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1", "--model", "tequ",
        "--seed", "3", "--out", str(tmp_path / "pred.csv"),
    ])
    assert code == 1
    assert "t_start:interval_length:count" in capsys.readouterr().err


@pytest.fixture
def chain_files(tmp_path):
    """CI's chain trend: nodes n0..n19 on a chain with skip edges (i, i + 2), i = 0, 3, ..., 15.

    n_i acts at 0.5 * i for i < 12. The pipeline fixture's trend acts only
    on its seeds, so a cascade fitted on it falls back and forecasts zeros;
    a cascade fitted on this one does not.
    """
    graph = tmp_path / "chain.tsv"
    graph.write_text("".join(f"n{i}\tn{i + 1}\n" for i in range(19))
                     + "".join(f"n{i}\tn{i + 2}\n" for i in range(0, 16, 3)), encoding="utf-8")
    actions = tmp_path / "chain-a.tsv"
    actions.write_text("".join(f"n{i}\t{0.5 * i}\n" for i in range(12)), encoding="utf-8")
    return graph, actions


def test_predict_baseline_and_eval_roundtrip(chain_files, tmp_path, capsys):
    graph, actions = chain_files
    pred = tmp_path / "pred.csv"
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "3", "--grid", "3:1:4", "--model", "tequ",
        "--runs", "10", "--seed", "3", "--out", str(pred),
    ])
    assert code == 0
    assert "warning:" not in capsys.readouterr().err  # a real fit, not the fallback
    assert simulation.PredictionReport.read_csv(str(pred)).coverage_mean.sum() > 0
    out = tmp_path / "eval.csv"
    code = main([
        "eval", "--graph", str(graph), "--pred", str(pred),
        "--actions", str(actions), "--theta", "0", "--out", str(out),
    ])
    assert code == 0
    assert "evaluated 1 trend(s)" in capsys.readouterr().out
    text = out.read_text(encoding="utf-8")
    assert text.startswith("interval_index,measure,truth,prediction,error_ratio")
    assert "# duration_accuracy=" in text


def test_predict_baseline_mult(chain_files, tmp_path, capsys):
    graph, actions = chain_files
    # Repeat actions of n0 and n1 in [0, 1): the training intervals [0, 1),
    # [1, 2) and [2, 3) hold (intensity, coverage) (4, 2), (2, 2) and (2, 2),
    # so the least-squares slope through the origin is 16 / 12.
    with actions.open("a", encoding="utf-8") as fh:
        fh.write("n0\t0.25\nn1\t0.75\n")
    pred = tmp_path / "pred.csv"
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "3", "--grid", "3:1:4", "--model", "eexp", "--mult",
        "--runs", "10", "--seed", "3", "--out", str(pred),
    ])
    assert code == 0
    assert "warning:" not in capsys.readouterr().err
    report = simulation.PredictionReport.read_csv(str(pred))
    assert report.coverage_mean.sum() > 0
    factor = 16 / 12
    assert report.intensity_mean.tolist() == pytest.approx((factor * report.coverage_mean).tolist(), rel=1e-9)


def test_predict_warns_on_fallback(tiny_files, tmp_path, capsys):
    graph_path = tmp_path / "pair.tsv"
    graph_path.write_text("a\tb\n", encoding="utf-8")
    lone = tmp_path / "lone.tsv"
    lone.write_text("a\t0.0\n", encoding="utf-8")
    code = main([
        "predict", "--graph", str(graph_path), "--actions", str(lone),
        "--t-star", "1.0", "--grid", "1:1:2", "--model", "tequ",
        "--runs", "4", "--seed", "1", "--out", str(tmp_path / "pred.csv"),
    ])
    assert code == 0
    assert "fallback" in capsys.readouterr().err


def test_eval_theta_from_train(pipeline, tmp_path):
    d, graph, actions, params = pipeline
    # predict votes with the theta that eval derives from the training grid
    loaded = load_graph(str(graph))
    theta = threshold_from_last_observed(load_trend(str(actions), loaded), IntervalGrid(0.0, 4.0, 2))
    pred = tmp_path / "pred.csv"
    assert main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "tequ",
        "--runs", "10", "--seed", "3", "--theta", str(theta), "--out", str(pred),
    ]) == 0
    code = main([
        "eval", "--graph", str(graph), "--pred", str(pred),
        "--actions", str(actions), "--theta-from-train", "0:4:2",
        "--out", str(tmp_path / "eval.csv"),
    ])
    assert code == 0


def test_eval_manifest_multiple_trends(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    preds = [tmp_path / "pred-0.csv", tmp_path / "pred-1.csv"]
    for theta, pred in zip(("0", "1"), preds):
        assert main([
            "predict", "--graph", str(graph), "--actions", str(actions),
            "--t-star", "8.0", "--grid", "8:1:4", "--model", "tequ",
            "--runs", "10", "--seed", "3", "--theta", theta, "--out", str(pred),
        ]) == 0
    manifest = tmp_path / "trends.json"
    manifest.write_text(json.dumps({
        "trends": [
            {"pred": str(preds[0]), "actions": str(actions), "theta": 0.0},
            {"pred": str(preds[1]), "actions": str(actions), "theta": 1.0},
        ]
    }), encoding="utf-8")
    code = main([
        "eval", "--graph", str(graph), "--manifest", str(manifest),
        "--out", str(tmp_path / "eval.csv"),
    ])
    assert code == 0
    assert "evaluated 2 trend(s)" in capsys.readouterr().out


@pytest.mark.parametrize("how", ["theta", "measure", "manifest", "theta-from-train"])
def test_eval_refuses_a_threshold_other_than_the_predictions(pipeline, tmp_path, capsys, how):
    # predict votes on coverage above 50; eval must not score that vote against another threshold
    d, graph, actions, params = pipeline
    pred = tmp_path / "pred.csv"
    assert main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "tequ",
        "--runs", "4", "--seed", "3", "--theta", "50", "--out", str(pred),
    ]) == 0
    summary_line = len(pred.read_text(encoding="utf-8").splitlines())
    capsys.readouterr()
    given = {"theta": "theta=0 measure=coverage", "measure": "theta=50 measure=intensity",
             "manifest": "theta=0 measure=coverage", "theta-from-train": "measure=coverage"}[how]
    source = ["--pred", str(pred), "--actions", str(actions)]
    if how == "theta":
        flags = [*source, "--theta", "0"]
    elif how == "measure":
        flags = [*source, "--theta", "50", "--measure", "intensity"]
    elif how == "manifest":
        manifest = tmp_path / "trends.json"
        manifest.write_text(json.dumps({"trends": [{"pred": str(pred), "actions": str(actions), "theta": 0}]}))
        flags = ["--manifest", str(manifest)]
    else:
        flags = [*source, "--theta-from-train", "0:4:2"]
    code = main(["eval", "--graph", str(graph), *flags, "--out", str(tmp_path / "eval.csv")])
    assert code == 1
    line = _one_error_line(capsys)
    assert f"{pred}:{summary_line}:" in line
    assert "theta=50 measure=coverage" in line and given in line
    assert not (tmp_path / "eval.csv").exists()


def test_eval_requires_some_theta(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    pred = tmp_path / "pred.csv"
    assert main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "tequ",
        "--runs", "4", "--seed", "3", "--out", str(pred),
    ]) == 0
    code = main([
        "eval", "--graph", str(graph), "--pred", str(pred),
        "--actions", str(actions), "--out", str(tmp_path / "eval.csv"),
    ])
    assert code == 1
    assert "--theta" in capsys.readouterr().err


def test_missing_input_file_exits_1(tmp_path, capsys):
    code = main([
        "learn", "--graph", str(tmp_path / "absent.tsv"),
        "--actions", str(tmp_path / "none.tsv"),
        "--t-star", "1.0", "--out", str(tmp_path / "params.json"),
    ])
    assert code == 1
    assert "absent.tsv" in capsys.readouterr().err


def test_non_finite_timestamp_exits_1(tiny_files, tmp_path, capsys):
    graph, _ = tiny_files
    actions = tmp_path / "nan.tsv"
    actions.write_text("a\t1.0\nb\tnan\nc\t0.5\n", encoding="utf-8")
    code = main([
        "aggregate", "--graph", str(graph), "--actions", str(actions),
        "--grid", "0:1:3", "--out", str(tmp_path / "agg.csv"),
    ])
    assert code == 1
    assert "nan.tsv:2" in capsys.readouterr().err


@pytest.mark.parametrize("name, content, line", [
    ("graph", b"# two nodes\na\tb\r\nb\t\xffc\n", 3),
    ("actions", b"a\t0.5\nb\t1.\xff5\n", 2),
])
def test_non_utf8_input_names_the_file_and_line(tiny_files, tmp_path, capsys, name, content, line):
    files = dict(zip(("graph", "actions"), tiny_files))
    bad = files[name] = tmp_path / "bad.tsv"
    bad.write_bytes(content)
    code = main([
        "aggregate", "--graph", str(files["graph"]), "--actions", str(files["actions"]),
        "--grid", "0:1:3", "--out", str(tmp_path / "agg.csv"),
    ])
    assert code == 1
    assert f"{bad}:{line}: not valid UTF-8" in _one_error_line(capsys)


def test_predict_warns_when_the_params_are_supercritical(tiny_files, tmp_path, capsys):
    graph, actions = tiny_files
    params = tmp_path / "params.json"
    out = tmp_path / "pred.csv"
    save_params(str(params), ActivenessParams(2.0, 1.0, 1e-9, 0.0), ProximityConfig(kind="sp", b=10.0))
    argv = [
        "predict", "--graph", str(graph), "--actions", str(actions), "--t-star", "3.0",
        "--grid", "3:0.1:2", "--model", "da", "--params", str(params), "--runs", "5",
        "--seed", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    [line] = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert line.startswith("warning: parameters are supercritical") and ">= 1" in line
    assert out.exists()
    save_params(str(params), ActivenessParams(0.4, 1.0, 1e-9, 0.0), ProximityConfig(kind="sp", b=10.0))
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("nested", [False, True])
def test_predict_rejects_unknown_params_key(pipeline, tmp_path, capsys, nested):
    d, graph, actions, params = pipeline
    data = json.loads(params.read_text(encoding="utf-8"))
    (data["proximity"] if nested else data)["bogus"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "da",
        "--params", str(bad), "--seed", "3", "--out", str(tmp_path / "pred.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.json" in err and "bogus" in err


def error_lines(capsys) -> list[str]:
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_synth_rejects_non_finite_alpha(tmp_path, capsys, alpha):
    out = tmp_path / "actions.tsv"
    code = main([
        "synth", "--random-graph", "20:40", "--graph-out", str(tmp_path / "g.tsv"),
        "--alpha", alpha, "--tau", "1", "--horizon", "5", "--seed", "1", "--out", str(out),
    ])
    assert code == 1
    [line] = error_lines(capsys)
    assert "alpha" in line
    assert not out.exists()


@pytest.mark.parametrize("flags, code", [
    (["--alpha", "nan", "--tau", "1"], 1),
    (["--alpha", "0.3", "--tau", "1", "--b", "nan"], 1),
    (["--alpha", "2.0", "--tau", "2.0"], 1),
    (["--alpha", "2.0", "--tau", "2.0", "--allow-supercritical", "--max-events", "500"], 2),
])
def test_failed_synth_leaves_no_files(tmp_path, capsys, flags, code):
    assert main([
        "synth", "--random-graph", "10:20", "--graph-out", str(tmp_path / "g.tsv"), *flags,
        "--horizon", "50", "--seed", "1", "--out", str(tmp_path / "actions.tsv"),
    ]) == code
    assert len(error_lines(capsys)) == 1
    assert list(tmp_path.iterdir()) == []


def test_synth_says_when_the_random_graph_keeps_no_node(tmp_path, capsys):
    assert main([
        "synth", "--random-graph", "10:0", "--graph-out", str(tmp_path / "g.tsv"),
        "--alpha", "0.3", "--tau", "1", "--horizon", "4", "--seed", "1", "--out", str(tmp_path / "a.tsv"),
    ]) == 1
    [line] = error_lines(capsys)
    assert "--random-graph 10:0" in line and "no node is left" in line
    assert list(tmp_path.iterdir()) == []


# 10**15 edges ask numpy for 7 PiB, an allocation that fails at once; the
# edges of 1e308:1e308:3 overflow to inf.
HUGE_GRIDS = ["2:1:1000000000000000", "1e308:1e308:3"]


@pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3", "0:nan:3", *HUGE_GRIDS])
def test_aggregate_rejects_non_finite_grid(tiny_files, tmp_path, capsys, grid):
    graph, actions = tiny_files
    out = tmp_path / "agg.csv"
    code = main([
        "aggregate", "--graph", str(graph), "--actions", str(actions),
        "--grid", grid, "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert f"grid {grid!r}" in line
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("grid", HUGE_GRIDS)
def test_predict_rejects_a_grid_too_large_or_overflowing(tiny_files, tmp_path, capsys, grid):
    graph, actions = tiny_files
    out = tmp_path / "pred.csv"
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", grid.split(":")[0], "--grid", grid, "--model", "tequ",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert line.startswith("error: predict:") and f"grid {grid!r}" in line
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


def test_aggregate_rejects_a_grid_whose_edges_do_not_increase(tiny_files, tmp_path, capsys):
    # At 1e17 the doubles are 16 apart, so every edge rounds to t_start.
    graph, actions = tiny_files
    out = tmp_path / "agg.csv"
    code = main([
        "aggregate", "--graph", str(graph), "--actions", str(actions),
        "--grid", "1e17:1:4", "--out", str(out),
    ])
    assert code == 1
    [line] = error_lines(capsys)
    assert "grid '1e17:1:4'" in line and "edges must increase" in line
    assert not out.exists()


@pytest.mark.parametrize("directed, walk", [(False, "random-walk spread over 3 sources"),
                                            (True, "reverse random walk for the dangling mass")])
def test_predict_exits_2_when_the_prefix_spread_hits_the_iteration_cap(
        tiny_files, tmp_path, capsys, monkeypatch, directed, walk):
    # Directed, node c of a -> b -> c is a sink, so the spread first walks back from it.
    graph, actions = tiny_files
    params = tmp_path / "params-rw.json"
    save_params(str(params), ActivenessParams(0.3, 1.0, 1e-9, 0.0), ProximityConfig(kind="rw"))
    monkeypatch.setattr(proximity, "_RW_MAX_ITERATIONS", 2)
    out = tmp_path / "pred.csv"
    code = main([
        "predict", "--graph", str(graph), *(["--directed"] if directed else []), "--actions", str(actions),
        "--t-star", "3", "--grid", "3:1:2", "--model", "da", "--params", str(params),
        "--seed", "3", "--out", str(out),
    ])
    assert code == 2
    [line] = error_lines(capsys)
    assert line.startswith(f"error: predict: {walk} did not converge within 2 iterations")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["shortest_path", "random_walk"])
def test_predict_reports_an_overflowing_prefix_influence_as_one_error(pipeline, tmp_path, capsys, kind):
    # alpha 1e308 times a node's decayed prefix weight passes the float range.
    d, graph, actions, params = pipeline
    data = json.loads(params.read_text(encoding="utf-8"))
    data["alpha"] = 1e308
    data["proximity"]["kind"] = kind
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "pred.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([
            "predict", "--graph", str(graph), "--actions", str(actions), "--t-star", "8.0",
            "--grid", "8:1:4", "--model", "da", "--params", str(huge), "--runs", "5",
            "--seed", "3", "--out", str(out),
        ])
    assert code == 1
    err = capsys.readouterr().err
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert line.startswith("error: predict: the prefix's influence on node index ") and "alpha 1e+308" in line
    assert "RuntimeWarning" not in err and not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("message, shown", [("", "out of memory"),
                                            ("Unable to allocate 8.00 GiB", "out of memory: Unable to allocate 8.00 GiB")])
def test_a_memory_error_is_one_error_line(tiny_files, tmp_path, capsys, monkeypatch, message, shown):
    graph, actions = tiny_files

    def exhausted(*args, **kwargs):
        raise MemoryError(*([message] if message else []))

    monkeypatch.setattr("trendcast.cli.load_graph", exhausted)
    out = tmp_path / "agg.csv"
    code = main(["aggregate", "--graph", str(graph), "--actions", str(actions), "--grid", "0:1:3", "--out", str(out)])
    assert code == 1
    assert _one_error_line(capsys) == f"error: aggregate: {shown}"
    assert not out.exists()


def test_predict_da_rejects_params_whose_t0_follows_the_forecast_start(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    late = tmp_path / "late.json"
    data = json.loads(params.read_text(encoding="utf-8"))
    data["t0"] = 100000.0
    late.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "pred.csv"
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "da",
        "--params", str(late), "--seed", "3", "--out", str(out),
    ])
    assert code == 1
    [line] = error_lines(capsys)
    assert "precedes the model's t0 100000.0" in line
    assert not out.exists()


def test_learn_refuses_a_t0_after_t_star(pipeline, tmp_path, capsys):
    # every predict from --t-star would refuse such params, so learn writes none
    d, graph, actions, params = pipeline
    out = tmp_path / "late.json"
    assert main([
        "learn", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--t0", "100", "--seed", "1", "--out", str(out),
    ]) == 1
    [line] = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert line == "error: learn: --t0 100.0 follows --t-star 8.0"
    assert list(tmp_path.iterdir()) == []


def test_predict_refuses_a_late_t0_before_the_supercritical_warning(tiny_files, tmp_path, capsys):
    graph, actions = tiny_files
    params = tmp_path / "params.json"
    out = tmp_path / "pred.csv"
    save_params(str(params), ActivenessParams(2.0, 1.0, 1e-9, 100.0), ProximityConfig(kind="sp", b=10.0))
    assert main([
        "predict", "--graph", str(graph), "--actions", str(actions), "--t-star", "3.0",
        "--grid", "3:0.1:2", "--model", "da", "--params", str(params), "--runs", "5",
        "--seed", "1", "--out", str(out),
    ]) == 1
    [line] = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert line.startswith("error:") and "precedes the model's t0 100.0" in line
    assert not out.exists()


HUGE_INT = "1" + "0" * 400  # a JSON integer beyond float range


@pytest.mark.parametrize("content", [
    '{"alpha": "abc", "tau": 1.0, "proximity": {}}',
    '{"alpha": true, "tau": 1.0, "proximity": {}}',
    '{"alpha": 1.0, "tau": NaN, "proximity": {}}',
    '{"alpha": 1.0, "tau": 1.0, "proximity": {"b": "x"}}',
    '{"alpha": 1.0, "tau": 1.0, "proximity": {"max_iterations": 2}}',
    *(
        pytest.param(content.replace("HUGE", HUGE_INT), id=f"huge-{key}")
        for key, content in [
            ("alpha", '{"alpha": HUGE, "tau": 1.0, "proximity": {}}'),
            ("tau", '{"alpha": 1.0, "tau": HUGE, "proximity": {}}'),
            ("epsilon", '{"alpha": 1.0, "tau": 1.0, "epsilon": HUGE, "proximity": {}}'),
            ("t0", '{"alpha": 1.0, "tau": 1.0, "t0": HUGE, "proximity": {}}'),
            *(
                (key, '{"alpha": 1.0, "tau": 1.0, "proximity": {"%s": HUGE}}' % key)
                for key in ("b", "p", "floor", "rw_tolerance")
            ),
        ]
    ),
    '{"alpha": 1.0, "proximity": {}}',
    '{"alpha": 1.0, "tau": 1.0}',
    '[1, 2]',
    '{"alpha": 1',
])
def test_predict_rejects_malformed_params(pipeline, tmp_path, capsys, content):
    d, graph, actions, params = pipeline
    bad = tmp_path / "bad.json"
    bad.write_text(content, encoding="utf-8")
    out = tmp_path / "pred.csv"
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "da",
        "--params", str(bad), "--seed", "3", "--out", str(out),
    ])
    assert code == 1
    [line] = error_lines(capsys)
    assert "bad.json" in line
    assert not out.exists()


def test_bad_flag_value_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--model", "nova"])
    assert exc.value.code == 1


def test_synth_is_reproducible(tmp_path):
    def run(tag: str) -> tuple[bytes, bytes, bytes]:
        out = tmp_path / f"actions_{tag}.tsv"
        graph_out = tmp_path / f"graph_{tag}.tsv"
        assert main([
            "synth", "--random-graph", "20:40", "--graph-out", str(graph_out),
            "--alpha", "0.3", "--tau", "1.0", "--horizon", "6.0",
            "--n-seeds", "2", "--seed", "11", "--out", str(out),
        ]) == 0
        manifest = tmp_path / f"actions_{tag}.tsv.manifest.json"
        return out.read_bytes(), graph_out.read_bytes(), manifest.read_bytes()

    assert run("a") == run("b")


def test_synth_manifest_contents(tmp_path):
    out = tmp_path / "actions.tsv"
    assert main([
        "synth", "--random-graph", "20:40", "--graph-out", str(tmp_path / "g.tsv"),
        "--alpha", "0.3", "--tau", "1.0", "--horizon", "6.0",
        "--n-seeds", "2", "--seed", "11", "--out", str(out),
    ]) == 0
    manifest = json.loads((tmp_path / "actions.tsv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["alpha"] == 0.3
    assert manifest["n_seeds"] == 2
    assert len(manifest["seed_nodes"]) == 2
    assert manifest["supercritical"] is False
    assert manifest["proximity"]["kind"] == "shortest_path"
    assert manifest["actions"] == len(out.read_text(encoding="utf-8").splitlines())


def test_synth_refuses_supercritical(tmp_path, capsys):
    code = main([
        "synth", "--random-graph", "10:20", "--graph-out", str(tmp_path / "g.tsv"),
        "--alpha", "2.0", "--tau", "2.0", "--horizon", "50.0",
        "--seed", "1", "--out", str(tmp_path / "actions.tsv"),
    ])
    assert code == 1
    assert "supercritical" in capsys.readouterr().err


def test_synth_explosion_exits_2(tmp_path, capsys):
    code = main([
        "synth", "--random-graph", "10:20", "--graph-out", str(tmp_path / "g.tsv"),
        "--alpha", "2.0", "--tau", "2.0", "--horizon", "50.0",
        "--allow-supercritical", "--max-events", "500",
        "--seed", "1", "--out", str(tmp_path / "actions.tsv"),
    ])
    assert code == 2
    assert "500" in capsys.readouterr().err


def test_synth_requires_one_graph_source(tmp_path, capsys):
    base = [
        "synth", "--alpha", "0.3", "--tau", "1.0", "--horizon", "4.0",
        "--seed", "1", "--out", str(tmp_path / "actions.tsv"),
    ]
    assert main(base) == 1
    assert main(base + [
        "--random-graph", "10:20",
    ]) == 1  # missing --graph-out
    err = capsys.readouterr().err
    assert "exactly one of" in err
    assert "--graph-out" in err


def test_synth_random_graph_round_trips_through_learn(tmp_path):
    # Seed 5 draws nodes with no edge. synth must drop them: an action at one
    # would name a label that the written edge file cannot hold.
    graph, actions = tmp_path / "g.tsv", tmp_path / "a.tsv"
    assert main([
        "synth", "--random-graph", "1000:3000", "--graph-out", str(graph), "--b", "3",
        "--alpha", "0.4", "--tau", "1.0", "--n-seeds", "150", "--horizon", "7", "--seed", "5",
        "--out", str(actions),
    ]) == 0
    assert load_graph(str(graph)).node_count < 1000
    assert main([
        "learn", "--graph", str(graph), "--actions", str(actions), "--b", "3", "--t-star", "2",
        "--out", str(tmp_path / "p.json"),
    ]) == 0


_COMMAND_FLAGS = {
    "learn": {"--graph", "--directed", "--actions", "--t-star", "--prox", "--b", "--p", "--floor",
              "--rw-tolerance", "--prox-cache", "--tau-range", "--epsilon", "--t0",
              "--jitter", "--seed", "--out"},
    "predict": {"--graph", "--directed", "--actions", "--t-star", "--grid", "--model", "--mult", "--params",
                "--prox-cache", "--runs", "--seed", "--theta", "--measure", "--max-events", "--jitter",
                "--dump-runs", "--out"},
    "eval": {"--graph", "--directed", "--pred", "--actions", "--manifest", "--theta", "--theta-from-train",
             "--measure", "--out"},
    "aggregate": {"--graph", "--directed", "--actions", "--grid", "--out"},
    "synth": {"--graph", "--directed", "--random-graph", "--graph-out", "--prox", "--b", "--p", "--floor",
              "--rw-tolerance", "--alpha", "--tau", "--epsilon", "--t0", "--horizon", "--n-seeds",
              "--allow-supercritical", "--max-events", "--seed", "--out"},
    "prox-cache": {"--graph", "--directed", "--prox", "--b", "--p", "--floor", "--rw-tolerance", "--actions",
                   "--out"},
}


def test_each_command_takes_exactly_its_flags():
    [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert flags == _COMMAND_FLAGS


@pytest.mark.parametrize("command, flag", [
    ("predict", ["--prox", "rw"]),
    ("predict", ["--b", "99"]),
    ("predict", ["--p", "0.9"]),
    ("predict", ["--floor", "0.5"]),
    ("predict", ["--rw-tolerance", "0.1"]),
    ("synth", ["--prox-cache", "c.npz"]),
    ("prox-cache", ["--prox-cache", "c.npz"]),
    ("learn", ["--multistart", "4"]),
    ("learn", ["--tolerance", "1e-6"]),
], ids=["predict-prox", "predict-b", "predict-p", "predict-floor", "predict-rw-tolerance", "synth-prox-cache",
        "prox-cache-prox-cache", "learn-multistart", "learn-tolerance"])
def test_a_flag_the_command_does_not_read_is_a_usage_error(pipeline, tmp_path, capsys, command, flag):
    d, graph, actions, params = pipeline
    out = tmp_path / "out"
    argv = {
        "predict": ["--graph", str(graph), "--actions", str(actions), "--t-star", "8", "--grid", "8:1:4",
                    "--params", str(params), "--runs", "2", "--seed", "3"],
        "synth": ["--graph", str(graph), "--alpha", "0.3", "--tau", "1", "--horizon", "4", "--seed", "1"],
        "prox-cache": ["--graph", str(graph)],
        "learn": ["--graph", str(graph), "--actions", str(actions), "--t-star", "8"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, *flag, "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: unrecognized arguments: {' '.join(flag)}"
    ]
    # The usage shown is the command's own, which lists the flags it takes.
    assert err.startswith(f"usage: trendcast {command} [-h]")
    assert not out.exists()


_FORECAST = ["--graph", "{graph}", "--actions", "{actions}", "--t-star", "8", "--grid", "8:1:4",
             "--runs", "2", "--seed", "3"]


@pytest.mark.parametrize("argv, names", [
    (["predict", *_FORECAST, "--model", "texp", "--params", "{params}"], {"--params", "--model"}),
    (["predict", *_FORECAST, "--model", "tequ", "--prox-cache", "{missing}"], {"--prox-cache", "--model"}),
    (["predict", *_FORECAST, "--model", "texp", "--max-events", "1"], {"--max-events", "--model"}),
    (["predict", *_FORECAST, "--model", "texp", "--max-events", "0"], {"--max-events", "--model"}),
    (["eval", "--graph", "{graph}", "--manifest", "{manifest}", "--pred", "{pred}", "--theta", "0"],
     {"--pred", "--manifest"}),
    (["eval", "--graph", "{graph}", "--manifest", "{manifest}", "--actions", "{actions}", "--theta", "0"],
     {"--actions", "--manifest"}),
    (["eval", "--graph", "{graph}", "--pred", "{pred}", "--actions", "{actions}",
      "--theta", "0", "--theta-from-train", "0:1:x"], {"--theta", "--theta-from-train"}),
    (["synth", "--graph", "{graph}", "--graph-out", "{graph_out}",
      "--alpha", "0.3", "--tau", "1", "--horizon", "4", "--seed", "1"], {"--graph-out", "--graph"}),
], ids=["cascade-params", "cascade-prox-cache", "cascade-max-events", "cascade-max-events-zero", "manifest-pred",
        "manifest-actions", "theta-twice", "graph-out-with-graph"])
def test_an_input_the_mode_ignores_is_refused(pipeline, tmp_path, capsys, argv, names):
    d, graph, actions, params = pipeline
    pred = tmp_path / "pred.csv"
    assert main([
        "predict", "--graph", str(graph), "--actions", str(actions), "--t-star", "8.0", "--grid", "8:1:4",
        "--model", "tequ", "--runs", "2", "--seed", "3", "--out", str(pred),
    ]) == 0
    manifest = tmp_path / "trends.json"
    manifest.write_text(json.dumps({"trends": [{"pred": str(pred), "actions": str(actions)}]}))
    paths = {"graph": graph, "actions": actions, "params": params, "missing": tmp_path / "missing.npz",
             "manifest": manifest, "pred": pred, "graph_out": tmp_path / "g.tsv"}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv] + ["--out", str(tmp_path / "out")]) == 1
    assert names <= set(re.findall(r"--[a-z-]+", _one_error_line(capsys)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pred.csv", "trends.json"]


def test_flags_do_not_leak_between_calls(pipeline, tmp_path):
    # main reuses one parser per process; a flag of one call must not reach the next.
    d, graph, actions, params = pipeline
    argv = ["learn", "--graph", str(graph), "--actions", str(actions), "--t-star", "8", "--seed", "1"]
    first, second = tmp_path / "b3.json", tmp_path / "default.json"
    assert main(argv + ["--b", "3", "--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert json.loads(first.read_text(encoding="utf-8"))["proximity"]["b"] == 3.0
    assert json.loads(second.read_text(encoding="utf-8"))["proximity"]["b"] == 10.0


def test_prox_cache_roundtrip(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    cache = tmp_path / "prox.npz"
    assert main(["prox-cache", "--graph", str(graph), "--out", str(cache)]) == 0
    assert "cached 30 rows" in capsys.readouterr().out

    argv = [
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "da",
        "--params", str(params), "--runs", "10", "--seed", "3",
    ]
    plain = tmp_path / "plain.csv"
    cached = tmp_path / "cached.csv"
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--prox-cache", str(cache), "--out", str(cached)]) == 0
    assert plain.read_bytes() == cached.read_bytes()

    # A denser graph, where a row's entry order moves the row sums' last bits.
    graph, actions = tmp_path / "dense.tsv", tmp_path / "dense-actions.tsv"
    assert main([
        "synth", "--random-graph", "200:600", "--graph-out", str(graph), "--b", "2",
        "--alpha", "0.08", "--tau", "1", "--horizon", "12", "--n-seeds", "60", "--seed", "3",
        "--out", str(actions),
    ]) == 0
    assert main(["prox-cache", "--graph", str(graph), "--b", "2", "--out", str(cache)]) == 0
    argv = [
        "learn", "--graph", str(graph), "--actions", str(actions), "--b", "2",
        "--t-star", "8", "--seed", "1",
    ]
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--prox-cache", str(cache), "--out", str(cached)]) == 0
    assert plain.read_bytes() == cached.read_bytes()


def test_prox_cache_restricted_to_actors(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    cache = tmp_path / "prox.npz"
    assert main([
        "prox-cache", "--graph", str(graph), "--actions", str(actions),
        "--out", str(cache),
    ]) == 0
    out = capsys.readouterr().out
    rows = int(out.split("cached ")[1].split(" rows")[0])
    assert 1 <= rows <= 30


def _edit_arrays(edit):
    """A cache edit that rewrites the arrays of a written cache; ``edit`` gets them and the row 1 offset."""
    def apply(path):
        with np.load(path) as npz:
            arrays = dict(npz)
        edit(arrays, int(arrays["row_start"][1]))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    return apply


def _set(name, value, at=lambda i: i):
    return _edit_arrays(lambda a, i: a[name].__setitem__(at(i), value))


def _replace(name, make):
    return _edit_arrays(lambda a, i: a.__setitem__(name, make(a)))


def _header(text):
    return _replace("header", lambda a: np.asarray(text))


def _write(data):
    return lambda path: path.write_bytes(data(path.read_bytes()))


@pytest.mark.parametrize("edit, message", [
    pytest.param(_set("targets", 999), "array 'targets': node 999 is not an index in [0, 30) (row of source 1)",
                 id="target-999"),
    pytest.param(_set("sources", -1, at=lambda i: 1), "array 'sources': node -1 is not an index in [0, 30)",
                 id="source-minus-1"),
    pytest.param(_replace("targets", lambda a: a["targets"].astype(bool)), "array 'targets' must be 1-D int64",
                 id="bool-targets"),
    pytest.param(_set("scores", math.nan), "array 'scores': score nan is not positive and finite (row of source 1)",
                 id="score-nan"),
    pytest.param(_set("scores", math.inf), "array 'scores': score inf is not positive and finite", id="score-inf"),
    pytest.param(_set("scores", 0.0), "array 'scores': score 0.0 is not positive and finite", id="score-zero"),
    pytest.param(_set("scores", -0.5), "array 'scores': score -0.5 is not positive and finite", id="score-negative"),
    pytest.param(_replace("scores", lambda a: a["scores"].astype(str)), "array 'scores' must be 1-D float64",
                 id="str-scores"),
    pytest.param(_replace("scores", lambda a: np.append(a["scores"], 1.0)), "array 'row_start' must rise from 0",
                 id="extra-score"),
    pytest.param(_edit_arrays(lambda a, i: a.pop("scores")), "missing array 'scores'", id="missing-scores"),
    pytest.param(_edit_arrays(lambda a, i: a["targets"].__setitem__(i + 1, a["targets"][i])),
                 "appears twice (row of source 1)", id="repeated-target"),
    pytest.param(_set("sources", 1, at=lambda i: 2), "array 'sources': source 1 repeats", id="repeated-source"),
    pytest.param(_set("row_start", 1, at=lambda i: 0), "array 'row_start' must rise from 0",
                 id="row-start-not-at-0"),
    pytest.param(_write(lambda data: data[: len(data) // 2]), "not a zip file", id="truncated"),
    pytest.param(_write(lambda data: b""), "rebuild it with 'trendcast prox-cache'", id="empty"),
    pytest.param(_write(lambda data: b'{"format": "trendcast-prox-cache-v1", "fingerprint": {}}\n'),
                 "rebuild it with 'trendcast prox-cache'", id="v1-json-lines"),
    pytest.param(_header('{"format": "x"}'), "array 'header': not a trendcast-prox-cache-v2 header",
                 id="header-format-x"),
    pytest.param(_header("{not json"), "array 'header': Expecting property name", id="header-not-json"),
])
def test_predict_rejects_malformed_prox_cache(pipeline, tmp_path, capsys, edit, message):
    d, graph, actions, params = pipeline
    cache = tmp_path / "prox.npz"
    assert main(["prox-cache", "--graph", str(graph), "--out", str(cache)]) == 0
    edit(cache)
    capsys.readouterr()
    out = tmp_path / "pred.csv"
    assert main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "da",
        "--params", str(params), "--runs", "2", "--seed", "3",
        "--prox-cache", str(cache), "--out", str(out),
    ]) == 1
    [line] = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert line.startswith("error:") and f"{cache}: " in line and message in line
    assert not out.exists()


def _nan_params(path: str) -> None:
    params = ActivenessParams(0.5, 1.0)
    object.__setattr__(params, "tau", math.inf)
    save_params(path, params, ProximityConfig())


def _nan_cache(path: str) -> None:
    prox = ProximityMap(random_graph(5, 4, seed=1), ProximityConfig())
    prox.row(0)
    prox.row(1).scores[-1] = math.nan
    prox.save_cache(path)


def test_json_writers_refuse_non_finite_values(tmp_path, monkeypatch, capsys):
    # Params and proximity caches: the writer raises and leaves no file.
    for write, match in ((_nan_params, "not JSON compliant"), (_nan_cache, "non-finite proximity score")):
        path = tmp_path / f"{write.__name__}.out"
        with pytest.raises(ValueError, match=match):
            write(str(path))
        assert not path.exists()

    # The synth manifest: exit 1, and neither the actions nor the manifest is written.
    generate = simulation.generate_synthetic

    def nan_manifest(*args, **kwargs):
        trend, manifest = generate(*args, **kwargs)
        return trend, {**manifest, "branching_bound": math.nan}

    monkeypatch.setattr(simulation, "generate_synthetic", nan_manifest)
    out = tmp_path / "synth.tsv"
    assert main([
        "synth", "--random-graph", "20:40", "--graph-out", str(tmp_path / "g.tsv"),
        "--alpha", "0.3", "--tau", "1", "--horizon", "5", "--seed", "1", "--out", str(out),
    ]) == 1
    assert "not JSON compliant" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_seed_note_when_unset(tiny_files, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TRENDCAST_REQUIRE_SEED", raising=False)
    graph, actions = tiny_files
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "3.0", "--grid", "3:1:2", "--model", "tequ",
        "--runs", "4", "--out", str(tmp_path / "pred.csv"),
    ])
    assert code == 0
    assert "no --seed given" in capsys.readouterr().err


def test_require_seed_env_rejects_unseeded_runs(tiny_files, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRENDCAST_REQUIRE_SEED", "1")
    graph, actions = tiny_files
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "3.0", "--grid", "3:1:2", "--model", "tequ",
        "--runs", "4", "--out", str(tmp_path / "pred.csv"),
    ])
    assert code == 1
    assert "TRENDCAST_REQUIRE_SEED" in capsys.readouterr().err


def test_jitter_is_deterministic_and_validated(tiny_files, tmp_path, capsys):
    graph, actions = tiny_files
    argv = [
        "learn", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "3.0", "--jitter", "0.001", "--seed", "5",
    ]
    first = tmp_path / "params_a.json"
    second = tmp_path / "params_b.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    code = main([
        "learn", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "3.0", "--jitter", "-0.5", "--seed", "5",
        "--out", str(tmp_path / "params_c.json"),
    ])
    assert code == 1
    assert "non-negative" in capsys.readouterr().err


def test_module_entry_point(tiny_files, tmp_path):
    graph, actions = tiny_files
    out = tmp_path / "agg.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "trendcast", "aggregate",
         "--graph", str(graph), "--actions", str(actions),
         "--grid", "0:1:3", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


# Runs learn, then prints the bits of one influence pass at tau = 1,
# which differ at the last place when a product goes through threaded BLAS
# even where the fitted params come out the same.
_LEARN_AND_DIGEST = """
import hashlib, sys
from trendcast import learning
from trendcast.cli import main
from trendcast.core import load_graph, load_trend
from trendcast.proximity import ProximityConfig, ProximityMap
graph_path, actions_path, out = sys.argv[1:]
assert main(["learn", "--graph", graph_path, "--actions", actions_path, "--t-star", "10", "--b", "2",
             "--out", out]) == 0
graph = load_graph(graph_path)
table = learning._table(load_trend(actions_path, graph), ProximityMap(graph, ProximityConfig(b=2.0)), 10.0)
assert table._p is not None and len(table._groups) > 1
print(hashlib.sha256(b"".join(x.tobytes() for x in table._influences(1.0))).hexdigest())
"""


def test_learn_is_byte_identical_across_blas_thread_counts(tmp_path):
    # learn-dense's shape takes the dense slot path, whose product with the
    # proximity matrix must not go through a BLAS that splits work by thread.
    graph = drop_edgeless_nodes(random_graph(200, 600, seed=3))
    rng = np.random.default_rng(3)
    trend = Trend(rng.integers(0, graph.node_count, 1500), np.sort(rng.uniform(0.0, 10.0, 1500)))
    write_graph(str(tmp_path / "g.tsv"), graph)
    write_trend(str(tmp_path / "a.tsv"), trend, graph)
    package_root = str(Path(trendcast.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"p{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", _LEARN_AND_DIGEST, str(tmp_path / "g.tsv"), str(tmp_path / "a.tsv"), str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), proc.stdout))
    assert outputs[0] == outputs[1]


def _one_error_line(capsys) -> str:
    [line] = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert line.startswith("error:")
    return line


@pytest.mark.parametrize("command", ["learn", "predict"])
@pytest.mark.parametrize("width", ["nan", "inf"])
def test_non_finite_jitter_is_rejected(tiny_files, tmp_path, capsys, command, width):
    graph, actions = tiny_files
    out = tmp_path / "out"
    extra = ["--grid", "3:1:2", "--model", "tequ"] if command == "predict" else []
    assert main([
        command, "--graph", str(graph), "--actions", str(actions), "--t-star", "3.0",
        *extra, f"--jitter={width}", "--seed", "5", "--out", str(out),
    ]) == 1
    assert "--jitter must be finite and non-negative" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["-1", "inf", "nan"])
def test_learn_rejects_bad_epsilon_up_front(tiny_files, tmp_path, capsys, epsilon):
    graph, actions = tiny_files
    out = tmp_path / "p.json"
    assert main([
        "learn", "--graph", str(graph), "--actions", str(actions), "--t-star", "3.0",
        f"--epsilon={epsilon}", "--out", str(out),
    ]) == 1
    # One error line: no search ran, so no tau-edge warning precedes it.
    assert "epsilon must be finite and non-negative" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_predict_and_eval_reject_non_finite_theta(tiny_files, tmp_path, capsys, theta):
    graph, actions = tiny_files
    forecast = [
        "predict", "--graph", str(graph), "--actions", str(actions), "--t-star", "3.0",
        "--grid", "3:1:2", "--model", "tequ", "--runs", "4", "--seed", "1",
    ]
    bad = tmp_path / "bad.csv"
    assert main([*forecast, f"--theta={theta}", "--out", str(bad)]) == 1
    assert "--theta must be finite" in _one_error_line(capsys)
    assert not bad.exists()

    pred = tmp_path / "pred.csv"
    assert main([*forecast, "--out", str(pred)]) == 0
    capsys.readouterr()
    scored = tmp_path / "eval.csv"
    assert main([
        "eval", "--graph", str(graph), "--pred", str(pred), "--actions", str(actions),
        f"--theta={theta}", "--out", str(scored),
    ]) == 1
    assert "--theta must be finite" in _one_error_line(capsys)
    assert not scored.exists()

    manifest = tmp_path / "trends.json"
    entry = {"pred": str(pred), "actions": str(actions)}
    manifest.write_text(json.dumps({"trends": [{**entry, "theta": 0}, {**entry, "theta": float(theta)}]}))
    assert main(["eval", "--graph", str(graph), "--manifest", str(manifest), "--out", str(scored)]) == 1
    line = _one_error_line(capsys)
    assert f"{manifest}: trends[1].theta must be finite" in line
    assert not scored.exists()


@pytest.mark.parametrize("value", ['"0.5"', "true", "null", "[]"])
def test_eval_manifest_theta_must_be_a_number(tiny_files, tmp_path, capsys, value):
    graph, actions = tiny_files
    pred = tmp_path / "pred.csv"
    assert main([
        "predict", "--graph", str(graph), "--actions", str(actions), "--t-star", "3.0",
        "--grid", "3:1:2", "--model", "tequ", "--runs", "4", "--seed", "1", "--out", str(pred),
    ]) == 0
    capsys.readouterr()
    manifest = tmp_path / "trends.json"
    manifest.write_text(f'{{"trends": [{{"pred": "{pred}", "actions": "{actions}", "theta": {value}}}]}}')
    assert main(["eval", "--graph", str(graph), "--manifest", str(manifest), "--out", str(tmp_path / "e.csv")]) == 1
    assert f"{manifest}: trends[0].theta must be a number" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "text, where",
    [
        (b"[1, 2]", ": expected a JSON object with a 'trends' list"),
        (b'{"trends": {"pred": "p.csv", "actions": "a.tsv"}}', ": expected a JSON object with a 'trends' list"),
        (b'{"trends": []}', ": the 'trends' list is empty"),
        (b'{"trends": [{"actions": "a.tsv"}]}', ": trends[0] needs 'pred' and 'actions'"),
        (b'{"trends": [{"pred": "p.csv", "actions": "a.tsv"}, {"pred": "p.csv"}]}', ": trends[1] needs"),
        (b'{"trends": [{"pred": "p.csv", "actions": 3}]}', ": trends[0] needs"),
        (b'{"trends": ["p.csv"]}', ": trends[0] needs"),
        (b'{"trends": [\n  {"pred": "p.csv",}\n]}', ":2: "),
        (b'{"trends": [\xff]}', ": 'utf-8' codec can't decode"),
    ],
)
def test_eval_manifest_shape_errors_name_the_file(tiny_files, tmp_path, capsys, text, where):
    graph, _ = tiny_files
    manifest = tmp_path / "trends.json"
    manifest.write_bytes(text)
    scored = tmp_path / "e.csv"
    assert main(["eval", "--graph", str(graph), "--manifest", str(manifest), "--out", str(scored)]) == 1
    assert f"{manifest}{where}" in _one_error_line(capsys)
    assert not scored.exists()


def _drop_summary_key(key):
    def apply(lines):
        *rows, summary = lines
        return rows + [" ".join(t for t in summary.split(" ") if not t.startswith(key + "="))]
    return apply


def _edit_row(index, edit):
    def apply(lines):
        lines[index] = edit(lines[index])
        return lines
    return apply


@pytest.mark.parametrize("edit, where", [
    (lambda lines: lines[:-1], ": no '# summary' line"),
    *[(_drop_summary_key(key), f":4: summary lacks key '{key}'") for key in (
        "runs", "theta", "measure", "duration_covering_fraction", "branching_ratio", "interval_length",
    )],
    (_edit_row(-1, lambda summary: summary.replace("runs=4", "runs=x")), ":4: invalid literal for int()"),
    (_edit_row(1, lambda row: row.rsplit(",", 1)[0]), ":2: expected 7 fields, got 6"),
    (_edit_row(2, lambda row: row + ",1"), ":3: expected 7 fields, got 8"),
    (_edit_row(2, lambda row: row.replace(",", ",x", 1)), ":3: could not convert string to float: 'x"),
    (_edit_row(1, lambda row: ",".join(["0", "", *row.split(",")[2:]])), ":2: could not convert string to float: ''"),
    (_edit_row(2, lambda row: ",".join(["5", "99.0", "100.0", *row.split(",")[3:]])),
     ":3: expected interval 1 [4.0, 5.0), got 5 [99.0, 100.0)"),
    (_edit_row(2, lambda row: ",".join(["0", *row.split(",")[1:]])), ":3: expected interval 1 [4.0, 5.0), got 0 [4.0, 5.0)"),
    (_edit_row(1, lambda row: row.replace(",4.0,", ",4.5,", 1)), ":2: expected interval 0 [3.0, 4.0), got 0 [3.0, 4.5)"),
    (_edit_row(1, lambda row: row.replace(",3.0,", ",nan,", 1)), ":2: t_min must be finite, got nan"),
])
def test_eval_rejects_a_malformed_prediction_file(tiny_files, tmp_path, capsys, edit, where):
    graph, actions = tiny_files
    pred = tmp_path / "pred.csv"
    assert main([
        "predict", "--graph", str(graph), "--actions", str(actions), "--t-star", "3.0",
        "--grid", "3:1:2", "--model", "tequ", "--runs", "4", "--seed", "1", "--out", str(pred),
    ]) == 0
    capsys.readouterr()
    lines = pred.read_text(encoding="utf-8").splitlines()
    assert lines[-1].startswith("# summary runs=4 ")
    pred.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    scored = tmp_path / "e.csv"
    assert main([
        "eval", "--graph", str(graph), "--pred", str(pred), "--actions", str(actions),
        "--theta", "0", "--out", str(scored),
    ]) == 1
    assert f"{pred}{where}" in _one_error_line(capsys)
    assert not scored.exists()
