"""End-to-end command tests: every subcommand through main() plus exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from trendcast.cli import main


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
        "--alpha", "0.3", "--tau", "1.0", "--horizon", "8.0",
        "--n-seeds", "3", "--seed", "7", "--out", str(actions),
    ]) == 0
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
        "0,0,1,1,1",
        "1,1,2,2,2",
        "2,2,3,1,1",
    ]


def test_learn_writes_params_and_report(pipeline, capsys):
    d, graph, actions, params = pipeline
    saved = json.loads(params.read_text(encoding="utf-8"))
    assert set(saved) == {"alpha", "tau", "epsilon", "t0", "proximity"}
    assert saved["alpha"] > 0 and saved["tau"] > 0
    report = (d / "params.json.report.csv").read_text(encoding="utf-8").splitlines()
    assert report[0] == "alpha,tau,logL,evaluations"
    assert len(report) == 2


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


def test_predict_da_dump_runs(pipeline, tmp_path):
    d, graph, actions, params = pipeline
    dump = tmp_path / "runs"
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "da",
        "--params", str(params), "--runs", "5", "--seed", "3",
        "--dump-runs", str(dump), "--out", str(tmp_path / "pred.csv"),
    ])
    assert code == 0
    assert sorted(p.name for p in dump.iterdir()) == [f"run_{i:04d}.tsv" for i in range(5)]


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


def test_predict_rejects_dump_runs_for_baselines(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "texp",
        "--seed", "3", "--dump-runs", str(tmp_path / "runs"),
        "--out", str(tmp_path / "pred.csv"),
    ])
    assert code == 1
    assert "--model da only" in capsys.readouterr().err


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


def test_predict_baseline_and_eval_roundtrip(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    pred = tmp_path / "pred.csv"
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "tequ",
        "--runs", "10", "--seed", "3", "--out", str(pred),
    ])
    assert code == 0
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


def test_predict_baseline_mult(pipeline, tmp_path):
    d, graph, actions, params = pipeline
    pred = tmp_path / "pred.csv"
    code = main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "eexp", "--mult",
        "--runs", "10", "--seed", "3", "--out", str(pred),
    ])
    assert code == 0


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
    pred = tmp_path / "pred.csv"
    assert main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "tequ",
        "--runs", "10", "--seed", "3", "--out", str(pred),
    ]) == 0
    code = main([
        "eval", "--graph", str(graph), "--pred", str(pred),
        "--actions", str(actions), "--theta-from-train", "0:4:2",
        "--out", str(tmp_path / "eval.csv"),
    ])
    assert code == 0


def test_eval_manifest_multiple_trends(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    pred = tmp_path / "pred.csv"
    assert main([
        "predict", "--graph", str(graph), "--actions", str(actions),
        "--t-star", "8.0", "--grid", "8:1:4", "--model", "tequ",
        "--runs", "10", "--seed", "3", "--out", str(pred),
    ]) == 0
    manifest = tmp_path / "trends.json"
    manifest.write_text(json.dumps({
        "trends": [
            {"pred": str(pred), "actions": str(actions), "theta": 0.0},
            {"pred": str(pred), "actions": str(actions), "theta": 1.0},
        ]
    }), encoding="utf-8")
    code = main([
        "eval", "--graph", str(graph), "--manifest", str(manifest),
        "--out", str(tmp_path / "eval.csv"),
    ])
    assert code == 0
    assert "evaluated 2 trend(s)" in capsys.readouterr().out


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


def test_prox_cache_roundtrip(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    cache = tmp_path / "prox.jsonl"
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


def test_prox_cache_restricted_to_actors(pipeline, tmp_path, capsys):
    d, graph, actions, params = pipeline
    cache = tmp_path / "prox.jsonl"
    assert main([
        "prox-cache", "--graph", str(graph), "--actions", str(actions),
        "--out", str(cache),
    ]) == 0
    out = capsys.readouterr().out
    rows = int(out.split("cached ")[1].split(" rows")[0])
    assert 1 <= rows <= 30


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
