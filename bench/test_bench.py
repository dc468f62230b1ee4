"""Tests of the benchmark itself: ``python3 -m pytest bench -q`` from the repo root."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import inputs
from tracing import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _written(w, seed: int, directory: str) -> dict[str, bytes]:
    inputs.write(inputs.generate(w, seed), directory)
    result = {}
    for name in inputs.INPUT_FILES:
        with open(os.path.join(directory, name), "rb") as fh:
            result[name] = fh.read()
    return result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_every_check(name, trace, tmp_path):
    outcome = harness.run(WORKLOADS[name].tiny(), 3, 0.0, trace, str(tmp_path))
    result = outcome["result"]
    assert outcome["details"]["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(result["metrics"]) == list(wanted)
    if trace:
        # Layer self times cover at least 90% of every operation's wall time.
        assert result["metrics"]["trace.layer_share"]["value"] >= 90.0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_input_bytes(name, tmp_path):
    w = WORKLOADS[name]
    assert _written(w, 7, str(tmp_path / "a")) == _written(w, 7, str(tmp_path / "b"))


def test_other_seed_changes_inputs_but_not_metric_names(tmp_path):
    w = WORKLOADS["forecast-sparse"].tiny()
    one = harness.run(w, 1, 0.0, False, str(tmp_path / "one"))
    two = harness.run(w, 2, 0.0, False, str(tmp_path / "two"))
    assert one["details"]["inputs"]["hash"] != two["details"]["inputs"]["hash"]
    assert list(one["result"]["metrics"]) == list(two["result"]["metrics"])


def test_metric_names_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("nodes,edges", [(10, 45), (10, 1), (200, 600), (10_000, 20_000)])
def test_sample_edges_draws_distinct_pairs(nodes, edges):
    pairs = inputs.sample_edges(np.random.default_rng(0), nodes, edges)
    assert pairs.shape == (edges, 2)
    assert np.all((0 <= pairs[:, 0]) & (pairs[:, 0] < pairs[:, 1]) & (pairs[:, 1] < nodes))
    assert len(np.unique(pairs, axis=0)) == edges


def test_self_time_excludes_children():
    tr = Tracer()
    tr.spans = [("op.x", 0.0, 10.0, -1), ("a.f", 1.0, 4.0, 0), ("b.g", 5.0, 9.0, 0), ("c.h", 6.0, 7.0, 2)]
    assert tr.self_times() == [3.0, 3.0, 3.0, 1.0]
    assert tr.layer_shares() == {"op.x": 0.7}


def test_command_prints_result_line_last():
    spec = _spec()
    cmd = [*spec["command"], "--workload", "rw-dense", "--seed", "1", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_command_fails_without_the_program(tmp_path):
    spec = _spec()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path)
    cmd = [*spec["command"], "--workload", "rw-dense", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
