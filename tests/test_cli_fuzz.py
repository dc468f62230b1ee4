"""Fuzz test of the CLI boundary: one input file mutated, one command run through main() in process.

Every command must exit 0, 1 or 2 and let no exception escape. A failure
prints exactly one ``error:`` line, and it names the mutated file (or, for
a mutated graph or params file, the input that no longer matches it); a
success writes no NaN where a number is required, and no numpy
floating-point warning is raised or printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendcast.cli import main
from trendcast.simulation import PredictionReport

# The tokens a field is replaced by: "node" becomes a label the graph lacks
# or, in a .npz array, a node index past the graph; HUGE is a JSON integer
# past the float range, or 2**62 in a .npz array. "byte" overwrites one byte
# of the file with 0xff, and "change" alters one field or array.
HUGE = "1" + "0" * 400
TOKENS = ("nan", "inf", "-1", "x", "[]", "node", HUGE)
MUTATIONS = ("truncate", "drop", "duplicate", "byte", *TOKENS, "change")

# name -> (argv with {graph}-style placeholders, the inputs it reads, its output)
COMMANDS = {
    "learn": ("learn --graph {graph} --actions {actions} --t-star 8 --seed 1 --out {out}/p.json",
              {"graph", "actions"}, "p.json"),
    "learn-cache": ("learn --graph {graph} --actions {actions} --t-star 8 --seed 1 --prox-cache {cache} "
                    "--out {out}/p.json", {"graph", "actions", "cache"}, "p.json"),
    "predict-da": ("predict --graph {graph} --actions {actions} --t-star 8 --grid 8:1:4 --model da "
                   "--params {params} --runs 5 --seed 3 --out {out}/pred.csv",
                   {"graph", "actions", "params"}, "pred.csv"),
    "predict-da-cache": ("predict --graph {graph} --actions {actions} --t-star 8 --grid 8:1:4 --model da "
                         "--params {params} --prox-cache {cache} --runs 5 --seed 3 --out {out}/pred.csv",
                         {"graph", "actions", "params", "cache"}, "pred.csv"),
    "predict-eexp-mult": ("predict --graph {graph} --actions {actions} --t-star 8 --grid 8:1:4 --model eexp "
                          "--mult --runs 5 --seed 3 --out {out}/pred.csv", {"graph", "actions"}, "pred.csv"),
    "eval": ("eval --graph {graph} --pred {pred} --actions {actions} --theta 0 --out {out}/eval.csv",
             {"graph", "pred", "actions"}, "eval.csv"),
    "eval-manifest": ("eval --graph {graph} --manifest {manifest} --theta 0 --out {out}/eval.csv",
                      {"graph", "manifest", "pred", "actions"}, "eval.csv"),
    "aggregate": ("aggregate --graph {graph} --actions {actions} --grid 0:1:8 --out {out}/agg.csv",
                  {"graph", "actions"}, "agg.csv"),
    "synth": ("synth --graph {graph} --alpha 0.5 --tau 1 --horizon 8 --n-seeds 5 --seed 4 --out {out}/s.tsv",
              {"graph"}, "s.tsv"),
    "prox-cache": ("prox-cache --graph {graph} --actions {actions} --out {out}/c.npz",
                   {"graph", "actions"}, "c.npz"),
}
FILES = {"graph": "graph.tsv", "actions": "actions.tsv", "params": "params.json", "pred": "pred.csv",
         "manifest": "manifest.json", "cache": "cache.npz"}


def run(argv: list[str]) -> tuple[int, str, list[warnings.WarningMessage]]:
    """main(argv)'s exit code, standard error and warnings."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue(), caught


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> Path:
    """A directory of valid inputs: graph, actions, params, prediction and cache."""
    d = tmp_path_factory.mktemp("valid")
    paths = {name: d / file for name, file in FILES.items()}
    steps = [
        f"synth --random-graph 30:60 --graph-out {paths['graph']} --alpha 0.9 --tau 1 --horizon 8 "
        f"--n-seeds 10 --seed 7 --out {paths['actions']}",
        f"learn --graph {paths['graph']} --actions {paths['actions']} --t-star 8 --seed 1 --out {paths['params']}",
        f"predict --graph {paths['graph']} --actions {paths['actions']} --t-star 8 --grid 8:1:4 --model da "
        f"--params {paths['params']} --runs 5 --seed 3 --out {paths['pred']}",
        f"prox-cache --graph {paths['graph']} --out {paths['cache']}",
    ]
    for step in steps:
        assert run(step.split())[0] == 0, step
    return d


def _json_leaves(value, path=()):
    """The paths to every scalar of a JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_leaves(item, (*path, key))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _json_leaves(item, (*path, k))
    else:
        yield path


def _mutate_json(text: str, mutation: str, pick: int) -> bytes:
    data = json.loads(text)
    leaves = list(_json_leaves(data))
    *parents, last = leaves[pick % len(leaves)]
    holder = data
    for key in parents:
        holder = holder[key]
    if mutation == "drop":
        del holder[last]
        return json.dumps(data).encode()
    if mutation == "duplicate":
        if isinstance(holder, list):
            holder.insert(last, holder[last])
            return json.dumps(data).encode()
        # A repeated key: the reader keeps the later of the two.
        mark = json.dumps(last)
        entry = f"{mark}: {json.dumps(holder[last])}"
        return json.dumps(data).replace(entry, f"{entry}, {entry}", 1).encode()
    raw = {"nan": "NaN", "inf": "Infinity", "x": '"x"', "node": '"no-such-node"',
           "change": json.dumps(holder[last] * 2 if isinstance(holder[last], (int, float)) else "changed")}
    holder[last] = "@@TOKEN@@"
    return json.dumps(data).replace('"@@TOKEN@@"', raw.get(mutation, mutation)).encode()


def _mutate_table(text: str, mutation: str, pick: int, sep: str) -> bytes:
    lines = text.splitlines()
    cells = [(i, j) for i, line in enumerate(lines) if not line.startswith("#") for j in range(len(line.split(sep)))]
    i, j = cells[pick % len(cells)]
    fields = lines[i].split(sep)
    if mutation == "drop":
        del fields[j]
    elif mutation == "duplicate":
        fields.insert(j, fields[j])
    elif mutation == "change":
        fields[j] = fields[j] + "0"
    else:
        fields[j] = {"node": "no-such-node"}.get(mutation, mutation)
    lines[i] = sep.join(fields)
    return ("\n".join(lines) + "\n").encode()


def _mutate_npz(path: Path, mutation: str, pick: int) -> None:
    with np.load(path) as npz:
        arrays = dict(npz)
    name = sorted(arrays)[pick % len(arrays)]
    a = arrays[name]
    at = pick % a.size if a.size else 0
    if mutation == "drop":
        del arrays[name]
    elif mutation == "duplicate":
        arrays[name] = np.insert(a.ravel(), at, a.ravel()[at]) if a.size else a
    elif mutation == "change":
        arrays[name] = a[::-1] if a.ndim else np.asarray(str(a)[::-1])
    elif mutation == "x":
        arrays[name] = a.astype(str)
    elif mutation == "[]":
        arrays[name] = np.asarray([])
    elif a.size and a.ndim:
        value = {"nan": math.nan, "inf": math.inf, "-1": -1, "node": 10**6, HUGE: 2**62}[mutation]
        if isinstance(value, float) and a.dtype.kind != "f":
            a = a.astype(np.float64)
        a = a.copy()
        a[at] = value
        arrays[name] = a
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def mutate(path: Path, mutation: str, pick: int) -> None:
    data = path.read_bytes()
    if mutation == "truncate":
        path.write_bytes(data[: pick % max(len(data), 1)])
    elif mutation == "byte":
        at = pick % max(len(data), 1)
        path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    elif path.suffix == ".npz":
        _mutate_npz(path, mutation, pick)
    elif path.suffix == ".json":
        path.write_bytes(_mutate_json(data.decode(), mutation, pick))
    else:
        path.write_bytes(_mutate_table(data.decode(), mutation, pick, "," if path.suffix == ".csv" else "\t"))


def _finite(value: str) -> bool:
    return math.isfinite(float(value))


def check_output(command: str, out: Path) -> None:
    """A successful command's output holds no NaN where a number is required."""
    if command.startswith("learn"):
        params = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in {out}"))
        assert _finite(params["alpha"]) and _finite(params["tau"])
        alpha, tau, log_l, _ = (out.parent / (out.name + ".report.csv")).read_text().splitlines()[1].split(",")
        assert all(map(_finite, (alpha, tau, log_l)))
    elif command.startswith("predict"):
        report = PredictionReport.read_csv(str(out))
        assert not np.isnan(report.intensity_mean).any() and not np.isnan(report.coverage_mean).any()
        assert not math.isnan(report.duration_covering_fraction)
    elif command.startswith("eval"):
        lines = out.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert rows and all(_finite(truth) and _finite(pred) for _, _, truth, pred, _ in rows)
        assert _finite(lines[-1].removeprefix("# duration_accuracy="))
    elif command == "aggregate":
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows and all(_finite(value) for row in rows for value in row)
    elif command == "synth":
        manifest = json.loads((out.parent / (out.name + ".manifest.json")).read_text(),
                              parse_constant=lambda c: pytest.fail(f"{c} in the synth manifest"))
        assert manifest["actions"] >= 0
        assert all(_finite(line.split("\t")[1]) for line in out.read_text().splitlines())
    else:
        with np.load(out) as npz:
            assert "header" in npz


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(st.sampled_from(sorted(COMMANDS)), st.data())
def test_a_mutated_input_fails_cleanly_or_gives_finite_numbers(valid, command, data):
    template, reads, output = COMMANDS[command]
    target = data.draw(st.sampled_from(sorted(reads)), label="target")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    pick = data.draw(st.integers(0, 2**16), label="pick")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = {name: work / file for name, file in FILES.items()}
        for name, path in paths.items():
            if name != "manifest":
                shutil.copy(valid / path.name, path)
        paths["manifest"].write_text(json.dumps({"trends": [{"pred": str(paths["pred"]),
                                                             "actions": str(paths["actions"])}]}))
        (work / "out").mkdir()
        mutate(paths[target], mutation, pick)
        code, err, caught = run(template.format(out=work / "out", **paths).split())
        assert code in (0, 1, 2), err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]
        assert "encountered in" not in err, err
        if code == 0:
            check_output(command, work / "out" / output)
        else:
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(errors) == 1, err
            # The other inputs are checked against the graph, and a cache also
            # against the params' kernel, so their mutation may surface there.
            named = {target} | (reads if target in ("graph", "params") else set())
            assert any(FILES[name] in errors[0] for name in named), err
