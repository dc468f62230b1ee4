"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload learn-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Inputs
and outputs go to ``.bench_work/`` in the checkout; the traced run also
writes its spans to ``.bench_work/traces/``.
"""

import os

# One thread everywhere: the benchmark is a closed loop on one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trendcast", "__init__.py")):
        print(f"error: no trendcast package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    outcome = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), WORK)
    result, details = outcome["result"], outcome["details"]
    if outcome["tracers"]:
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**details, "passes": [t.as_dict() for t in outcome["tracers"]]}, fh, indent=1)
            fh.write("\n")
        print(f"spans: {path}")
    print(f"workload {details['workload']} seed {details['seed']}, {details['passes']} passes")
    print(f"times scaled to full machine speed; median scale {details['speed_factor_median']:.3f}")
    print("inputs: " + json.dumps(details["inputs"], sort_keys=True))
    for problem in details["problems"][:20]:
        print(f"FAILED {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'error_rate':34s} {result['failed'] / result['attempted']:14.6g} ({result['failed']}/{result['attempted']} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
