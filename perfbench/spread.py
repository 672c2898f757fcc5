"""Run the benchmark once per seed and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 1]

For every workload and metric it prints the median of the runs and the
distance between their first and third quartiles as a share of the median,
next to the metric's bound in ``BENCHMARK.json``.  A spread above a third of
the bound is marked ``wide``, one above the bound ``OVER``.  The last line
is a JSON object with every run's values, so two sets can be compared.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in
              SPEC["per_layer" if args.trace else "end_to_end"]}
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    values = {}
    for name in names:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=HERE.parent)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name} seed {seed}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed",
                  flush=True)
            for metric, value in result["metrics"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(
                    value["value"])
    for name, table in values.items():
        for metric, series in table.items():
            median = metrics.median(series)
            spread = (metrics.quartile_spread(series)
                      if median and len(series) > 1 else 0.0)
            bound = bounds.get(metric)
            mark = ""
            if bound is not None and spread > bound:
                mark = "OVER"
            elif bound is not None and spread > bound / 3:
                mark = "wide"
            print(f"{name:22s} {metric:46s} median {median:12.6g} "
                  f"spread {spread:7.4f} bound {bound} {mark}")
    print(json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
