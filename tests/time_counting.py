"""Time the counting layer of two ``src`` trees in process, in alternating
subprocesses.

    python tests/time_counting.py OLD_SRC NEW_SRC [--pairs N] [--json PATH]

Cases: ``crofton_verify`` on the hemisphere (96 sectors, the command line's
default) at 50,000 lines, seed 0, ``counting_sweep`` at 1,000 and 50,000
samples, seed 11, on the ``default`` catenoid and helicoid (n = 3) and
``complex_parabola_r4`` (n = 4), from the suggested base, radii
``geomspace(0.3 r, r, 5)`` with ``r = max_safe_radius``, and the section
frames alone: ``sample_grassmann(n, 2, 50000, default_rng(11))`` for n = 3
and 4 (``frames-3``, ``frames-4``).

Each case runs in a fresh process per tree, with ``PYTHONPATH`` set to that
tree.  The process builds the input, makes the call twice and reports the
second call's wall time (``time.perf_counter``).  Pairs alternate which tree
goes first.  Every case is timed twice per pair:
``MINGAUGE_THREADS=1``, applied as the command line applies it, and at the
default thread count, with the thread variables unset, so that numpy's BLAS
picks its own count.  It prints, per thread setting and case, each tree's
median and quartiles in ms and the pairs in which the new tree was faster;
``--json PATH`` also writes the raw seconds.

Not a test module: pytest collects ``test_*.py`` only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SURFACES = ("catenoid", "helicoid", "complex_parabola_r4")
CASES = ["crofton-hemisphere", *(f"{name}-{samples}" for samples in
                                 (1000, 50000) for name in SURFACES),
         "frames-3", "frames-4"]
THREADS = ("1", "default")
_THREAD_VARS = ("MINGAUGE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child(case: str) -> None:
    """Time ``case`` in this process and print its seconds as JSON."""
    if os.environ.get("MINGAUGE_THREADS"):
        from mingauge.cli import _pin_threads
        _pin_threads()
    import time

    import numpy as np

    from mingauge import intgeom
    from mingauge.catalog import build_surface, spherical_region
    from mingauge.geometry.types import max_safe_radius

    if case == "crofton-hemisphere":
        region = spherical_region("hemisphere", sectors=96)

        def call():
            intgeom.crofton_verify(region, samples=50000, seed=0)
    elif case.startswith("frames-"):
        n = int(case.removeprefix("frames-"))

        def call():
            intgeom.sample_grassmann(n, 2, 50000, np.random.default_rng(11))
    else:
        name, samples = case.rsplit("-", 1)
        spec = build_surface(name)
        mesh, base = spec.mesh, spec.base_point
        r = max_safe_radius(mesh, base)
        radii = np.geomspace(0.3 * r, r, 5)

        def call():
            intgeom.counting_sweep(mesh, base, radii, samples=int(samples),
                                   seed=11)
    call()
    start = time.perf_counter()
    call()
    print(json.dumps(time.perf_counter() - start))


def _time(src: Path, case: str, threads: str) -> float:
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    if threads != "default":
        env["MINGAUGE_THREADS"] = threads
    env["PYTHONPATH"] = str(src)
    out = subprocess.run([sys.executable, __file__, "--child", case],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _quartiles(values):
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--cases", nargs="+", choices=CASES, default=CASES)
    parser.add_argument("--json", type=Path, default=None,
                        help="write the raw seconds here")
    args = parser.parse_args()
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    seconds = {t: {c: {"old": [], "new": []} for c in args.cases}
               for t in THREADS}
    for pair in range(args.pairs):
        order = ("old", "new") if pair % 2 == 0 else ("new", "old")
        for threads in THREADS:
            for case in args.cases:
                for tree in order:
                    seconds[threads][case][tree].append(
                        _time(trees[tree], case, threads))
        print(f"pair {pair + 1} of {args.pairs} done", file=sys.stderr,
              flush=True)
    print(f"{'threads':8s} {'case':28s} {'old ms [q1, q3]':>24s} "
          f"{'new ms [q1, q3]':>24s} {'new/old':>7s} {'new wins':>8s}")
    for threads, cases in seconds.items():
        for case, runs in cases.items():
            old, new = (_quartiles(runs[t]) for t in ("old", "new"))
            wins = sum(b < a for a, b in zip(runs["old"], runs["new"]))
            print(f"{threads:8s} {case:28s} "
                  f"{old[1] * 1e3:8.1f} [{old[0] * 1e3:6.1f}, "
                  f"{old[2] * 1e3:6.1f}] "
                  f"{new[1] * 1e3:8.1f} [{new[0] * 1e3:6.1f}, "
                  f"{new[2] * 1e3:6.1f}] "
                  f"{new[1] / old[1]:7.3f} {wins:4d}/{len(runs['new'])}")
    if args.json is not None:
        args.json.write_text(json.dumps(seconds, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
