"""Compare the outputs of two ``src`` trees on a fixed list of runs.

    python tests/compare_outputs.py OLD_SRC NEW_SRC [--work DIR]

Each run goes through the command line (``python -m mingauge.cli``) once
per tree, with ``PYTHONPATH`` set to that tree and ``MINGAUGE_THREADS=1``.
For reports it compares ``report.json``, ``sweeps.csv``, stdout with the
output directory masked, the exit code and the ``run.log`` lines other than
``wall_time_s`` and ``peak_rss_mb``, with the seconds of each ``stage_s
<name> <seconds>`` line masked, so both trees must run the same stages in
the same order; for crofton, stdout and the exit code.
It prints one line per run and exits 1 when any output differs.  The runs:
the six catalog surfaces at ``coarse`` and ``default`` with ``mc {seed 11}``,
the catenoid ``coarse`` from its vertex ``[1, 0, 0]``, from 5e-5 off its
vertex nearest |x| = 10, from the centroid of its triangle 2309 and from
that centroid moved 1e-10 along the triangle's unit normal, with the same mc
block, and from 5e-8 off that vertex with ``mc {seed 11, samples 2000}``,
the catenoid ``coarse`` from ``[0.98, 0, 0]`` and ``complex_parabola_r4``
``coarse`` from ``[0.5, 0, 0.27, 0]`` and from 1e-10 off the midpoint of its
interior edge 5639, all three with ``mc {seed 11}``, the one-sided catenoid
(``u_min: -2``), the catenoid ``coarse`` with ``mc {seed 11, samples 2000,
radii [5.0, 20.0]}``, and crofton on the full sphere, the hemisphere and the
cap of angle 1.2 at 50,000 lines, seed 0.  ``--work DIR`` is made if it is
missing.

Not a test module: pytest collects ``test_*.py`` only.
"""
import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SURFACES = ("catenoid", "complex_parabola_r4", "enneper", "helicoid",
            "plane", "sphere")
MC = {"seed": 11}
REPORTS = [
    *((f"{name}-{res}", {"surface": {"name": name, "resolution": res},
                         "mc": MC})
      for name in SURFACES for res in ("coarse", "default")),
    ("catenoid-coarse-vertex", {
        "surface": {"name": "catenoid", "resolution": "coarse"},
        "base_point": [1, 0, 0], "mc": MC}),
    # the vertex nearest |x| = 10 moved 5e-5 along its normal (the sum of
    # its triangles' normals), as tests/conftest.py off_catenoid_vertex
    ("catenoid-coarse-near-vertex", {
        "surface": {"name": "catenoid", "resolution": "coarse"},
        "base_point": [9.936979600536601, 1.3082281828856464,
                       -2.9955544686673896], "mc": MC}),
    # the same vertex moved 5e-8, with the 2,000 sections of
    # tests/test_report.py test_cli_counts_near_a_vertex_without_a_traceback
    ("catenoid-coarse-vertex-5e-8", {
        "surface": {"name": "catenoid", "resolution": "coarse"},
        "base_point": [9.93698454792069, 1.3082288342211186,
                       -2.9955047685501586],
        "mc": {"seed": 11, "samples": 2000}}),
    ("catenoid-coarse-triangle", {
        "surface": {"name": "catenoid", "resolution": "coarse"},
        "base_point": [9.040021026087006, 3.272493750788428,
                       -2.953900486594732], "mc": MC}),
    # bases within the on-surface tolerance of the mesh: the centroid above
    # moved 1e-10 along the triangle's unit normal, and the midpoint of
    # interior edge 5639 moved 1e-10 along a unit normal of its triangle 3652
    ("catenoid-triangle-1e-10", {
        "surface": {"name": "catenoid", "resolution": "coarse"},
        "base_point": [9.040021026076937, 3.2724937507850105,
                       -2.9539004866941654], "mc": MC}),
    ("parabola-edge-1e-10", {
        "surface": {"name": "complex_parabola_r4", "resolution": "coarse"},
        "base_point": [0.7639324785087028, 0.19135512437684618,
                       0.5456559503774957, 0.29165918184400347], "mc": MC}),
    # bases near the surface, as tests/test_intgeom.py _NEAR_SURFACE: corner
    # caps tested against every line, and triangle groups passing every 2-plane
    ("catenoid-coarse-near-surface", {
        "surface": {"name": "catenoid", "resolution": "coarse"},
        "base_point": [0.98, 0, 0], "mc": MC}),
    ("parabola-coarse-near-surface", {
        "surface": {"name": "complex_parabola_r4", "resolution": "coarse"},
        "base_point": [0.5, 0, 0.27, 0], "mc": MC}),
    ("catenoid-u_min-2", {
        "surface": {"name": "catenoid", "params": {"u_min": -2}}}),
    # explicit counting radii: the defect at the outermost one reads the
    # flux at two levels off the sweep
    ("catenoid-coarse-mc-radii", {
        "surface": {"name": "catenoid", "resolution": "coarse"},
        "mc": {"seed": 11, "samples": 2000, "radii": [5.0, 20.0]}}),
]
CROFTON = [
    ("crofton-full", ["--set", "full"]),
    ("crofton-hemisphere", ["--set", "hemisphere"]),
    ("crofton-cap-1.2", ["--set", "cap", "--angle", "1.2"]),
]
UNTIMED = ("wall_time_s ", "peak_rss_mb ")
STAGE = "stage_s "  # its seconds are masked, its stage name kept


def _run(src, args, out):
    """``{name: text}`` of one command-line run from tree ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), MINGAUGE_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "mingauge.cli", *args],
                          capture_output=True, text=True, env=env)
    got = {"exit code": f"{proc.returncode}\n",
           "stdout": proc.stdout.replace(str(out), "<out>"),
           "stderr": proc.stderr.replace(str(out), "<out>")}
    for name in ("report.json", "sweeps.csv", "run.log"):
        path = out / name
        if path.exists():
            text = path.read_text()
            if name == "run.log":
                text = "".join(
                    line.rsplit(" ", 1)[0] + "\n" if line.startswith(STAGE)
                    else line for line in text.splitlines(True)
                    if not line.startswith(UNTIMED))
            got[name] = text
    return got


def _diff(old, new):
    """Unified diffs of the outputs that differ, as one string."""
    lines = []
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        if a != b:
            lines += difflib.unified_diff(
                (a or "").splitlines(True), (b or "").splitlines(True),
                f"old/{name}" if a is not None else "(missing)",
                f"new/{name}" if b is not None else "(missing)", n=1)
    return "".join(lines)


def _args(run, out):
    """Command-line arguments of ``run``, writing its config into ``out``."""
    spec = run[1]
    if isinstance(spec, dict):
        (out / "config.json").write_text(json.dumps(spec))
        return ["report", "--config", str(out / "config.json"),
                "--out", str(out)]
    return ["crofton", *spec, "--samples", "50000", "--seed", "0"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the runs' outputs (default: a "
                             "temporary one, removed afterwards)")
    args = parser.parse_args()
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=True)
    differ = 0
    with tempfile.TemporaryDirectory(dir=args.work) as work:
        for run in REPORTS + CROFTON:
            outputs = []
            for tree, src in trees.items():
                out = Path(work) / tree / run[0]
                out.mkdir(parents=True)
                outputs.append(_run(src, _args(run, out), out))
            diff = _diff(*outputs)
            differ += bool(diff)
            print(f"{run[0]:28s} exit {outputs[1]['exit code'].strip()}  "
                  f"{'DIFFERS' if diff else 'identical'}", flush=True)
            print(diff, end="")
    runs = len(REPORTS) + len(CROFTON)
    print(f"{runs - differ} of {runs} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
