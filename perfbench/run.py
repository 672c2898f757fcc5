"""Benchmark of the ``mingauge`` command line.

Run from the root of a mingauge checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, in turn

One client runs the real command line as fresh child processes, one at a time
(a closed loop, no concurrency), on the sources under ``src/``.  Workloads,
metrics and the layer -> metric -> workload predictions are listed in
``BENCHMARK.json``; the workload inputs and the correctness gate are in
``workloads.py``.

``--trace 0`` gives the end-to-end metrics: the median wall time, CPU time
and peak RSS of the command, its set-up time (process start to the return of
``build_surface`` or ``spherical_region``, over several set-ups), the share of
runs that pass the gate, and the largest relative gap of the identity checks.

``--trace 1`` alternates untraced and traced runs and gives the per-layer
metrics: call counts, inclusive and self times of the layer calls that
``child.py`` wraps, work counters, the tracing overhead and coverage.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the host
metadata.  ``--write-reference`` stores the outputs of one run at the
workload's default seed as the reference the gate compares against.
"""
import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import metrics
from workloads import WORKLOADS, Gate, load_reference, write_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 2       # set-ups timed besides those of the measured runs
RUN_BUDGET_S = 170.0   # a benchmark process must end within 180 s
THREAD_VARS = ("MINGAUGE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "ok_frac": "ratio", "rel_err": "ratio",
}

# (span name, field) pairs reported as "<span name>.<field>"
LAYER_FIELDS = [
    ("intgeom.counting_sweep", "s"), ("intgeom.counting_sweep", "self_s"),
    ("intgeom.crofton_verify", "s"), ("intgeom.crofton_verify", "self_s"),
    *[(f"invariants.{name}", key)
      for name in ("flux_profile", "radial_defect", "boundary_constant")
      for key in ("calls", "s", "self_s")],
    *[(f"invariants.{name}", key)
      for name in ("projective_volume", "check_defect_volume_identity",
                   "check_flux_shell_identity", "check_density_identity",
                   "check_band_area_bound")
      for key in ("s", "self_s")],
    ("invariants.check_monotonicity", "self_s"),
    *[(f"geometry.{name}", key)
      for name in ("integrate_mesh", "integrate_with_error", "level_polyline",
                   "surface_measure")
      for key in ("calls", "s")],
    ("catalog.build_surface", "s"), ("catalog.spherical_region", "s"),
    ("catalog.verify_minimality", "s"),
    ("ends.ends_estimate", "s"),
    ("report.compute_report", "self_s"), ("report.validate_report", "s"),
    ("report.run_report", "self_s"),
    ("cli.main", "self_s"),
]
COUNTERS = ["intgeom.counting.cells", "intgeom.counting.jittered",
            "intgeom.crofton.cells", "intgeom.crofton.jittered",
            "catalog.triangles"]
PER_LAYER = {
    **{f"{name}.{key}": "count" if key == "calls" else "s"
       for name, key in LAYER_FIELDS},
    **{name: "count" for name in COUNTERS},
    "intgeom.counting.ns_per_cell": "ns", "intgeom.crofton.ns_per_cell": "ns",
    "cli.import_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio",
}


@dataclass
class ChildRun:
    """One finished child process and what the gate made of it."""

    mode: str
    exit_code: int
    wall: float
    cpu: float
    rss_mb: float
    setup: float | None
    record: dict = field(default_factory=dict)
    outputs: dict | None = None
    rel_err: float | None = None
    reasons: list = field(default_factory=list)


class Runner:
    """Spawns children for one workload and seed, and gates their outputs."""

    def __init__(self, workload, seed, gate, work_dir, deadline,
                 child_script=HERE / "child.py"):
        self.workload = workload
        self.seed = seed
        self.gate = gate
        self.work_dir = work_dir
        self.deadline = deadline
        self.child_script = child_script
        self.spawned = 0

    def __call__(self, mode):
        self.spawned += 1
        out_dir = self.work_dir / f"child{self.spawned}"
        out_dir.mkdir(parents=True)
        record_path = out_dir / "child.json"
        cmd = [sys.executable, str(self.child_script), str(SRC),
               str(record_path), mode, "--",
               *self.workload.argv(self.seed, out_dir)]
        with open(out_dir / "stdout", "wb") as out, \
                open(out_dir / "stderr", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - start),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            record = json.loads(record_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            record = {}  # killed or crashed before writing it
        stamp = record.get("setup_done")
        child = ChildRun(mode=mode, exit_code=proc.returncode, wall=wall,
                         cpu=usage.ru_utime + usage.ru_stime,
                         rss_mb=usage.ru_maxrss / 1024.0,
                         setup=None if stamp is None else stamp - start,
                         record=record)
        if mode == "probe":
            if child.exit_code != 0 or child.setup is None:
                child.reasons = [f"set-up probe ended with exit code "
                                 f"{child.exit_code} and no set-up stamp"]
        else:
            stdout = (out_dir / "stdout").read_text(errors="replace")
            child.outputs = self.workload.outputs(out_dir, stdout)
            child.reasons = self.gate.check(child.exit_code, child.outputs)
            if child.outputs is not None:
                child.rel_err = self.workload.rel_err(child.outputs)
        print(f"perfbench: {self.workload.name} {mode} wall {wall:.3f} s, "
              f"cpu {child.cpu:.3f} s, set-up {child.setup} s",
              file=sys.stderr)
        if child.reasons:
            tail = (out_dir / "stderr").read_text(errors="replace")[-2000:]
            print(f"perfbench: {self.workload.name} seed {self.seed} {mode} "
                  f"run failed: {'; '.join(child.reasons)}\n{tail}",
                  file=sys.stderr)
        shutil.rmtree(out_dir)
        return child


def measure(run_child, seconds, trace, probes=SETUP_PROBES):
    """Run children for about ``seconds`` and return them all.

    One untimed set-up probe warms the byte-code and file caches.  Untraced
    runs then add ``probes`` set-up probes.  Rounds of one run (untraced) or
    of an untraced and a traced run (traced) repeat while at least half of
    the next round is expected to fit in ``seconds``; there is always at
    least one round.
    """
    children = [run_child("probe")]
    children[0].setup = None
    if not trace:
        children += [run_child("probe") for _ in range(probes)]
    modes = ("plain", "trace") if trace else ("plain",)
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        children += [run_child(mode) for mode in modes]
        now = time.monotonic()
        if now + 0.5 * (now - round_start) - start > seconds:
            return children


def end_to_end(children):
    runs = [c for c in children if c.mode == "plain"]
    setups = [c.setup for c in children if c.setup is not None]
    failed = sum(1 for c in children if c.reasons)
    errors = [c.rel_err for c in runs if c.rel_err is not None]
    return {
        "wall_s": metrics.median([c.wall for c in runs]),
        "cpu_s": metrics.median([c.cpu for c in runs]),
        # no set-up measured counts as the whole budget
        "setup_s": metrics.median(setups) if setups else RUN_BUDGET_S,
        "peak_rss_mb": metrics.median([c.rss_mb for c in runs]),
        "ok_frac": 1.0 - failed / len(children),
        # no output to measure counts as wholly wrong
        "rel_err": metrics.median(errors) if errors else 1.0,
    }


def layer_values(child):
    """Per-layer metrics of one traced child."""
    # a span left open by a crash counts as empty
    spans = [[name, start, start if end is None else end, parent]
             for name, start, end, parent in child.record.get("spans", [])]
    times = metrics.span_times(spans)
    counters = child.record.get("counters", {})
    values = {f"{name}.{key}": times.get(name, {}).get(key, 0)
              for name, key in LAYER_FIELDS}
    values.update({name: counters.get(name, 0) for name in COUNTERS})
    for stage, span in (("counting", "intgeom.counting_sweep"),
                        ("crofton", "intgeom.crofton_verify")):
        cells = counters.get(f"intgeom.{stage}.cells", 0)
        seconds = times.get(span, {}).get("s", 0.0)
        values[f"intgeom.{stage}.ns_per_cell"] = (
            1e9 * seconds / cells if cells else 0.0)
    values["cli.import_s"] = times.get("cli.import", {}).get("s", 0.0)
    values["trace.coverage"] = metrics.coverage(spans, "cli.main", child.wall)
    return values


def per_layer(children):
    traced = [c for c in children if c.mode == "trace"]
    plain = [c for c in children if c.mode == "plain"]
    rows = [layer_values(c) for c in traced]
    values = {key: metrics.median([row[key] for row in rows])
              for key in rows[0]}
    values["trace.overhead_s"] = (metrics.median([c.wall for c in traced])
                                  - metrics.median([c.wall for c in plain]))
    return values


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_metadata(runs):
    import numpy
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "git_commit": git_commit(),
        "runs": runs,
    }


def schema_validator():
    """``mingauge.report.validate_report`` from ``src/``, as the gate wants
    it: a function returning why a report is malformed, or ``None``."""
    sys.path.insert(0, str(SRC))
    import jsonschema
    import mingauge
    from mingauge.report import validate_report

    if Path(mingauge.__file__).resolve().parent != SRC / "mingauge":
        raise SystemExit(f"perfbench: imported mingauge from "
                         f"{mingauge.__file__}, not from {SRC}")

    def validate(report):
        try:
            validate_report(report)
        except jsonschema.ValidationError as exc:
            return exc.message
        return None

    return validate


def run_workload(workload, seed, seconds, trace, validate):
    reference = load_reference(workload)
    gate = Gate(workload, seed, reference, validate)
    work_dir = WORK / f"{os.getpid()}-{workload.name}"
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        children = measure(Runner(workload, seed, gate, work_dir, deadline),
                           seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    values = per_layer(children) if trace else end_to_end(children)
    units = PER_LAYER if trace else END_TO_END
    return {
        "attempted": len(children),
        "failed": sum(1 for c in children if c.reasons),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                    for k in units},
    }


def write_reference_run(workload, validate):
    seed = workload.default_seed
    gate = Gate(workload, seed, None, validate)
    work_dir = WORK / f"{os.getpid()}-{workload.name}"
    try:
        child = Runner(workload, seed, gate, work_dir,
                       time.monotonic() + RUN_BUDGET_S)("plain")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if child.reasons:
        raise SystemExit(f"perfbench: reference run of {workload.name} failed")
    print(f"wrote {write_reference(workload, child.outputs, seed)}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=26.0,
                        help="how long to measure each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store one run at the default seed as the "
                             "workload's reference output")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mingauge" / "cli.py").is_file():
        print(f"perfbench: no mingauge sources in {SRC}; run from the root "
              f"of a mingauge checkout", file=sys.stderr)
        return 2
    validate = schema_validator()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        for name in names:
            write_reference_run(WORKLOADS[name], validate)
        return 0

    runs, results = [], {}
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        runs.append({"workload": name, "seed": seed,
                     "inputs": workload.inputs(seed)})
        results[name] = run_workload(workload, seed, args.seconds,
                                     bool(args.trace), validate)
        for metric, value in results[name]["metrics"].items():
            print(f"{name:22s} {metric:46s} {value['value']:14.6g} "
                  f"{value['unit']}")
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps({"host": host_metadata(runs)}, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
