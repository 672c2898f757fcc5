"""The benchmark's workloads and the correctness gate each run must pass.

Each workload is one ``mingauge`` command line.  Its inputs come from the
benchmark seed alone: it is the ``mc.seed`` of a report config, or the
``--seed`` of ``mingauge crofton``.  ``report-helicoid`` has no random input,
so every seed runs the same command there.

A run fails when any of these holds:

* the exit code is not 0;
* ``report.json`` does not validate with ``mingauge.report.validate_report``;
* ``report.json`` or ``sweeps.csv`` differs byte for byte from the first run
  of the same workload and seed in this benchmark process;
* for ``crofton``, stdout lacks ``passed`` or its numbers differ from the
  first run's;
* the outputs disagree with the reference stored in ``reference/`` (see
  ``ReportWorkload.compare`` and ``CroftonWorkload.compare``).
"""
import copy
import json
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# values equal to within roundoff; the oracle is the program's own error bar
ROUNDOFF = 1e-12

# Relative gaps at or below this read as this: the crofton check's own
# roundoff allowance.  An exact identity then gives a small, non-zero error.
REL_ERR_FLOOR = 1e-9


class ReportWorkload:
    """``mingauge report`` on one catalog surface."""

    kind = "report"

    def __init__(self, name, config, default_seed):
        self.name = name
        self.config = config
        self.default_seed = default_seed

    @property
    def random(self):
        return "mc" in self.config

    def inputs(self, seed):
        config = copy.deepcopy(self.config)
        if self.random:
            config["mc"]["seed"] = seed
        return config

    def argv(self, seed, out_dir):
        config_path = Path(out_dir) / "config.json"
        config_path.write_text(json.dumps(self.inputs(seed)))
        return ["report", "--config", str(config_path), "--out", str(out_dir)]

    def outputs(self, out_dir, stdout):
        """The bytes that must repeat, and the parsed report, or ``None``."""
        out_dir = Path(out_dir)
        try:
            files = {n: (out_dir / n).read_bytes()
                     for n in ("report.json", "sweeps.csv")}
        except FileNotFoundError:
            return None
        return {"bytes": files, "report": json.loads(files["report.json"])}

    @staticmethod
    def rel_err(outputs):
        gaps = [c["detail"]["rel_gap"] for c in outputs["report"]["checks"]
                if c["applicable"] and "rel_gap" in c.get("detail", {})]
        return max([REL_ERR_FLOOR, *gaps])

    @staticmethod
    def reference_of(outputs, seed):
        report = outputs["report"]
        counting = report["counting"]
        return {
            "seed": seed,
            "verdicts": {c["name"]: [c["applicable"], c["passed"]]
                         for c in report["checks"]},
            "estimates": [[e["quantity"], e["method"], e["value"]]
                          for e in report["estimates"]],
            "counting": None if counting is None else {
                "means": counting["means"],
                "max_observed": counting["max_observed"]},
        }

    def compare(self, outputs, reference, seed):
        """Reasons the report disagrees with the reference.

        Check verdicts must match at every seed.  Every estimate must lie
        within the report's own ``error`` of the reference value; Monte-Carlo
        estimates and the integer section counts depend on the seed, so they
        are compared only at the reference seed, where counts match exactly.
        """
        report = outputs["report"]
        reasons = []
        verdicts = {c["name"]: [c["applicable"], c["passed"]]
                    for c in report["checks"]}
        if verdicts != reference["verdicts"]:
            reasons.append(f"check verdicts {verdicts} differ from the "
                           f"reference {reference['verdicts']}")
        same_seed = seed == reference["seed"] or not self.random
        estimates = {(e["quantity"], e["method"]): e
                     for e in report["estimates"]}
        for quantity, method, value in reference["estimates"]:
            if method == "monte_carlo" and not same_seed:
                continue
            got = estimates.get((quantity, method))
            if got is None:
                reasons.append(f"estimate {quantity}/{method} is missing")
                continue
            slack = got["error"] + ROUNDOFF * max(1.0, abs(value))
            if abs(got["value"] - value) > slack:
                reasons.append(f"estimate {quantity}/{method} = "
                               f"{got['value']!r}, reference {value!r} "
                               f"+- {got['error']!r}")
        if same_seed and reference["counting"] is not None:
            counting = report["counting"] or {}
            for key in ("means", "max_observed"):
                if counting.get(key) != reference["counting"][key]:
                    reasons.append(f"counting {key} {counting.get(key)} "
                                   f"differs from the reference "
                                   f"{reference['counting'][key]}")
        return reasons


_CROFTON_LINE = re.compile(
    r"^(area integral|line estimate|gap|ci95)\s+(\S+)$"
    r"|^samples\s+(\d+) \(jittered (\d+)\)$")
_CROFTON_KEYS = {"area integral": "lhs", "line estimate": "rhs",
                 "gap": "gap", "ci95": "ci95"}


class CroftonWorkload:
    """``mingauge crofton`` on a spherical region."""

    kind = "crofton"

    def __init__(self, name, region, samples, default_seed):
        self.name = name
        self.region = region
        self.samples = samples
        self.default_seed = default_seed

    def inputs(self, seed):
        return ["crofton", "--set", self.region,
                "--samples", str(self.samples), "--seed", str(seed)]

    def argv(self, seed, out_dir):
        return self.inputs(seed)

    @staticmethod
    def outputs(out_dir, stdout):
        """The printed numbers, or ``None`` when ``passed`` is missing."""
        lines = [line.strip() for line in stdout.splitlines() if line.strip()]
        if not lines or lines[-1] != "passed":
            return None
        numbers = {}
        for line in lines:
            match = _CROFTON_LINE.match(line)
            if match and match.group(1):
                numbers[_CROFTON_KEYS[match.group(1)]] = float(match.group(2))
            elif match:
                numbers["samples"] = int(match.group(3))
                numbers["jittered"] = int(match.group(4))
        if len(numbers) != 6:
            return None
        return {"bytes": {"stdout": "\n".join(lines).encode()},
                "numbers": numbers}

    @staticmethod
    def rel_err(outputs):
        numbers = outputs["numbers"]
        return max(REL_ERR_FLOOR, numbers["gap"] / abs(numbers["lhs"]))

    @staticmethod
    def reference_of(outputs, seed):
        return {"seed": seed, "numbers": outputs["numbers"]}

    def compare(self, outputs, reference, seed):
        """Reasons the printed result disagrees with the reference.

        The area integral is exact and must match at every seed, the line
        estimate at the reference seed, each within the printed ``ci95`` plus
        the printed precision (9 significant digits).
        """
        got, ref = outputs["numbers"], reference["numbers"]
        keys = ["lhs", "samples"]
        if seed == reference["seed"]:
            keys.append("rhs")
        reasons = []
        for key in keys:
            slack = got["ci95"] + 1e-8 * max(1.0, abs(ref[key]))
            if abs(got[key] - ref[key]) > slack:
                reasons.append(f"{key} = {got[key]!r}, reference "
                               f"{ref[key]!r} +- {slack:.3g}")
        return reasons


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    ReportWorkload("report-catenoid-mc",
                   {"surface": {"name": "catenoid"},
                    "mc": {"samples": 1000}}, default_seed=11),
    ReportWorkload("report-parabola-r4-mc",
                   {"surface": {"name": "complex_parabola_r4"},
                    "mc": {"samples": 1000}}, default_seed=11),
    ReportWorkload("report-helicoid",
                   {"surface": {"name": "helicoid"}}, default_seed=11),
    CroftonWorkload("crofton-hemisphere", "hemisphere", 50000,
                    default_seed=0),
)}


def load_reference(workload):
    return json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())


def write_reference(workload, outputs, seed):
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload.name}.json"
    path.write_text(json.dumps(workload.reference_of(outputs, seed),
                               indent=1, sort_keys=True) + "\n")
    return path


class Gate:
    """Per-run correctness gate for one workload and seed.

    ``validate(report)`` returns why a report is malformed, or ``None``; the
    benchmark backs it with ``mingauge.report.validate_report``.
    """

    def __init__(self, workload, seed, reference, validate):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.validate = validate
        self.first = None

    def check(self, exit_code, outputs):
        """Reasons the run failed; empty when it passed."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        if outputs is None:
            return ["outputs are missing or incomplete"]
        reasons = []
        if self.workload.kind == "report":
            problem = self.validate(outputs["report"])
            if problem is not None:
                reasons.append(f"report.json fails validation: {problem}")
        if self.first is None:
            self.first = outputs["bytes"]
        for name, data in outputs["bytes"].items():
            if data != self.first[name]:
                reasons.append(f"{name} differs from the first run")
        if self.reference is not None:
            reasons += self.workload.compare(outputs, self.reference,
                                             self.seed)
        return reasons
