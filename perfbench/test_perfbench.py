"""Self-tests of the benchmark: its arithmetic, its gate and its metric list.

Run from the repository root with ``python3 -m pytest perfbench``.  They
start no mingauge computation; the failure counting uses a fake child.
"""
import json
import statistics
import sys
import textwrap
import time
from pathlib import Path

import pytest

import metrics
import run
from workloads import REL_ERR_FLOOR, WORKLOADS, Gate, load_reference


def test_median_and_quartile_spread():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 6.0, 8.0, 7.0, 9.0]
    assert metrics.median(values) == 5.5
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert metrics.quartile_spread(values) == pytest.approx(5.5 / 5.5)
    assert metrics.quartile_spread([2.0] * 10) == 0.0


def test_self_time_is_duration_less_direct_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.5, 0],
        ["a", 7.0, 8.0, 0],
    ]
    times = metrics.span_times(spans)
    assert times["root"] == {"calls": 1, "s": 10.0, "self_s": 4.5}
    assert times["a"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert times["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert times["b"]["self_s"] == 1.5
    total_self = sum(t["self_s"] for t in times.values())
    assert total_self == pytest.approx(10.0)


def test_nested_span_of_one_name_is_counted_once():
    spans = [
        ["import", 0.0, 4.0, None],
        ["import", 1.0, 3.0, 0],
        ["main", 4.0, 9.0, None],
        ["import", 5.0, 6.0, 2],
    ]
    times = metrics.span_times(spans)
    assert times["import"]["calls"] == 3
    assert times["import"]["s"] == 5.0
    assert times["import"]["self_s"] == 5.0
    # the layers under "main", and the import before it, cover 5 of 10 s
    assert metrics.coverage(spans, "main", 10.0) == pytest.approx(0.5)


def _crofton_stdout(lhs=6.28318531, rhs=6.28318531, verdict="passed"):
    return (f"region          hemisphere\narea integral   {lhs:.9g}\n"
            f"line estimate   {rhs:.9g}\ngap             "
            f"{abs(lhs - rhs):.3e}\nci95            0.000e+00\n"
            f"samples         50000 (jittered 3)\n{verdict}\n")


FAKE_CHILD = textwrap.dedent('''
    """Stand-in for child.py: plays the next behaviour from a script."""
    import json, sys, time
    from pathlib import Path

    src, out_json, mode, sep, *argv = sys.argv[1:]
    script = Path(__file__).with_name("script.json")
    steps = json.loads(script.read_text())
    step = steps.pop(0)
    script.write_text(json.dumps(steps))
    assert step["mode"] == mode, (step, mode)
    Path(out_json).write_text(json.dumps({"setup_done": time.monotonic()}))
    sys.stdout.write(step.get("stdout", ""))
    sys.exit(step.get("exit", 0))
''')


def test_failed_runs_are_counted_with_a_fake_child(tmp_path):
    workload = WORKLOADS["crofton-hemisphere"]
    good = _crofton_stdout()
    steps = [
        {"mode": "probe"},
        {"mode": "probe"},
        {"mode": "plain", "stdout": good},
        {"mode": "plain", "stdout": good, "exit": 1},
        {"mode": "plain", "stdout": _crofton_stdout(rhs=6.3)},
        {"mode": "plain", "stdout": _crofton_stdout(verdict="FAILED")},
        {"mode": "plain", "stdout": good},
    ]
    (tmp_path / "script.json").write_text(json.dumps(steps))
    fake = tmp_path / "fake_child.py"
    fake.write_text(FAKE_CHILD)
    gate = Gate(workload, workload.default_seed, load_reference(workload),
                validate=lambda report: None)
    runner = run.Runner(workload, workload.default_seed, gate,
                        tmp_path / "work", deadline=time.monotonic() + 60,
                        child_script=fake)
    children = run.measure(runner, seconds=0.0, trace=False, probes=1)
    children += [runner("plain") for _ in range(4)]

    assert [bool(c.reasons) for c in children] == [
        False, False, False, True, True, True, False]
    assert "exit code 1" in children[3].reasons
    assert any("differs from the first run" in r for r in children[4].reasons)
    assert any("reference" in r for r in children[4].reasons)
    assert children[5].reasons == ["outputs are missing or incomplete"]
    values = run.end_to_end(children)
    assert values["ok_frac"] == pytest.approx(4 / 7)
    assert values["rel_err"] == REL_ERR_FLOOR
    assert children[0].setup is None  # the warm-up set-up is not measured
    assert all(c.setup is not None for c in children[1:])


def test_report_gate_checks_schema_bytes_and_reference():
    workload = WORKLOADS["report-helicoid"]
    reference = load_reference(workload)
    report = {
        "checks": [{"name": name, "applicable": a, "passed": p}
                   for name, (a, p) in reference["verdicts"].items()],
        "estimates": [{"quantity": q, "method": m, "value": v, "error": 0.0}
                      for q, m, v in reference["estimates"]],
        "counting": None,
    }
    outputs = {"bytes": {"report.json": b"1", "sweeps.csv": b"2"},
               "report": report}
    problems = []
    gate = Gate(workload, 5, reference, validate=lambda r: problems.pop()
                if problems else None)
    assert gate.check(0, outputs) == []

    problems.append("'version' is a required property")
    assert gate.check(0, outputs) == [
        "report.json fails validation: 'version' is a required property"]

    changed = dict(outputs, bytes={"report.json": b"1", "sweeps.csv": b"3"})
    assert gate.check(0, changed) == ["sweeps.csv differs from the first run"]

    report["estimates"][2]["value"] += 1.0
    report["checks"][0]["passed"] = not report["checks"][0]["passed"]
    reasons = gate.check(0, outputs)
    assert len(reasons) == 2
    assert reasons[0].startswith("check verdicts")
    assert reasons[1].startswith("estimate radial_defect/region_quadrature")


def test_counting_compares_exactly_only_at_the_reference_seed():
    workload = WORKLOADS["report-catenoid-mc"]
    reference = load_reference(workload)
    report = {
        "checks": [{"name": name, "applicable": a, "passed": p}
                   for name, (a, p) in reference["verdicts"].items()],
        "estimates": [{"quantity": q, "method": m, "value": v, "error": 0.0}
                      for q, m, v in reference["estimates"]],
        "counting": {"means": [0.0], "max_observed": 0},
    }
    outputs = {"report": report}
    assert workload.compare(outputs, reference, reference["seed"] + 1) == []
    reasons = workload.compare(outputs, reference, reference["seed"])
    assert [r.split()[1] for r in reasons] == ["means", "max_observed"]


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for workload in WORKLOADS.values():
        assert load_reference(workload)["seed"] == workload.default_seed


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
