"""Report pipeline and command-line interface.

Deterministic oracles:
* invalid configs name the offending field with a dotted path, exit code 2
* two identical runs (same config, same seed) produce byte-identical
  report.json and sweeps.csv, in separate processes
* report.json validates against the shipped schema
* the non-minimal control exits 0 (its expected failures are inapplicable)
  but --strict turns its estimator warning into a real failure
* the hemisphere line-counting identity is exact, so the crofton subcommand
  must pass with zero confidence interval
"""
import csv
import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from mingauge.catalog import build_surface
from mingauge.errors import ConfigError
from mingauge.report import (
    compute_report,
    parse_config,
    report_schema,
    run_report,
)

PLANE_CONFIG = {
    "surface": {"name": "plane", "params": {"r_max": 120.0},
                "resolution": "coarse"},
    "levels": {"count": 16},
    "mc": {"seed": 7, "samples": 3000},
}

SPHERE_CONFIG = {
    "surface": {"name": "sphere", "resolution": "coarse"},
    "levels": {"count": 12},
    "mc": {"seed": 3, "samples": 2000},
}


def run_cli(args, cwd=None):
    env = dict(os.environ, MINGAUGE_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "mingauge.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


@pytest.fixture(scope="module")
def plane_runs(tmp_path_factory):
    """The same plane config run twice, in separate processes."""
    root = tmp_path_factory.mktemp("plane_runs")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(PLANE_CONFIG))
    outs = []
    for tag in ("a", "b"):
        out = root / tag
        proc = run_cli(["report", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out)
    return outs


# --------------------------------------------------------------------------
# config validation


def test_parse_config_minimal():
    config = parse_config({"surface": {"name": "plane"}})
    assert config.surface_name == "plane"
    assert config.resolution == "default"
    assert not config.counting_enabled
    assert config.num_levels == 24


@pytest.mark.parametrize("raw, field", [
    ([1, 2], "config"),
    ({}, "surface"),
    ({"surface": {"name": "plane"}, "extra": 1}, "extra"),
    ({"surface": {"name": 5}}, "surface.name"),
    ({"surface": {"name": "plane", "junk": 1}}, "surface.junk"),
    ({"surface": {"name": "plane", "params": {"r_max": "big"}}},
     "surface.params.r_max"),
    ({"surface": {"name": "plane", "resolution": 9}}, "surface.resolution"),
    ({"surface": {"name": "plane", "resolution": {"rings": 0}}},
     "surface.resolution.rings"),
    ({"surface": {"name": "plane"}, "base_point": [1.0]}, "base_point"),
    ({"surface": {"name": "plane"}, "base_point": [0.0, "x", 1.0]},
     "base_point[1]"),
    ({"surface": {"name": "plane"}, "levels": {"count": 2}}, "levels.count"),
    ({"surface": {"name": "plane"}, "mc": {"samples": 500}}, "mc.seed"),
    ({"surface": {"name": "plane"}, "mc": {"seed": 1, "samples": 10}},
     "mc.samples"),
    ({"surface": {"name": "plane"}, "mc": {"seed": 1, "radii": [2.0, 1.0]}},
     "mc.radii"),
    ({"surface": {"name": "plane"}, "mc": {"seed": 1, "extra": 2}},
     "mc.extra"),
    ({"surface": {"name": "plane", "resolution": "huge"}},
     "surface.resolution"),
    ({"surface": {"name": "plane", "resolution": {"spokes": 8}}},
     "surface.resolution.spokes"),
    ({"surface": {"name": "plane", "resolution": {"sectors": 48.5}}},
     "surface.resolution.sectors"),
    ({"surface": {"name": "plane", "resolution": {"r_inner": "x"}}},
     "surface.resolution.r_inner"),
    ({"surface": {"name": "plane", "resolution": {"r_inner": -0.05}}},
     "surface.resolution.r_inner"),
])
def test_parse_config_rejects(raw, field):
    # preset names and grid keys are known only to the surface builder
    with pytest.raises(ConfigError) as err:
        config = parse_config(raw)
        build_surface(config.surface_name, config.surface_params,
                      config.resolution)
    assert err.value.field == field


def test_resolution_r_inner_takes_a_radius():
    # the preset's own float value; the count fields stay integers
    res = {"rings": 56, "sectors": 48, "r_inner": 0.05}
    config = parse_config({"surface": {"name": "plane", "resolution": res}})
    spec = build_surface("plane", None, config.resolution)
    preset = build_surface("plane", None, "coarse")
    assert np.array_equal(spec.mesh.vertices, preset.mesh.vertices)


def test_unknown_surface_names_the_surface():
    with pytest.raises(ConfigError) as err:
        parse_config({"surface": {"name": "torus"}})
    assert err.value.field == "surface.name"
    assert "torus" in str(err.value)


def test_base_point_dimension_checked_against_surface():
    config = parse_config({
        "surface": {"name": "complex_parabola_r4", "resolution": "coarse"},
        "base_point": [0.0, 0.0, -1.0],
    })
    with pytest.raises(ConfigError) as err:
        compute_report(config)
    assert err.value.field == "base_point"
    assert "4" in str(err.value)


# --------------------------------------------------------------------------
# report content


def test_reports_are_byte_identical(plane_runs):
    a, b = plane_runs
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "sweeps.csv").read_bytes() == (b / "sweeps.csv").read_bytes()
    # run.log carries wall time and is allowed to differ; it must still exist
    assert (a / "run.log").exists() and (b / "run.log").exists()
    # with counting on it says how many pairs the cull proposed and how many
    # it left for the exact test
    log = dict(line.split(" ", 1)
               for line in (a / "run.log").read_text().splitlines())
    cells = int(log["counting_cells"])
    candidates = int(log["counting_candidates"])
    assert 0 < int(log["counting_pairs_tested"]) <= candidates < cells
    # the end count's work counters go to run.log only
    assert int(log["ends_graph_edges"]) > 0
    assert int(log["ends_forest_rounds"]) > 0
    report_text = (a / "report.json").read_text()
    assert "graph_edges" not in report_text
    assert "forest_rounds" not in report_text


def test_report_validates_against_shipped_schema(plane_runs):
    report = json.loads((plane_runs[0] / "report.json").read_text())
    jsonschema.validate(report, report_schema())
    assert report["version"] == "1"
    assert report["passed"] is True


def test_report_estimates_cover_both_volume_routes(plane_runs):
    report = json.loads((plane_runs[0] / "report.json").read_text())
    methods = {e["method"] for e in report["estimates"]
               if e["quantity"] == "projective_volume"}
    assert methods == {"flux_limit", "log_slope"}
    values = [e["value"] for e in report["estimates"]
              if e["quantity"] == "projective_volume"]
    assert values == pytest.approx([2 * np.pi] * 2, rel=2e-2)
    defect = [e for e in report["estimates"]
              if e["quantity"] == "radial_defect"][0]
    assert defect["value"] == pytest.approx(np.pi, rel=2e-2)
    assert report["ends"]["estimate"] == 1
    assert report["counting"]["seed"] == 7
    assert report["counting"]["samples"] == 3000


def test_sweeps_csv_exposes_all_four_quantities(plane_runs):
    with open(plane_runs[0] / "sweeps.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["quantity", "R_or_t", "value", "error"]
    body = rows[1:]
    quantities = {row[0] for row in body}
    assert quantities == {"flux_normalized", "inverse_power_over_log",
                          "ends_count", "section_count_mean"}
    for row in body:
        float(row[1]), float(row[2]), float(row[3])
    # the flux rows approach the projective volume from below, up to
    # discretization wiggle within the monotonicity tolerance
    flux = np.array([float(row[2]) for row in body
                     if row[0] == "flux_normalized"])
    drop = np.max(np.maximum.accumulate(flux) - flux)
    assert drop <= 1e-3 * flux.max()
    assert flux[-1] == pytest.approx(2 * np.pi, rel=2e-2)


def test_run_report_without_mc_skips_counting(tmp_path):
    config = parse_config({
        "surface": {"name": "plane", "params": {"r_max": 120.0},
                    "resolution": "coarse"},
        "levels": {"count": 12},
    })
    report = run_report(config, tmp_path)
    assert report["exit_code"] == 0
    assert report["counting"] is None
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["defect_counting_bound"]["applicable"]
    assert not by_name["ends_counting_bound"]["applicable"]
    assert "mc" in by_name["defect_counting_bound"]["note"]
    quantities = {row[0] for row in report.get("_sweeps", [])} or {
        row.split(",")[0]
        for row in (tmp_path / "sweeps.csv").read_text().splitlines()[1:]
    }
    assert "section_count_mean" not in quantities


def test_base_point_on_surface_skips_counting_only(tmp_path):
    # sections through a point of the surface are pinned there, so only the
    # counting checks become inapplicable; the identity check subtracts the
    # on-surface density and must still pass
    config = parse_config({
        "surface": {"name": "enneper", "resolution": "coarse"},
        "base_point": [0.0, 0.0, 0.0],
        "levels": {"count": 12},
        "mc": {"seed": 5, "samples": 500},
    })
    report = run_report(config, tmp_path)
    assert report["exit_code"] == 0
    assert report["counting"] is None
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("defect_counting_bound", "ends_counting_bound"):
        assert not by_name[name]["applicable"]
        assert "base point" in by_name[name]["note"]
    ident = by_name["defect_volume_identity"]
    assert ident["applicable"] and ident["passed"]
    assert ident["detail"]["on_surface_multiplicity"] == 1


def test_enneper_matches_three_sheet_targets(tmp_path):
    # the catalog targets count all three sheets of the one end (6 pi, 3 pi)
    config = parse_config({
        "surface": {"name": "enneper", "resolution": "coarse"},
        "levels": {"count": 12},
    })
    report = run_report(config, tmp_path)
    assert report["exit_code"] == 0
    check = {c["name"]: c for c in report["checks"]}["invariants_match_expected"]
    assert check["applicable"] and check["passed"]
    vol = check["detail"]["projective_volume"]
    assert vol["target"] == pytest.approx(6 * np.pi, rel=1e-12)
    assert abs(vol["measured"] - vol["target"]) <= vol["tolerance"]


@pytest.fixture(scope="module")
def neck_report(tmp_path_factory):
    """Catenoid report from a base point on its neck circle."""
    config = parse_config({
        "surface": {"name": "catenoid", "resolution": "coarse"},
        "base_point": [1.0, 0.0, 0.0],
        "levels": {"count": 12},
    })
    return run_report(config, tmp_path_factory.mktemp("neck"))


def test_targets_not_compared_at_another_base(neck_report):
    # the catalog's 2 pi defect holds for the catenoid's suggested base at the
    # origin; from a point on the waist the defect is pi, which is right
    check = {c["name"]: c
             for c in neck_report["checks"]}["invariants_match_expected"]
    assert not check["applicable"]
    assert check["passed"] is None
    assert "[0, 0, 0]" in check["note"] and "[1, 0, 0]" in check["note"]


def test_on_surface_base_ends_sweep_clears_the_neck(neck_report):
    # from a base on the surface the ends sweep starts at 2% of its range,
    # as the flux levels do, so the outer radii all see both ends
    assert neck_report["exit_code"] == 0
    assert neck_report["ends"]["counts"] == [2] * 12
    ends = {c["name"]: c for c in neck_report["checks"]}["ends_stabilized"]
    assert ends["applicable"] and ends["passed"]


def test_report_estimates_each_quantity_once(monkeypatch):
    # the identity and bound checks are arithmetic on the report's own
    # estimates, so no estimator runs again to check them
    from mingauge import intgeom, invariants, report as report_module

    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("radial_defect", "flux_profile", "boundary_constant"):
        original = getattr(invariants, name)
        for module in (invariants, intgeom, report_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, original))
    report = compute_report(parse_config({
        "surface": {"name": "catenoid", "resolution": "coarse"},
    }))
    assert calls["radial_defect"] == 1
    assert calls["flux_profile"] == 1
    assert calls["boundary_constant"] == 1
    defect = next(e for e in report["estimates"]
                  if e["quantity"] == "radial_defect")
    ident = {c["name"]: c for c in report["checks"]}["defect_volume_identity"]
    assert ident["detail"]["lhs"] == 2 * defect["value"]


def test_explicit_counting_radii_beyond_mesh(tmp_path):
    config = parse_config({
        "surface": {"name": "plane", "params": {"r_max": 120.0},
                    "resolution": "coarse"},
        "levels": {"count": 12},
        "mc": {"seed": 5, "samples": 500, "radii": [10.0, 5000.0]},
    })
    with pytest.raises(ConfigError) as err:
        run_report(config, tmp_path)
    assert err.value.field == "mc.radii"


def test_shell_anchor_clears_closest_approach(tmp_path):
    # the catenoid's waist keeps every surface point at distance >= 1 from
    # the origin; levels just above that distance are near-critical for the
    # restricted distance function, so the shell must start beyond twice it
    config = parse_config({
        "surface": {"name": "catenoid", "resolution": "coarse"},
        "levels": {"count": 16},
    })
    report = run_report(config, tmp_path)
    by_name = {c["name"]: c for c in report["checks"]}
    shell = by_name["flux_shell_identity"]
    assert shell["applicable"] and shell["passed"]
    assert shell["detail"]["t_lo"] >= 2.0


def test_control_surface_passes_normally_fails_strict(tmp_path):
    config = parse_config(SPHERE_CONFIG)
    report = run_report(config, tmp_path / "normal")
    assert report["exit_code"] == 0
    by_name = {c["name"]: c for c in report["checks"]}
    mono = by_name["flux_monotone"]
    # the expected counterexample is recorded but does not count
    assert mono["applicable"] is False
    assert mono["passed"] is False
    assert mono["detail"]["rel_violation"] > 0.5
    assert by_name["defect_counting_bound"]["applicable"] is True
    assert by_name["defect_counting_bound"]["passed"] is True
    assert any("disagree" in w for w in report["warnings"])

    strict = run_report(config, tmp_path / "strict", strict=True)
    assert strict["exit_code"] == 1
    by_name = {c["name"]: c for c in strict["checks"]}
    assert by_name["volume_estimate_reliable"]["applicable"] is True
    assert by_name["volume_estimate_reliable"]["passed"] is False


# --------------------------------------------------------------------------
# command-line interface


def test_cli_rejects_unknown_surface(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"surface": {"name": "torus"}}))
    proc = run_cli(["report", "--config", str(cfg), "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "surface.name" in proc.stderr
    assert "torus" in proc.stderr


def test_cli_rejects_malformed_json(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    proc = run_cli(["report", "--config", str(cfg), "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "config" in proc.stderr


def test_cli_reports_field_path_for_missing_seed(tmp_path):
    cfg = tmp_path / "no_seed.json"
    cfg.write_text(json.dumps({"surface": {"name": "plane"},
                               "mc": {"samples": 500}}))
    proc = run_cli(["report", "--config", str(cfg), "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "mc.seed" in proc.stderr


@pytest.mark.parametrize("config, field", [
    ({"surface": {"name": "catenoid", "params": {"r_max": float("nan")}}},
     "surface.params.r_max"),
    ({"surface": {"name": "plane", "params": {"r_max": float("inf")}}},
     "surface.params.r_max"),
    ({"surface": {"name": "catenoid"},
      "mc": {"seed": 1, "radii": [1, float("nan")]}}, "mc.radii[1]"),
])
def test_cli_rejects_non_finite_numbers(tmp_path, config, field):
    cfg = tmp_path / "non_finite.json"
    cfg.write_text(json.dumps(config))  # written as NaN / Infinity
    proc = run_cli(["report", "--config", str(cfg), "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert field in proc.stderr and "finite" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_cli_catalog_lists_every_surface():
    proc = run_cli(["catalog"])
    assert proc.returncode == 0
    for name in ("plane", "catenoid", "enneper", "helicoid", "sphere",
                 "complex_parabola_r4"):
        assert name in proc.stdout
    assert "non-minimal control" in proc.stdout
    assert "12.5663706" in proc.stdout  # catenoid volume target, 4*pi
    assert "literature" in proc.stdout


def test_cli_crofton_hemisphere_exact():
    proc = run_cli(["crofton", "--set", "hemisphere", "--samples", "2000",
                    "--seed", "4"])
    assert proc.returncode == 0
    assert "passed" in proc.stdout
    lines = dict()
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2:
            lines[parts[0]] = parts[-1]
    assert float(lines["gap"]) == 0.0
    assert float(lines["ci95"]) == 0.0


def test_cli_crofton_usage_errors():
    proc = run_cli(["crofton", "--set", "cap", "--samples", "500",
                    "--seed", "1"])
    assert proc.returncode == 2
    assert "angle" in proc.stderr

    proc = run_cli(["crofton", "--n", "4", "--p", "3", "--set", "full",
                    "--samples", "500", "--seed", "1"])
    assert proc.returncode == 2

    proc = run_cli(["crofton", "--set", "full", "--samples", "500"])
    assert proc.returncode == 2  # --seed is required


def test_cli_strict_flag_fails_flagged_estimates(tmp_path):
    cfg = tmp_path / "sphere.json"
    cfg.write_text(json.dumps(SPHERE_CONFIG))
    normal = run_cli(["report", "--config", str(cfg),
                      "--out", str(tmp_path / "n")])
    assert normal.returncode == 0
    strict = run_cli(["report", "--config", str(cfg), "--strict",
                      "--out", str(tmp_path / "s")])
    assert strict.returncode == 1
    assert "warning" in normal.stdout


@pytest.mark.parametrize("config, field", [
    ({"surface": {"name": "sphere", "params": {"center": [0, 0]}}},
     "surface.params.center"),
    ({"surface": {"name": "catenoid", "params": {"u_min": -1e6}}},
     "surface.params.u_min"),
    ({"surface": {"name": "plane", "resolution": {"rings": 2, "sectors": 2}}},
     "surface.resolution.sectors"),
    ({"surface": {"name": "plane", "resolution": {"r_inner": 500}}},
     "surface.resolution.r_inner"),
    ({"surface": {"name": "catenoid", "params": {"c": [1, 2]}}},
     "surface.params.c"),
    ({"surface": {"name": "catenoid", "params": {"r_max": 1e300}}},
     "surface.params.r_max"),
    ({"surface": {"name": "catenoid"}, "base_point": [1e308, 0, 0]},
     "base_point"),
])
def test_cli_build_probes_exit_2(tmp_path, config, field):
    # each of these ended in a traceback (exit 1) or blamed another field
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(config))
    proc = run_cli(["report", "--config", str(cfg), "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert f"config error at {field}:" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


@pytest.mark.parametrize("config, field", [
    ({"surface": {"name": "enneper", "params": {"r_max": 1e300}}},
     "surface.params.r_max"),
    ({"surface": {"name": "helicoid", "params": {"pitch": 1e300}}},
     "surface.params.pitch"),
    ({"surface": {"name": "plane", "params": {"r_max": 1e300}}},
     "surface.params.r_max"),
    ({"surface": {"name": "enneper", "params": {"r_max": 0.1}}},
     "surface.params.r_max"),
    ({"surface": {"name": "catenoid", "params": {"c": 1e-13}}},
     "surface.params.c"),
    ({"surface": {"name": "catenoid", "params": {"c": 1e-300}}},
     "surface.params.c"),
    ({"surface": {"name": "catenoid", "params": {"c": 1e-320}}},
     "surface.params.c"),
    ({"surface": {"name": "catenoid"}, "base_point": [1e6, 0, 0]},
     "base_point"),
    ({"surface": {"name": "sphere", "params": {"radius": 1e300}}},
     "surface.params.radius"),
], ids=["enneper-r_max", "helicoid-pitch", "plane-r_max", "enneper-small",
        "catenoid-c-1e-13", "catenoid-c-1e-300", "catenoid-c-1e-320",
        "catenoid-far-base", "sphere-huge"])
def test_report_probes_name_their_field(config, field):
    # overflows, unresolvable necks and base points outside the truncation
    # ball are config errors, raised before any estimator runs
    with pytest.raises(ConfigError) as err:
        compute_report(parse_config(config))
    assert err.value.field == field


# Runs the CLI in a fresh interpreter, recording which mingauge function
# executed each import statement that names a scipy module.
_IMPORT_SPY = """
import builtins, json, sys
from mingauge.cli import main

seen = set()
real_import = builtins.__import__

def spy(name, globals=None, locals=None, fromlist=(), level=0):
    caller = sys._getframe(1)
    module = caller.f_globals.get("__name__", "")
    if level == 0 and name.split(".")[0] == "scipy" and module.startswith("mingauge"):
        seen.add(f"{module}.{caller.f_code.co_name} imports {name}")
    return real_import(name, globals, locals, fromlist, level)

builtins.__import__ = spy
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"exit": code, "imports": sorted(seen), "loaded": loaded}))
"""


def _startup_imports(args):
    env = dict(os.environ, MINGAUGE_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SPY, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("args, config, exits", [
    (["crofton", "--set", "hemisphere", "--samples", "2000", "--seed", "4"],
     None, (0,)),
    (["catalog"], None, (0,)),
    (["report"], {"surface": {"name": "helicoid", "resolution": "coarse"}},
     (0, 1)),
    (["report"], {"surface": {"name": "catenoid", "resolution": "coarse"}},
     (0,)),
    (["report"], {"surface": {"name": "enneper", "resolution": "coarse"}},
     (0,)),
], ids=["crofton", "catalog", "helicoid", "catenoid", "enneper"])
def test_no_cli_path_imports_scipy(tmp_path, args, config, exits):
    # scipy is a test oracle only: the truncation roots use catalog._brentq
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        args = [*args, "--config", str(cfg), "--out", str(tmp_path / "out")]
    run = _startup_imports(args)
    assert run["exit"] in exits
    assert run["imports"] == [] and run["loaded"] == []
