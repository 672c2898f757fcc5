"""Report pipeline and command-line interface.

Deterministic oracles:
* invalid configs name the offending field with a dotted path, exit code 2
* two identical runs (same config, same seed) produce byte-identical
  report.json and sweeps.csv, in separate processes
* report.json validates against the shipped schema, and the built-in schema
  checker accepts exactly what jsonschema accepts
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
import tracemalloc
import warnings

import jsonschema
import numpy as np
import pytest

import mingauge.report as report_module
from mingauge.catalog import build_surface, catalog_names
from mingauge.ends import ends_estimate
from mingauge.errors import ConfigError
from mingauge.geometry import on_mesh
from mingauge.geometry.types import triangle_frames
from mingauge.invariants import level_grid
from mingauge.report import (
    _conforms,
    compute_report,
    parse_config,
    report_schema,
    run_report,
    validate_report,
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
    ({"surface": {"name": "plane"}, "levels": {"count": 10_001}},
     "levels.count"),
    ({"surface": {"name": "plane"}, "mc": {"seed": 1, "samples": 1_000_001}},
     "mc.samples"),
])
def test_parse_config_rejects(raw, field):
    # preset names and grid keys are known only to the surface builder
    with pytest.raises(ConfigError) as err:
        config = parse_config(raw)
        build_surface(config.surface_name, config.surface_params,
                      config.resolution)
    assert err.value.field == field


def test_parse_config_accepts_the_budgets():
    # the largest level and sample counts README admits
    config = parse_config({"surface": {"name": "plane"},
                           "levels": {"count": 10_000},
                           "mc": {"seed": 1, "samples": 1_000_000}})
    assert (config.num_levels, config.mc_samples) == (10_000, 1_000_000)


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
    # run.log carries wall time and peak resident memory and is allowed to
    # differ; each run must still write it, with its own peak memory
    log, log_b = (dict(line.split(" ", 1) for line in
                       (out / "run.log").read_text().splitlines())
                  for out in plane_runs)
    assert float(log["peak_rss_mb"]) > 0 and float(log_b["peak_rss_mb"]) > 0
    # with counting on it says how many pairs the cull proposed and how many
    # it left for the exact test
    cells = int(log["counting_cells"])
    candidates = int(log["counting_candidates"])
    assert 0 < int(log["counting_pairs_tested"]) <= candidates < cells
    # it names the BLAS thread cap that ran, and no jsonschema version: a
    # valid run never imports jsonschema
    assert log["threads"] == "1"
    assert "jsonschema" not in log
    # the end count's work counters go to run.log only
    assert int(log["ends_graph_edges"]) > 0
    assert int(log["ends_forest_rounds"]) > 0
    report_text = (a / "report.json").read_text()
    assert "graph_edges" not in report_text
    assert "forest_rounds" not in report_text


def test_run_log_times_each_stage(plane_runs):
    # one stage_s line per stage, in the order they ran; together they
    # cover the run's wall time, and report.json holds none of them
    for out in plane_runs:
        lines = (out / "run.log").read_text().splitlines()
        stages = [line.split(" ")[1:] for line in lines
                  if line.startswith("stage_s ")]
        assert [name for name, _ in stages] == [
            "surface", "ends", "flux", "volume", "defect", "bounds",
            "counting", "assemble", "write"]
        seconds = [float(value) for _, value in stages]
        assert min(seconds) >= 0
        wall = float(dict(line.split(" ", 1) for line in lines)["wall_time_s"])
        assert 0.95 * wall <= sum(seconds) <= wall + 0.001
        assert "stage_s" not in (out / "report.json").read_text()


def test_report_validates_against_shipped_schema(plane_runs):
    report = json.loads((plane_runs[0] / "report.json").read_text())
    jsonschema.validate(report, report_schema())
    assert report["version"] == "1"
    assert report["passed"] is True


@pytest.fixture(scope="module")
def shipped_reports(plane_runs, neck_report):
    """The plane report the CLI wrote, the catenoid neck report (counting
    skipped) and every catalog surface's report at ``coarse`` with counting
    on."""
    reports = [json.loads((plane_runs[0] / "report.json").read_text()),
               {k: v for k, v in neck_report.items() if k != "exit_code"}]
    for name in catalog_names():
        report = compute_report(parse_config({
            "surface": {"name": name, "resolution": "coarse"},
            "mc": {"seed": 11, "samples": 200}}))
        reports.append({k: v for k, v in report.items()
                        if not k.startswith("_")})
    return reports


def test_shipped_reports_pass_checker_and_jsonschema(shipped_reports):
    schema = report_schema()
    for report in shipped_reports:
        assert _conforms(report, schema)
        jsonschema.validate(report, schema)
        validate_report(report)


_DELETE = object()


def _plant(report, path, value):
    """A deep copy of ``report`` with the key or index ``path`` set to
    ``value``, or deleted when ``value`` is ``_DELETE``."""
    report = json.loads(json.dumps(report))
    *parents, last = path
    node = report
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return report


@pytest.mark.parametrize("path, value", [
    (("warnings",), _DELETE),
    (("ends", "estimate"), _DELETE),
    (("extra",), 1),
    (("surface", "name"), 3),
    (("ends", "counts", 0), True),
    (("estimates", 0, "value"), True),
    (("surface", "vertices"), 3.0),
    (("surface", "vertices"), 3.5),
    (("estimates", 0, "value"), None),
    (("estimates", 0, "error"), -1e-300),
    (("surface", "ambient_dim"), 2),
    (("base_point",), [0.0, 0.0]),
    (("base_point", 0), "0"),
    (("version",), "2"),
    (("version",), 1),
    (("counting",), None),
    (("passed",), 1),
], ids=["required", "nested-required", "additionalProperties", "type",
        "bool-not-integer", "bool-not-number", "3.0-is-integer",
        "3.5-not-integer", "null-not-number", "minimum", "integer-minimum",
        "minItems", "items", "const", "const-type", "null-allowed",
        "int-not-boolean"])
def test_schema_checker_agrees_with_jsonschema(shipped_reports, path, value):
    # one violation planted in a shipped report: _conforms must accept it
    # exactly when jsonschema does, and reject it with jsonschema's own error
    schema = report_schema()
    validator = jsonschema.Draft7Validator(schema)
    planted = _plant(shipped_reports[0], path, value)
    assert _conforms(planted, schema) == validator.is_valid(planted)
    if validator.is_valid(planted):
        validate_report(planted)
        return
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(planted, schema)
    with pytest.raises(jsonschema.ValidationError) as got:
        validate_report(planted)
    assert got.value.message == want.value.message
    assert list(got.value.path) == list(want.value.path)


@pytest.mark.parametrize("path, sub", [
    (("properties", "surface", "properties", "name"), {"pattern": "^[a-z]"}),
    (("properties", "estimates", "items"), {"maxItems": 3}),
    ((), {"additionalProperties": {"type": "string"}}),
    (("properties", "base_point"), {"items": [{"type": "number"}]}),
], ids=["pattern", "maxItems", "additionalProperties-schema", "items-list"])
def test_schema_checker_rejects_what_it_does_not_implement(
        monkeypatch, plane_runs, path, sub):
    schema = report_schema()
    node = schema
    for key in path:
        node = node[key]
    node.update(sub)
    monkeypatch.setattr(report_module, "report_schema", lambda: schema)
    report = json.loads((plane_runs[0] / "report.json").read_text())
    with pytest.raises(ValueError, match="does not implement"):
        validate_report(report)


def test_schema_checker_never_passes_what_it_rejects(monkeypatch, plane_runs):
    # when jsonschema accepts a report the checker rejected, the two disagree
    # and validation fails rather than passing
    monkeypatch.setattr(report_module, "_conforms", lambda *args: False)
    report = json.loads((plane_runs[0] / "report.json").read_text())
    with pytest.raises(RuntimeError, match="jsonschema accepts"):
        validate_report(report)


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


def test_cli_base_on_a_mesh_edge_skips_counting_without_a_traceback(
        tmp_path):
    # the midpoint of an interior edge of the catenoid `coarse` mesh: every
    # section through it meets the edge at the base itself, a hit each one
    # counts, so the count is ill-posed; the counting checks read "not
    # applicable" and name the base point, and no traceback is printed
    mesh = build_surface("catenoid", resolution="coarse").mesh
    i, j = mesh.interior_edges[1000]
    base = [-5.445996429171874, 78.1944925835395, -5.054914212975492]
    assert list(0.5 * (mesh.vertices[i] + mesh.vertices[j])) == base
    cfg = tmp_path / "edge.json"
    cfg.write_text(json.dumps({
        "surface": {"name": "catenoid", "resolution": "coarse"},
        "base_point": base, "mc": {"samples": 1000, "seed": 11}}))
    proc = run_cli(["report", "--config", str(cfg), "--out", str(tmp_path)])
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.returncode in (0, 1), proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["counting"] is None
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("defect_counting_bound", "ends_counting_bound"):
        assert not by_name[name]["applicable"]
        assert "[-5.446, 78.1945, -5.05491] lies on a mesh edge" in (
            by_name[name]["note"])


@pytest.mark.parametrize("where", ["triangle", "edge"])
def test_base_inside_a_triangle_or_on_an_edge_counts_its_sheet(tmp_path,
                                                              where):
    # the centroid of triangle 2309 and the midpoint of interior edge 10184
    # of the catenoid `coarse` mesh, both near |x| = 10: the mesh's density
    # there is one sheet, which the defect identity subtracts (a vertex
    # count read 0 and missed by rel_gap 0.50), and the sweeps start as on
    # the surface.  From the edge flux_monotone still reads a 1.26e-3
    # violation against its 1e-3 tolerance: the chord flux's error
    mesh = build_surface("catenoid", resolution="coarse").mesh
    if where == "triangle":
        tri = mesh.vertices[mesh.triangles[2309]]
        base = (tri[0] + tri[1] + tri[2]) / 3.0
    else:
        i, j = mesh.interior_edges[10184]
        base = 0.5 * (mesh.vertices[i] + mesh.vertices[j])
    config = parse_config({
        "surface": {"name": "catenoid", "resolution": "coarse"},
        "base_point": base.tolist()})
    report = run_report(config, tmp_path)
    by_name = {c["name"]: c for c in report["checks"]}
    ident = by_name["defect_volume_identity"]
    assert ident["detail"]["on_surface_multiplicity"] == 1
    assert ident["passed"] and by_name["flux_shell_identity"]["passed"]
    if where == "triangle":
        assert report["exit_code"] == 0


@pytest.fixture(scope="module")
def identity_run(tmp_path_factory):
    """``run(name, base)``: the exit code, sheets and defect identity
    ``rel_gap`` of a ``coarse`` report from ``base`` with no mc block; each
    base runs once."""
    runs = {}

    def run(name, base):
        key = (name, tuple(base))
        if key not in runs:
            config = parse_config({
                "surface": {"name": name, "resolution": "coarse"},
                "base_point": list(base)})
            report = run_report(config, tmp_path_factory.mktemp("near"))
            ident = {c["name"]: c for c in report["checks"]}[
                "defect_volume_identity"]
            runs[key] = (report["exit_code"],
                         ident["detail"]["on_surface_multiplicity"],
                         ident["detail"]["rel_gap"])
        return runs[key]

    return run


@pytest.mark.parametrize("name, where, index, offset", [
    ("catenoid", "triangle", 2309, 1e-12),
    ("catenoid", "triangle", 2309, 1e-10),
    ("catenoid", "triangle", 2309, 1e-9),
    ("catenoid", "edge", 10000, 1e-10),
    ("complex_parabola_r4", "edge", 5639, 1e-10),
])
def test_base_within_the_tolerance_reads_as_on_the_mesh(
        coarse, identity_run, name, where, index, offset):
    # a base this far off a triangle's centroid or an interior edge's
    # midpoint, along a unit normal of that triangle (of the edge's first
    # one), lies within the on-surface tolerance 1e-9 (1 + |a|): its sheet
    # is counted and the quadrature reads its height as 0, so the defect
    # near the base is not counted a second time (the identity missed by
    # rel_gap 0.50 when it was)
    mesh = coarse(name).mesh
    tri = index
    if where == "edge":
        ends = mesh.interior_edges[index]
        tri = np.flatnonzero(np.isin(mesh.triangles, ends).sum(axis=1) == 2)[0]
    base = (mesh.corners(index).mean(axis=0) if where == "triangle"
            else mesh.vertices[ends].mean(axis=0))
    normal = np.linalg.svd(triangle_frames(mesh.corners([tri]))[0])[2][2]
    exit_code, sheets, gap = identity_run(
        name, (base + offset * normal).tolist())
    assert (exit_code, sheets) == (0, 1)
    assert gap == pytest.approx(identity_run(name, base.tolist())[2], abs=1e-6)


def test_base_on_the_mesh_boundary_counts_no_whole_sheet(tmp_path):
    # a vertex of the one-sided catenoid's inner rim (u_min -2): the angles
    # of its triangles there sum to 0.48 of 2 pi, which rounds to 0 sheets
    # (a vertex count read 1).  No whole number closes the defect identity
    # at a boundary point, whose gap is that 0.48 sheet of normalized flux:
    # the run exits 1 by that check (the flux checks do not apply with the
    # rim in the ball)
    params = {"u_min": -2}
    mesh = build_surface("catenoid", params, resolution="coarse").mesh
    rim = mesh.boundary_edges.ravel()
    base = mesh.vertices[rim[np.argmin(np.linalg.norm(mesh.vertices[rim],
                                                      axis=1))]]
    cfg = tmp_path / "rim.json"
    cfg.write_text(json.dumps({
        "surface": {"name": "catenoid", "params": params,
                    "resolution": "coarse"},
        "base_point": base.tolist()}))
    proc = run_cli(["report", "--config", str(cfg), "--out", str(tmp_path)])
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    ident = {c["name"]: c for c in report["checks"]}["defect_volume_identity"]
    detail = ident["detail"]
    assert detail["on_surface_multiplicity"] == 0 and not ident["passed"]
    half = (detail["rhs"] - detail["lhs"]) / (2 * np.pi)
    assert 0.45 < half < 0.5


def test_flux_checks_do_not_apply_with_boundary_in_the_ball(tmp_path):
    # the one-sided catenoid (u_min -2) from its suggested base: its inner
    # rim lies in the ball, and the boundary's flux is in neither flux
    # check, so both are not applicable, as the density identity is, and
    # the run passes (both failed it, by margins -0.488 and -1.27)
    cfg = tmp_path / "one_sided.json"
    cfg.write_text(json.dumps({
        "surface": {"name": "catenoid", "params": {"u_min": -2}}}))
    proc = run_cli(["report", "--config", str(cfg), "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    for name in ("flux_monotone", "flux_shell_identity", "density_identity"):
        assert not checks[name]["applicable"] and checks[name]["passed"] is None
        assert checks[name]["note"] == checks["density_identity"]["note"]
    assert checks["defect_volume_identity"]["passed"]


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


def traced_levels(monkeypatch):
    """The levels ``invariants.level_chords`` is asked for, in call order."""
    from mingauge import invariants

    levels, trace = [], invariants.level_chords

    def recorded(mesh, center, level):
        levels.append(float(level))
        return trace(mesh, center, level)

    monkeypatch.setattr(invariants, "level_chords", recorded)
    return levels


def report_sweep(config):
    """The report's flux sweep of ``config`` and its cut radius r_hi."""
    spec = build_surface(config.surface_name, config.surface_params,
                         config.resolution)
    levels = level_grid(spec.mesh, spec.base_point, config.num_levels)
    return levels, float(levels[-1])


def test_report_estimates_each_quantity_once(monkeypatch):
    # the identity and bound checks are arithmetic on the report's own
    # estimates, so no estimator runs again to check them, and the flux is
    # traced once at each level the estimators and checks read
    from mingauge import intgeom, invariants, report as report_module

    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("radial_defect", "boundary_constant"):
        original = getattr(invariants, name)
        for module in (invariants, intgeom, report_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, original))
    traced = traced_levels(monkeypatch)
    config = parse_config({
        "surface": {"name": "catenoid", "resolution": "coarse"},
    })
    report = compute_report(config)
    assert calls["radial_defect"] == 1
    assert calls["boundary_constant"] == 1
    # the sweep, the defect's tail level, the density levels and the
    # shell's outer level
    sweep, r_hi = report_sweep(config)
    assert len(traced) == len(set(traced))
    assert set(traced) == {*map(float, sweep), 0.5 * r_hi, 0.7 * r_hi,
                           *map(float, np.geomspace(0.5 * r_hi, r_hi, 4))}
    defect = next(e for e in report["estimates"]
                  if e["quantity"] == "radial_defect")
    ident = {c["name"]: c for c in report["checks"]}["defect_volume_identity"]
    assert ident["detail"]["lhs"] == 2 * defect["value"]


def test_counting_defect_traces_only_its_tail_level(monkeypatch):
    # with explicit mc.radii the defect at the outermost counting radius
    # traces the flux there and at its half, and no level twice
    from mingauge import invariants, report as report_module

    calls = {"radial_defect": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counted(name, getattr(invariants, name))
        for module in (invariants, report_module):
            monkeypatch.setattr(module, name, wrapper)
    traced = traced_levels(monkeypatch)
    config = parse_config({
        "surface": {"name": "catenoid", "params": {"u_min": -2.0},
                    "resolution": "coarse"},
        "mc": {"seed": 11, "samples": 200, "radii": [5.0, 20.0]},
    })
    report = compute_report(config)
    assert calls == {"radial_defect": 2}
    # the genuine boundary refuses the shell and density identities before
    # they trace their levels
    sweep, r_hi = report_sweep(config)
    assert len(traced) == len(set(traced))
    assert set(traced) == {*map(float, sweep), 0.5 * r_hi, 10.0, 20.0}
    bound = {c["name"]: c for c in report["checks"]}["defect_counting_bound"]
    assert bound["detail"]["radius"] == 20.0


def helicoid_report(pitch, r_max):
    return compute_report(parse_config({
        "surface": {"name": "helicoid", "resolution": "coarse",
                    "params": {"pitch": pitch, "r_max": r_max}}}))


def test_helicoid_report_scales_with_its_pitch():
    # the suggested base lies half a pitch off the axis, so scaling pitch
    # and r_max together scales the whole configuration
    unit, double = helicoid_report(1.0, 40.0), helicoid_report(2.0, 80.0)
    assert double["base_point"] == [0.0, 1.0, 0.0]
    assert ([(c["name"], c["applicable"], c["passed"]) for c in unit["checks"]]
            == [(c["name"], c["applicable"], c["passed"])
                for c in double["checks"]])
    assert double["estimates"][0]["value"] == pytest.approx(
        unit["estimates"][0]["value"], rel=1e-9)


@pytest.mark.parametrize("scale", [1e-3, 1e20])
def test_scaled_helicoid_runs_without_warnings(scale):
    # at 1e20 the quadrature divided by zero, and at 1e-3 the report blamed
    # a base_point the config never set, while the base sat at (0, 0.5, 0).
    # With r_max = pitch the cut radius 0.49 pitch stops short of the base's
    # distance 0.5 pitch to the surface, which is r_max's fault
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = helicoid_report(scale, 40 * scale)
        with pytest.raises(ConfigError) as err:
            helicoid_report(scale, scale)
    assert report["base_point"] == [0.0, 0.5 * scale, 0.0]
    assert err.value.field == "surface.params.r_max"


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


def test_cli_rejects_a_missing_config_file(tmp_path):
    missing = tmp_path / "missing.json"
    proc = run_cli(["report", "--config", str(missing), "--out",
                    str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error at config: cannot read "
                                  f"{missing}")
    assert "Traceback" not in proc.stdout + proc.stderr


@pytest.mark.parametrize("threads", ["0", "abc"])
def test_cli_rejects_a_bad_thread_cap(threads):
    # the field is named once, as for every other config error
    env = dict(os.environ, MINGAUGE_THREADS=threads)
    proc = subprocess.run([sys.executable, "-m", "mingauge.cli", "catalog"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == ("config error at MINGAUGE_THREADS: must be a "
                           "positive integer\n")


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


def test_cli_crofton_cap_stdout_is_pinned():
    # the cap's line estimate is Monte-Carlo, not exact: any change to how
    # lines are drawn, culled or counted moves these digits
    proc = run_cli(["crofton", "--set", "cap", "--angle", "1.2",
                    "--samples", "50000", "--seed", "0"])
    assert proc.returncode == 0
    assert proc.stdout == (
        "region          cap (angle 1.2)\n"
        "area integral   4.00571812\n"
        "line estimate   4.00213771\n"
        "gap             3.580e-03\n"
        "ci95            2.648e-02\n"
        "samples         50000 (jittered 0)\n"
        "passed\n")


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

    proc = run_cli(["crofton", "--set", "full", "--refinement", "3",
                    "--samples", "500", "--seed", "1"])
    assert proc.returncode == 2  # the region's mesh is fixed
    assert "--refinement" in proc.stderr


@pytest.mark.parametrize("args, flag", [
    (["--set", "cap", "--angle", "0"], "angle"),
    (["--set", "cap", "--angle", "4"], "angle"),
    (["--set", "cap", "--angle", "nan"], "angle"),
    (["--set", "cap", "--angle", "1e-9"], "angle"),  # a degenerate mesh
    (["--set", "hemisphere", "--sectors", "0"], "sectors"),
    (["--set", "hemisphere", "--sectors", "1"], "sectors"),
    (["--set", "hemisphere", "--sectors", "2"], "sectors"),
    (["--set", "hemisphere", "--sectors", "-4"], "sectors"),
    (["--set", "hemisphere", "--sectors", "100000"], "sectors"),  # budget
    (["--set", "full", "--samples", "99"], "samples"),
    (["--set", "full", "--samples", "1000001"], "samples"),
    (["--set", "full", "--seed", "-1"], "seed"),
    # an angle or a sector count the region does not take, and too few
    # sectors for any region, are refused, not ignored
    (["--set", "full", "--angle", "5"], "angle"),
    (["--set", "hemisphere", "--angle", "0.3"], "angle"),
    (["--set", "full", "--sectors", "1"], "sectors"),
    (["--set", "full", "--sectors", "50"], "sectors"),
])
def test_cli_crofton_flags_exit_2(args, flag):
    # each of these ended in a traceback, with exit 1
    for option, value in (("--samples", "500"), ("--seed", "1")):
        if option not in args:
            args = [*args, option, value]
    proc = run_cli(["crofton", *args])
    assert proc.returncode == 2
    assert f"config error at {flag}:" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_cli_unexpected_error_exits_3_without_a_traceback(
        tmp_path, monkeypatch, capsys):
    # exit 1 means a failed check, so an exception no input check foresaw
    # ends in exit 3 and one line on stderr
    from mingauge.cli import _THREAD_VARS, main

    for var in ("MINGAUGE_THREADS", *_THREAD_VARS):  # main sets them
        monkeypatch.setenv(var, "1")

    def broken(*args):
        raise RuntimeError("end sweep broke")

    monkeypatch.setattr(report_module, "ends_estimate", broken)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"surface": {"name": "plane",
                                           "resolution": "coarse"}}))
    code = main(["report", "--config", str(cfg), "--out",
                 str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "internal error: RuntimeError: end sweep broke\n"
    assert "Traceback" not in err


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
    ({"surface": {"name": "plane", "params": {"r_max": 1e100}}},
     "surface.params.r_max"),
    ({"surface": {"name": "helicoid", "params": {"r_max": 1e100}}},
     "surface.params.r_max"),
    ({"surface": {"name": "helicoid", "params": {"r_max": 1e16}}},
     "surface.params.r_max"),
    ({"surface": {"name": "helicoid", "params": {"r_max": 1e20}}},
     "surface.params.r_max"),
    ({"surface": {"name": "plane", "params": {"r_max": 1e-100,
                                              "offset": 0}}},
     "surface.params.r_max"),
    # the largest ball the mesh covers about the base misses the surface:
    # the helicoid's base lies half a pitch off it, its cut radius is
    # 0.98 (r_max - pitch / 2), and a sphere about its center is all rim
    ({"surface": {"name": "helicoid", "resolution": "coarse",
                  "params": {"pitch": 1, "r_max": 1}}},
     "surface.params.r_max"),
    ({"surface": {"name": "helicoid", "resolution": "coarse",
                  "params": {"pitch": 1e-3, "r_max": 1e-3}}},
     "surface.params.r_max"),
    ({"surface": {"name": "helicoid", "resolution": "coarse",
                  "params": {"pitch": 1, "r_max": 1}},
      "base_point": [0, 0.5, 0]},
     "base_point"),
    ({"surface": {"name": "sphere", "resolution": "coarse",
                  "params": {"center": [0, 0, 0]}}},
     "surface.params.center"),
    # the outermost counting radius reaches no vertex: a radius whose
    # square underflows to 0, and a ball inside the catenoid's neck
    ({"surface": {"name": "catenoid", "resolution": "coarse"},
      "mc": {"seed": 1, "radii": [1e-170]}},
     "mc.radii"),
    ({"surface": {"name": "catenoid", "resolution": "coarse"},
      "mc": {"seed": 1, "radii": [0.5]}},
     "mc.radii"),
    # from a base on the surface the nearest vertex is 0 away, so the rule
    # is the on-surface tolerance
    ({"surface": {"name": "catenoid", "resolution": "coarse"},
      "base_point": [1, 0, 0], "mc": {"seed": 1, "radii": [1e-170]}},
     "mc.radii"),
    # checks that no other case reaches: a disk inside the plane's offset,
    # a catenoid cut inside its neck, a negative size, no surface name and
    # no counting radius
    ({"surface": {"name": "plane", "params": {"offset": 5, "r_max": 4}}},
     "surface.params.r_max"),
    ({"surface": {"name": "catenoid", "params": {"c": 3, "r_max": 5}}},
     "surface.params.r_max"),
    ({"surface": {"name": "enneper", "params": {"r_max": -1}}},
     "surface.params.r_max"),
    ({"surface": {"name": "helicoid", "params": {"pitch": -1}}},
     "surface.params.pitch"),
    ({"surface": {}}, "surface.name"),
    ({"surface": {"name": "plane"}, "mc": {"seed": 1, "radii": []}},
     "mc.radii"),
])
def test_cli_build_probes_exit_2(tmp_path, config, field):
    # each of these ended in a traceback (exit 1), blamed another field,
    # overflowed the fourth power of a length on the way, or read every
    # estimate as 0 and exited 0 or 1
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(config))
    proc = run_cli(["report", "--config", str(cfg), "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert f"config error at {field}:" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "Warning" not in proc.stderr


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
    # past the triangle budget: 2 x 600 x 1024 triangles, then larger ones
    ({"surface": {"name": "helicoid", "resolution": {"nu": 600}}},
     "surface.resolution.nu"),
    ({"surface": {"name": "catenoid", "resolution": {"nu": 10**20, "nv": 5}}},
     "surface.resolution.nu"),
    ({"surface": {"name": "sphere", "resolution": {"subdivisions": 8}}},
     "surface.resolution.subdivisions"),
    ({"surface": {"name": "sphere", "resolution": {"subdivisions": 10**14}}},
     "surface.resolution.subdivisions"),
    ({"surface": {"name": "plane", "resolution": {"sectors": 100_000}}},
     "surface.resolution.sectors"),
    ({"surface": {"name": "enneper",
                  "resolution": {"rings": 5000, "sectors": 200}}},
     "surface.resolution.rings"),
], ids=["enneper-r_max", "helicoid-pitch", "plane-r_max", "enneper-small",
        "catenoid-c-1e-13", "catenoid-c-1e-300", "catenoid-c-1e-320",
        "catenoid-far-base", "sphere-huge", "helicoid-nu-budget",
        "catenoid-nu-budget", "sphere-budget", "sphere-huge-budget",
        "plane-sectors-budget", "enneper-rings-budget"])
def test_report_probes_name_their_field(config, field):
    # overflows, unresolvable necks and base points outside the truncation
    # ball are config errors, raised before any estimator runs
    with pytest.raises(ConfigError) as err:
        compute_report(parse_config(config))
    assert err.value.field == field


def test_base_within_roundoff_of_a_vertex_gets_the_vertex_verdicts(
        off_catenoid_vertex):
    # a base 5e-10 or 5e-9 off a catenoid vertex along its normal lies on
    # the surface by the one on-surface rule; the report computes with the
    # vertex, so the quadrature and the identities agree on the sheet there

    def verdicts(base):
        report = compute_report(parse_config({
            "surface": {"name": "catenoid", "resolution": "coarse"},
            "base_point": base.tolist()}))
        assert report["config"]["base_point"] == base.tolist()
        return [(c["name"], c["applicable"], c["passed"])
                for c in report["checks"]]

    want = verdicts(off_catenoid_vertex(0.0))
    assert all(passed for _, applicable, passed in want if applicable)
    for offset in (5e-10, 5e-9):
        assert verdicts(off_catenoid_vertex(offset)) == want, offset


@pytest.mark.parametrize("offset", [5e-8, 5e-5, 0.05])
def test_base_near_a_vertex_sweeps_as_on_the_surface(tmp_path,
                                                     off_catenoid_vertex,
                                                     offset):
    # past the on-surface tolerance but within 1e-3 max_safe_radius of a
    # vertex, 1.3 times the nearest distance is a near-critical radius: the
    # sweeps start at 0.02 of their end, as from the vertex, and every check
    # passes (each of these exited 1 when they started at 1.3 d_min)
    base = off_catenoid_vertex(offset)
    report = run_report(parse_config({
        "surface": {"name": "catenoid", "resolution": "coarse"},
        "base_point": base.tolist()}), tmp_path)
    failed = [c["name"] for c in report["checks"]
              if c["applicable"] and not c["passed"]]
    assert report["exit_code"] == 0, failed


@pytest.mark.parametrize("offset", [5e-8, 5e-6, 5e-5])
def test_cli_counts_near_a_vertex_without_a_traceback(tmp_path,
                                                      off_catenoid_vertex,
                                                      offset):
    # sections through a base 5e-8 or 5e-6 off a vertex meet its triangles
    # near their corners and sides; they count as from 5e-5, the float
    # bounds decide every pair of the 2,000 sections, none is settled in
    # rationals, and the run ends by its checks, not in a traceback
    cfg = tmp_path / "near.json"
    cfg.write_text(json.dumps({
        "surface": {"name": "catenoid", "resolution": "coarse"},
        "base_point": off_catenoid_vertex(offset).tolist(),
        "mc": {"seed": 11, "samples": 2000}}))
    proc = run_cli(["report", "--config", str(cfg), "--out", str(tmp_path)])
    assert "Traceback" not in proc.stdout + proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    failed = [c["name"] for c in report["checks"]
              if c["applicable"] and not c["passed"]]
    assert proc.returncode == (1 if failed else 0), proc.stderr
    counting = report["counting"]
    assert counting["means"] == [1.9545, 1.9915, 2.0195, 2.0435, 2.065]
    assert counting["jittered"] == 0


def test_near_surface_sweeps_start_at_a_share_of_their_end(
        coarse, off_catenoid_vertex):
    mesh = coarse("catenoid").mesh
    base = off_catenoid_vertex(5e-8)
    assert on_mesh(mesh, base)[1] == 0
    for radii in (level_grid(mesh, base), ends_estimate(mesh, base).radii):
        assert radii[0] == pytest.approx(0.02 * radii[-1], rel=1e-12)


# Runs the CLI in a fresh interpreter, recording which mingauge function
# executed each import statement that names a watched module.
_IMPORT_SPY = """
import builtins, json, sys
from mingauge.cli import main

WATCHED = ("scipy", "jsonschema", "importlib.metadata", "numpy.ma")
seen = set()
real_import = builtins.__import__

def watched(name):
    return any(name == w or name.startswith(w + ".") for w in WATCHED)

def spy(name, globals=None, locals=None, fromlist=(), level=0):
    caller = sys._getframe(1)
    module = caller.f_globals.get("__name__", "")
    names = [name, *(f"{name}.{item}" for item in fromlist or ())]
    if level == 0 and any(map(watched, names)) and module.startswith("mingauge"):
        seen.add(f"{module}.{caller.f_code.co_name} imports {name}")
    return real_import(name, globals, locals, fromlist, level)

builtins.__import__ = spy
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if watched(m))
print(json.dumps({"exit": code, "imports": sorted(seen), "loaded": loaded}))
"""

_THREAD_VARS = ("MINGAUGE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _startup_imports(args, threads):
    # the caller's thread variables are replaced by ``threads``
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SPY, *args],
                          capture_output=True, text=True,
                          env={**env, **threads})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_SPHERE = {"surface": {"name": "sphere", "resolution": "coarse"}}


@pytest.mark.parametrize("args, config, exits, threads, cap", [
    (["crofton", "--set", "hemisphere", "--samples", "2000", "--seed", "4"],
     None, (0,), {"MINGAUGE_THREADS": "1"}, None),
    (["catalog"], None, (0,), {"MINGAUGE_THREADS": "1"}, None),
    (["report"], {"surface": {"name": "helicoid", "resolution": "coarse"}},
     (0, 1), {"MINGAUGE_THREADS": "1"}, "1"),
    (["report"], {"surface": {"name": "catenoid", "resolution": "coarse"}},
     (0,), {"MINGAUGE_THREADS": "1"}, "1"),
    (["report"], {"surface": {"name": "enneper", "resolution": "coarse"}},
     (0,), {"MINGAUGE_THREADS": "1"}, "1"),
    (["report"], {"surface": {"name": "complex_parabola_r4",
                              "resolution": "coarse"},
                  "mc": {"seed": 11, "samples": 1000}},
     (0,), {"MINGAUGE_THREADS": "1"}, "1"),
    # the BLAS cap: 1 by default, a preset pool variable wins over the
    # default, MINGAUGE_THREADS over both
    (["report"], _SPHERE, (0,), {}, "1"),
    (["report"], _SPHERE, (0,), {"OPENBLAS_NUM_THREADS": "3"}, "3"),
    (["report"], _SPHERE, (0,), {"MINGAUGE_THREADS": "2"}, "2"),
    (["report"], _SPHERE, (0,),
     {"MINGAUGE_THREADS": "2", "OPENBLAS_NUM_THREADS": "3"}, "2"),
], ids=["crofton", "catalog", "helicoid", "catenoid", "enneper",
        "parabola-mc", "threads-default", "threads-openblas-3",
        "threads-mingauge-2", "threads-mingauge-over-openblas"])
def test_no_cli_path_imports_scipy(tmp_path, args, config, exits, threads,
                                   cap):
    # scipy is a test oracle only: the truncation roots use catalog._brentq.
    # jsonschema only explains a report that fails its schema, so a valid
    # run loads neither it nor importlib.metadata.  numpy.ma (10-15 ms) comes
    # with a plain np.unique or np.union1d, which ask np.ma.is_masked
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        args = [*args, "--config", str(cfg), "--out", str(tmp_path / "out")]
    run = _startup_imports(args, threads)
    assert run["exit"] in exits
    assert run["imports"] == [] and run["loaded"] == []
    if cap is not None:
        log = dict(line.split(" ", 1) for line in
                   (tmp_path / "out" / "run.log").read_text().splitlines())
        assert log["threads"] == cap


def test_helicoid_report_memory_is_bounded_and_keeps_only_the_base_store(
        monkeypatch):
    # helicoid `default` (131,072 triangles), no mc block: the report needs
    # under 29.5 MiB of numpy memory (25.6 measured, in the projective
    # volume's table sweep).  The base store holds no (T, 3, 2) in-plane
    # corners: with them it took 30.4, at the band bound, and with whole-mesh
    # frames, centroids and edge-grouping temporaries, and the end sweep
    # after the quadrature store, 45.4, at the end sweep
    built = []

    def build(*args, **kwargs):
        built.append(build_surface(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(report_module, "build_surface", build)
    tracemalloc.start()
    try:
        compute_report(parse_config({"surface": {"name": "helicoid"}}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 29.5 * 2**20
    assert list(built[0].mesh._cache) == ["about"]
    store = built[0].mesh._cache["about"]
    held = [a for v in store.values()
            for a in (v if isinstance(v, tuple) else (v,))]
    assert "table" in store and max(np.ndim(a) for a in held) < 3
