"""End-to-end invariant report for one catalog surface.

``run_report`` runs the stages of ``compute_report`` in order: ``surface``
(build, base placement, minimality), ``ends``, ``flux`` (sweep, boundary
term, monotonicity), ``volume``, ``defect`` (defect, identities), ``bounds``
(end checks, catalog targets), ``counting`` and ``assemble``; then ``write``
validates the report and writes three files into the output directory:

* ``report.json``  -- estimates and check verdicts, schema-validated;
  byte-identical across runs with the same config (and seed).
* ``sweeps.csv``   -- the radius sweeps behind the headline numbers
  (normalized flux, log-growth ratio, end counts, section-count means).
* ``run.log``      -- library versions, the BLAS thread cap
  (``OPENBLAS_NUM_THREADS``), seed, wall time, the process's peak resident
  memory so far (``peak_rss_mb``: ``ru_maxrss`` / 1024), work counters of the
  end count (``ends_graph_edges``: interior plus rim edges of its graph;
  ``ends_forest_rounds``: Boruvka rounds of its two forests) and, when
  counting ran, of counting (``counting_cells``: pruned triangles x samples;
  ``counting_candidates``: pairs the cull proposed to its cap test;
  ``counting_pairs_tested``: pairs left by the cull), then one line
  ``stage_s <name> <seconds>`` per stage, its wall time.  Timing and memory
  make this the one file that is allowed to differ between identical runs.

Checks that need a hypothesis the surface does not satisfy (the non-minimal
control, a flagged volume estimate, a missing Monte-Carlo block, catalog
reference values at a base point other than the one they are stated for) are
reported with ``applicable: false`` and do not affect the overall verdict unless
``strict`` promotes estimator-reliability warnings to failures.
"""
from __future__ import annotations

import csv
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import build_surface, catalog_names, verify_minimality
from .ends import check_ends_bound, ends_estimate
from .errors import ConfigError, IdentityNotApplicableError
from .geometry import max_safe_radius, on_mesh, on_surface_tolerance
from .intgeom import (
    MAX_MC_SAMPLES,
    check_defect_counting_bound,
    check_ends_counting_bound,
    counting_bound_constant,
    counting_sweep,
)
from .invariants import (
    boundary_constant,
    check_band_area_bound,
    check_defect_volume_identity,
    check_density_identity,
    check_flux_shell_identity,
    check_monotonicity,
    flux_profile,
    level_grid,
    projective_volume,
    radial_defect,
    require_no_boundary,
)

SCHEMA_VERSION = "1"

_TOP_LEVEL_KEYS = {"surface", "base_point", "levels", "mc"}
_SURFACE_KEYS = {"name", "params", "resolution"}
_LEVELS_KEYS = {"count"}
_MC_KEYS = {"seed", "samples", "radii"}

DEFAULT_MC_SAMPLES = 50000
MAX_LEVELS = 10_000


# --------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """Validated run configuration (see ``parse_config``)."""

    surface_name: str
    surface_params: dict = field(default_factory=dict)
    resolution: str | dict = "default"
    base_point: list | None = None
    num_levels: int = 24
    mc_seed: int | None = None
    mc_samples: int = DEFAULT_MC_SAMPLES
    mc_radii: list | None = None

    @property
    def counting_enabled(self) -> bool:
        return self.mc_seed is not None


def _require_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(where, "must be a JSON object")
    return value


def _require_int(value, where: str, minimum: int | None = None,
                 maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(where, "must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(where, f"must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(where, f"must be at most {maximum}")
    return value


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(where, "must be a number")
    # json reads NaN, Infinity and integers beyond the float range
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(where, "must be a finite number")
    return number


def _reject_unknown(obj: dict, allowed: set, prefix: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        where = f"{prefix}.{unknown[0]}" if prefix else unknown[0]
        raise ConfigError(where, "unknown field")


def parse_config(raw) -> RunConfig:
    """Validate a raw JSON config into a ``RunConfig``.

    Any violation raises :class:`ConfigError` carrying the dotted path of the
    offending field, which the CLI turns into an exit-code-2 diagnostic.
    """
    raw = _require_object(raw, "config")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "")

    if "surface" not in raw:
        raise ConfigError("surface", "is required")
    surface = _require_object(raw["surface"], "surface")
    _reject_unknown(surface, _SURFACE_KEYS, "surface")
    if "name" not in surface:
        raise ConfigError("surface.name", "is required")
    name = surface["name"]
    if not isinstance(name, str):
        raise ConfigError("surface.name", "must be a string")
    if name not in catalog_names():
        raise ConfigError(
            "surface.name",
            f"unknown surface '{name}' (known: {', '.join(catalog_names())})",
        )

    params = _require_object(surface.get("params", {}), "surface.params")
    for key, value in params.items():
        if isinstance(value, (list, tuple)):
            for j, item in enumerate(value):
                _require_number(item, f"surface.params.{key}[{j}]")
        else:
            _require_number(value, f"surface.params.{key}")

    resolution = surface.get("resolution", "default")
    if isinstance(resolution, dict):
        for key, value in resolution.items():
            if key == "r_inner":  # a radius; build_surface checks its range
                _require_number(value, f"surface.resolution.{key}")
            else:
                _require_int(value, f"surface.resolution.{key}", minimum=2)
    elif not isinstance(resolution, str):
        raise ConfigError("surface.resolution", "must be a preset name or an "
                                                "object of grid sizes")

    base_point = raw.get("base_point")
    if base_point is not None:
        if not isinstance(base_point, (list, tuple)) or len(base_point) < 3:
            raise ConfigError("base_point", "must be a list of at least 3 "
                                            "coordinates")
        base_point = [
            _require_number(c, f"base_point[{j}]")
            for j, c in enumerate(base_point)
        ]

    num_levels = 24
    if "levels" in raw:
        levels = _require_object(raw["levels"], "levels")
        _reject_unknown(levels, _LEVELS_KEYS, "levels")
        if "count" in levels:
            num_levels = _require_int(levels["count"], "levels.count",
                                      minimum=4, maximum=MAX_LEVELS)

    mc_seed = None
    mc_samples = DEFAULT_MC_SAMPLES
    mc_radii = None
    if "mc" in raw and raw["mc"] is not None:
        mc = _require_object(raw["mc"], "mc")
        _reject_unknown(mc, _MC_KEYS, "mc")
        if "seed" not in mc:
            raise ConfigError("mc.seed", "is required whenever the mc block "
                                         "is present (counting is "
                                         "Monte-Carlo based)")
        mc_seed = _require_int(mc["seed"], "mc.seed", minimum=0)
        if "samples" in mc:
            mc_samples = _require_int(mc["samples"], "mc.samples",
                                      minimum=100, maximum=MAX_MC_SAMPLES)
        if "radii" in mc:
            radii = mc["radii"]
            if not isinstance(radii, (list, tuple)) or len(radii) == 0:
                raise ConfigError("mc.radii", "must be a non-empty list")
            mc_radii = [
                _require_number(r, f"mc.radii[{j}]")
                for j, r in enumerate(radii)
            ]
            arr = np.asarray(mc_radii)
            if arr[0] <= 0 or (len(arr) > 1 and np.any(np.diff(arr) <= 0)):
                raise ConfigError("mc.radii", "must be positive and strictly "
                                              "increasing")

    return RunConfig(
        surface_name=name,
        surface_params=dict(params),
        resolution=resolution,
        base_point=base_point,
        num_levels=num_levels,
        mc_seed=mc_seed,
        mc_samples=mc_samples,
        mc_radii=mc_radii,
    )


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    return parse_config(raw)


# --------------------------------------------------------------------------
# serialization helpers


def _jsonify(value):
    """Convert numpy containers/scalars to plain JSON-serializable values."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):  # to Python scalars
        return value.tolist()
    return value


def report_schema() -> dict:
    """The JSON schema every report must validate against."""
    return json.loads((Path(__file__).parent / "schema" / "report-v1.json")
                      .read_text())


# the draft-07 keywords ``_conforms`` implements; ``_check_keywords``
# raises on any other, so a schema edit cannot be checked more weakly than
# it reads
_ANNOTATIONS = {"$schema", "$id", "title", "description"}
_KEYWORDS = {"type", "const", "required", "properties",
             "additionalProperties", "items", "minItems", "minimum"}
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None)}


def _check_keywords(schema: dict) -> None:
    unknown = set(schema) - _KEYWORDS - _ANNOTATIONS
    if (unknown or schema.get("additionalProperties", False) is not False
            or not isinstance(schema.get("items", {}), dict)):
        raise ValueError(f"the report schema checker does not implement "
                         f"{sorted(unknown) or 'this form'} in {schema}")
    for sub in [*schema.get("properties", {}).values(),
                *([schema["items"]] if "items" in schema else [])]:
        _check_keywords(sub)


def _is_type(value, name: str) -> bool:
    if name == "integer":  # 3.0 is an integer
        return _is_type(value, "number") and (isinstance(value, int)
                                              or value.is_integer())
    if name == "number":  # a bool is not
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def _conforms(value, schema: dict) -> bool:
    """Whether ``value`` satisfies ``schema`` under draft-07 rules, for a
    schema ``_check_keywords`` accepts."""
    types = schema.get("type", [])
    if types and not any(_is_type(value, t) for t in
                         ([types] if isinstance(types, str) else types)):
        return False
    if "const" in schema and not (value == schema["const"] and isinstance(
            value, bool) == isinstance(schema["const"], bool)):
        return False
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return (all(key in value for key in schema.get("required", ()))
                and ("additionalProperties" not in schema
                     or set(value) <= set(props))
                and all(_conforms(value[key], sub)
                        for key, sub in props.items() if key in value))
    if isinstance(value, list):
        return len(value) >= schema.get("minItems", 0) and all(
            _conforms(item, schema.get("items", {})) for item in value)
    return not (_is_type(value, "number")
                and value < schema.get("minimum", -math.inf))


def validate_report(report: dict) -> None:
    """Raise ``jsonschema.ValidationError`` if the report is malformed.

    ``_conforms`` decides; jsonschema is imported only to explain a report
    it rejects, so the error and its message are jsonschema's."""
    schema = report_schema()
    _check_keywords(schema)
    if _conforms(report, schema):
        return
    import jsonschema

    jsonschema.validate(report, schema)
    raise RuntimeError("jsonschema accepts a report the schema checker "
                       "rejects")


# --------------------------------------------------------------------------
# the pipeline: stage functions run in order on one _Run record


# why a check that needs vanishing mean curvature does not apply to the
# non-minimal control entry
_MINIMAL = "requires vanishing mean curvature"
_CONTROL_REASONS = {
    "minimal_surface": "non-minimal control entry",
    "flux_monotone": "non-minimal control entry; the drop below is the "
                     "expected counterexample",
}


class _Run:
    """What the stages of one report share.  ``compute_report`` sets
    ``config`` and ``strict``; each stage reads what earlier stages set and
    adds checks, estimates, sweep rows, warnings and run.log lines, and
    ``stage_s`` pairs each stage's name with its wall time."""

    def __init__(self):
        self.checks, self.estimates, self.sweeps = [], [], []
        self.warnings, self.log, self.stage_s = [], [], []


def _add(run, name, check, note="", why=None, minimal=True):
    """Append the entry of check ``name`` from what ``check()`` returns
    (``passed``, ``margin``, ``detail``).

    ``why`` names a failed hypothesis: the verdict is kept but does not
    count, as on the control for a check needing vanishing mean curvature
    (``minimal``).  A check that cannot apply at all raises
    IdentityNotApplicableError and has no verdict."""
    try:
        checked = check()
    except IdentityNotApplicableError as exc:
        checked, why = {"passed": None}, str(exc)
    else:
        if minimal and run.spec.control:
            why = _CONTROL_REASONS.get(name, _MINIMAL)
    margin = checked.get("margin")
    note = note if why is None else f"not applicable: {why}"
    run.checks.append({
        "name": name, "applicable": why is None, "passed": checked["passed"],
        "margin": None if margin is None else float(margin),
        **({"note": note} if note else {}),
        **({"detail": checked["detail"]} if checked.get("detail") else {})})


def _estimate(run, quantity, value, error, method, **extra):
    run.estimates.append({"quantity": quantity, "value": value,
                          "error": error, "method": method, **extra})


def _surface(run):
    """Build the surface, check the base point against it, count the
    sheets through the base and check minimality.  The base is used as
    given."""
    config = run.config
    run.spec = spec = build_surface(config.surface_name, config.surface_params,
                                    config.resolution)
    mesh = spec.mesh
    if config.base_point is not None:
        base = np.asarray(config.base_point, dtype=float)
        if len(base) != spec.ambient_dim:
            raise ConfigError(
                "base_point",
                f"expected {spec.ambient_dim} coordinates for "
                f"'{spec.name}', got {len(base)}",
            )
    else:
        base = spec.base_point
    r_hi = max_safe_radius(mesh, base)
    if not 0 < r_hi < math.inf:
        raise ConfigError("base_point", "must lie inside the ball the surface "
                          "is truncated to" if r_hi <= 0 else
                          "is too far from the surface: distances overflow")
    d_min = float(mesh.about(base)["distances"].min())
    if r_hi <= d_min:
        # every level would miss the mesh and every estimate read 0; the
        # sphere, the one entry without r_max, misses when nearly concentric
        raise ConfigError(
            "base_point" if config.base_point is not None else
            "surface.params." + ("r_max" if "r_max" in spec.params
                                 else "center"),
            f"the ball of radius {r_hi:.6g} about the base point, the "
            f"largest the mesh covers, misses the surface: its nearest "
            f"vertex is {d_min:.6g} away")
    tol = on_surface_tolerance(base)
    if config.mc_radii and config.mc_radii[-1] <= max(d_min, tol):
        # the sections would meet nothing but a vertex base, and the flux at
        # the outermost counting radius reads 0 / 0 once its square underflows
        raise ConfigError("mc.radii", f"the outermost radius "
                          f"{config.mc_radii[-1]:.6g} must exceed "
                          f"{max(d_min, tol):.6g}, the larger of the nearest "
                          "vertex's distance and the on-surface tolerance")
    run.base, run.r_hi, run.d_min = base, r_hi, d_min
    run.sheets = on_mesh(mesh, base)[1]
    _add(run, "minimal_surface", lambda: verify_minimality(spec.chart),
         "mean curvature of the exact chart vanishes to tolerance")


def _ends(run):
    """The end count, before the flux: its temporaries then never meet the
    quadrature store."""
    run.ends = ends_estimate(run.spec.mesh, run.base)
    run.log += [f"ends_{key} {getattr(run.ends, key)}"
                for key in ("graph_edges", "forest_rounds")]


def _flux(run):
    """Trace the flux over the sweep; the estimators and checks that read
    it at other levels trace those themselves, each level once per base
    (``flux_profile`` keeps them in the mesh's store).  Check its
    monotonicity, which the area-flux identity gives and a genuine boundary
    inside the ball breaks, so the boundary term is taken here."""
    mesh, base, r_hi = run.spec.mesh, run.base, run.r_hi
    run.levels = level_grid(mesh, base, run.config.num_levels)
    run.profile = profile = flux_profile(mesh, base, run.levels)
    for t, raw, err in zip(profile.levels, profile.raw, profile.errors):
        run.sweeps.append(("flux_normalized", t, raw / t**2, err / t**2))
    run.bnd = bnd = boundary_constant(mesh, base, within_radius=r_hi)
    _add(run, "flux_monotone",
         lambda: require_no_boundary(bnd) or check_monotonicity(profile))


def _volume(run):
    """Projective volume by both routes, and whether they agree."""
    vol = run.vol = projective_volume(run.spec.mesh, run.base,
                                      run.config.num_levels)
    for method, value in (("flux_limit", vol["value"]),
                          ("log_slope", vol["slope_estimate"])):
        _estimate(run, "projective_volume", value, vol["error"], method,
                  flags=vol["flags"])
    for R, I in zip(vol["fit_levels"], vol["log_integrals"]):
        run.sweeps.append(("inverse_power_over_log", R, I / np.log(R), 0.0))
    if vol["flags"]:
        run.warnings.append(
            "projective-volume estimators disagree past tolerance "
            f"(flags: {', '.join(vol['flags'])}); the truncated mesh does "
            "not reach the asymptotic regime"
        )
    run.checks.append({
        "name": "volume_estimate_reliable", "applicable": run.strict,
        "passed": not vol["flags"], "margin": None,
        "detail": {"flags": vol["flags"], "flux_limit": vol["value"],
                   "log_slope": vol["slope_estimate"]},
        **({} if run.strict else {"note": "warning only; rerun with --strict "
                                          "to make this failing"})})


def _defect(run):
    """The radial defect at the cut radius, its estimate and the boundary
    term's, and the identities that tie them to the flux."""
    mesh, base, r_hi, bnd = run.spec.mesh, run.base, run.r_hi, run.bnd
    run.q = q = radial_defect(mesh, base, r_hi)
    for quantity, est, method in (
            ("radial_defect", q, "region_quadrature"),
            ("boundary_flux_constant", bnd, "edge_quadrature")):
        _estimate(run, quantity, est["value"], est["error"], method,
                  radius=r_hi)
    # levels[-1] is r_hi, so the sweep's last flux is the one at the cut
    _add(run, "defect_volume_identity",
         lambda: check_defect_volume_identity(
             q, run.profile.normalized[-1], bnd, run.sheets),
         "2 x defect = normalized flux + boundary term - on-surface density, "
         "at the cut radius")

    # anchor the shell at an inner sweep level: flat ends make the flux
    # increment across any outer shell vanish, which would turn the relative
    # gap into a ratio of roundoff-sized numbers.  When the sweep starts past
    # the nearest vertex (sweep_start), levels near the closest-approach
    # distance are near-critical for the restricted distance function (level
    # curves run almost tangent to the spheres there), so skip past them.
    # From a base on the surface or near it the sweep starts at 0.02 r_hi,
    # so the anchor is its first level past 2 d_min.
    levels, shell_hi = run.levels, 0.7 * r_hi
    cleared = levels[(levels >= 2.0 * run.d_min)
                     & (levels <= 0.5 * shell_hi)]
    shell_lo = float(cleared[0] if cleared.size else levels[0])
    _add(run, "flux_shell_identity",
         lambda: require_no_boundary(bnd) or check_flux_shell_identity(
             mesh, base, shell_lo, shell_hi))

    # outer-band levels: at small spheres the (tiny) area and flux values
    # being compared are swamped by discretization error
    _add(run, "density_identity",
         lambda: check_density_identity(
             mesh, base, np.geomspace(0.5 * r_hi, r_hi, 4), bnd))
    _add(run, "band_area_bound",
         lambda: check_band_area_bound(mesh, base, [
             (0.30 * r_hi, 0.55 * r_hi), (0.55 * r_hi, 0.85 * r_hi)]),
         "area of every crossing component >= half-width bound")


def _ends_volume_bound(run):
    # the end bounds are not run on the control at all
    if run.spec.control:
        raise IdentityNotApplicableError(_MINIMAL)
    if run.vol["flags"]:
        raise IdentityNotApplicableError(
            "projective volume is truncation-limited; the bound would be "
            "vacuous")
    return check_ends_bound(run.ends.stable_count, run.vol["value"])


def _targets_match(run, keys):
    spec = run.spec
    # catalog targets are stated for the suggested base point only (the
    # defect depends on the base), so another base cannot be checked
    if not np.array_equal(run.base, spec.base_point):
        suggested, base = ("[" + ", ".join(f"{float(c):g}" for c in point)
                           + "]" for point in (spec.base_point, run.base))
        raise IdentityNotApplicableError(
            f"catalog values hold for the suggested base point "
            f"{suggested}, not for {base}")
    if spec.targets.get("provenance") not in ("closed-form", "derived",
                                              "literature"):
        raise IdentityNotApplicableError(
            "catalog values for this entry have no trusted provenance")
    gaps, ok = {}, True
    for key in keys:
        tgt = float(spec.targets[key])
        est = run.vol if key == "projective_volume" else run.q
        val, err = est["value"], est["error"]
        tol = max(5.0 * err, 0.03 * abs(tgt))
        gaps[key] = {"target": tgt, "measured": val, "tolerance": tol}
        ok &= abs(val - tgt) <= tol
    return {"passed": ok, "detail": gaps}


def _bounds(run):
    """The end checks and the comparison with the catalog's values."""
    ends, targets = run.ends, run.spec.targets
    _estimate(run, "ends", float(ends.stable_count),
              0.0 if ends.stabilized else 1.0, "component_sweep")
    for r, n in zip(ends.radii, ends.counts):
        run.sweeps.append(("ends_count", r, n, 0.0))
    _add(run, "ends_stabilized",
         lambda: {"passed": ends.stabilized,
                  "detail": {"counts": ends.counts, "radii": ends.radii}},
         "count constant over the outer third of the sweep", minimal=False)
    if not ends.stabilized:
        run.warnings.append("end count did not stabilize over the radius "
                            "sweep")
    if "ends" in targets:
        expected = int(targets["ends"])
        _add(run, "ends_match_expected",
             lambda: {"passed": ends.stable_count == expected,
                      "margin": -abs(ends.stable_count - expected),
                      "detail": {"expected": expected,
                                 "measured": ends.stable_count}},
             minimal=False)
    _add(run, "ends_volume_bound", lambda: _ends_volume_bound(run),
         "ends <= (4 / sphere area) x projective volume")
    keys = [k for k in ("projective_volume", "radial_defect") if k in targets]
    if keys:
        _add(run, "invariants_match_expected",
             lambda: _targets_match(run, keys),
             why="volume estimate is truncation-limited" if run.vol["flags"]
             else None, minimal=False)


def _defect_counting_bound(run):
    # the defect at the outermost counting radius, against half the sphere
    # area times the mean count there
    if run.counting is None:
        raise run.skipped
    r_hi, r_count = run.r_hi, run.counting["radii"][-1]
    return check_defect_counting_bound(
        run.q if abs(r_count - r_hi) <= 1e-12 * max(1.0, r_hi)
        else radial_defect(run.spec.mesh, run.base, r_count), run.counting)


def _ends_counting_bound(run):
    if run.counting is None:
        raise run.skipped
    if run.spec.control:
        raise IdentityNotApplicableError(_MINIMAL)
    return check_ends_counting_bound(run.ends.stable_count,
                                     run.counting["max_observed"])


def _counting(run):
    """Monte-Carlo section counts, when the config has an mc block, and
    the bounds they give."""
    config, run.counting = run.config, None
    run.skipped = IdentityNotApplicableError(
        "no mc block in the config; add one with a seed to enable "
        "Monte-Carlo counting")
    if config.counting_enabled:
        try:
            run.counting = counting_sweep(
                run.spec.mesh, run.base,
                config.mc_radii or np.geomspace(0.3 * run.r_hi, run.r_hi, 5),
                samples=config.mc_samples, seed=config.mc_seed)
        except IdentityNotApplicableError as exc:
            # a base point on the surface pins every section through it, so
            # the count is ill-posed there; that invalidates only the
            # counting checks, not the rest of the report
            run.skipped = exc
        except ValueError as exc:
            raise ConfigError("mc.radii", str(exc)) from exc
    counting = run.counting
    if counting is not None:
        for row in zip(counting["radii"], counting["means"],
                       counting["ci95"]):
            run.sweeps.append(("section_count_mean", *row))
        _estimate(run, "section_count_mean", counting["means"][-1],
                  counting["ci95"][-1], "monte_carlo",
                  radius=counting["radii"][-1], samples=counting["samples"],
                  seed=counting["seed"])
        run.log += [f"counting_{key} {counting[key]}"
                    for key in ("cells", "candidates", "pairs_tested")]
    _add(run, "defect_counting_bound", lambda: _defect_counting_bound(run),
         "defect <= half the 2-sphere area x mean section count",
         minimal=False)
    _add(run, "ends_counting_bound", lambda: _ends_counting_bound(run),
         "ends <= constant x max observed section count",
         why=None if run.ends.stabilized else "end count did not stabilize")
    for quantity, factor in (("ends_counting_constant", 1.0),
                             ("ends_counting_constant_nonstarlike", 2.0)):
        _estimate(run, quantity, factor * counting_bound_constant(2), 0.0,
                  "closed_form")


def _assemble(run):
    """The report dict, converted to JSON types in one pass."""
    config, spec, mesh, ends = run.config, run.spec, run.spec.mesh, run.ends
    run.report = _jsonify({
        "version": SCHEMA_VERSION,
        "generator": {"name": "mingauge", "version": __version__},
        "config": {
            "surface": {"name": config.surface_name,
                        "params": config.surface_params,
                        "resolution": config.resolution},
            "base_point": run.base,
            "levels": {"count": config.num_levels},
            "mc": None if not config.counting_enabled else {
                "seed": config.mc_seed,
                "samples": config.mc_samples,
                "radii": config.mc_radii,
            },
            "strict": run.strict,
        },
        "surface": {
            "name": spec.name,
            "params": spec.params,
            "resolution": (config.resolution
                           if isinstance(config.resolution, dict)
                           else {"preset": config.resolution}),
            "ambient_dim": spec.ambient_dim,
            "vertices": len(mesh.vertices),
            "triangles": len(mesh.triangles),
            "truncation_radius": (None if mesh.truncation_radius is None
                                  else float(mesh.truncation_radius)),
            "control": spec.control,
            "notes": spec.notes,
            "targets": spec.targets,
        },
        "base_point": run.base,
        "estimates": run.estimates,
        "ends": {"radii": ends.radii, "counts": ends.counts,
                 "bounded_counts": ends.bounded_counts,
                 "estimate": ends.stable_count,
                 "stabilized": ends.stabilized},
        "counting": None if run.counting is None else {
            key: run.counting[key] for key in (
                "radii", "means", "ci95", "max_observed", "samples", "seed",
                "jittered")},
        "checks": run.checks,
        "warnings": run.warnings,
        "passed": all(c["passed"] for c in run.checks if c["applicable"]),
    })


_STAGES = (_surface, _ends, _flux, _volume, _defect, _bounds, _counting,
           _assemble)


def compute_report(config: RunConfig, strict: bool = False,
                   run: _Run | None = None) -> dict:
    """Run every estimator and check for one surface; return the report dict.

    Pure computation: no files are touched.  ``run_report`` passes a
    ``run`` to keep the sweep rows, run.log lines and stage times.
    """
    run = run or _Run()
    run.config, run.strict = config, strict
    for stage in _STAGES:
        start = time.perf_counter()
        stage(run)
        run.stage_s.append((stage.__name__[1:], time.perf_counter() - start))
    return run.report


def write_sweeps(rows, path) -> None:
    """Write the sweep rows as CSV with a fixed column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["quantity", "R_or_t", "value", "error"])
        for quantity, *values in rows:
            writer.writerow([quantity, *(repr(float(v)) for v in values)])


def run_report(config: RunConfig, out_dir, strict: bool = False) -> dict:
    """Compute the report and write report.json / sweeps.csv / run.log.

    Returns the report dict with an added ``exit_code`` key: 0 when every
    applicable check passed, 1 otherwise.  Validating and writing the
    report is the last stage, ``write``.
    """
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    run = _Run()
    report = compute_report(config, strict, run)
    start = time.perf_counter()
    validate_report(report)
    with open(out_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_sweeps(run.sweeps, out_dir / "sweeps.csv")

    end = time.perf_counter()
    run.stage_s.append(("write", end - start))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    log_lines = [
        f"mingauge {__version__}",
        f"python {platform.python_version()} ({sys.platform})",
        f"numpy {np.__version__}",
        f"threads {os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
        f"surface {config.surface_name}",
        f"seed {config.mc_seed if config.counting_enabled else 'none'}",
        f"strict {strict}",
        f"wall_time_s {end - t0:.3f}",
        f"peak_rss_mb {rss_mb:.1f}",
        *run.log,
        *(f"stage_s {name} {seconds:.6f}" for name, seconds in run.stage_s),
    ]
    (out_dir / "run.log").write_text("\n".join(log_lines) + "\n")

    report["exit_code"] = 0 if report["passed"] else 1
    return report
