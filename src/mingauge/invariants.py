"""Radial integral invariants of a truncated minimal-surface mesh.

Everything here revolves around the vector from a base point ``a`` to a
surface point, split into its components tangent and normal to the surface:

* projective volume  -- growth rate of the integral of |x - a|^(-2), also the
  limit of the normalized sphere flux;
* radial defect      -- integral of |normal part|^2 / |x - a|^4, a
  convergent measure of how far the surface is from a cone through ``a``;
* sphere flux        -- line integral of |tangent part| over the chords where
  the sphere crosses the mesh triangles, normalized by the sphere radius;
* boundary constant  -- conormal flux of the same field through a genuine
  (non-truncation) boundary.

The divergence theorem ties these together.  Each estimate is computed once;
the identity check takes the estimates themselves and does only arithmetic
on them, so a report never re-runs an estimator to check it.  The flux is
kept per level and per base point: ``flux_profile`` stores each level it
traces in ``mesh.about(center)``, so every function here asks it for the
levels it reads and none is traced twice from one base.  The remaining
check_* functions compare two independent discretization routes on a concrete
mesh (chord sums vs region integrals), so agreement is evidence of
correctness rather than of a shared bug.  Every check_* returns the entry a
report stores (``passed``, ``margin``, ``detail``); one that cannot apply
raises IdentityNotApplicableError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IdentityNotApplicableError
from .geometry import (
    SimplicialSurface,
    distance_index,
    level_chords,
    max_safe_radius,
    radial_integrals,
    sphere_area,
    sweep_start,
    tangent_part,
)
from .geometry.types import triangle_centroids, triangle_frames
from .ends import rim_vertex_mask, triangle_components

GAUSS_OFFSET = 0.5 / np.sqrt(3.0)  # 2-point Gauss nodes on a segment


# --------------------------------------------------------------------------
# sphere flux


@dataclass
class FluxProfile:
    """Sphere flux across a sweep of radii.

    raw[k] is the line integral of |tangent part of x - center| over the
    chords where the sphere |x - base| = levels[k] crosses the mesh
    triangles, one per crossed triangle; errors[k] the quadrature error
    estimate for it (midpoint vs 2-point Gauss on each chord).

    ``levels`` are the levels requested.  A level through a mesh vertex is
    traced just above it (``level_chords`` snaps it up by 2.5e-9 relative,
    again only if that lands on another vertex), so the flux there is its
    right-hand limit.
    """

    levels: np.ndarray
    raw: np.ndarray
    errors: np.ndarray

    @property
    def normalized(self) -> np.ndarray:
        """raw / t^2: the monotone quantity converging to projective volume."""
        return self.raw / self.levels**2


def _segment_rule(A, B, integrand):
    """Line integral of ``integrand`` over the segments A[i] -> B[i].

    Returns (2-point Gauss value, its error); the error is the Gauss sum's
    distance from the midpoint sum plus a roundoff floor.
    """
    d = B - A
    L = np.linalg.norm(d, axis=1)
    mid = 0.5 * (A + B)
    v_mid = float(np.sum(L * integrand(mid)))
    g1 = integrand(mid - GAUSS_OFFSET * d)
    g2 = integrand(mid + GAUSS_OFFSET * d)
    v_gauss = float(np.sum(L * 0.5 * (g1 + g2)))
    return v_gauss, abs(v_gauss - v_mid) + 1e-14 * abs(v_gauss)


def flux_profile(mesh: SimplicialSurface, center, levels) -> FluxProfile:
    """Sweep the sphere flux over the given radii.

    Each level is traced once per base point: its ``(raw, error)`` pair is
    kept in ``mesh.about(center)["flux"]``, keyed by the level's value, and
    read from there when any later call asks for it again.
    """
    center = np.asarray(center, dtype=float)
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    if len(levels) > 1 and np.any(np.diff(levels) <= 0):
        raise ValueError("flux levels must be strictly increasing")
    traced = mesh.about(center).setdefault("flux", {})
    for t in map(float, levels):
        if t in traced:
            continue
        tris, ends, _ = level_chords(mesh, center, t)
        if len(tris) == 0:
            traced[t] = 0.0, 0.0
            continue
        frames = triangle_frames(mesh.corners(tris))

        def tang_norm(points):
            return np.linalg.norm(tangent_part(points - center, frames), axis=1)

        traced[t] = _segment_rule(ends[:, 0], ends[:, 1], tang_norm)
    pairs = np.array([traced[t] for t in map(float, levels)]).reshape(-1, 2)
    return FluxProfile(levels, pairs[:, 0], pairs[:, 1])


def level_grid(mesh: SimplicialSurface, center, count: int = 24) -> np.ndarray:
    """Geometric radius sweep from ``sweep_start`` to ``max_safe_radius``:
    from past the nearest vertex, or from 0.02 of the way out when the mesh
    passes through the base or near it."""
    center = np.asarray(center, dtype=float)
    hi = max_safe_radius(mesh, center)
    return np.geomspace(sweep_start(mesh, center, hi), hi, count)


# --------------------------------------------------------------------------
# headline invariants


def projective_volume(mesh: SimplicialSurface, center, count: int = 24) -> dict:
    """Projective volume via two routes: flux limit and log-growth slope.

    Route one extrapolates the normalized flux to infinite radius with the
    tail model V - b/t - c/t^2 fitted over the outer half of the sweep
    (plane-like ends decay as 1/t^2, curved graphs as 1/t).  Route two fits
    integral(|x - a|^(-2)) against log(radius) and reads off the slope; from
    a base on the surface that integral diverges, so it is anchored at the
    first fit level instead (the slope ignores the constant).  The flux is
    swept over ``level_grid(mesh, center, count)``.  Disagreement between
    the routes, or a bad tail fit, folds into the error; past 10% the
    estimate is flagged as truncation-limited (the surface may have
    unbounded density, or the mesh may simply be cut too soon).
    """
    center = np.asarray(center, dtype=float)
    profile = flux_profile(mesh, center, level_grid(mesh, center, count))
    levels = profile.levels
    flux_at_rim = float(profile.normalized[-1])
    quad_err = float(profile.errors[-1] / levels[-1] ** 2)

    tail = levels >= np.sqrt(levels[0] * levels[-1])
    ts, ys = levels[tail], profile.normalized[tail]
    basis = np.stack([np.ones_like(ts), 1.0 / ts, 1.0 / ts**2], axis=1)
    coef, *_ = np.linalg.lstsq(basis, ys, rcond=None)
    value = float(coef[0])
    fit_rms = float(np.sqrt(np.mean((basis @ coef - ys) ** 2)))

    # return_index keeps np.unique from importing numpy.ma
    fit_levels = ts[np.unique(np.linspace(0, len(ts) - 1, 6).astype(int),
                              return_index=True)[0]]
    shells = radial_integrals(mesh, center, fit_levels,
                              "inverse_power").sum(axis=1)
    if not np.isfinite(shells[0]):
        shells[0] = 0.0
    log_integrals = np.cumsum(shells)
    slope = float(np.polyfit(np.log(fit_levels), log_integrals, 1)[0])

    disagreement = abs(value - slope)
    flags = []
    scale = max(abs(value), 1e-12)
    if disagreement > 0.10 * scale or fit_rms > 0.05 * scale:
        flags.append("unreliable_truncation")
    return {
        "value": value,
        "method": "flux_limit",
        "flux_estimate": flux_at_rim,
        "slope_estimate": slope,
        "error": quad_err + max(disagreement, fit_rms),
        "flags": flags,
        "fit_levels": fit_levels,
        "log_integrals": log_integrals,
    }


def radial_defect(mesh: SimplicialSurface, center,
                  radius: float | None = None) -> dict:
    """Defect integral over the ball |x - center| < radius, with error bar.

    The integral is exact on the flat mesh, so the error is a tail proxy plus
    roundoff: the measured drop of the normalized flux over the outer half of
    the range, which scales like the part of the integral lost to
    truncation.
    """
    center = np.asarray(center, dtype=float)
    if radius is None:
        radius = max_safe_radius(mesh, center)
    value = float(radial_integrals(mesh, center, [radius], "defect").sum())
    err = 1e-14 * abs(value)  # roundoff allowance on an exact integral
    prof = flux_profile(mesh, center, [radius / 2.0, radius])
    tail = abs(prof.normalized[1] - prof.normalized[0]) / 2
    return {
        "value": float(value),
        "method": "direct_quadrature",
        "error": float(err + tail),
        "quadrature_error": float(err),
        "tail_estimate": float(tail),
        "radius": float(radius),
    }


def boundary_constant(mesh: SimplicialSurface, center,
                      within_radius: float | None = None) -> dict:
    """Conormal flux of (x - a)/|x - a|^2 through the genuine boundary.

    Truncation-rim edges (on the cutting sphere) are excluded; what remains
    is the boundary the surface actually has.  The conormal is the in-facet
    outward unit vector perpendicular to each boundary edge.
    """
    center = np.asarray(center, dtype=float)
    edges = mesh.boundary_edges
    if len(edges) == 0:
        return {"value": 0.0, "error": 0.0, "num_edges": 0}
    keep = ~rim_vertex_mask(mesh)[edges].all(axis=1)
    mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    if within_radius is not None:
        keep &= np.linalg.norm(mids - center, axis=1) <= within_radius
    edges = edges[keep]
    if len(edges) == 0:
        return {"value": 0.0, "error": 0.0, "num_edges": 0}

    owners = mesh.boundary_owner[keep]

    va = mesh.vertices[edges[:, 0]]
    vb = mesh.vertices[edges[:, 1]]
    d = vb - va
    ehat = d / np.linalg.norm(d, axis=1)[:, None]
    w = 0.5 * (va + vb) - triangle_centroids(mesh.corners(owners))
    w -= np.sum(w * ehat, axis=1)[:, None] * ehat
    nu = w / np.linalg.norm(w, axis=1)[:, None]

    def field_dot_nu(points):
        x = points - center
        r = np.linalg.norm(x, axis=1)
        return np.sum(x * nu, axis=1) / r**2

    value, error = _segment_rule(va, vb, field_dot_nu)
    return {
        "value": value,
        "error": error,
        "num_edges": int(len(edges)),
    }


# --------------------------------------------------------------------------
# identity and inequality checks


def require_no_boundary(boundary: dict) -> None:
    """Refuse an identity of the area-flux kind, which needs a surface with
    no genuine boundary inside the ball, when the ``boundary_constant``
    estimate ``boundary`` within that ball counts an edge."""
    if boundary["num_edges"] > 0:
        raise IdentityNotApplicableError(
            "surface has genuine boundary inside the ball; the area-flux "
            "identity does not apply"
        )


def _gap(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)


def _at_most(tol: float, key: str, value: float, **detail) -> dict:
    """The entry of a check that ``value``, published as ``key``, is at most
    ``tol``: its verdict, its margin ``tol - value`` and its detail."""
    return {"passed": bool(value <= tol), "margin": tol - value,
            "detail": {key: value, "tol": tol, **detail}}


def check_monotonicity(profile: FluxProfile) -> dict:
    """Normalized flux must not decrease as the radius grows."""
    norm = profile.normalized
    drop = np.maximum.accumulate(norm) - norm
    k = int(np.argmax(drop))
    rel = float(drop[k]) / max(float(norm.max()), 1e-12)
    return _at_most(1e-3, "rel_violation", rel, max_violation=float(drop[k]),
                    at_level=float(profile.levels[k]))


def check_flux_shell_identity(mesh: SimplicialSurface, center, t_lo: float,
                              t_hi: float) -> dict:
    """Flux increment across a shell equals twice the defect inside it.

    Left side: chord sums on the two spheres.  Right side: the defect
    integral over the shell.  These share no discretization machinery
    beyond the mesh itself.
    """
    center = np.asarray(center, dtype=float)
    prof = flux_profile(mesh, center, [t_lo, t_hi])
    lhs = float(prof.normalized[1] - prof.normalized[0])
    rhs = float(2 * radial_integrals(mesh, center, [t_lo, t_hi], "defect")[1]
                .sum())
    return _at_most(2e-2, "rel_gap", _gap(lhs, rhs), lhs=lhs, rhs=rhs,
                    t_lo=float(t_lo), t_hi=float(t_hi))


def check_defect_volume_identity(defect: dict, flux_normalized: float,
                                 boundary: dict, sheets: int) -> dict:
    """2 * defect = normalized flux + boundary constant, at the cut radius.

    Pure arithmetic on estimates taken at one radius: ``defect`` from
    ``radial_defect``, the normalized flux from ``flux_profile``, ``boundary``
    from ``boundary_constant`` and ``sheets`` from ``geometry.on_mesh``.
    With the radius sent to infinity the flux term becomes the projective
    volume; at finite truncation the identity is exact, so any gap measures
    pure discretization error.

    A center on the surface contributes one unit-sphere area per sheet to the
    normalized flux at vanishing radius, and the identity subtracts that; with
    no boundary this is the preimage-count relation flux = 2 * defect +
    sheets * sphere area.  Meshes that excise a small hole around the center
    instead carry the same term through the boundary constant, so the two
    routes never double-count.
    """
    lhs = 2 * defect["value"]
    rhs = float(flux_normalized) + boundary["value"] - sheets * sphere_area(2)
    return {**_at_most(2e-2, "rel_gap", _gap(lhs, rhs), lhs=lhs, rhs=rhs,
                       radius=defect["radius"],
                       on_surface_multiplicity=int(sheets)),
            "boundary_constant": boundary}


def check_band_area_bound(mesh: SimplicialSurface, center, bands) -> dict:
    """Any component crossing a whole shell has area >= the width bound.

    ``bands`` lists the shells ``(r_lo, r_hi)``; each one's bound is
    sphere_area(2)/2 * ((r_hi - r_lo)/2)^2, less 0.5%.  Components are taken
    over triangles meeting the shell; one qualifies when it has vertices on
    or inside the inner sphere and on or outside the outer one.  The margin
    is the smallest area over bound, less 1, and ``areas`` lists the
    qualifying areas band by band.  Raises IdentityNotApplicableError when
    no component qualifies in any band.
    """
    center = np.asarray(center, dtype=float)
    _, tri_min, tri_max = distance_index(mesh, center)
    areas, ratios, passed = [], [], True
    for r_lo, r_hi in bands:
        labels, count = triangle_components(mesh, (tri_min < r_hi)
                                            & (tri_max > r_lo))
        sel = np.flatnonzero(labels >= 0)
        labels = labels[sel]
        # each component's least and greatest corner distance
        comp_min, comp_max = np.full(count, np.inf), np.full(count, -np.inf)
        np.minimum.at(comp_min, labels, tri_min[sel])
        np.maximum.at(comp_max, labels, tri_max[sel])
        crossing = np.flatnonzero((comp_min <= r_lo) & (comp_max >= r_hi))
        if len(crossing) == 0:
            continue
        shell_area = radial_integrals(mesh, center, [r_lo, r_hi])[1]
        comp_area = np.bincount(labels, weights=shell_area[sel],
                                minlength=count)
        band = sorted(float(comp_area[comp]) for comp in crossing)
        bound = sphere_area(2) / 2 * ((r_hi - r_lo) / 2.0) ** 2
        passed &= band[0] >= bound * (1.0 - 5e-3)
        ratios.append(float(band[0] / bound))
        areas += band
    if not areas:
        raise IdentityNotApplicableError("no component crosses the test "
                                         "shells")
    return {
        "passed": bool(passed),
        "margin": min(ratios) - 1.0,
        "detail": {"bands": [[float(lo), float(hi)] for lo, hi in bands],
                   "min_area_over_bound": min(ratios)},
        "areas": areas,
        "num_crossing": len(areas),
    }


def check_density_identity(mesh: SimplicialSurface, center, levels,
                           boundary: dict) -> dict:
    """2 * area inside each sphere equals the raw flux through it.

    Holds for any base point provided the surface has no genuine boundary
    inside the largest ball; ``boundary`` is the ``boundary_constant``
    estimate within that ball, and if it counts any edge the check refuses
    to run.  Reports the worst relative residual over the level sweep.
    """
    center = np.asarray(center, dtype=float)
    require_no_boundary(boundary)
    prof = flux_profile(mesh, center, levels)
    levels = prof.levels
    areas = np.cumsum(radial_integrals(mesh, center, levels).sum(axis=1))
    residuals = [_gap(2 * area, float(raw)) for area, raw in zip(areas, prof.raw)]
    worst = int(np.argmax(residuals))
    return _at_most(1e-2, "max_residual", float(residuals[worst]),
                    at_level=float(levels[worst]))
