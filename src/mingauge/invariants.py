"""Radial integral invariants of a truncated minimal-surface mesh.

Everything here revolves around the vector from a base point ``a`` to a
surface point, split into its components tangent and normal to the surface:

* projective volume  -- growth rate of the integral of |x - a|^(-p), also the
  limit of the normalized sphere flux;
* radial defect      -- integral of |normal part|^2 / |x - a|^(p + 2), a
  convergent measure of how far the surface is from a cone through ``a``;
* sphere flux        -- line integral of |tangent part| over the chords where
  the sphere crosses the mesh triangles, normalized by the sphere radius;
* boundary constant  -- conormal flux of the same field through a genuine
  (non-truncation) boundary.

The divergence theorem ties these together.  Each estimate is computed once;
the identity check takes the estimates themselves and does only arithmetic
on them, so a report never re-runs an estimator to check it.  The remaining
check_* functions compare two independent discretization routes on a concrete
mesh (chord sums vs region integrals), so agreement is evidence of
correctness rather than of a shared bug.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi

import numpy as np

from .errors import IdentityNotApplicableError
from .geometry import (
    SimplicialSurface,
    decompose_radial,
    integrate_with_error,
    level_chords,
    radial_integrals,
)
from .ends import rim_vertex_mask, triangle_components

GAUSS_OFFSET = 0.5 / np.sqrt(3.0)  # 2-point Gauss nodes on a segment


def sphere_area(p: int) -> float:
    """Measure of the unit sphere S^(p-1) in R^p (2, 2*pi, 4*pi, ...)."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    return 2.0 * pi ** (p / 2.0) / gamma(p / 2.0)


# --------------------------------------------------------------------------
# sphere flux


@dataclass
class FluxProfile:
    """Sphere flux across a sweep of radii.

    raw[k] is the line integral of |tangent part of x - center| over the
    chords where the sphere |x - center| = levels[k] crosses the mesh
    triangles, one per crossed triangle; errors[k] the quadrature error
    estimate for it (midpoint vs 2-point Gauss on each chord), and
    curve_lengths[k] the chords' total length.
    """

    levels: np.ndarray
    raw: np.ndarray
    errors: np.ndarray
    curve_lengths: np.ndarray
    p: int
    center: np.ndarray

    @property
    def flux(self) -> np.ndarray:
        """raw / t^(p-1): the flux J(t)."""
        return self.raw / self.levels ** (self.p - 1)

    @property
    def normalized(self) -> np.ndarray:
        """raw / t^p: the monotone quantity converging to projective volume."""
        return self.raw / self.levels**self.p

    @property
    def empty_levels(self) -> np.ndarray:
        """Levels where the sphere missed the mesh (flux recorded as 0)."""
        return self.curve_lengths == 0.0

    def at(self, levels) -> "FluxProfile":
        """The profile restricted to ``levels``, each one traced here."""
        levels = np.atleast_1d(np.asarray(levels, dtype=float))
        idx = np.minimum(np.searchsorted(self.levels, levels),
                         len(self.levels) - 1)
        if not np.array_equal(self.levels[idx], levels):
            raise ValueError("flux profile lacks a requested level")
        return FluxProfile(levels, self.raw[idx], self.errors[idx],
                           self.curve_lengths[idx], self.p, self.center)


def _segment_rule(A, B, integrand):
    """Line integral of ``integrand`` over the segments A[i] -> B[i].

    Returns (2-point Gauss value, its error, segment lengths); the error is
    the Gauss sum's distance from the midpoint sum plus a roundoff floor.
    """
    d = B - A
    L = np.linalg.norm(d, axis=1)
    mid = 0.5 * (A + B)
    v_mid = float(np.sum(L * integrand(mid)))
    g1 = integrand(mid - GAUSS_OFFSET * d)
    g2 = integrand(mid + GAUSS_OFFSET * d)
    v_gauss = float(np.sum(L * 0.5 * (g1 + g2)))
    return v_gauss, abs(v_gauss - v_mid) + 1e-14 * abs(v_gauss), L


def flux_profile(mesh: SimplicialSurface, center, levels, p: int = 2) -> FluxProfile:
    """Sweep the sphere flux over the given radii."""
    center = np.asarray(center, dtype=float)
    levels = np.asarray(levels, dtype=float)
    if len(levels) > 1 and np.any(np.diff(levels) <= 0):
        raise ValueError("flux levels must be strictly increasing")
    raw = np.zeros(len(levels))
    errors = np.zeros(len(levels))
    lengths = np.zeros(len(levels))
    for k, t in enumerate(levels):
        tris, ends, _ = level_chords(mesh, center, t)
        if len(tris) == 0:
            continue
        frames = mesh.frames()[tris]

        def tang_norm(points):
            tang, _ = decompose_radial(points, center, frames, check=False)
            return np.linalg.norm(tang, axis=1)

        raw[k], errors[k], L = _segment_rule(ends[:, 0], ends[:, 1], tang_norm)
        lengths[k] = L.sum()
    return FluxProfile(levels, raw, errors, lengths, p, center)


def _flux_at(mesh, center, levels, profile: FluxProfile | None, p: int = 2):
    """The flux at ``levels``: looked up in ``profile`` when one is given,
    so a report traces each level once, else traced here."""
    if profile is None:
        return flux_profile(mesh, center, levels, p)
    return profile.at(levels)


def max_safe_radius(mesh: SimplicialSurface, center, margin: float = 0.98) -> float:
    """Largest |x - center| radius guaranteed covered by the truncated mesh."""
    center = np.asarray(center, dtype=float)
    if mesh.truncation_radius is None:
        return margin * float(np.linalg.norm(mesh.vertices - center, axis=1).max())
    return margin * (mesh.truncation_radius - float(np.linalg.norm(center)))


def level_grid(mesh: SimplicialSurface, center, count: int = 24,
               lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Geometric radius sweep from just outside the surface to the rim."""
    center = np.asarray(center, dtype=float)
    if hi is None:
        hi = max_safe_radius(mesh, center)
    if lo is None:
        dmin = float(np.linalg.norm(mesh.vertices - center, axis=1).min())
        lo = 1.3 * dmin if dmin > 1e-9 else 0.02 * hi
        lo = min(lo, 0.5 * hi)
    return np.geomspace(lo, hi, count)


# --------------------------------------------------------------------------
# headline invariants


def projective_volume(mesh: SimplicialSurface, center, levels=None,
                      num_levels: int = 24, num_fit: int = 6,
                      profile: FluxProfile | None = None) -> dict:
    """Projective volume via two routes: flux limit and log-growth slope.

    Route one extrapolates the normalized flux to infinite radius with the
    tail model V - b/t - c/t^2 fitted over the outer half of the sweep
    (plane-like ends decay as 1/t^2, curved graphs as 1/t).  Route two fits
    integral(|x - a|^(-2)) against log(radius) and reads off the slope; from
    a base on the surface that integral diverges, so it is anchored at the
    first fit level instead (the slope ignores the constant).  ``profile``, a
    flux sweep already traced, replaces ``levels``.
    Disagreement between the routes, or a bad tail fit, folds into the error;
    past 10% the estimate is flagged as truncation-limited (the surface may
    have unbounded density, or the mesh may simply be cut too soon).
    """
    center = np.asarray(center, dtype=float)
    if profile is None:
        if levels is None:
            levels = level_grid(mesh, center, num_levels)
        profile = flux_profile(mesh, center, np.asarray(levels, dtype=float))
    levels = profile.levels
    flux_at_rim = float(profile.normalized[-1])
    quad_err = float(profile.errors[-1] / levels[-1] ** 2)

    tail = levels >= np.sqrt(levels[0] * levels[-1])
    ts, ys = levels[tail], profile.normalized[tail]
    basis = np.stack([np.ones_like(ts), 1.0 / ts, 1.0 / ts**2], axis=1)
    coef, *_ = np.linalg.lstsq(basis, ys, rcond=None)
    value = float(coef[0])
    fit_rms = float(np.sqrt(np.mean((basis @ coef - ys) ** 2)))

    fit_levels = ts[np.unique(np.linspace(0, len(ts) - 1, num_fit).astype(int))]
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
        "profile": profile,
        "fit_levels": fit_levels,
        "log_integrals": log_integrals,
    }


def radial_defect(mesh: SimplicialSurface, center, radius: float | None = None,
                  profile: FluxProfile | None = None) -> dict:
    """Defect integral over the ball |x - center| < radius, with error bar.

    The integral is exact on the flat mesh, so the error is a tail proxy plus
    roundoff: the measured drop of the normalized flux over the outer half of
    the range, which scales like the part of the integral lost to
    truncation.  ``profile`` supplies that flux when it is already traced.
    """
    center = np.asarray(center, dtype=float)
    if radius is None:
        radius = max_safe_radius(mesh, center)
    value, err = integrate_with_error(mesh, center, radius, "defect")
    prof = _flux_at(mesh, center, [radius / 2.0, radius], profile)
    tail = abs(prof.normalized[1] - prof.normalized[0]) / 2
    return {
        "value": float(value),
        "method": "direct_quadrature",
        "error": float(err + tail),
        "quadrature_error": float(err),
        "tail_estimate": float(tail),
        "radius": float(radius),
    }


def boundary_constant(mesh: SimplicialSurface, center, p: int = 2,
                      exclude_rim: bool = True,
                      within_radius: float | None = None) -> dict:
    """Conormal flux of (x - a)/|x - a|^p through the genuine boundary.

    Truncation-rim edges (on the cutting sphere) are excluded by default;
    what remains is the boundary the surface actually has.  The conormal is
    the in-facet outward unit vector perpendicular to each boundary edge.
    """
    center = np.asarray(center, dtype=float)
    edges = mesh.boundary_edges
    if len(edges) == 0:
        return {"value": 0.0, "error": 0.0, "num_edges": 0}
    keep = np.ones(len(edges), dtype=bool)
    if exclude_rim:
        keep &= ~rim_vertex_mask(mesh)[edges].all(axis=1)
    mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    if within_radius is not None:
        keep &= np.linalg.norm(mids - center, axis=1) <= within_radius
    edges = edges[keep]
    if len(edges) == 0:
        return {"value": 0.0, "error": 0.0, "num_edges": 0}

    # owner triangle of each boundary edge: boundary_edges are the edge
    # table's once-used keys, in its order
    _, starts, counts, owner = mesh.edge_table()
    owners = owner[starts[counts == 1][keep]]

    va = mesh.vertices[edges[:, 0]]
    vb = mesh.vertices[edges[:, 1]]
    d = vb - va
    ehat = d / np.linalg.norm(d, axis=1)[:, None]
    w = 0.5 * (va + vb) - mesh.centroids()[owners]
    w -= np.sum(w * ehat, axis=1)[:, None] * ehat
    nu = w / np.linalg.norm(w, axis=1)[:, None]

    def field_dot_nu(points):
        x = points - center
        r = np.linalg.norm(x, axis=1)
        return np.sum(x * nu, axis=1) / r**p

    value, error, _ = _segment_rule(va, vb, field_dot_nu)
    return {
        "value": value,
        "error": error,
        "num_edges": int(len(edges)),
    }


# --------------------------------------------------------------------------
# identity and inequality checks


def _gap(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)


def check_monotonicity(profile: FluxProfile, tol: float = 1e-3) -> dict:
    """Normalized flux must not decrease as the radius grows."""
    norm = profile.normalized
    running = np.maximum.accumulate(norm)
    drop = running - norm
    k = int(np.argmax(drop))
    scale = max(float(norm.max()), 1e-12)
    rel = float(drop[k]) / scale
    return {
        "passed": bool(rel <= tol),
        "max_violation": float(drop[k]),
        "rel_violation": rel,
        "at_level": float(profile.levels[k]),
        "tol": tol,
    }


def check_flux_shell_identity(mesh: SimplicialSurface, center, t_lo: float,
                              t_hi: float, tol: float = 2e-2,
                              profile: FluxProfile | None = None) -> dict:
    """Flux increment across a shell equals twice the defect inside it.

    Left side: chord sums on the two spheres (looked up in ``profile``
    when given).  Right side: the defect integral over the shell.  These
    share no discretization machinery beyond the mesh itself.
    """
    center = np.asarray(center, dtype=float)
    prof = _flux_at(mesh, center, [t_lo, t_hi], profile)
    lhs = float(prof.normalized[1] - prof.normalized[0])
    rhs = 2 * radial_integrals(mesh, center, [t_lo, t_hi], "defect")[1].sum()
    gap = _gap(lhs, rhs)
    return {"passed": bool(gap <= tol), "lhs": lhs, "rhs": float(rhs),
            "rel_gap": gap, "tol": tol, "t_lo": float(t_lo),
            "t_hi": float(t_hi)}


def on_surface_multiplicity(mesh: SimplicialSurface, center) -> int:
    """Number of mesh vertices that coincide with ``center``.

    Zero for a base point off the surface; otherwise one per sheet through
    it in the catalog meshes.
    """
    center = np.asarray(center, dtype=float)
    dist = np.linalg.norm(mesh.vertices - center, axis=1)
    return int(np.count_nonzero(
        dist <= 1e-9 * (1.0 + float(np.linalg.norm(center)))))


def check_defect_volume_identity(defect: dict, flux_normalized: float,
                                 boundary: dict, sheets: int, p: int = 2,
                                 tol: float = 2e-2) -> dict:
    """p * defect = normalized flux + boundary constant, at the cut radius.

    Pure arithmetic on estimates taken at one radius: ``defect`` from
    ``radial_defect``, the normalized flux from ``flux_profile``, ``boundary``
    from ``boundary_constant`` and ``sheets`` from ``on_surface_multiplicity``.
    With the radius sent to infinity the flux term becomes the projective
    volume; at finite truncation the identity is exact, so any gap measures
    pure discretization error.

    A center on the surface contributes one unit-sphere area per sheet to the
    normalized flux at vanishing radius, and the identity subtracts that; with
    no boundary this is the preimage-count relation flux = p * defect +
    sheets * sphere area.  Meshes that excise a small hole around the center
    instead carry the same term through the boundary constant, so the two
    routes never double-count.
    """
    lhs = p * defect["value"]
    rhs = float(flux_normalized) + boundary["value"] - sheets * sphere_area(p)
    gap = _gap(lhs, rhs)
    return {
        "passed": bool(gap <= tol),
        "lhs": lhs,
        "rhs": rhs,
        "rel_gap": gap,
        "tol": tol,
        "radius": defect["radius"],
        "defect": defect,
        "flux_normalized": float(flux_normalized),
        "boundary_constant": boundary,
        "on_surface_multiplicity": int(sheets),
    }


def preimage_count_residual(volume: float, defect: float, preimages: int,
                            p: int = 2) -> float:
    """Residual of volume = p * defect + preimages * sphere_area(p).

    Pure arithmetic on already-known values; use with closed-form inputs
    (e.g. a flat plane through the base point: volume 2*pi, defect 0, one
    preimage) or with independently estimated ones.
    """
    return abs(volume - p * defect - preimages * sphere_area(p))


def check_band_area_bound(mesh: SimplicialSurface, center, r_lo: float,
                          r_hi: float, p: int = 2, slack: float = 5e-3) -> dict:
    """Any component crossing the whole shell has area >= the width bound.

    The bound is sphere_area(p)/p * ((r_hi - r_lo)/2)^p.  Components are
    taken over triangles meeting the shell; one qualifies when it has
    vertices on or inside the inner sphere and on or outside the outer one.
    Vacuous (no qualifying component) is reported as not applicable.
    """
    center = np.asarray(center, dtype=float)
    dist = np.linalg.norm(mesh.vertices - center, axis=1)
    tri_d = dist[mesh.triangles]
    tri_mask = (tri_d.min(axis=1) < r_hi) & (tri_d.max(axis=1) > r_lo)
    labels, count = triangle_components(mesh, tri_mask)
    bound = sphere_area(p) / p * ((r_hi - r_lo) / 2.0) ** p
    crossing = []
    for comp in range(count):
        comp_tris = labels == comp
        if tri_d[comp_tris].min() <= r_lo and tri_d[comp_tris].max() >= r_hi:
            crossing.append(comp)
    if not crossing:
        return {"applicable": False, "passed": True, "bound": float(bound),
                "areas": [], "num_crossing": 0}
    shell_area = radial_integrals(mesh, center, [r_lo, r_hi])[1]
    sel = labels >= 0
    comp_area = np.bincount(labels[sel], weights=shell_area[sel],
                            minlength=count)
    areas = sorted(float(comp_area[comp]) for comp in crossing)
    return {
        "applicable": True,
        "passed": bool(areas[0] >= bound * (1.0 - slack)),
        "bound": float(bound),
        "areas": areas,
        "num_crossing": len(areas),
        "min_ratio": float(areas[0] / bound),
    }


def check_density_identity(mesh: SimplicialSurface, center, levels,
                           boundary: dict, p: int = 2, tol: float = 1e-2,
                           profile: FluxProfile | None = None) -> dict:
    """p * area inside each sphere equals the raw flux through it.

    Holds for any base point provided the surface has no genuine boundary
    inside the largest ball; ``boundary`` is the ``boundary_constant``
    estimate within that ball, and if it counts any edge the check refuses
    to run.  Reports the worst relative residual over the level sweep;
    ``profile`` supplies the flux when it is already traced.
    """
    center = np.asarray(center, dtype=float)
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    if boundary["num_edges"] > 0:
        raise IdentityNotApplicableError(
            "surface has genuine boundary inside the ball; the area-flux "
            "identity does not apply"
        )
    prof = _flux_at(mesh, center, levels, profile, p)
    areas = np.cumsum(radial_integrals(mesh, center, levels).sum(axis=1))
    residuals = np.array([_gap(p * area, float(raw))
                          for area, raw in zip(areas, prof.raw)])
    worst = int(np.argmax(residuals))
    return {
        "passed": bool(residuals[worst] <= tol),
        "max_residual": float(residuals[worst]),
        "at_level": float(levels[worst]),
        "tol": tol,
        "levels": levels,
        "areas": areas,
        "residuals": residuals,
    }
