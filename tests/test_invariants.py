"""Invariant estimators against closed-form oracles, plus identity checks.

Oracles used here:
* plane at height h:   normalized flux 2*pi*(1 - h^2/t^2), defect pi (h != 0)
* catenoid (c=1, a=0): raw flux 4*pi*(sinh(u)cosh(u) + u) at the level where
  cosh(u)^2 + u^2 = t^2; volume 4*pi; defect 2*pi
* flat annulus 1 < |x| < 3: area 8*pi against band bound pi (ratio 8)
* truncated-below catenoid: boundary constant 2*pi*(sinh(1)cosh(1)+1)/(cosh(1)^2+1)
* flat annulus rim seen from (0,0,1): boundary constant -pi (sign-sensitive)
"""
import numpy as np
import pytest
from scipy.optimize import brentq

from mingauge import invariants as inv
from mingauge.catalog import build_surface
from mingauge.errors import IdentityNotApplicableError
from mingauge.geometry import (
    ImmersionChart,
    SimplicialSurface,
    mesh_from_chart,
    on_mesh,
    radial_integrals,
)


def test_sphere_area_values():
    assert inv.sphere_area(1) == pytest.approx(2.0, abs=1e-12)
    assert inv.sphere_area(2) == pytest.approx(2 * np.pi, abs=1e-12)
    assert inv.sphere_area(3) == pytest.approx(4 * np.pi, abs=1e-12)
    assert inv.sphere_area(4) == pytest.approx(2 * np.pi**2, abs=1e-12)
    with pytest.raises(ValueError):
        inv.sphere_area(0)


def catenoid_raw_flux_oracle(t):
    """Closed-form line integral of |tangent part| at level t (c=1, a=0)."""
    u = brentq(lambda u: np.cosh(u) ** 2 + u**2 - t**2, 0.0,
               np.arccosh(t) + 1.0)
    return 4 * np.pi * (np.sinh(u) * np.cosh(u) + u)


def test_plane_flux_matches_closed_form(plane_default):
    h = plane_default.params["offset"]
    ts = np.array([2.0, 5.0, 20.0, 80.0, 150.0])
    prof = inv.flux_profile(plane_default.mesh, plane_default.base_point, ts)
    expected = 2 * np.pi * (1 - h**2 / ts**2)
    np.testing.assert_allclose(prof.normalized, expected, rtol=1e-3)


def test_catenoid_flux_matches_1d_oracle(catenoid_default):
    ts = np.array([1.7, 3.0, 10.0, 60.0, 150.0])
    prof = inv.flux_profile(catenoid_default.mesh, catenoid_default.base_point,
                            ts)
    expected = np.array([catenoid_raw_flux_oracle(t) for t in ts])
    np.testing.assert_allclose(prof.raw, expected, rtol=1e-3)


def test_flux_below_surface_is_flagged_empty(catenoid_coarse):
    prof = inv.flux_profile(catenoid_coarse.mesh, catenoid_coarse.base_point,
                            [0.5, 2.0])
    assert prof.raw[0] == 0.0 and prof.errors[0] == 0.0 and prof.raw[1] > 0.0
    with pytest.raises(ValueError):
        inv.flux_profile(catenoid_coarse.mesh, catenoid_coarse.base_point,
                         [2.0, 1.0])


def test_flux_at_a_vertex_ring_is_its_right_hand_limit(catenoid_coarse):
    # a whole ring of vertices lies at one distance, and the chord flux jumps
    # across it; the snap in level_chords traces just above the ring, so the
    # flux there is the right-hand limit, not a value set by rounding
    mesh, base = catenoid_coarse.mesh, catenoid_coarse.base_point
    f = mesh.about(base)["distances"]
    t = float(f[np.argmin(np.abs(f - 1.8365))])
    assert np.count_nonzero(np.abs(f - t) <= 1e-9 * t) == 96
    at, above, below = (inv.flux_profile(mesh, base, [t * s]).raw[0]
                        for s in (1.0, 1 + 5e-9, 1 - 5e-9))
    assert abs(at - above) <= 1e-8 * abs(above)
    assert abs(at - below) > 1e-3 * abs(at)


def fresh(mesh):
    """A copy of ``mesh`` with an empty store."""
    return SimplicialSurface(mesh.vertices, mesh.triangles,
                             mesh.truncation_radius, mesh.name)


def test_flux_store_never_returns_a_stale_center(catenoid_coarse):
    mesh = fresh(catenoid_coarse.mesh)
    levels = [2.0, 3.0, 5.0, 12.0]
    centers = [np.zeros(3), np.array([1.0, 0.0, 0.0])]
    for center in [*centers, centers[0]]:
        got = inv.flux_profile(mesh, center, levels)
        want = inv.flux_profile(fresh(mesh), center, levels)
        assert got.raw.tobytes() == want.raw.tobytes()
        assert got.errors.tobytes() == want.errors.tobytes()


def test_radial_defect_bits_do_not_depend_on_the_sweep(catenoid_coarse):
    # before or after the report's sweep, the defect reads the same flux
    mesh, base = catenoid_coarse.mesh, catenoid_coarse.base_point
    first = inv.radial_defect(fresh(mesh), base)
    after = fresh(mesh)
    inv.flux_profile(after, base, inv.level_grid(after, base))
    inv.projective_volume(after, base)
    assert inv.radial_defect(after, base) == first


def test_plane_volume_to_1e3(plane_default):
    out = inv.projective_volume(plane_default.mesh, plane_default.base_point)
    assert out["method"] == "flux_limit"
    assert out["value"] == pytest.approx(2 * np.pi, rel=1e-3)
    assert out["slope_estimate"] == pytest.approx(2 * np.pi, rel=5e-3)
    assert not out["flags"]


def test_plane_defect_is_pi_for_any_height(plane_coarse):
    out = inv.radial_defect(plane_coarse.mesh, plane_coarse.base_point)
    assert out["value"] == pytest.approx(np.pi, rel=1e-3)
    far = build_surface("plane", params={"offset": 2.0}, resolution="coarse")
    out2 = inv.radial_defect(far.mesh, far.base_point)
    assert out2["value"] == pytest.approx(np.pi, rel=1e-3)


def test_catenoid_volume_and_defect(catenoid_coarse):
    m, a = catenoid_coarse.mesh, catenoid_coarse.base_point
    pv = inv.projective_volume(m, a)
    assert pv["value"] == pytest.approx(4 * np.pi, rel=0.03)
    assert pv["slope_estimate"] == pytest.approx(pv["value"], rel=0.05)
    q = inv.radial_defect(m, a)
    assert q["value"] == pytest.approx(2 * np.pi, rel=0.03)
    assert q["method"] == "direct_quadrature"


def test_monotonicity_minimal_pass_sphere_fail(catenoid_default, plane_default,
                                               sphere_coarse):
    for spec in (catenoid_default, plane_default):
        lv = inv.level_grid(spec.mesh, spec.base_point, 24)
        prof = inv.flux_profile(spec.mesh, spec.base_point, lv)
        out = inv.check_monotonicity(prof)
        assert out["passed"], f"{spec.name}: {out}"
    prof = inv.flux_profile(sphere_coarse.mesh, sphere_coarse.base_point,
                            np.linspace(1.05, 2.95, 12))
    assert not inv.check_monotonicity(prof)["passed"]


def test_flux_shell_identity_dual_route(catenoid_coarse):
    m, a = catenoid_coarse.mesh, catenoid_coarse.base_point
    for t_lo, t_hi in [(2.0, 20.0), (5.0, 50.0)]:
        out = inv.check_flux_shell_identity(m, a, t_lo, t_hi)
        assert out["passed"], out
        assert out["detail"]["rel_gap"] <= 2e-2


def defect_volume_identity(mesh, center):
    """Estimate each term once at the cut radius, then check the identity."""
    r = inv.max_safe_radius(mesh, center)
    return inv.check_defect_volume_identity(
        inv.radial_defect(mesh, center, r),
        inv.flux_profile(mesh, center, [r]).normalized[0],
        inv.boundary_constant(mesh, center, within_radius=r),
        on_mesh(mesh, center)[1],
    )


@pytest.mark.parametrize(
    "name", ["plane", "catenoid", "enneper", "complex_parabola_r4"]
)
def test_defect_volume_identity_boundaryless(coarse, name):
    spec = coarse(name)
    out = defect_volume_identity(spec.mesh, spec.base_point)
    assert out["passed"], out
    assert out["boundary_constant"]["num_edges"] == 0
    assert out["detail"]["on_surface_multiplicity"] == 0


# one mesh vertex on each surface, away from the suggested base point
ON_SURFACE = {
    "enneper": [0.0, 0.0, 0.0],
    "complex_parabola_r4": [0.0, 0.0, 0.0, 0.0],
    "catenoid": [1.0, 0.0, 0.0],  # on the neck circle
}


@pytest.mark.parametrize("name", sorted(ON_SURFACE))
def test_defect_volume_identity_base_on_surface(coarse, name):
    # with the center at a mesh vertex the small-radius flux limit carries
    # one unit-sphere area per sheet, which the identity must subtract; with
    # no boundary this is the preimage-count relation
    # flux = p * defect + preimages * sphere area
    spec = coarse(name)
    out = defect_volume_identity(spec.mesh, np.array(ON_SURFACE[name]))
    assert out["detail"]["on_surface_multiplicity"] == 1
    assert out["boundary_constant"]["num_edges"] == 0
    assert out["passed"], out
    off = defect_volume_identity(spec.mesh, spec.base_point)
    # the two defects differ by one unit-sphere area over p, per the
    # flux limits at the shared cut radius agreeing to discretization error
    shift = (off["detail"]["lhs"] - out["detail"]["lhs"]) / inv.sphere_area(2)
    assert abs(shift - 1.0) < 5e-2, shift


# log-slope volume from the ON_SURFACE bases at coarse resolution under the
# cut-cell quadrature the exact integrals replaced
CUT_CELL_LOG_SLOPE = {
    "enneper": 18.32028721823217,
    "complex_parabola_r4": 12.410827011013673,
    "catenoid": 12.552628730772533,
}


@pytest.mark.parametrize("name", sorted(ON_SURFACE))
def test_base_on_surface_star_has_no_defect(coarse, name):
    # the base's own star lies in planes through it: heights there are
    # roundoff, read as 0, so the defect integrand vanishes on the star
    # instead of adding a spurious point mass of pi
    mesh, base = coarse(name).mesh, np.array(ON_SURFACE[name])
    dist = np.linalg.norm(mesh.vertices - base, axis=1)
    star = (dist[mesh.triangles] <= 1e-9).any(axis=1)
    assert star.sum() >= 3
    per_triangle = radial_integrals(mesh, base,
                                    [inv.max_safe_radius(mesh, base)],
                                    "defect")[0]
    assert abs(per_triangle[star].sum()) <= 1e-12


@pytest.mark.parametrize("name", sorted(ON_SURFACE))
def test_base_on_surface_log_slope_anchored(coarse, name):
    # 1/|x - a|^2 diverges at an on-surface base; the fit anchors its
    # integral at the first fit level, which leaves the slope unchanged
    spec = coarse(name)
    out = inv.projective_volume(spec.mesh, np.array(ON_SURFACE[name]))
    assert out["log_integrals"][0] == 0.0
    assert np.all(np.isfinite(out["log_integrals"]))
    assert abs(out["slope_estimate"] - CUT_CELL_LOG_SLOPE[name]) <= out["error"]


def test_boundary_constant_oracle_and_identity():
    # one-sided catenoid, cut at u = -1: the free rim is a circle of radius
    # cosh(1) at height -1, so the conormal integral has a 1-d closed form.
    # The rim conormal lives in the owner triangle's plane, which tilts away
    # from the smooth tangent plane at first order in the radial step, so the
    # discrete value approaches the smooth oracle at first order; assert the
    # order along with a 0.25% match at the finer grid.
    sh, ch = np.sinh(1.0), np.cosh(1.0)
    oracle = 2 * np.pi * (sh * ch + 1.0) / (ch**2 + 1.0)
    errs = []
    for nu in (96, 192):
        spec = build_surface("catenoid", params={"u_min": -1.0},
                             resolution={"nu": nu, "nv": 96})
        c = inv.boundary_constant(spec.mesh, spec.base_point)
        assert c["num_edges"] > 0
        errs.append(abs(c["value"] - oracle) / oracle)
    assert errs[1] < 2.5e-3
    assert 1.7 < errs[0] / errs[1] < 2.4
    out = defect_volume_identity(spec.mesh, spec.base_point)
    assert out["passed"], out


def test_boundary_constant_flat_annulus_sign():
    # annulus 1 <= rho <= 30 in the z = 0 plane, viewed from (0, 0, 1): the
    # outward conormal at the inner rim points toward the axis, so the rim
    # integral is negative: -2*pi*rho0^2 / (rho0^2 + d^2) = -pi.
    def evaluate(u, v):
        return np.stack([u * np.cos(v), u * np.sin(v), np.zeros_like(u)],
                        axis=-1)

    def derivatives(u, v):
        xu = np.stack([np.cos(v), np.sin(v), np.zeros_like(u)], axis=-1)
        xv = np.stack([-u * np.sin(v), u * np.cos(v), np.zeros_like(u)],
                      axis=-1)
        return xu, xv

    chart = ImmersionChart(name="flat-annulus",
                           domain=(1.0, 30.0, 0.0, 2 * np.pi),
                           evaluate=evaluate, derivatives=derivatives,
                           periodic_v=True)
    mesh = mesh_from_chart(chart, (64, 256), truncation_radius=30.0)
    a = np.array([0.0, 0.0, 1.0])
    c = inv.boundary_constant(mesh, a)
    assert c["value"] == pytest.approx(-np.pi, rel=1e-3)
    out = defect_volume_identity(mesh, a)
    assert out["passed"], out
    assert out["boundary_constant"]["value"] < 0


def test_preimage_relation_closed_forms():
    # the defect identity on closed forms, with no boundary and the volume
    # (the flux at infinite radius) as the flux: volume = 2 * defect +
    # preimages * 2 pi
    def rel_gap(volume, defect, preimages):
        return inv.check_defect_volume_identity(
            {"value": defect, "radius": np.inf}, volume, {"value": 0.0},
            preimages)["detail"]["rel_gap"]

    # plane through the base point: volume 2*pi, defect 0, one preimage
    assert rel_gap(2 * np.pi, 0.0, 1) <= 1e-10
    # two transverse planes through it
    assert rel_gap(4 * np.pi, 0.0, 2) <= 1e-10
    # plane not through it: volume 2*pi, defect pi, zero preimages
    assert rel_gap(2 * np.pi, np.pi, 0) <= 1e-10


def test_density_identity_grid(catenoid_coarse, plane_coarse):
    for spec in (catenoid_coarse, plane_coarse):
        ts = np.geomspace(1.6, 150.0, 6)
        bnd = inv.boundary_constant(spec.mesh, spec.base_point,
                                    within_radius=ts.max())
        out = inv.check_density_identity(spec.mesh, spec.base_point, ts, bnd)
        assert out["passed"], f"{spec.name}: {out}"
        assert out["detail"]["max_residual"] <= 1e-2
    cut = build_surface("catenoid", params={"u_min": -1.0}, resolution="coarse")
    with pytest.raises(IdentityNotApplicableError):
        inv.check_density_identity(
            cut.mesh, cut.base_point, [20.0],
            inv.boundary_constant(cut.mesh, cut.base_point, within_radius=20.0))


def test_band_area_bound_catenoid_randomized(catenoid_coarse, rng):
    m, a = catenoid_coarse.mesh, catenoid_coarse.base_point
    for _ in range(10):
        r_lo = rng.uniform(1.5, 60.0)
        r_hi = r_lo + rng.uniform(1.0, 100.0)
        out = inv.check_band_area_bound(m, a, [(r_lo, min(r_hi, 150.0))])
        assert out["num_crossing"] == 2
        assert out["passed"], out


def test_band_area_bound_flat_annulus():
    # closed form: area pi*(9 - 1) over bound pi*((3-1)/2)^2 -> exactly 8
    area = np.pi * (3.0**2 - 1.0**2)
    bound = inv.sphere_area(2) / 2.0 * ((3.0 - 1.0) / 2.0) ** 2
    assert area / bound == pytest.approx(8.0, abs=1e-6)
    flat = build_surface("plane", params={"offset": 0.0}, resolution="coarse")
    out = inv.check_band_area_bound(flat.mesh, np.zeros(3), [(1.0, 3.0)])
    assert out["num_crossing"] > 0 and out["passed"]
    assert out["areas"][0] / bound == pytest.approx(8.0, rel=1e-3)


def test_band_area_bound_vacuous(catenoid_coarse):
    with pytest.raises(IdentityNotApplicableError, match="no component"):
        inv.check_band_area_bound(catenoid_coarse.mesh,
                                  catenoid_coarse.base_point, [(0.2, 0.5)])


def test_band_area_bound_takes_every_band(catenoid_coarse):
    # one call over several bands: the smallest area ratio, every crossing
    # area band by band, and a band nothing crosses left out
    m, a = catenoid_coarse.mesh, catenoid_coarse.base_point
    bands = [(0.2, 0.5), (5.0, 20.0), (20.0, 60.0)]
    out = inv.check_band_area_bound(m, a, bands)
    each = [inv.check_band_area_bound(m, a, [band]) for band in bands[1:]]
    assert out["detail"]["min_area_over_bound"] == min(
        e["detail"]["min_area_over_bound"] for e in each)
    assert out["margin"] == min(e["margin"] for e in each)
    assert out["areas"] == each[0]["areas"] + each[1]["areas"]
    assert out["detail"]["bands"] == [list(band) for band in bands]


def test_base_point_independence(catenoid_coarse):
    m = catenoid_coarse.mesh
    v0 = inv.projective_volume(m, np.zeros(3))
    v1 = inv.projective_volume(m, np.array([0.5, 0.3, 0.2]))
    assert abs(v0["value"] - v1["value"]) <= v0["error"] + v1["error"]


def test_scaling_invariance(catenoid_coarse):
    m, a = catenoid_coarse.mesh, catenoid_coarse.base_point
    doubled = SimplicialSurface(
        vertices=2.0 * m.vertices,
        triangles=m.triangles,
        truncation_radius=2.0 * m.truncation_radius,
        name=m.name,
    )
    levels = inv.level_grid(m, a, 12)
    p0 = inv.flux_profile(m, a, levels)
    p1 = inv.flux_profile(doubled, 2.0 * a, 2.0 * levels)
    np.testing.assert_allclose(p1.normalized, p0.normalized, rtol=1e-10)
    v0 = inv.projective_volume(m, a, 12)
    v1 = inv.projective_volume(doubled, 2.0 * a, 12)
    assert v1["value"] == pytest.approx(v0["value"], rel=1e-10)
    q0 = inv.radial_defect(m, a, radius=float(levels[-1]))
    q1 = inv.radial_defect(doubled, 2.0 * a, radius=2.0 * float(levels[-1]))
    assert q1["value"] == pytest.approx(q0["value"], rel=1e-10)


def test_helicoid_volume_flagged_unreliable(helicoid_coarse):
    out = inv.projective_volume(helicoid_coarse.mesh, helicoid_coarse.base_point)
    assert "unreliable_truncation" in out["flags"]
