"""Catalog construction, truncation geometry and the minimality validator."""
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from mingauge import catalog
from mingauge.catalog import (
    _brentq,
    _triangle_count,
    build_surface,
    catalog_entry_info,
    catalog_names,
    catenoid_u_max,
    enneper_domain_radius,
    spherical_region,
    verify_minimality,
)
from mingauge.errors import ConfigError, DegenerateChartError, MeshTopologyError
from mingauge.geometry import radial_integrals
from mingauge.intgeom import geodesic_area
from levels_oracle import decompose_radial

MINIMAL_NAMES = ["plane", "catenoid", "enneper", "helicoid", "complex_parabola_r4"]


def rim_radii(mesh):
    assert len(mesh.boundary_edges) > 0
    rim = np.unique(mesh.boundary_edges)
    return np.linalg.norm(mesh.vertices[rim], axis=1)


def test_catalog_names():
    names = catalog_names()
    assert names == sorted(names)
    assert set(names) == set(MINIMAL_NAMES) | {"sphere"}


def test_catalog_entry_info_is_static():
    info = catalog_entry_info("catenoid")
    assert info["params"]["c"] == 1.0
    assert "default" in info["resolutions"] and "coarse" in info["resolutions"]
    with pytest.raises(ConfigError):
        catalog_entry_info("torus")


@pytest.mark.parametrize("name", catalog_names())
def test_build_all_coarse(name):
    spec = build_surface(name, resolution="coarse")
    mesh = spec.mesh
    assert mesh.ambient_dim == (4 if name == "complex_parabola_r4" else 3)
    assert np.all(np.isfinite(mesh.vertices))
    assert spec.base_point.shape == (mesh.ambient_dim,)
    if name == "sphere":
        assert len(mesh.boundary_edges) == 0
        return
    r = rim_radii(mesh)
    t = mesh.truncation_radius
    # no boundary strictly inside the truncation ball
    assert r.min() >= t * (1 - 1e-12)
    if name in ("plane", "catenoid", "complex_parabola_r4"):
        # rim lands exactly on the truncation sphere
        np.testing.assert_allclose(r, t, rtol=1e-12)
    if name == "enneper":
        assert r.min() == pytest.approx(t, rel=1e-10)
    if name == "helicoid":
        assert r.min() > 1.005 * t  # deliberate safety margin


def test_truncation_solvers():
    c, r_max = 1.3, 150.0
    u = catenoid_u_max(c, r_max)
    assert (c * np.cosh(u / c)) ** 2 + u**2 == pytest.approx(r_max**2, rel=1e-12)
    rho = enneper_domain_radius(80.0)
    assert rho**6 / 9 + rho**4 / 3 + rho**2 == pytest.approx(80.0**2, rel=1e-12)


def test_thin_catenoid_neck_builds_without_warnings():
    # the far bracket end overflows cosh to inf, which keeps its sign
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spec = build_surface("catenoid", {"c": 0.001, "r_max": 4},
                             resolution="coarse")
    np.testing.assert_allclose(rim_radii(spec.mesh), 4.0, rtol=1e-12)


def _brackets():
    """Catenoid and Enneper truncation brackets, as their builders form them."""
    rng = np.random.default_rng(20)
    necks = [(1.0, 200.0), (1.3, 150.0), (1e-3, 200.0)]
    for c in 10 ** rng.uniform(-3, 3, 300):
        necks.append((c, c * 10 ** rng.uniform(np.log10(2), 4)))
    radii = [200.0, 80.0, *10 ** rng.uniform(0, 6, 300)]
    cases = [(lambda u, c=c, r=r: (c * np.cosh(u / c)) ** 2 + u**2 - r**2,
              0.0, c * np.arccosh(r / c) + 1.0) for c, r in necks]
    cases += [(lambda rho, r=r: rho**6 / 9 + rho**4 / 3 + rho**2 - r**2,
               r ** (1.0 / 3.0) * 0.5, (3 * r) ** (1.0 / 3.0) + 2.0)
              for r in radii]
    return cases


def test_brentq_matches_scipy_bit_for_bit():
    # the port must give scipy's double, or the catenoid's bytes move;
    # odd powers take every step kind, and the clipped lines have flat ends
    # where C's extrapolation divides by 0
    rng = np.random.default_rng(21)
    cases = _brackets() + [
        (lambda x, k=k, r=r: (x - r) ** k, r - lo, r + hi)
        for k, r, lo, hi in zip(rng.choice([1, 3, 5, 7], 200), rng.normal(size=200),
                                rng.uniform(0.1, 5, 200), rng.uniform(0.1, 5, 200))
    ] + [
        (lambda x, s=s, r=r: max(-1.0, min(1.0, s * (x - r))), r - 2.0, r + 3.0)
        for s, r in zip(10 ** np.linspace(-300, 300, 61), np.linspace(-1, 1, 61))
    ]

    def root(solve, f, a, b):
        try:
            return solve(f, a, b)
        except (ValueError, RuntimeError):  # scipy: RuntimeError if no convergence
            return "failed"

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # cosh overflows to inf
        for f, a, b in cases:
            got = root(_brentq, f, a, b)
            assert type(got) is float or got == "failed"
            assert got == root(brentq, f, a, b)


def test_brentq_errors():
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)
    # a step across a wide bracket needs about 1,000 bisections, not 100
    with pytest.raises(ValueError, match="converge"):
        _brentq(lambda x: 1.0 if x > 0.3 else -1.0, -1e300, 1e300)


def test_base_points_stay_off_surface():
    for name in catalog_names():
        spec = build_surface(name, resolution="coarse")
        d = np.linalg.norm(spec.mesh.vertices - spec.base_point, axis=1).min()
        assert d > 0.3, f"{name}: base point too close ({d:.3f})"


def test_one_sided_catenoid_has_inner_rim():
    spec = build_surface("catenoid", params={"u_min": -1.0}, resolution="coarse")
    r = rim_radii(spec.mesh)
    inner = r[r < 100.0]
    assert len(inner) > 0
    np.testing.assert_allclose(
        inner, np.sqrt(np.cosh(1.0) ** 2 + 1.0), rtol=1e-12
    )
    assert spec.targets == {}  # reference values only apply to the full surface


def test_bad_inputs_raise_config_errors():
    with pytest.raises(ConfigError) as ei:
        build_surface("moebius")
    assert ei.value.field == "surface"
    with pytest.raises(ConfigError):
        build_surface("catenoid", params={"c": -1.0})
    with pytest.raises(ConfigError):
        build_surface("catenoid", params={"neck": 1.0})
    with pytest.raises(ConfigError):
        build_surface("plane", resolution="ultra")
    with pytest.raises(ConfigError):
        build_surface("plane", resolution={"bogus": 3})


@pytest.mark.parametrize("name, params, cause", [
    ("sphere", {"radius": 0.0}, MeshTopologyError),  # every triangle degenerate
    ("helicoid", {"pitch": 1e-300}, DegenerateChartError),
])
def test_builder_mesh_errors_become_config_errors(name, params, cause):
    with pytest.raises(ConfigError) as ei:
        build_surface(name, params=params, resolution="coarse")
    assert ei.value.field == "surface"
    assert isinstance(ei.value.__cause__, cause)


@pytest.mark.parametrize("r_max", [1e8, 1e14])
def test_helicoid_far_past_its_pitch_builds(r_max):
    # the chart's axis row has E ~ r_max^2 and G = pitch^2; only the angle
    # between the coordinate directions decides whether it is singular
    spec = build_surface("helicoid", params={"r_max": r_max},
                         resolution="coarse")
    assert spec.mesh.truncation_radius == r_max


def test_resolution_override_dict():
    spec = build_surface("catenoid", resolution={"nu": 32, "nv": 16})
    assert len(spec.mesh.triangles) == 2 * 32 * 16


def test_minimality_validator_accepts_minimal_charts():
    for name in MINIMAL_NAMES:
        spec = build_surface(name, resolution="coarse")
        out = verify_minimality(spec.chart)
        assert out["passed"], (
            f"{name}: residual {out['detail']['max_scaled_residual']:.2e}")


@pytest.mark.parametrize("name", catalog_names())
def test_minimality_validator_matches_the_inline_normal_part(monkeypatch,
                                                             name):
    # the normal part w - tangent_part(w, frame) gives the bits of the split
    # the validator used to run inline
    chart = build_surface(name, resolution="coarse").chart
    got = verify_minimality(chart)
    monkeypatch.setattr(catalog, "tangent_part", lambda w, frame:
                        decompose_radial(w, np.zeros(w.shape[-1]), frame)[0])
    assert got == verify_minimality(chart)


def test_minimality_validator_rejects_sphere():
    spec = build_surface("sphere", resolution="coarse")
    out = verify_minimality(spec.chart)
    assert not out["passed"]
    # mean curvature of a unit sphere has norm 1
    assert out["max_mean_curvature"] == pytest.approx(1.0, rel=1e-4)


def test_spherical_regions():
    def area(region):
        return radial_integrals(region, np.zeros(3), [np.inf]).sum()

    # the full sphere is the icosphere of 3 subdivisions, whose flat area is
    # 4.8e-3 short of 4 pi; its geodesic triangles tile the sphere exactly
    full = spherical_region("full")
    assert geodesic_area(full) == pytest.approx(4 * np.pi, abs=1e-10)
    hemi = spherical_region("hemisphere")
    assert area(hemi) == pytest.approx(2 * np.pi, rel=1e-3)
    alpha = np.deg2rad(70.0)
    cap = spherical_region("cap", angle=alpha)
    assert area(cap) == pytest.approx(
        2 * np.pi * (1 - np.cos(alpha)), rel=1e-3
    )
    with pytest.raises(ConfigError):
        spherical_region("cap")
    with pytest.raises(ConfigError):
        spherical_region("lune")


def test_triangle_count_matches_the_meshes():
    # the budget is checked on the count before any array is made
    for name in catalog_names():
        for preset, res in catalog_entry_info(name)["resolutions"].items():
            res = {k: v for k, v in res.items() if k != "r_inner"}
            spec = build_surface(name, resolution=preset)
            assert _triangle_count(res) == len(spec.mesh.triangles), name
    full = spherical_region("full")
    assert _triangle_count({"subdivisions": 3}) == len(full.triangles)
    hemi = spherical_region("hemisphere", sectors=40)
    assert _triangle_count({"rings": 36, "sectors": 40}) == len(hemi.triangles)


def test_sphere_mesh_radius_exact():
    spec = build_surface("sphere", resolution="coarse")
    d = np.linalg.norm(spec.mesh.vertices - np.array([0.0, 0.0, 2.0]), axis=1)
    np.testing.assert_allclose(d, 1.0, atol=1e-12)
