"""Core geometry: radial splitting, chart meshing, measure, level curves."""
import numpy as np
import pytest
from scipy import integrate

from mingauge.catalog import catalog_entry_info, catalog_names, spherical_region
from mingauge.errors import DegenerateChartError, InvalidFrameError, MeshTopologyError
from mingauge.geometry import (
    ImmersionChart,
    SimplicialSurface,
    decompose_radial,
    icosphere,
    level_chords,
    mesh_from_chart,
    orthonormal_frame,
    polar_disk_mesh,
    radial_integrals,
)
from mingauge.geometry.meshing import _grid_triangles
from mingauge.geometry.quadrature import KINDS
from mingauge.invariants import flux_profile, level_grid, max_safe_radius
from meshing_oracle import (
    loop_grid_triangles,
    loop_polar_triangles,
    unique_boundary,
    unique_edge_table,
)
from levels_oracle import curve_flux, level_polyline, polyline_segments
from quadrature_oracle import cut_cell_integrals, cut_cell_shells, integrand_of


def catenoid_chart(c=1.0, u_max=2.0):
    def ev(u, v):
        return np.stack(
            [c * np.cosh(u / c) * np.cos(v), c * np.cosh(u / c) * np.sin(v), u],
            axis=-1,
        )

    def de(u, v):
        xu = np.stack(
            [np.sinh(u / c) * np.cos(v), np.sinh(u / c) * np.sin(v), np.ones_like(u)],
            axis=-1,
        )
        xv = np.stack(
            [-c * np.cosh(u / c) * np.sin(v), c * np.cosh(u / c) * np.cos(v),
             np.zeros_like(u)],
            axis=-1,
        )
        return xu, xv

    return ImmersionChart(
        name="catenoid-test",
        domain=(-u_max, u_max, 0.0, 2.0 * np.pi),
        evaluate=ev,
        derivatives=de,
        periodic_v=True,
    )


def flat_square_chart(half=1.0, z=0.0):
    def ev(u, v):
        return np.stack([u, v, np.full_like(u, z)], axis=-1)

    def de(u, v):
        one, zero = np.ones_like(u), np.zeros_like(u)
        return (np.stack([one, zero, zero], axis=-1),
                np.stack([zero, one, zero], axis=-1))

    return ImmersionChart("square", (-half, half, -half, half), ev, de)


def flat_disk(radius=1.5, rings=64, sectors=96, z=0.0):
    def pt(rho, phi):
        return np.stack([rho * np.cos(phi), rho * np.sin(phi),
                         np.full_like(rho, z)], axis=-1)

    radii = np.linspace(radius / rings, radius, rings)
    return polar_disk_mesh(pt, radii, sectors, truncation_radius=None, name="disk")


# ---------------------------------------------------------------- frames


def test_decompose_radial_pythagoras_randomized():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = rng.choice([3, 4])
        raw = rng.normal(size=(2, n))
        frame = orthonormal_frame(raw[0], raw[1])
        x = rng.normal(size=n) * rng.uniform(0.1, 50)
        a = rng.normal(size=n)
        tang, norm = decompose_radial(x, a, frame)
        assert np.allclose(tang + norm, x - a, atol=1e-12)
        assert abs(np.dot(tang, norm)) < 1e-10 * (np.linalg.norm(x - a) ** 2 + 1)
        lhs = np.linalg.norm(x - a) ** 2
        rhs = np.linalg.norm(tang) ** 2 + np.linalg.norm(norm) ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1.0)


def test_decompose_radial_rejects_bad_frame():
    frame = np.array([[1.0, 0.0, 0.0], [1.0, 1e-3, 0.0]])
    with pytest.raises(InvalidFrameError):
        decompose_radial(np.ones(3), np.zeros(3), frame)


def test_decompose_radial_matches_finite_difference_frame():
    # tangent plane from exact chart derivatives vs central differences
    ch = catenoid_chart()
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(25):
        u = rng.uniform(-1.5, 1.5)
        v = rng.uniform(0, 2 * np.pi)
        xu, xv = ch.derivatives(np.asarray(u), np.asarray(v))
        frame = orthonormal_frame(xu, xv)
        fd_xu = (ch.points(u + h, v) - ch.points(u - h, v)) / (2 * h)
        fd_xv = (ch.points(u, v + h) - ch.points(u, v - h)) / (2 * h)
        fd_frame = orthonormal_frame(fd_xu, fd_xv)
        x = ch.points(u, v)
        a = np.array([0.3, -0.2, 0.1])
        t1, n1 = decompose_radial(x, a, frame)
        t2, n2 = decompose_radial(x, a, fd_frame)
        assert np.linalg.norm(t1 - t2) < 1e-8
        assert np.linalg.norm(n1 - n2) < 1e-8


# ---------------------------------------------------------------- meshing


def test_mesh_from_chart_catenoid_area_converges_second_order():
    c, u_max = 1.0, 1.5
    exact, _ = integrate.quad(lambda u: 2 * np.pi * c * np.cosh(u / c) ** 2,
                              -u_max, u_max)
    errs = []
    for k in (16, 32, 64):
        mesh = mesh_from_chart(catenoid_chart(c, u_max), (k, k))
        errs.append(abs(mesh.total_area() - exact))
    assert errs[1] / errs[0] < 0.35
    assert errs[2] / errs[1] < 0.35
    order = np.log2(errs[0] / errs[1])
    assert order > 1.9


def test_mesh_from_chart_periodic_has_only_rim_boundary():
    nv = 24
    mesh = mesh_from_chart(catenoid_chart(), (10, nv))
    assert len(mesh.boundary_edges) == 2 * nv
    rims = np.abs(mesh.vertices[mesh.boundary_edges.ravel()][:, 2])
    assert np.allclose(rims, 2.0)


def test_mesh_from_chart_degenerate_chart_raises():
    def ev(u, v):
        return np.stack([u, u, np.zeros_like(u)], axis=-1)  # collapses to a line

    def de(u, v):
        one, zero = np.ones_like(u), np.zeros_like(u)
        return (np.stack([one, one, zero], axis=-1),
                np.stack([zero, zero, zero], axis=-1))

    bad = ImmersionChart("bad", (0, 1, 0, 1), ev, de)
    with pytest.raises(DegenerateChartError):
        mesh_from_chart(bad, (4, 4))


def test_mesh_validation_catches_bad_topology():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    tris = np.array([[0, 1, 2], [1, 3, 2]])
    with pytest.raises(MeshTopologyError):
        # wrong boundary declaration: interior edge listed as boundary
        SimplicialSurface(verts, tris, np.array([[1, 2]]))
    with pytest.raises(MeshTopologyError):
        # degenerate triangle
        SimplicialSurface(
            np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float),
            np.array([[0, 1, 2]]),
            np.zeros((0, 2), dtype=int),
        )
    with pytest.raises(MeshTopologyError):
        # one boundary edge left out
        SimplicialSurface(verts, tris, np.array([[0, 1], [0, 2], [1, 3]]))
    with pytest.raises(MeshTopologyError):
        # right count, but one edge twice and another missing
        SimplicialSurface(verts, tris,
                          np.array([[0, 1], [0, 1], [1, 3], [2, 3]]))


def test_boundary_is_derived_or_checked_and_kept_sorted():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    tris = np.array([[0, 1, 2], [1, 3, 2]])
    derived = SimplicialSurface(verts, tris)
    np.testing.assert_array_equal(derived.boundary_edges,
                                  [[0, 1], [0, 2], [1, 3], [2, 3]])
    declared = SimplicialSurface(verts, tris,
                                 np.array([[3, 2], [0, 1], [2, 0], [1, 3]]))
    np.testing.assert_array_equal(declared.boundary_edges,
                                  derived.boundary_edges)
    assert derived.interior_edge_pairs() is derived.interior_edge_pairs()


@pytest.mark.parametrize("nu, nv, wrap_v", [
    (1, 1, False), (2, 7, False), (5, 4, False),
    (1, 3, True), (3, 5, True), (4, 3, True),
])
def test_grid_triangles_match_loop_oracle(nu, nv, wrap_v):
    got = _grid_triangles(nu, nv, wrap_v)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, loop_grid_triangles(nu, nv, wrap_v))


@pytest.mark.parametrize("rings, sectors", [(1, 3), (2, 3), (3, 5), (4, 8)])
def test_polar_triangles_match_loop_oracle(rings, sectors):
    mesh = flat_disk(rings=rings, sectors=sectors)
    np.testing.assert_array_equal(mesh.triangles,
                                  loop_polar_triangles(rings, sectors))


def _assert_topology_matches_oracle(mesh, want_triangles):
    if want_triangles is not None:
        np.testing.assert_array_equal(mesh.triangles, want_triangles)
    np.testing.assert_array_equal(mesh.boundary_edges,
                                  unique_boundary(mesh.triangles))
    for got, want in zip(mesh.edge_table(), unique_edge_table(mesh.triangles)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("preset", ["coarse", "default"])
def test_catalog_mesh_topology_matches_loop_oracle(coarse, default, name,
                                                   preset):
    spec = (coarse if preset == "coarse" else default)(name)
    grid = catalog_entry_info(name)["resolutions"][preset]
    if "rings" in grid:
        want = loop_polar_triangles(grid["rings"], grid["sectors"])
    elif "nu" in grid:
        nv = grid.get("nv", grid.get("ntheta"))
        want = loop_grid_triangles(grid["nu"], nv, spec.chart.periodic_v)
    else:
        want = None  # icosphere: subdivided, not a cell grid
    _assert_topology_matches_oracle(spec.mesh, want)


@pytest.mark.parametrize("kind, angle", [
    ("full", None), ("hemisphere", None), ("cap", 0.7),
])
def test_spherical_region_topology_matches_loop_oracle(kind, angle):
    region = spherical_region(kind, angle=angle)
    want = None
    if kind != "full":
        sectors = 256
        want = loop_polar_triangles((len(region.vertices) - 1) // sectors,
                                    sectors)
    _assert_topology_matches_oracle(region, want)


def test_icosphere_area_and_closedness():
    mesh = icosphere(subdivisions=4, radius=2.0, center=(1.0, -1.0, 0.5))
    assert len(mesh.boundary_edges) == 0
    assert mesh.total_area() == pytest.approx(4 * np.pi * 4.0, rel=2e-3)
    d = np.linalg.norm(mesh.vertices - np.array([1.0, -1.0, 0.5]), axis=1)
    assert np.allclose(d, 2.0, atol=1e-12)


# ---------------------------------------------------------------- measure


def test_surface_measure_disk_region():
    mesh = flat_disk(radius=1.5, rings=72, sectors=128)
    t1, t2 = 0.6, 1.0
    disk, ring = radial_integrals(mesh, np.zeros(3), [t1, t2]).sum(axis=1)
    assert disk == pytest.approx(np.pi * t1 * t1, rel=1e-3)
    assert ring == pytest.approx(np.pi * (t2 * t2 - t1 * t1), rel=1e-3)


def test_surface_measure_without_region_is_total_area():
    mesh = flat_disk(radius=1.0, rings=24, sectors=48)
    shells = radial_integrals(mesh, np.array([0.1, 0.2, 0.0]), [0.5, np.inf])
    assert shells.sum() == pytest.approx(mesh.total_area(), rel=1e-12)


def test_radial_integrals_one_pass_matches_one_ball_each():
    mesh = mesh_from_chart(catenoid_chart(c=1.0, u_max=1.5), (32, 48))
    a = np.array([0.2, -0.1, 0.3])
    radii = [1.2, 1.6, 2.0, 2.4]
    balls = np.cumsum(radial_integrals(mesh, a, radii).sum(axis=1))
    for R, ball in zip(radii, balls):
        alone = radial_integrals(mesh, a, [R]).sum()
        assert ball == pytest.approx(alone, rel=1e-12)


def test_radial_integrals_cache_never_returns_a_stale_whole():
    # whole-triangle integrals are kept on the mesh per kind; alternating
    # centers and kinds must give a fresh mesh's result bit for bit
    mesh = mesh_from_chart(catenoid_chart(c=1.0, u_max=1.5), (32, 48))
    centers = [np.array([0.2, -0.1, 0.3]), np.array([1.0, 0.0, 0.0])]
    radii = [0.8, 1.6, 2.4, np.inf]
    for center, kind in ([(c, k) for k in KINDS for c in centers]
                         + [(c, k) for c in centers for k in KINDS]):
        fresh = SimplicialSurface(mesh.vertices, mesh.triangles,
                                  truncation_radius=mesh.truncation_radius)
        got = radial_integrals(mesh, center, radii, kind)
        want = radial_integrals(fresh, center, radii, kind)
        assert got.tobytes() == want.tobytes(), (center, kind)


@pytest.mark.parametrize("radii", [[1.0, 1.0], [2.0, 1.0], []])
def test_radial_integrals_rejects_radii_not_increasing(radii):
    mesh = flat_disk(radius=1.0, rings=6, sectors=12)
    with pytest.raises(ValueError, match="strictly increasing"):
        radial_integrals(mesh, np.zeros(3), radii)


# offset plane z = 0 seen from (0, 0, 1): the ball |x - a| < R cuts the disk
# rho < sqrt(R^2 - 1), over which area, |x - a|^-2 and the defect integrate
# to these closed forms; a ball with R <= 1 misses the plane
OFFSET_PLANE = {
    "area": lambda R: np.pi * (R * R - 1.0),
    "inverse_power": lambda R: np.pi * np.log(R * R),
    "defect": lambda R: np.pi * (1.0 - 1.0 / (R * R)),
}


@pytest.mark.parametrize("kind", sorted(OFFSET_PLANE))
def test_radial_integrals_offset_plane_closed_forms(kind):
    mesh = flat_disk(radius=60.0, rings=24, sectors=48)
    radii = [0.5, 1.0, 1.7, 5.0, 40.0]
    balls = np.cumsum(radial_integrals(mesh, np.array([0.0, 0.0, 1.0]), radii,
                                       kind).sum(axis=1))
    exact = [max(OFFSET_PLANE[kind](R), 0.0) for R in radii]
    np.testing.assert_allclose(balls, exact, rtol=1e-12, atol=1e-12)
    assert balls[0] == 0.0 and balls[1] == 0.0


def test_radial_integrals_base_in_the_plane():
    # from a base on the plane the heights are 0: area pi R^2, no defect,
    # and 1/|x|^2 has shells 2 pi log(R_k / R_k-1) but a divergent first ball
    mesh = flat_disk(radius=60.0, rings=24, sectors=48)
    radii = np.array([1.7, 5.0, 40.0])
    center = np.array([0.3, -0.2, 0.0])
    area, inverse, defect = (radial_integrals(mesh, center, radii, kind)
                             for kind in ("area", "inverse_power", "defect"))
    np.testing.assert_allclose(np.cumsum(area.sum(axis=1)), np.pi * radii**2,
                               rtol=1e-12)
    assert np.all(defect == 0.0)
    assert np.isinf(inverse[0].sum())
    np.testing.assert_allclose(inverse[1:].sum(axis=1),
                               2 * np.pi * np.log(radii[1:] / radii[:-1]),
                               rtol=1e-12)


def test_radial_integrals_one_triangle_against_fine_subdivision():
    # the first sphere pokes into the triangle without reaching a corner or
    # the centroid, the second cuts two edges, the third holds it all;
    # 65,536 subtriangles assigned by centroid agree to about 1e-4
    tri = SimplicialSurface(
        np.array([[0.0, 0.0, 0.0], [2.0, 0.3, 0.1], [0.4, 1.7, -0.2]]),
        np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]))
    a = np.array([0.5, 0.2, 0.6])
    radii = [0.7, 1.2, 3.0]
    for kind in KINDS:
        exact = radial_integrals(tri, a, radii, kind)[:, 0]
        fine = cut_cell_integrals(tri, a, radii, integrand_of(kind, tri, a),
                                  cut_depth=0, refine=8)[:, 0]
        np.testing.assert_allclose(exact, fine, rtol=1e-3, err_msg=kind)


@pytest.mark.parametrize("name", catalog_names())
def test_radial_integrals_match_cut_cell_oracle(coarse, name):
    # the oracle's centroid assignment converges unevenly: on the sphere its
    # refined value is off by 2.7 times what the refinement changed, so the
    # exact integrals must lie within 3 times that change
    spec = coarse(name)
    m, a = spec.mesh, spec.base_point
    r = max_safe_radius(m, a)
    radii = [0.3 * r, 0.6 * r, r]
    for kind in KINDS:
        exact = radial_integrals(m, a, radii, kind).sum(axis=1)
        fine, change = cut_cell_shells(m, a, radii, integrand_of(kind, m, a))
        assert np.all(np.abs(exact - fine)
                      <= 3.0 * change + 1e-12 * np.abs(fine)), kind


def test_radial_integrals_rejects_unknown_kind():
    mesh = flat_disk(radius=1.0, rings=6, sectors=12)
    with pytest.raises(ValueError, match="kind"):
        radial_integrals(mesh, np.zeros(3), [1.0], "jacobian")


# ---------------------------------------------------------------- levels
# The level polyline of a sphere is the unordered set of chords that
# level_chords cuts from the crossed triangles.


def chord_lengths(ends):
    return np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)


def endpoint_uses(ends):
    """(distinct endpoints, how many chords share each)."""
    return np.unique(ends.reshape(-1, ends.shape[-1]), axis=0,
                     return_counts=True)


def test_level_polyline_plane_circle_length():
    mesh = flat_disk(radius=2.0, rings=96, sectors=192)
    tris, ends, t = level_chords(mesh, np.zeros(3), 1.0)
    assert ends.shape == (len(tris), 2, 3)
    assert chord_lengths(ends).sum() == pytest.approx(2 * np.pi, rel=1e-3)
    # every point radially projected onto the sphere
    r = np.linalg.norm(ends, axis=2)
    assert np.max(np.abs(r - t)) <= 1e-9 * t
    # neighbouring chords meet in one shared point: the circle is closed
    assert np.all(endpoint_uses(ends)[1] == 2)


def test_level_polyline_empty_below_neck():
    mesh = mesh_from_chart(catenoid_chart(c=1.0, u_max=2.0), (48, 64))
    tris, ends, _ = level_chords(mesh, np.zeros(3), 0.5)
    assert len(tris) == 0
    assert ends.shape == (0, 2, 3)


def test_level_polyline_catenoid_two_loops():
    mesh = mesh_from_chart(catenoid_chart(c=1.0, u_max=2.0), (48, 64))
    _, ends, _ = level_chords(mesh, np.zeros(3), 2.5)
    # the loops sit on opposite sides of the neck plane, mirror images
    z = ends[:, :, 2]
    assert np.all(np.sign(z[:, 0]) == np.sign(z[:, 1]))
    assert np.all(z[:, 0] != 0.0)
    lengths = chord_lengths(ends)
    upper, lower = lengths[z[:, 0] > 0].sum(), lengths[z[:, 0] < 0].sum()
    assert upper > 2 * np.pi
    assert upper == pytest.approx(lower, rel=1e-12)


def test_level_polyline_snaps_off_vertices():
    mesh = flat_disk(radius=2.0, rings=40, sectors=64)
    # ring radii include exactly 1.0 -> vertices at distance 1.0 from center
    r_hit = float(np.linalg.norm(mesh.vertices, axis=1)[33])
    _, ends, t = level_chords(mesh, np.zeros(3), r_hit)
    assert t > r_hit
    assert np.all(np.abs(np.linalg.norm(mesh.vertices, axis=1) - t) > 1e-9 * t)
    assert chord_lengths(ends).sum() == pytest.approx(2 * np.pi * r_hit, rel=1e-3)


def test_level_polyline_open_path_on_boundary_crossing_sphere():
    mesh = mesh_from_chart(flat_square_chart(1.0), (30, 30))
    _, ends, _ = level_chords(mesh, np.zeros(3), 1.2)  # sphere exits the square
    # arc total: 4 corner arcs of a circle radius 1.2 inside the square
    ang = 2 * (np.pi / 4 - np.arccos(1.0 / 1.2))
    assert chord_lengths(ends).sum() == pytest.approx(4 * ang * 1.2, rel=2e-3)
    # each arc has two ends of its own, on the square's rim (up to the
    # radial projection of the rim chord's crossing point)
    points, uses = endpoint_uses(ends)
    assert np.count_nonzero(uses == 1) == 8
    assert np.all((uses == 1) | (uses == 2))
    loose = points[uses == 1]
    assert np.allclose(np.abs(loose[:, :2]).max(axis=1), 1.0, atol=1e-3)


def test_level_polyline_segment_owners_are_crossing_triangles():
    mesh = flat_disk(radius=1.5, rings=32, sectors=48)
    tris, ends, t = level_chords(mesh, np.zeros(3), 0.8)
    assert np.all(np.diff(tris) > 0)
    d = np.linalg.norm(mesh.vertices, axis=1)[mesh.triangles[tris]]
    assert np.all((d.min(axis=1) < t) & (d.max(axis=1) > t))
    # no other triangle is crossed
    assert len(tris) == np.count_nonzero(
        (np.linalg.norm(mesh.vertices, axis=1)[mesh.triangles] > t).sum(axis=1)
        % 3 != 0)
    # each chord lies in the plane of its triangle
    corners = mesh.corners()[tris]
    normal = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    offset = np.einsum("mkn,mn->mk", ends - corners[:, :1], normal)
    assert np.max(np.abs(offset)) <= 1e-12


def test_level_chords_distance_cache_never_returns_a_stale_center(coarse):
    mesh = coarse("catenoid").mesh
    centers = [np.zeros(3), np.array([1.0, 0.0, 0.0])]
    for center in [*centers, *centers[::-1]]:
        got = level_chords(mesh, center, 3.0)
        want = level_chords(SimplicialSurface(mesh.vertices, mesh.triangles),
                            center, 3.0)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]


def report_levels(mesh, base):
    """Every level a report traces the flux at (see compute_report)."""
    r_hi = max_safe_radius(mesh, base)
    return np.union1d(level_grid(mesh, base, 24),
                      [*np.geomspace(0.5 * r_hi, r_hi, 4), 0.7 * r_hi])


@pytest.mark.parametrize("name, preset, base", [
    *[(name, preset, None) for name in catalog_names()
      for preset in ("coarse", "default")],
    ("catenoid", "coarse", [1.0, 0.0, 0.0]),
    ("enneper", "coarse", [0.0, 0.0, 0.0]),
], ids=lambda v: "base" if v is None else str(v))
def test_level_chords_equal_the_polyline_segments(request, name, preset, base):
    spec = request.getfixturevalue(preset)(name)
    mesh = spec.mesh
    base = spec.base_point if base is None else np.asarray(base)
    levels = report_levels(mesh, base)
    profile = flux_profile(mesh, base, levels)
    for k, level in enumerate(levels):
        tris, ends, t = level_chords(mesh, base, level)
        curve = level_polyline(mesh, base, level)
        assert t == curve[3]
        if len(tris) == 0:
            assert curve[0] == [] and profile.raw[k] == 0.0
            continue
        A, B, owners = polyline_segments(curve)
        order = np.argsort(owners)
        assert np.array_equal(owners[order], tris)
        A, B = A[order].view(np.int64), B[order].view(np.int64)
        P, Q = ends[:, 0].view(np.int64), ends[:, 1].view(np.int64)
        same = np.all(A == P, axis=1) & np.all(B == Q, axis=1)
        flipped = np.all(A == Q, axis=1) & np.all(B == P, axis=1)
        assert np.all(same | flipped), (level, np.count_nonzero(~(same | flipped)))
        _, gauss, length = curve_flux(mesh, curve, base)
        assert profile.raw[k] == pytest.approx(gauss, rel=1e-14, abs=0.0)
        assert profile.curve_lengths[k] == pytest.approx(length, rel=1e-14,
                                                         abs=0.0)


# ---------------------------------------------------------------- invariance


def random_rigid_motion(rng, n=3):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.normal(size=n) * 3.0


def test_rigid_motion_invariance_of_measure_and_levels():
    rng = np.random.default_rng(11)
    mesh = mesh_from_chart(catenoid_chart(c=1.0, u_max=1.5), (32, 48))
    a = np.array([0.2, -0.1, 0.3])
    t = 2.0
    area0 = radial_integrals(mesh, a, [t]).sum()
    len0 = chord_lengths(level_chords(mesh, a, t)[1]).sum()
    for _ in range(3):
        q, shift = random_rigid_motion(rng)
        moved = SimplicialSurface(
            mesh.vertices @ q.T + shift,
            mesh.triangles,
            mesh.boundary_edges,
            mesh.truncation_radius,
        )
        a2 = q @ a + shift
        area1 = radial_integrals(moved, a2, [t]).sum()
        len1 = chord_lengths(level_chords(moved, a2, t)[1]).sum()
        assert abs(area1 - area0) <= 1e-10 * max(1.0, area0)
        assert abs(len1 - len0) <= 1e-10 * max(1.0, len0)
