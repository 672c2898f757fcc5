"""Section counting, sphere identities, and the radial-projection Jacobian.

Deterministic oracles:
* any line through a sphere's center meets it twice
* the catenoid axis misses the surface, a horizontal line through the
  origin crosses the neck twice
* a w-directed 2-plane section of {w = z^2} pins z, so it counts once; a
  z-directed section at w = c != 0 sees both square roots
* random lines from the origin hit the plane {z = h} inside |x| < R with
  probability 1 - h/R
* the corner-cap cull drops no pair that counts: the pair test on all
  (triangle, section) pairs gives the same counts and undecided flags, and
  the angular cap index for lines and the triangle groups for 2-planes
  propose every pair the flat cull keeps
* a section along a corner direction of a triangle, turned up to 1e-13 rad,
  meets that triangle's corner cap in every cull
* a line through the origin meets a spherical region's flat triangle exactly
  when its direction, or the opposite one, lies on the positive side of all
  three edge planes
* the Plucker hit test agrees with the per-dimension Cramer solves it
  replaced (counting_oracle.py) on every pair that it decides and they do
  not call gray, and leaves pairs of sections through a vertex or along an
  edge undecided
* every pair the float error bounds decide, among sections turned up to
  1e-10 rad off a vertex, an edge, a parallel and a centroid, and every pair
  a count settles, gets the hits of a Cramer solve in rationals alone, ties
  broken by the same symbolic shift (counting_oracle.py)
"""
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mingauge import intgeom as ig
from mingauge import invariants as inv
from mingauge.catalog import build_surface, catalog_names, spherical_region
from mingauge.errors import IdentityNotApplicableError
from mingauge.geometry import (on_mesh, on_surface_tolerance, orthonormal_frame,
                               tangent_part)
from mingauge.geometry.types import triangle_centroids, triangle_frames
import counting_oracle
from meshing_oracle import whole_centroids, whole_corners, whole_frames
from quadrature_oracle import (cut_cell_shells, defect_integrand,
                               in_plane_one_pass)


def _frames(directions):
    """(sections, complements) along (S, k, n) direction rows: each section's
    rows orthonormalized with the R-diagonal sign fix, then completed."""
    d = np.asarray(directions, dtype=float)
    return ig._signed_qr_frames(np.swapaxes(d, 1, 2), d.shape[1])


class _GivenSections:
    """Given (sections, complements) handed to ``_count_sections`` block by
    block, as ``intgeom._SectionDraws`` hands out drawn ones."""

    def __init__(self, sections, complements):
        self.count = len(sections)
        self._frames, self._at = (sections, complements), 0

    def take(self, m):
        lo, self._at = self._at, self._at + m
        return tuple(f[lo:self._at].copy() for f in self._frames)


def _count(mesh, base, directions, radius):
    """(counts (S,), jittered) of the sections through ``base`` along the
    (S, n-2, n) ``directions`` rows inside ``radius``."""
    given = _GivenSections(*_frames(directions))
    out = ig._count_sections(mesh, base, given, [radius])
    return out.counts[0], out.jittered


def _count_one(mesh, base, directions, radius):
    """Intersection count of the one section through ``base`` along the
    ``directions`` rows, completed to an orthonormal frame."""
    return int(_count(mesh, base, [directions], radius)[0][0])


def _jacobian_integrand(mesh, center):
    """``radial_jacobian`` as a mesh integrand (points, owners) -> values."""
    frames = whole_frames(mesh)
    return lambda points, owners: ig.radial_jacobian(
        points, frames[owners], center)


def _sides(mesh, which):
    """First corners ``A`` and sides ``B - A``, ``C - A`` of the triangles
    ``which``."""
    tri = mesh.corners(which)
    return tri[:, 0], tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]


def _rotz(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# --------------------------------------------------------------------------
# constants and sampling


def test_counting_bound_constant_two_routes():
    expected = {1: np.pi, 2: 8.0, 3: 6 * np.pi}
    for p, val in expected.items():
        a = ig.counting_bound_constant(p)
        b = ig.counting_bound_constant(p, route="sphere")
        assert a == pytest.approx(val, rel=1e-12)
        assert abs(a - b) <= 1e-12 * abs(a)
    with pytest.raises(ValueError):
        ig.counting_bound_constant(2, route="volume")


def test_intgeom_loads_neither_invariants_nor_ends():
    # crofton imports intgeom alone; the radial invariants and the end count
    # are not on its path
    code = ("import sys, mingauge.intgeom; print(sorted(m for m in ("
            "'mingauge.invariants', 'mingauge.ends') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("n,p", [(3, 2), (4, 2)])
def test_grassmann_frames_orthonormal(n, p, rng):
    sec, comp = ig.sample_grassmann(n, p, 200, rng)
    assert sec.shape == (200, n - p, n) and comp.shape == (200, p, n)
    gram_s = np.einsum("mkn,mjn->mkj", sec, sec)
    gram_c = np.einsum("mkn,mjn->mkj", comp, comp)
    cross = np.einsum("mkn,mjn->mkj", sec, comp)
    assert np.abs(gram_s - np.eye(n - p)).max() < 1e-12
    assert np.abs(gram_c - np.eye(p)).max() < 1e-12
    assert np.abs(cross).max() < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_blockwise_frames_equal_one_qr_call(n):
    # QR-factoring block by block, across a block edge, gives the frames
    # one stacked call gives, bit for bit
    m = 2 * ig._BLOCK_FRAMES + 5
    draws = np.random.default_rng(n).standard_normal((m, n, n))
    q, r = np.linalg.qr(draws, mode="complete")
    sign = np.sign(np.diagonal(r, axis1=1, axis2=2))
    q *= sign[:, None, :]
    sec, comp = ig._signed_qr_frames(draws, n - 2)
    assert sec.tobytes() == np.swapaxes(q[:, :, :n - 2], 1, 2).tobytes()
    assert comp.tobytes() == np.swapaxes(q[:, :, n - 2:], 1, 2).tobytes()


def test_grassmann_moments(rng):
    # lines in R^3: E<e, d>^2 = 1/3, sd of the mean = sqrt(4/45/m)
    sec, _ = ig.sample_grassmann(3, 2, 100000, rng)
    d = sec[:, 0, :]
    m2 = (d[:, 2] ** 2).mean()
    assert abs(m2 - 1 / 3) < 4 * np.sqrt(4 / 45 / 100000)
    # planes in R^4: |proj e|^2 is Beta(1,1) = U(0,1), so mean 1/2, var 1/12
    sec4, _ = ig.sample_grassmann(4, 2, 100000, rng)
    e = np.zeros(4)
    e[3] = 1.0
    proj = np.einsum("mkn,n->mk", sec4, e)
    m2 = (proj**2).sum(axis=1).mean()
    assert abs(m2 - 0.5) < 4 * np.sqrt(1 / 12 / 100000)


def test_explicit_frames_are_completed():
    # a direction row is normalized (up to sign) and completed by an
    # orthonormal complement
    sec, comp = _frames([[[3.0, 4.0, 0.0]]])
    assert sec.shape == (1, 1, 3) and comp.shape == (1, 2, 3)
    frame = np.concatenate([sec[0], comp[0]])
    np.testing.assert_allclose(frame @ frame.T, np.eye(3), atol=1e-15)
    assert abs(sec[0, 0] @ [0.6, 0.8, 0.0]) == pytest.approx(1.0, abs=1e-15)


# --------------------------------------------------------------------------
# deterministic section counts


def test_line_through_sphere_center_counts_two(sphere_coarse):
    center = np.array([0.0, 0.0, 2.0])
    for d in [(0, 0, 1.0), (0.3, 0.4, 0.5), (1.0, 0, 0)]:
        assert _count_one(sphere_coarse.mesh, center, [d], 1.5) == 2


def test_catenoid_axis_and_neck_lines(catenoid_coarse):
    m = catenoid_coarse.mesh
    assert _count_one(m, np.zeros(3), [[0.0, 0, 1.0]], 50.0) == 0
    horiz = [[np.cos(0.23), np.sin(0.23), 0]]
    assert _count_one(m, np.zeros(3), horiz, 50.0) == 2


def test_generic_line_hits_plane_once(plane_coarse):
    assert _count_one(plane_coarse.mesh, np.zeros(3), [[0.1, -0.2, 1.0]],
                      10.0) == 1


def test_vertex_hit_settled_exactly(catenoid_coarse):
    # aim exactly at the neck vertex at angle 0; the hit lands on a corner,
    # its pairs are undecided, and settling them exactly must still give
    # the two neck crossings
    counts, jittered = _count(catenoid_coarse.mesh, np.zeros(3),
                              [[[1.0, 0.0, 0.0]]], 50.0)
    assert jittered >= 1
    assert counts[0] == 2


def test_unreachable_parallel_triangles_are_not_settled(plane_coarse):
    # the line lies in z = 0, parallel to every triangle of the plane z = 1;
    # inside radius 5 no triangle's corner cap reaches it, so none is
    # tested, while at radius 196 the caps of the large outer triangles do.
    # Their weights C_i sum to D ~ 0 but lie far from 0, of both signs, so
    # each of those near-parallel pairs is a sure miss and none is settled
    given = _GivenSections(*_frames([[[np.cos(0.23), np.sin(0.23), 0.0]]]))
    out = ig._count_sections(plane_coarse.mesh, np.zeros(3), given, [5.0])
    assert out.counts[0, 0] == 0 and out.jittered == out.pairs_tested == 0
    given = _GivenSections(*_frames([[[np.cos(0.23), np.sin(0.23), 0.0]]]))
    out = ig._count_sections(plane_coarse.mesh, np.zeros(3), given, [196.0])
    assert out.counts[0, 0] == 0 and out.jittered == 0
    assert out.pairs_tested == 102


def test_parabola_plane_sections_exact(parabola_coarse):
    m = parabola_coarse.mesh
    w_dirs = np.array([[0.0, 0, 1.0, 0], [0.0, 0, 0, 1.0]])
    assert _count_one(m, [0.3, 0.17, 0.0, 0.0], w_dirs, 10.0) == 1
    c = 0.25 * np.exp(0.6j)
    z_dirs = np.array([[1.0, 0, 0, 0], [0.0, 1.0, 0, 0]])
    assert _count_one(m, [0.0, 0.0, c.real, c.imag], z_dirs, 5.0) == 2


def test_on_surface_base_rejected(parabola_coarse):
    w_dirs = [[0.0, 0, 1.0, 0], [0.0, 0, 0, 1.0]]
    with pytest.raises(IdentityNotApplicableError, match="ill-posed"):
        _count_one(parabola_coarse.mesh, np.zeros(4), w_dirs, 10.0)


@pytest.mark.parametrize("name", ["catenoid", "complex_parabola_r4"])
def test_base_on_a_mesh_edge_rejected(coarse, name):
    # every section through an edge's midpoint meets the edge there, at the
    # base itself, a hit it counts: rejected like a vertex.
    # Every section through a triangle's centroid meets the triangle there,
    # a hit each section counts (mean 1 at any small radius): rejected too,
    # and so is the centroid moved half the on-surface tolerance off the
    # triangle's plane.  The mesh's density reads one sheet at each
    mesh = coarse(name).mesh
    i, j = mesh.interior_edges[len(mesh.interior_edges) // 2]
    tri = mesh.vertices[mesh.triangles[{"catenoid": 5000,
                                        "complex_parabola_r4": 3000}[name]]]
    centroid = (tri[0] + tri[1] + tri[2]) / 3.0
    x = np.ones(len(centroid))
    normal = x - tangent_part(x, triangle_frames(tri))
    normal /= np.linalg.norm(normal)
    off = centroid + 0.5 * on_surface_tolerance(centroid) * normal
    for base in (0.5 * (mesh.vertices[i] + mesh.vertices[j]), centroid, off):
        assert on_mesh(mesh, base)[1] == 1
        radius = 0.5 * inv.max_safe_radius(mesh, base)
        with pytest.raises(IdentityNotApplicableError,
                           match="on a mesh edge or inside a mesh triangle"):
            ig.counting_sweep(mesh, base, [radius], samples=200, seed=1)


def test_counting_guards(catenoid_coarse):
    m, a = catenoid_coarse.mesh, catenoid_coarse.base_point
    with pytest.raises(ValueError, match="exceeds"):
        ig.counting_sweep(m, a, [500.0], samples=200, seed=1)
    with pytest.raises(ValueError, match="increasing"):
        ig.counting_sweep(m, a, [10.0, 5.0], samples=200, seed=1)
    with pytest.raises(ValueError, match="seed"):
        ig.counting_sweep(m, a, [10.0], samples=200)
    with pytest.raises(ValueError, match="samples"):
        ig.counting_sweep(m, a, [10.0], samples=50, seed=1)


# --------------------------------------------------------------------------
# the cull against all pairs


def _all_pairs_counts(hit_test, T, complements, radii):
    """Dense oracle: the pair test on every (triangle, section) pair."""
    S = len(complements)
    counts = np.empty((len(radii), S), dtype=np.int64)
    gray = np.empty(S, dtype=bool)  # sections with an undecided pair
    step = max(1, 100_000 // T)
    for lo in range(0, S, step):
        sl = slice(lo, min(lo + step, S))
        comp = complements[sl]
        ti, si = np.divmod(np.arange(T * len(comp)), len(comp))
        hits, g = hit_test(comp, ti, si, radii)
        counts[:, sl], gray[sl] = ig._per_section(si, hits, g, len(comp))
    return counts, gray


@pytest.mark.parametrize("name", ["catenoid", "enneper", "helicoid"])
def test_cap_index_equals_one_stable_sort(coarse, monkeypatch, name):
    # the index built in chunks lists the same triangles in the same order
    # as one stable sort of every listing, across chunk edges
    spec = coarse(name)
    r_hi = inv.max_safe_radius(spec.mesh, spec.base_point)
    tri = ig._pruned_triangles(spec.mesh, spec.base_point, r_hi)
    seen, build = [], ig._cap_index
    monkeypatch.setattr(ig, "_cap_index",
                        lambda *args: seen.append(args) or build(*args))
    ig._cap_cull(tri.center, tri.radius)
    (args,) = seen
    got, want = build(*args), counting_oracle.cap_index_one_sort(*args)
    assert len(got[0]) > 2 * ig._CAP_CHUNK
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _planted_lines():
    """Line directions on the phi = +-pi seam and within 1e-3 of both poles."""
    seam = [[-np.cos(a), y, np.sin(a)]
            for a in (-1.2, -0.3, 0.0, 0.7) for y in (0.0, -0.0, 1e-12, -1e-12)]
    poles = [[np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), z * np.cos(t)]
             for t in (1e-9, 3e-4, 1e-3) for p in (0.1, 2.0, -2.9)
             for z in (1.0, -1.0)]
    return _frames(np.array(seam + poles)[:, None, :])


# bases nearer to some triangles than their reach: just inside the catenoid's
# neck, so the cap index has caps it must test against every line, and 0.02
# off {w = z^2} at z = 0.5, so some triangle groups pass every 2-plane
_NEAR_SURFACE = {
    "catenoid_near_surface": ("catenoid", [0.98, 0.0, 0.0]),
    "complex_parabola_r4_near_surface": ("complex_parabola_r4",
                                         [0.5, 0.0, 0.27, 0.0]),
}


@pytest.mark.parametrize("case", [*catalog_names(), *_NEAR_SURFACE])
def test_on_mesh_matches_the_whole_mesh_distance(coarse, case):
    # on_mesh examines only the triangles its side bound keeps; the least
    # near2 of the whole mesh (the one-pass oracle) gives the same distance
    # wherever that lies within reach.  The density reads no sheet at the
    # base and one at a vertex, an edge midpoint and a centroid of a
    # triangle at the base's nearest vertex
    name, base = _NEAR_SURFACE.get(case, (case, None))
    spec = coarse(name)
    mesh = spec.mesh
    base = spec.base_point if base is None else np.asarray(base, dtype=float)
    k = np.argmin(np.linalg.norm(mesh.vertices - base, axis=1))
    tri = mesh.vertices[mesh.triangles[np.any(mesh.triangles == k, axis=1)][0]]
    for b, sheets in ((base, 0), (tri[0], 1), (0.5 * (tri[0] + tri[1]), 1),
                      ((tri[0] + tri[1] + tri[2]) / 3.0, 1)):
        want = np.sqrt(in_plane_one_pass(mesh, b)[2].min())
        reach = max(1e-3 * inv.max_safe_radius(mesh, b),
                    on_surface_tolerance(b))
        assert on_mesh(mesh, b) == (want if want <= reach else np.inf, sheets)
    assert case not in _NEAR_SURFACE or on_mesh(mesh, base)[0] < np.inf


@pytest.mark.parametrize("case", [*catalog_names(), *_NEAR_SURFACE])
def test_cull_keeps_every_pair_that_counts(coarse, case):
    name, base = _NEAR_SURFACE.get(case, (case, None))
    spec = coarse(name)
    mesh = spec.mesh
    base = spec.base_point if base is None else np.asarray(base)
    assert on_mesh(mesh, base)[1] == 0
    r_hi = inv.max_safe_radius(mesh, base)
    radii = np.geomspace(0.3 * r_hi, r_hi, 5)
    n = mesh.vertices.shape[1]
    sec, comp = ig.sample_grassmann(n, 2, 256, np.random.default_rng(11))
    tri = ig._pruned_triangles(mesh, base, r_hi)
    rim = ig._rims(tri.radius)
    hit_test = ig._hit_test(mesh, base, tri)
    # the index (lines) or the groups (2-planes) propose a superset of the
    # flat cull's pairs; the cap test keeps the same pairs, each once
    if n == 3:
        culled = np.concatenate([sec, _planted_lines()[0]])
        cull, _ = ig._cap_cull(tri.center, tri.radius)
        share = 0.05
    else:
        culled = sec
        cull, _ = ig._group_cull(tri.center, tri.radius)
        share = 0.25  # the group tests dominate on a coarse mesh
    ci, cs, proposed = cull(culled)
    flat_ti, flat_si, cells = ig._cull_pairs(tri.center, rim, culled)
    keys = ci.astype(np.int64) * len(culled) + cs
    assert len(np.unique(keys)) == len(keys)
    assert np.array_equal(np.sort(keys),
                          np.sort(flat_ti.astype(np.int64) * len(culled)
                                  + flat_si))
    assert len(ci) <= proposed < share * cells
    assert (case not in _NEAR_SURFACE
            or np.any(tri.radius > ig._CAP_MAX_ANGLE))

    ti, si, _ = ig._cull_pairs(tri.center, rim, sec)
    hits, gray = hit_test(comp, ti, si, radii)
    counts, gray = ig._per_section(si, hits, gray, len(sec))
    dense_counts, dense_gray = _all_pairs_counts(hit_test, len(tri.kept),
                                                 comp, radii)
    assert np.array_equal(counts, dense_counts)
    assert np.array_equal(gray, dense_gray)
    assert counts[-1].sum() > 0
    assert len(ti) < 0.05 * len(tri.kept) * len(sec)  # the cull drops pairs


@pytest.mark.parametrize("case", [*catalog_names(), *_NEAR_SURFACE])
def test_sections_through_a_corner_survive_every_cull(coarse, case):
    # lines along each corner direction of every pruned triangle, and in R^4
    # 2-planes holding one and square to the triangle's cap center there (so
    # their angle to the center is the corner's), each also turned 1e-16 and
    # 1e-13 rad: the cap index or the groups propose each such section with
    # its own triangle, and the cap test on that pair alone keeps it.
    # Without _CAP_MARGIN thousands of them fall outside their own cap
    name, base = _NEAR_SURFACE.get(case, (case, None))
    spec = coarse(name)
    mesh = spec.mesh
    base = spec.base_point if base is None else np.asarray(base, dtype=float)
    tri = ig._pruned_triangles(mesh, base, inv.max_safe_radius(mesh, base))
    n, rim = len(base), ig._rims(tri.radius)
    cull = (ig._cap_cull if n == 3 else ig._group_cull)(tri.center,
                                                         tri.radius)[0]
    for lo in range(0, len(tri.kept), 512):
        d = mesh.corners(tri.kept[lo:lo + 512]) - base
        rows = d.reshape(-1, 1, n)
        if n == 4:
            v = rows[:, 0] / np.linalg.norm(rows[:, 0], axis=1)[:, None]
            c = np.repeat(tri.center[lo:lo + 512], 3, axis=0)
            c -= np.einsum("sn,sn->s", c, v)[:, None] * v
            c /= np.linalg.norm(c, axis=1)[:, None]
            w = np.array([0.3, -0.5, 0.7, 0.2])
            w = w - (v @ w)[:, None] * v - (c @ w)[:, None] * c
            rows = np.stack([v, w], axis=1)
        sec = _frames(np.concatenate([_turned(rows, angle) for angle in
                                      (0.0, 1e-16, 1e-13)]))[0]
        own = np.tile(np.repeat(np.arange(len(d)), 3), 3)
        ti, si, _ = cull(sec)
        assert np.bincount(si[ti == lo + own[si]], minlength=len(sec)).all()
        ti, si, _ = ig._cull_pairs(tri.center[lo:lo + 512], rim[lo:lo + 512],
                                   sec)
        assert np.bincount(si[ti == own[si]], minlength=len(sec)).all()


def test_plane_counting_work_on_the_benchmark_config(default):
    # a work count, not a timing: at the parabola report's counting config
    # (1,000 samples, seed 11, default radii) the grouped cull keeps the flat
    # cull's pairs and proposes under a tenth of the triangle x section cells,
    # so a fallback to the flat cull fails here
    spec = default("complex_parabola_r4")
    r_hi = inv.max_safe_radius(spec.mesh, spec.base_point)
    out = ig.counting_sweep(spec.mesh, spec.base_point,
                            np.geomspace(0.3 * r_hi, r_hi, 5), samples=1000,
                            seed=11)
    assert out["pairs_tested"] == 44_754
    assert out["candidates"] <= 0.1 * out["cells"]


def _planted_edge_cases(A, e1, e2, base):
    """Sections through a mesh vertex, through a triangle edge (containing
    it for 2-planes, crossing its midpoint for lines) and parallel to a
    triangle, all at the middle pruned triangle."""
    k = len(A) // 2
    vertex, edge = A[k] - base, A[k] + 0.5 * e1[k] - base
    if len(base) == 3:
        rows = [[vertex], [edge], [e1[k]]]
    else:
        rows = [[vertex, [0.3, -0.5, 0.7, 0.2]], [vertex, edge],
                [e1[k], e2[k]]]
    return _frames(rows)


@pytest.mark.parametrize("case", [*catalog_names(), *_NEAR_SURFACE])
def test_hit_test_matches_the_cramer_oracle(coarse, case):
    # the Plucker test against the per-dimension Cramer solves it replaced,
    # on every (triangle, section) pair and every radius row: the two agree
    # on every pair that neither leaves undecided or calls gray, and the
    # pairs the Plucker test leaves undecided lie in the Cramer tests' gray
    # zone
    name, base = _NEAR_SURFACE.get(case, (case, None))
    spec = coarse(name)
    base = spec.base_point if base is None else np.asarray(base)
    r_hi = inv.max_safe_radius(spec.mesh, base)
    radii = np.geomspace(0.3 * r_hi, r_hi, 5)
    n = len(base)
    tri = ig._pruned_triangles(spec.mesh, base, r_hi)
    A, e1, e2 = _sides(spec.mesh, tri.kept)
    frames = [ig.sample_grassmann(n, 2, 256, np.random.default_rng(11)),
              _planted_edge_cases(A, e1, e2, base)]
    if n == 3:
        frames.append(_planted_lines())
        old = counting_oracle._line_hit_test(A, e1, e2, base)
    else:
        old = counting_oracle._plane_hit_test(A, e1, e2, base)
    sec, comp = (np.concatenate(f) for f in zip(*frames))
    new = ig._hit_test(spec.mesh, base, tri)
    S, T = len(sec), len(A)
    counts = np.empty((2, len(radii), S), dtype=np.int64)
    gray = np.empty((2, S), dtype=bool)
    compared, odd = 0, []
    step = max(1, 100_000 // T)
    for lo in range(0, S, step):
        sl = slice(lo, min(lo + step, S))
        ti, si = np.divmod(np.arange(T * len(sec[sl])), len(sec[sl]))
        pairs = [new(comp[sl], ti, si, radii),
                 old(sec[sl], comp[sl], ti, si, radii,
                     counting_oracle.EDGE_EPS)]
        outside = np.flatnonzero(pairs[0][1] & ~pairs[1][1])
        odd += zip((si[outside] + lo).tolist(), ti[outside].tolist())
        clear = ~(pairs[0][1] | pairs[1][1])
        assert np.array_equal(pairs[0][0][:, clear], pairs[1][0][:, clear])
        compared += clear.sum()
        for j, (hits, g) in enumerate(pairs):
            counts[j, :, sl], gray[j, sl] = ig._per_section(si, hits, g,
                                                            len(sec[sl]))
    assert compared > 0.9 * S * T
    assert odd == []
    assert np.array_equal(counts[0, :, :256], counts[1, :, :256])
    assert not gray[:, :256].any()
    assert counts[0, -1, :256].sum() > 0
    # some pairs through a vertex and along an edge are undecided, and some
    # parallel to a triangle: the 2-plane parallel to it in R^4 (every C_i
    # ~ 0), and on the helicoid and Enneper meshes the line parallel to a
    # side of other triangles it reaches (that side's C_i = 0)
    parallel = case not in ("catenoid", "plane", "sphere",
                            "catenoid_near_surface")
    assert gray[0, 256:259].tolist() == [True, True, parallel]


# the catenoid `coarse` vertex nearest |x| = 10 moved this far along its
# normal: sections through such a base meet the vertex's triangles near
# their corners and sides
_NEAR_VERTEX = {"catenoid_5e-8_off_a_vertex": 5e-8,
                "catenoid_5e-6_off_a_vertex": 5e-6}


def _rational_hits(mesh, kept, base, comp, ti, si, radii):
    """``counting_oracle.rational_hits`` of the pairs (``ti`` indexing
    ``kept``, ``si`` the complements ``comp``), as (num_radii, pairs)."""
    corners = mesh.corners(kept[ti])
    return np.array([counting_oracle.rational_hits(corners[j], base,
                                                   comp[si[j]], radii)
                     for j in range(len(ti))], dtype=bool).reshape(
                         len(ti), len(radii)).T


@pytest.mark.parametrize("case", [*_NEAR_VERTEX, *catalog_names(),
                                  *_NEAR_SURFACE])
def test_settled_gray_pairs_match_the_rational_oracle(
        coarse, off_catenoid_vertex, monkeypatch, case):
    # every pair a count settles gets the hits that rationals alone give
    # (counting_oracle): the planted edge cases and lines at each surface's
    # base, some of whose pairs are settled.  From the near-vertex bases the
    # float bounds decide every pair of a report's 2,000 sections (seed 11),
    # and every pair of the vertex's triangles gets the rational hits
    name, base = _NEAR_SURFACE.get(case, (case, None))
    if case in _NEAR_VERTEX:
        name, base = "catenoid", off_catenoid_vertex(_NEAR_VERTEX[case])
    spec = coarse(name)
    mesh = spec.mesh
    base = spec.base_point if base is None else np.asarray(base)
    r_hi = inv.max_safe_radius(mesh, base)
    radii = np.geomspace(0.3 * r_hi, r_hi, 5)
    tri = ig._pruned_triangles(mesh, base, r_hi)
    kept = tri.kept
    if case in _NEAR_VERTEX:
        frames = [ig.sample_grassmann(3, 2, 2000, np.random.default_rng(11))]
    else:
        frames = [_planted_edge_cases(*_sides(mesh, kept), base)]
        frames += [_planted_lines()] if len(base) == 3 else []
    sec, comp = (np.concatenate(f) for f in zip(*frames))
    settled, settle = [], ig._settle

    def spy(*args):
        settled.append((args, settle(*args)))
        return settled[-1][1]

    monkeypatch.setattr(ig, "_settle", spy)
    ig._count_sections(mesh, base, _GivenSections(sec, comp), radii)
    for (corners, at, rows, cuts), hits in settled:
        for j in range(len(corners)):
            want = counting_oracle.rational_hits(corners[j], at, rows[j], cuts)
            assert hits[:, j].tolist() == want
    pairs = sum(len(args[0]) for args, _ in settled)
    if case not in _NEAR_VERTEX:
        assert pairs > 0
        return
    assert pairs == 0
    k = np.argmin(np.linalg.norm(mesh.vertices - base, axis=1))
    around = np.flatnonzero(np.isin(kept, np.flatnonzero(
        (mesh.triangles == k).any(axis=1))))
    ti, si = (a.ravel() for a in np.meshgrid(around, np.arange(len(sec))))
    hits, rest = ig._hit_test(mesh, base, tri)(comp, ti, si, radii)
    assert len(around) == 4 and not rest.any()
    assert np.array_equal(hits, _rational_hits(mesh, kept, base, comp, ti,
                                               si, radii))
    assert hits[-1].sum() > 0


def _turned(rows, angle):
    """Section rows (S, n-2, n) with each first row turned by ``angle``
    radians toward a fixed direction square to it."""
    rows = np.array(rows, dtype=float)
    first = rows[:, 0] / np.linalg.norm(rows[:, 0], axis=1)[:, None]
    w = np.array([0.3, -0.5, 0.7, 0.2][:rows.shape[2]])
    w = w - (first @ w)[:, None] * first
    rows[:, 0] = (np.cos(angle) * first
                  + np.sin(angle) * w / np.linalg.norm(w, axis=1)[:, None])
    return rows


@pytest.mark.parametrize("case", [*catalog_names(), *_NEAR_SURFACE])
def test_float_bounds_decide_only_what_rationals_confirm(coarse, case):
    # sections through a vertex, through an edge's midpoint, parallel to a
    # triangle and through its centroid, each turned 0, 1e-16, 1e-13 and
    # 1e-10 rad, cut at the vertex's, the midpoint's and the centroid's
    # distances from the base and at twice the largest: every culled pair
    # that the float bounds decide gets the hits rationals give
    # (counting_oracle), some of them hits, and some pairs are left to
    # rationals
    name, base = _NEAR_SURFACE.get(case, (case, None))
    spec = coarse(name)
    mesh = spec.mesh
    base = spec.base_point if base is None else np.asarray(base, dtype=float)
    r_hi = inv.max_safe_radius(mesh, base)
    A, e1, e2 = _sides(mesh, ig._pruned_triangles(mesh, base, r_hi).kept)
    k, n = len(A) // 2, len(base)
    marks = np.array([A[k], A[k] + 0.5 * e1[k], A[k] + (e1[k] + e2[k]) / 3])
    vertex, edge, centroid = marks - base
    if n == 3:
        rows = [[vertex], [edge], [e1[k]], [centroid]]
    else:
        other = [0.3, -0.5, 0.7, 0.2]
        rows = [[vertex, other], [vertex, edge], [e1[k], e2[k]],
                [centroid, other]]
    sec, comp = _frames(np.concatenate([_turned(rows, angle) for angle in
                                        (0.0, 1e-16, 1e-13, 1e-10)]))
    cuts = np.linalg.norm(marks - base, axis=1)
    radii = np.unique(np.r_[cuts, 2 * cuts.max()])
    tri = ig._pruned_triangles(mesh, base, radii[-1])
    ti, si, _ = ig._cull_pairs(tri.center, ig._rims(tri.radius), sec)
    hits, rest = ig._hit_test(mesh, base, tri)(comp, ti, si, radii)
    decided = np.flatnonzero(~rest)
    assert rest.any() and hits[:, decided].any()
    assert np.array_equal(hits[:, decided], _rational_hits(
        mesh, tri.kept, base, comp, ti[decided], si[decided], radii))


# --------------------------------------------------------------------------
# Monte-Carlo counting averages


def test_plane_counting_mean_oracle(plane_coarse):
    radii = np.array([2.0, 5.0, 10.0, 20.0])
    out = ig.counting_sweep(plane_coarse.mesh, plane_coarse.base_point,
                            radii, samples=20000, seed=7)
    expected = 1.0 - 1.0 / radii
    # 5 sigma of the worst level plus a small slack for the meshed-out
    # puncture around the axis
    for k, r in enumerate(radii):
        se = out["ci95"][k] / 1.96
        assert abs(out["means"][k] - expected[k]) <= 5 * se + 2e-3


def test_counting_nondecreasing_shared_samples(catenoid_coarse, parabola_coarse):
    for spec, radii in [
        (catenoid_coarse, [2.0, 5.0, 10.0, 30.0, 60.0]),
        (parabola_coarse, [2.0, 10.0, 30.0]),
    ]:
        out = ig.counting_sweep(spec.mesh, spec.base_point, radii,
                                samples=4000, seed=3)
        assert np.all(np.diff(out["means"]) >= 0), spec.name
        assert out["max_observed"] >= int(np.ceil(out["means"][-1]))


def test_counting_deterministic(catenoid_coarse):
    m, a = catenoid_coarse.mesh, catenoid_coarse.base_point
    s1 = ig.counting_sweep(m, a, [5.0, 20.0], samples=3000, seed=9)
    s2 = ig.counting_sweep(m, a, [5.0, 20.0], samples=3000, seed=9)
    assert np.array_equal(s1["means"], s2["means"])
    assert s1["max_observed"] == s2["max_observed"]
    s3 = ig.counting_sweep(m, a, [5.0, 20.0], samples=3000, seed=10)
    assert not np.array_equal(s1["means"], s3["means"])


def test_counting_rotation_invariance(catenoid_coarse, rng):
    # Haar sections are rotation invariant, so rotated copies of one sample
    # estimate the same mean within joint confidence bands
    m, a = catenoid_coarse.mesh, catenoid_coarse.base_point
    sec, comp = ig.sample_grassmann(3, 2, 12000, rng)
    rot = _rotz(0.37) @ np.array([[1, 0, 0], [0, np.cos(0.9), -np.sin(0.9)],
                                  [0, np.sin(0.9), np.cos(0.9)]])
    counts, counts_r = (
        ig._count_sections(
            m, a, _GivenSections(s, c), [20.0]
        ).counts[0]
        for s, c in [(sec, comp), (sec @ rot.T, comp @ rot.T)])
    se = np.hypot(counts.std(ddof=1), counts_r.std(ddof=1)) / np.sqrt(len(sec))
    assert abs(counts.mean() - counts_r.mean()) <= 5 * se


@pytest.mark.parametrize("name", ["catenoid", "complex_parabola_r4"])
def test_sections_drawn_per_block_count_like_one_draw(coarse, monkeypatch,
                                                      name):
    # the planted sections (through a vertex, along an edge, parallel to a
    # triangle) replace drawn ones in different blocks of 32 sections; with
    # the frames drawn block by block as the count reaches them, the counts,
    # the sections with undecided pairs and the generator's final state are
    # those of frames drawn in one call.  Each planted section through a
    # vertex or along an edge has undecided pairs; on the catenoid the two
    # parallel to a triangle have none, so 4 of the 6 sections are settled
    # there and all 6 on the parabola
    spec = coarse(name)
    mesh, base = spec.mesh, spec.base_point
    r_hi = inv.max_safe_radius(mesh, base)
    radii = np.geomspace(0.3 * r_hi, r_hi, 5)
    n, S = len(base), 300
    kept = ig._pruned_triangles(mesh, base, r_hi).kept
    planted = _planted_edge_cases(*_sides(mesh, kept), base)
    at = [5, 40, 77, 150, 230, 299]  # in blocks 0, 1, 2, 4, 7 and 9

    def plant(sec, comp, lo):
        for k, i in enumerate(at):
            if lo <= i < lo + len(sec):
                sec[i - lo], comp[i - lo] = (f[k % 3] for f in planted)
        return sec, comp

    monkeypatch.setattr(ig, "_BLOCK_CANDIDATES", 1)  # blocks of 32
    rng = np.random.default_rng(23)
    sec, comp = plant(*ig.sample_grassmann(n, 2, S, rng), 0)
    want = ig._count_sections(mesh, base, _GivenSections(sec, comp), radii)

    monkeypatch.setattr(ig, "_BLOCK_FRAMES", 50)
    draw, drawn = ig.sample_grassmann, []

    def planting(n, p, m, g):
        drawn.append(m)
        return plant(*draw(n, p, m, g), sum(drawn) - m)

    monkeypatch.setattr(ig, "sample_grassmann", planting)
    streamed = np.random.default_rng(23)
    draws, taken = ig._SectionDraws(n, S, streamed), []
    take = draws.take
    draws.take = lambda m: taken.append(m) or take(m)
    got = ig._count_sections(mesh, base, draws, radii)
    assert taken == [32] * 9 + [12] and drawn == [32] * 9 + [12]
    assert got.jittered == want.jittered == {"catenoid": 4,
                                             "complex_parabola_r4": 6}[name]
    assert got.counts.tobytes() == want.counts.tobytes()
    assert got.counts.max() == want.counts.max()
    assert got[2:] == want[2:]
    assert streamed.bit_generator.state == rng.bit_generator.state


def test_counting_memory_is_bounded_by_its_blocks(default):
    # catenoid `default` at the report's counting config (1,000 samples,
    # seed 11, radii 0.3 r .. r): counting needs under 12 MiB of numpy
    # memory (9.5 measured); holding the whole-mesh corner gathers, the
    # triangle sides and the cap geometry through the count took 20.1
    spec = default("catenoid")
    mesh, base = spec.mesh, spec.base_point
    r_hi = inv.max_safe_radius(mesh, base)
    radii = np.geomspace(0.3 * r_hi, r_hi, 5)
    mesh.about(base)
    tracemalloc.start()
    try:
        ig.counting_sweep(mesh, base, radii, samples=1000, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


# --------------------------------------------------------------------------
# radial-projection jacobian


def test_radial_jacobian_matches_decomposition(catenoid_coarse, rng):
    m = catenoid_coarse.mesh
    idx = rng.integers(0, len(m.triangles), 64)
    corners = m.corners(idx)
    pts, frames = triangle_centroids(corners), triangle_frames(corners)
    jac = ig.radial_jacobian(pts, frames, np.zeros(3))
    nor = pts - tangent_part(pts, frames)
    r = np.linalg.norm(pts, axis=1)
    alt = np.linalg.norm(nor, axis=1) / r**3
    # the two routes differ by cancellation noise where the normal part is
    # tiny relative to |x|
    np.testing.assert_allclose(jac, alt, rtol=1e-10)


@pytest.mark.parametrize("name", ["catenoid", "enneper"])
def test_radial_jacobian_fd_oracle(coarse, name, rng):
    spec = coarse(name)
    ch = spec.chart
    u = rng.uniform(ch.domain[0] + 0.05, ch.domain[1] - 0.05, 1000)
    v = rng.uniform(ch.domain[2], ch.domain[3], 1000)
    pts = ch.points(u, v)
    xu, xv = ch.derivatives(u, v)
    jac = ig.radial_jacobian(pts, orthonormal_frame(xu, xv), np.zeros(3))

    h = 1e-5

    def ray(uu, vv):
        p = ch.points(uu, vv)
        return p / np.linalg.norm(p, axis=-1, keepdims=True)

    fu = (ray(u + h, v) - ray(u - h, v)) / (2 * h)
    fv = (ray(u, v + h) - ray(u, v - h)) / (2 * h)
    fd = np.linalg.norm(np.cross(fu, fv), axis=-1)
    fd /= np.linalg.norm(np.cross(xu, xv), axis=-1)
    np.testing.assert_allclose(fd, jac, rtol=1e-6)


def test_defect_integrand_dominated_by_jacobian(catenoid_coarse):
    # |x_n|^2/|x|^4 <= |x_n|/|x|^3 pointwise since |x_n| <= |x|
    m, a = catenoid_coarse.mesh, catenoid_coarse.base_point
    pts = np.concatenate([whole_centroids(m), whole_corners(m).reshape(-1, 3)])
    owners = np.concatenate([
        np.arange(len(m.triangles)),
        np.repeat(np.arange(len(m.triangles)), 3),
    ])
    d = defect_integrand(m, a)(pts, owners)
    j = _jacobian_integrand(m, a)(pts, owners)
    assert np.all(d <= j * (1 + 1e-12))


def test_jacobian_counting_chain(catenoid_coarse):
    # integrating the projection jacobian over the ball equals
    # (omega_3 / 2) x the mean line count at the same radius
    m, a = catenoid_coarse.mesh, catenoid_coarse.base_point
    R = 20.0
    fine, change = cut_cell_shells(m, a, [R], _jacobian_integrand(m, a))
    lhs, qerr = fine[0], change[0] / 3.0
    avg = ig.counting_sweep(m, a, [R], samples=30000, seed=4)
    rhs = 2 * np.pi * avg["means"][0]
    ci = 2 * np.pi * avg["ci95"][0]
    assert abs(lhs - rhs) <= ci + qerr + 0.02 * lhs


# --------------------------------------------------------------------------
# spherical regions


def test_geodesic_area_exact_cases():
    full = spherical_region("full")
    hemi = spherical_region("hemisphere", sectors=64)
    assert abs(ig.geodesic_area(full) - 4 * np.pi) < 1e-10
    assert abs(ig.geodesic_area(hemi) - 2 * np.pi) < 1e-10
    cap = spherical_region("cap", np.pi / 3, sectors=64)
    area = ig.geodesic_area(cap)
    exact = 2 * np.pi * (1 - np.cos(np.pi / 3))
    assert area < exact  # inscribed geodesic polygon
    assert area == pytest.approx(exact, rel=2e-3)


def _edge_plane_counts(region, U, eps=counting_oracle.EDGE_EPS):
    """Dense oracle: geodesic triangles holding ``U`` and ``-U``, gray flags.

    A direction lies in a consistently oriented geodesic triangle when it is
    on the positive side of all three edge planes; it is gray within ``eps``
    (relative to the edge normal) of any edge plane.
    """
    v = region.vertices / np.linalg.norm(region.vertices, axis=1)[:, None]
    tri = v[region.triangles]
    flip = np.einsum("tn,tn->t", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])) < 0
    tri[flip] = tri[flip][:, ::-1]
    normals = np.cross(tri, np.roll(tri, -1, axis=1))  # (T, 3 edges, 3)
    scale = np.linalg.norm(normals, axis=2)
    ahead = np.empty(len(U), dtype=np.int64)
    behind = np.empty(len(U), dtype=np.int64)
    gray = np.empty(len(U), dtype=bool)
    for lo in range(0, len(U), 100):
        dots = np.einsum("tkn,sn->stk", normals, U[lo:lo + 100])
        ahead[lo:lo + 100] = (dots > 0).all(axis=2).sum(axis=1)
        behind[lo:lo + 100] = (dots < 0).all(axis=2).sum(axis=1)
        gray[lo:lo + 100] = (np.abs(dots) <= eps * scale).any(axis=(1, 2))
    return ahead, behind, gray


_REGIONS = {"full": {},
            "hemisphere": {"sectors": 64},
            "cap": {"angle": 1.2, "sectors": 64}}


@pytest.mark.parametrize("kind", _REGIONS)
def test_crofton_counts_match_edge_plane_oracle(kind):
    region = spherical_region(kind, **_REGIONS[kind])
    rng = np.random.default_rng(17)
    sec, comp = ig.sample_grassmann(3, 2, 1000, rng)
    planted = _planted_lines()
    sec = np.concatenate([sec, planted[0]])
    comp = np.concatenate([comp, planted[1]])
    (total,) = ig._count_sections(region, np.zeros(3),
                                  _GivenSections(sec, comp), [2.0]).counts
    u = sec[:, 0, :]
    want_ahead, want_behind, gray = _edge_plane_counts(region, u)
    clear = ~gray
    assert clear.sum() >= 1000
    assert np.array_equal(total[clear], (want_ahead + want_behind)[clear])
    if kind == "hemisphere":
        # exactly one of u and -u lies in the upper hemisphere
        clear &= np.abs(u[:, 2]) > 1e-12
        assert np.all(total[clear] == 1)


def test_crofton_full_and_hemisphere_exact():
    for kind, kw, expect in [
        ("full", {}, 4 * np.pi),
        ("hemisphere", {"sectors": 64}, 2 * np.pi),
    ]:
        reg = spherical_region(kind, **kw)
        out = ig.crofton_verify(reg, samples=20000, seed=5)
        assert out["passed"]
        assert out["ci95"] == 0.0  # antipodal pairing kills the variance
        assert out["lhs"] == pytest.approx(expect, abs=1e-10)
        assert out["gap"] <= 1e-9 * expect


def test_crofton_cap(rng):
    reg = spherical_region("cap", np.pi / 3, sectors=64)
    out = ig.crofton_verify(reg, samples=40000, seed=0)
    assert out["passed"], out
    assert out["ci95"] <= 0.01 * out["lhs"]


def test_crofton_requires_seed():
    reg = spherical_region("full")
    with pytest.raises(ValueError, match="seed"):
        ig.crofton_verify(reg, samples=1000)


def test_crofton_deterministic():
    reg = spherical_region("cap", 0.8, sectors=64)
    a = ig.crofton_verify(reg, samples=5000, seed=21)
    b = ig.crofton_verify(reg, samples=5000, seed=21)
    assert a["rhs"] == b["rhs"] and a["ci95"] == b["ci95"]


# --------------------------------------------------------------------------
# counting-based bounds


def defect_counting_bound(mesh, base, radius, samples, seed):
    """Estimate the defect and the section counts at one radius, then check."""
    sweep = ig.counting_sweep(mesh, base, [radius], samples=samples, seed=seed)
    chk = ig.check_defect_counting_bound(
        inv.radial_defect(mesh, base, radius), sweep)
    return chk, sweep


def test_defect_counting_bound_catenoid(catenoid_coarse):
    chk, sweep = defect_counting_bound(
        catenoid_coarse.mesh, catenoid_coarse.base_point,
        radius=20.0, samples=20000, seed=11)
    assert chk["passed"]
    assert chk["margin"] > 1.0  # comfortably positive, not a borderline pass
    assert sweep["means"][0] >= 1.0


def test_defect_counting_bound_plane_margin(plane_coarse):
    # mean count -> 1 - 1/R and defect -> pi, so the margin approaches
    # 2*pi*(1 - 1/R) - pi = pi*(1 - 2/R)
    m, a = plane_coarse.mesh, plane_coarse.base_point
    chk, _ = defect_counting_bound(m, a, inv.max_safe_radius(m, a),
                                   samples=20000, seed=6)
    assert chk["passed"]
    R = chk["detail"]["radius"]
    assert chk["margin"] == pytest.approx(np.pi * (1 - 2 / R), abs=0.03)


def test_defect_counting_bound_parabola(parabola_coarse):
    chk, sweep = defect_counting_bound(
        parabola_coarse.mesh, parabola_coarse.base_point,
        radius=30.0, samples=5000, seed=2)
    assert chk["passed"]
    assert sweep["means"][0] == pytest.approx(2.0, abs=0.1)


def test_defect_counting_bound_needs_one_radius(catenoid_coarse):
    m, a = catenoid_coarse.mesh, catenoid_coarse.base_point
    sweep = ig.counting_sweep(m, a, [10.0, 20.0], samples=200, seed=1)
    with pytest.raises(ValueError, match="radius"):
        ig.check_defect_counting_bound(inv.radial_defect(m, a, 10.0), sweep)


def test_ends_counting_bound():
    out = ig.check_ends_counting_bound(2, 2)
    assert out["passed"] and out["detail"]["constant"] == pytest.approx(8.0)
    assert out["detail"]["bound"] == pytest.approx(16.0)
    assert out["detail"]["starlike"] is True
    assert not ig.check_ends_counting_bound(100, 2)["passed"]
