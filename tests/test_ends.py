"""End counting: components outside growing balls, stabilization, bounds."""
import tracemalloc

import numpy as np
import pytest

from mingauge import invariants as inv
from mingauge.catalog import catalog_names
from mingauge.ends import (
    _components,
    _end_counts,
    _max_forest,
    check_ends_bound,
    ends_estimate,
    triangle_components,
)
from mingauge.geometry import SimplicialSurface
from meshing_oracle import per_radius_ends, scipy_components

EXPECTED_ENDS = {
    "plane": 1,
    "catenoid": 2,
    "enneper": 1,
    "helicoid": 1,
    "complex_parabola_r4": 1,
}


@pytest.mark.parametrize("name", sorted(EXPECTED_ENDS))
def test_end_counts_stabilize(coarse, name):
    spec = coarse(name)
    out = ends_estimate(spec.mesh, spec.base_point)
    assert out.stable_count == EXPECTED_ENDS[name]
    assert out.stabilized
    # count is nondecreasing in the cut radius
    assert np.all(np.diff(out.counts) >= 0)
    # maximum principle: no component may stay bounded on a minimal surface
    assert np.all(out.bounded_counts == 0)


def test_sphere_control_has_no_ends(sphere_coarse):
    unbounded, bounded, _, _ = _end_counts(
        sphere_coarse.mesh, sphere_coarse.base_point, np.linspace(0.5, 3.2, 8))
    assert np.all(unbounded == 0)
    # the compact control produces exactly one bounded component until the
    # ball swallows it
    assert bounded[0] == 1
    assert bounded[-1] == 0
    assert ends_estimate(sphere_coarse.mesh,
                         sphere_coarse.base_point).stable_count == 0


def test_stabilized_well_before_truncation(coarse):
    spec = coarse("catenoid")
    t = spec.mesh.truncation_radius
    unbounded, bounded, _, _ = _end_counts(spec.mesh, spec.base_point,
                                           np.geomspace(1.4, 0.5 * t, 10))
    assert list(unbounded) == [2] * 10 and not bounded.any()
    out = ends_estimate(spec.mesh, spec.base_point)
    assert out.radii[-1] <= 0.8 * t


def test_adjacency_requires_outside_edge_endpoint():
    # two triangles sharing an edge whose endpoints are both inside the
    # ball: their outside tips must remain in separate components
    verts = np.array([
        [0.0, 0.1, 0.0],
        [0.0, -0.1, 0.0],
        [3.0, 0.0, 0.0],
        [-3.0, 0.0, 0.0],
    ])
    tris = np.array([[0, 1, 2], [1, 0, 3]])
    mesh = SimplicialSurface(verts, tris, truncation_radius=None)
    unbounded, bounded, _, _ = _end_counts(mesh, np.zeros(3), [1.0])
    assert list(unbounded) == [0] and list(bounded) == [2]
    labels, count = triangle_components(mesh, np.ones(2, dtype=bool))
    assert count == 1  # under shared edges alone they merge


def test_ends_bound_margins(coarse):
    cat = coarse("catenoid")
    v = inv.projective_volume(cat.mesh, cat.base_point)
    e = ends_estimate(cat.mesh, cat.base_point)
    out = check_ends_bound(e.stable_count, v["value"])
    assert out["passed"]
    # bound is (2^2 / 2pi) * V = 2V/pi, about 8 for the catenoid
    assert out["detail"]["bound"] == pytest.approx(8.0, rel=0.05)
    assert out["margin"] == pytest.approx(6.0, abs=0.5)

    enn = coarse("enneper")
    v2 = inv.projective_volume(enn.mesh, enn.base_point)
    out2 = check_ends_bound(1, v2["value"])
    assert out2["passed"] and out2["margin"] > 0


def _assert_components_match_scipy(n, i, j):
    count, labels = _components(n, i, j)
    want_count, want_labels = scipy_components(n, i, j)
    assert count == want_count
    np.testing.assert_array_equal(labels, want_labels)
    return count, labels


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("preset", ["coarse", "default"])
def test_components_match_scipy_on_ends_sweeps(coarse, default, name, preset):
    # the one-pass sweep must give the per-radius relabelling's counts
    # exactly: at the sweep's radii, at vertex distances (ties against the
    # strict >), just below the nearest vertex and just past the farthest
    spec = (coarse if preset == "coarse" else default)(name)
    mesh, base = spec.mesh, spec.base_point
    sweep = ends_estimate(mesh, base)
    dist = np.unique(np.linalg.norm(mesh.vertices - base, axis=1))
    extra = np.r_[np.nextafter(dist[0], -np.inf), dist[::len(dist) // 10],
                  dist[-1], np.nextafter(dist[-1], np.inf)]
    unbounded, bounded, _, _ = _end_counts(mesh, base, extra)
    for radii, got in [(sweep.radii, (sweep.counts, sweep.bounded_counts)),
                       (extra, (unbounded, bounded))]:
        want = np.array([per_radius_ends(mesh, base, r) for r in radii]).T
        np.testing.assert_array_equal(got, want)
    # every radius of the sweep leaves some of the mesh outside
    assert np.all(sweep.counts + sweep.bounded_counts > 0)
    assert unbounded[-1] == bounded[-1] == 0


def _assert_forest_counts_match_scipy(n, i, j, w):
    # components outside each threshold r are n minus the forest's edges
    # heavier than r; the forest itself must be acyclic
    order = np.argsort(-w, kind="stable")
    forest = _max_forest(n, i[order], j[order])[0]
    tree = order[forest]
    assert scipy_components(n, i[tree], j[tree])[0] == n - len(tree)
    for r in np.r_[-np.inf, np.unique(w)]:
        heavy = w > r
        assert (n - np.count_nonzero(w[tree] > r)
                == scipy_components(n, i[heavy], j[heavy])[0])


@pytest.mark.parametrize("seed", range(6))
def test_max_forest_counts_components_at_every_threshold(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    m = int(rng.integers(0, 3 * n))
    i, j = rng.integers(0, n, m), rng.integers(0, n, m)
    # duplicate and reversed edges, self-loops, all with tied integer weights
    dup = rng.integers(0, max(m, 1), m // 3)
    k = rng.integers(0, n, 5)
    i, j = np.r_[i, j[dup], i[dup], k], np.r_[j, i[dup], j[dup], k]
    w = rng.integers(0, 6, len(i)).astype(float)
    _assert_forest_counts_match_scipy(n, i, j, w)


def test_max_forest_edge_cases():
    none = np.zeros(0, dtype=np.int64)
    forest, rounds, _ = _max_forest(5, none, none)
    assert len(forest) == 0 and rounds == 0
    # a long cycle numbered against its order, with equal and with mixed
    # weights
    n = 2000
    perm = np.random.default_rng(1).permutation(n)
    i, j = np.r_[perm[:-1], perm[-1]], np.r_[perm[1:], perm[0]]
    _assert_forest_counts_match_scipy(n, i, j, np.ones(n))
    _assert_forest_counts_match_scipy(n, i, j, (perm % 40).astype(float))


@pytest.mark.parametrize("seed", range(6))
def test_components_match_scipy_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    m = int(rng.integers(0, 2 * n))
    i, j = rng.integers(0, n, m), rng.integers(0, n, m)
    _assert_components_match_scipy(n, i, j)
    # duplicate and reversed edges, self-loops
    k = np.arange(n)
    _assert_components_match_scipy(n, np.r_[i, j, i, k], np.r_[j, i, j, k])


def test_components_edge_cases():
    none = np.zeros(0, dtype=np.int64)
    assert _assert_components_match_scipy(1, none, none)[0] == 1
    count, _ = _assert_components_match_scipy(5, none, none)
    assert count == 5
    count, labels = _assert_components_match_scipy(
        4, np.array([3, 3, 2]), np.array([2, 2, 3]))
    assert count == 3 and list(labels) == [0, 1, 2, 2]
    # a long path numbered against its order takes many hooking rounds
    n = 2000
    perm = np.random.default_rng(1).permutation(n)
    count, _ = _assert_components_match_scipy(n, perm[:-1], perm[1:])
    assert count == 1


def test_end_sweep_memory_stays_bounded(coarse):
    # with the mesh's caches warm, the sweep's int32 forests on helicoid
    # `coarse` (24,576 triangles) stay under 3.5 MiB of numpy memory (2.6
    # measured); an int64 sweep with a (T, 3) distance gather needs 5.0
    spec = coarse("helicoid")
    mesh = SimplicialSurface(spec.mesh.vertices, spec.mesh.triangles,
                             truncation_radius=spec.mesh.truncation_radius)
    want = ends_estimate(mesh, spec.base_point)
    tracemalloc.start()
    try:
        got = ends_estimate(mesh, spec.base_point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20
    np.testing.assert_array_equal(got.counts, want.counts)
