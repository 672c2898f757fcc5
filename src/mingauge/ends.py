"""Counting unbounded components (ends) of a truncated surface mesh.

An end shows up, at a given radius r, as a connected component of the part of
the mesh outside the ball of radius r that still reaches the truncation rim.
Components that stay bounded (a closed control surface, say) are reported
separately.  The count as a function of r must stabilize before it is
trusted.  The cuts are nested in r: with triangles and edges weighted by their
farthest vertex, the cut at r keeps the weights > r, so one maximum spanning
forest (Boruvka's rounds in numpy) counts components at every radius, and a
virtual node joined to the rim triangles tells the unbounded ones apart.
Triangle and edge indices in the sweeps are int32, half the memory of
int64, as the mesh keeps its ``interior_edges`` and ``interior_pairs``: a
catalog mesh has at most ``catalog.MAX_TRIANGLES`` = 2^20 triangles, and
any mesh that fits in memory has fewer than 2^31.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .geometry import SimplicialSurface, distance_index, sweep_start

RIM_FRACTION = 0.999


def _max_forest(n: int, i: np.ndarray, j: np.ndarray):
    """``(ranks, rounds, roots)`` for the graph on n nodes whose edges
    (i[k], j[k]) are given heaviest first: the sorted ranks k of a maximum
    spanning forest, the Boruvka rounds it took, and each node's root.

    Each round every component picks its best edge (the smallest rank).  As
    ranks are distinct these edges form a forest but for pairs picking the
    same edge, so each component hooks onto the other end of its edge, the
    smaller of such a pair stays a root, and pointers jump to the roots.
    Nodes, ranks and roots are int32, and each round's unfiltered arrays go
    before the next ones are made.
    """
    none = len(i)  # the best edge of a component that has none
    parent = np.arange(n, dtype=np.int32)
    rank = np.arange(none, dtype=np.int32)
    in_forest, i0, j0, rounds = np.zeros(none, dtype=bool), i, j, 0
    # take() gathers through int32 indices as fast as through intp ones
    while True:
        ci, cj = parent.take(i), parent.take(j)
        cross = ci != cj
        if not cross.any():
            return np.flatnonzero(in_forest), rounds, parent
        i, j, rank = i[cross], j[cross], rank[cross]
        ci, cj = ci[cross], cj[cross]
        del cross
        best = np.full(n, none, dtype=np.int32)
        np.minimum.at(best, ci, rank)
        np.minimum.at(best, cj, rank)
        del ci, cj
        comp = np.flatnonzero(best < none).astype(np.int32)
        edge = best.take(comp)
        other = parent.take(i0.take(edge)) + parent.take(j0.take(edge)) - comp
        hook = np.arange(n, dtype=np.int32)
        hook[comp] = np.where((best.take(other) == edge) & (comp < other),
                              comp, other)
        del best, comp, other
        while True:
            jumped = hook.take(hook)
            if np.array_equal(jumped, hook):
                break
            hook = jumped
        parent = hook.take(parent)
        in_forest[edge] = True
        rounds += 1


def _components(n: int, i: np.ndarray, j: np.ndarray):
    """``(count, labels)`` of the undirected graph on n nodes with edges
    (i, j); labels number the components in the order of their smallest
    nodes."""
    roots, first, labels = np.unique(_max_forest(n, i, j)[2], return_index=True,
                                     return_inverse=True)
    return len(roots), np.argsort(np.argsort(first))[labels]


def triangle_components(mesh: SimplicialSurface, tri_mask: np.ndarray):
    """Connected components of the selected triangles under shared edges.

    Returns ``(labels, count)`` with int32 labels of length T, ``-1`` on
    unselected triangles.
    """
    T = len(mesh.triangles)
    labels = np.full(T, -1, dtype=np.int32)
    sel = np.flatnonzero(tri_mask)
    if len(sel) == 0:
        return labels, 0
    i, j = mesh.interior_pairs.T
    keep = np.flatnonzero(tri_mask[i] & tri_mask[j])
    remap = np.full(T, -1, dtype=np.int32)
    remap[sel] = np.arange(len(sel), dtype=np.int32)
    count, labels[sel] = _components(len(sel), remap[i[keep]], remap[j[keep]])
    return labels, count


def rim_vertex_mask(mesh: SimplicialSurface) -> np.ndarray:
    """Vertices lying on the truncation sphere (about the origin)."""
    out = np.zeros(len(mesh.vertices), dtype=bool)
    if mesh.truncation_radius is None or len(mesh.boundary_edges) == 0:
        return out
    # the boundary's vertices, sorted; np.unique would import numpy.ma
    bverts = np.flatnonzero(np.bincount(mesh.boundary_edges.ravel()))
    r = np.linalg.norm(mesh.vertices[bverts], axis=1)
    out[bverts[r >= RIM_FRACTION * mesh.truncation_radius]] = True
    return out


def _end_counts(mesh: SimplicialSurface, center: np.ndarray, radii):
    """``(unbounded, bounded, graph_edges, forest_rounds)`` outside each
    radius: a triangle is outside when any of its vertices is, and two
    outside triangles connect only through an edge with an endpoint outside,
    so pieces touching along the sphere are not merged."""
    dist = mesh.about(center)["distances"]
    tri_d = distance_index(mesh, center)[2]  # each triangle's farthest corner
    edges, pairs = mesh.interior_edges, mesh.interior_pairs
    edge_d = dist[edges[:, 0]]
    np.maximum(edge_d, dist[edges[:, 1]], out=edge_d)
    order = np.argsort(-edge_d, kind="stable")
    forest, rounds, _ = _max_forest(len(tri_d), *pairs[order].T)
    tree = order[forest]
    del order, forest
    # a maximum forest of G + rim lies in G's forest plus the rim edges
    on_rim = rim_vertex_mask(mesh)
    tri = mesh.triangles.T
    rim = np.flatnonzero(on_rim[tri[0]] | on_rim[tri[1]]
                         | on_rim[tri[2]]).astype(np.int32)
    w = np.concatenate([edge_d[tree], tri_d[rim]])
    ij = np.concatenate([pairs[tree],
                         np.c_[rim, np.full_like(rim, len(tri_d))]])
    order = np.argsort(-w, kind="stable")
    rim_forest, rim_rounds, _ = _max_forest(len(tri_d) + 1, *ij[order].T)

    def above(weights):  # how many weights are > each radius (strictly)
        return len(weights) - np.searchsorted(np.sort(weights), radii,
                                              side="right")

    # components outside r: triangles minus forest edges heavier than r
    count = above(tri_d) - above(edge_d[tree])
    unbounded = above(w[order[rim_forest]]) - above(edge_d[tree])
    return (unbounded, count - unbounded, len(edges) + len(rim),
            rounds + rim_rounds)


@dataclass
class EndCount:
    """End counts across a sweep of radii."""

    radii: np.ndarray
    counts: np.ndarray
    bounded_counts: np.ndarray
    stable_count: int
    stabilized: bool
    graph_edges: int  # interior plus rim edges of the cut graph
    forest_rounds: int  # Boruvka rounds of both forests


def ends_estimate(mesh: SimplicialSurface, center) -> EndCount:
    """Count ends by sweeping the cut radius and requiring stabilization.

    The sweep starts at ``sweep_start``, as ``level_grid`` does: 1e-9 past
    1.3x the nearest vertex distance, or at 0.02 of its end from a base on
    the surface or near it.  It stops at 0.8x the radius the truncated mesh
    covers, so truncation artifacts cannot merge or split components.  The
    estimate is trusted when the count is constant over the last 30% of the
    sweep.
    """
    center = np.asarray(center, dtype=float)
    if mesh.truncation_radius is not None:
        hi = 0.8 * (mesh.truncation_radius - np.linalg.norm(center))
    else:
        hi = 0.9 * mesh.about(center)["distances"].max()
    radii = np.geomspace(sweep_start(mesh, center, hi, pad=1e-9), hi, 12)
    counts, bounded, edges, rounds = _end_counts(mesh, center, radii)
    tail = max(1, int(np.ceil(0.3 * len(radii))))
    stabilized = bool(np.all(counts[-tail:] == counts[-1]))
    return EndCount(radii, counts, bounded, int(counts[-1]), stabilized,
                    edges, rounds)


def check_ends_bound(num_ends: int, projective_volume: float) -> dict:
    """Ends are bounded by (4 / area(S^1)) * projective volume."""
    rhs = (4.0 / (2 * pi)) * projective_volume
    return {"passed": bool(num_ends <= rhs + 1e-12),
            "margin": float(rhs - num_ends),
            "detail": {"ends": int(num_ends), "bound": float(rhs)}}
