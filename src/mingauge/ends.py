"""Counting unbounded components (ends) of a truncated surface mesh.

An end shows up, at a given radius r, as a connected component of the part of
the mesh outside the ball of radius r that still reaches the truncation rim.
Components that stay bounded (a closed control surface, say) are reported
separately.  The count as a function of r must stabilize before it is
trusted.  Components come from numpy alone: min-label hooking with full
pointer jumping, after Shiloach and Vishkin (J. Algorithms 3, 1982).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SimplicialSurface

RIM_FRACTION = 0.999


def _components(n: int, i: np.ndarray, j: np.ndarray):
    """``(count, labels)`` of the undirected graph on n nodes with edges (i, j).

    Each round hooks every root to the smallest root across its edges and
    jumps pointers to the roots.  A component's smallest node is never
    hooked, so it ends as the root, and labels follow the smallest nodes.
    """
    parent = np.arange(n)
    while True:
        pi, pj = parent[i], parent[j]
        cross = pi != pj
        if not cross.any():
            break
        i, j, pi, pj = i[cross], j[cross], pi[cross], pj[cross]
        np.minimum.at(parent, pi, pj)
        np.minimum.at(parent, pj, pi)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    roots, labels = np.unique(parent, return_inverse=True)
    return len(roots), labels


def triangle_components(mesh: SimplicialSurface, tri_mask: np.ndarray,
                        edge_vertex_mask: np.ndarray | None = None):
    """Connected components of the selected triangles under shared edges.

    Two selected triangles are adjacent when they share an edge; if
    ``edge_vertex_mask`` is given, only edges with at least one flagged
    endpoint count as connections (this keeps components from being glued
    together across a thin excluded region).  Returns ``(labels, count)``
    with labels of length T, ``-1`` on unselected triangles.
    """
    T = len(mesh.triangles)
    labels = np.full(T, -1, dtype=np.int64)
    sel = np.flatnonzero(tri_mask)
    if len(sel) == 0:
        return labels, 0
    edges, tri_pairs = mesh.interior_edge_pairs()
    keep = tri_mask[tri_pairs[:, 0]] & tri_mask[tri_pairs[:, 1]]
    if edge_vertex_mask is not None:
        keep &= edge_vertex_mask[edges].any(axis=1)
    tp = tri_pairs[keep]
    remap = np.full(T, -1, dtype=np.int64)
    remap[sel] = np.arange(len(sel))
    count, labels[sel] = _components(len(sel), remap[tp[:, 0]], remap[tp[:, 1]])
    return labels, count


def rim_vertex_mask(mesh: SimplicialSurface) -> np.ndarray:
    """Vertices lying on the truncation sphere (about the origin)."""
    out = np.zeros(len(mesh.vertices), dtype=bool)
    if mesh.truncation_radius is None or len(mesh.boundary_edges) == 0:
        return out
    bverts = np.unique(mesh.boundary_edges)
    r = np.linalg.norm(mesh.vertices[bverts], axis=1)
    out[bverts[r >= RIM_FRACTION * mesh.truncation_radius]] = True
    return out


def components_outside(mesh: SimplicialSurface, center, radius: float):
    """Split the mesh outside the ball |x - center| > radius into components.

    A triangle belongs to the outside when any of its vertices does; two
    outside triangles connect only through edges that have an endpoint
    outside, so pieces touching along the sphere are not merged.  Returns
    ``(unbounded, bounded)``: counts of components that do / do not reach the
    truncation rim.
    """
    center = np.asarray(center, dtype=float)
    if mesh.truncation_radius is not None and radius >= mesh.truncation_radius:
        raise ValueError("cut radius must stay below the truncation radius")
    dist = np.linalg.norm(mesh.vertices - center, axis=1)
    outside = dist > radius
    tri_mask = outside[mesh.triangles].any(axis=1)
    labels, count = triangle_components(mesh, tri_mask, edge_vertex_mask=outside)
    if count == 0:
        return 0, 0
    rim = rim_vertex_mask(mesh)
    tri_on_rim = rim[mesh.triangles].any(axis=1)
    unbounded = np.unique(labels[tri_mask & tri_on_rim])
    n_unbounded = int(len(unbounded[unbounded >= 0]))
    return n_unbounded, count - n_unbounded


@dataclass
class EndCount:
    """End counts across a sweep of radii."""

    radii: np.ndarray
    counts: np.ndarray
    bounded_counts: np.ndarray
    stable_count: int
    stabilized: bool


def ends_estimate(mesh: SimplicialSurface, center, radii=None,
                  num_radii: int = 12, stable_fraction: float = 0.3) -> EndCount:
    """Count ends by sweeping the cut radius and requiring stabilization.

    The estimate is trusted when the count is constant over the last
    ``stable_fraction`` of the sweep.
    """
    center = np.asarray(center, dtype=float)
    if radii is None:
        dist = np.linalg.norm(mesh.vertices - center, axis=1)
        if mesh.truncation_radius is not None:
            hi = 0.8 * (mesh.truncation_radius - np.linalg.norm(center))
        else:
            hi = 0.9 * dist.max()
        # from a base on the surface 1.3 x dmin is ~0 and would crowd the
        # geometric sweep near the base; start where level_grid does
        dmin = dist.min()
        lo = 1.3 * dmin + 1e-9 if dmin > 1e-9 else 0.02 * hi
        lo = min(lo, 0.5 * hi)
        radii = np.geomspace(lo, hi, num_radii)
    radii = np.asarray(radii, dtype=float)
    if mesh.truncation_radius is not None and radii.max() > 0.8 * mesh.truncation_radius:
        raise ValueError(
            "cut radii must stay at or below 0.8x the truncation radius so "
            "truncation artifacts cannot merge or split components"
        )
    counts = np.empty(len(radii), dtype=np.int64)
    bounded = np.empty(len(radii), dtype=np.int64)
    for k, r in enumerate(radii):
        counts[k], bounded[k] = components_outside(mesh, center, r)
    tail = max(1, int(np.ceil(stable_fraction * len(radii))))
    stabilized = bool(np.all(counts[-tail:] == counts[-1]))
    return EndCount(radii, counts, bounded, int(counts[-1]), stabilized)


def check_ends_bound(num_ends: int, projective_volume: float, p: int = 2,
                     sphere_area_p: float | None = None) -> dict:
    """Ends are bounded by (2^p / area(S^{p-1})) * projective volume."""
    if sphere_area_p is None:
        from .invariants import sphere_area

        sphere_area_p = sphere_area(p)
    rhs = (2.0**p / sphere_area_p) * projective_volume
    return {
        "ends": int(num_ends),
        "bound": float(rhs),
        "passed": bool(num_ends <= rhs + 1e-12),
        "margin": float(rhs - num_ends),
    }
