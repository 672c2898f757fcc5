"""Chords where a distance sphere crosses the triangles of a mesh."""
from __future__ import annotations

import numpy as np

from ..errors import MeshTopologyError
from .types import SimplicialSurface

SNAP_REL = 1e-9


def level_chords(mesh: SimplicialSurface, center, level: float):
    """The sphere {|x - center| = level} as one chord per crossed triangle.

    Returns ``(triangles, ends, level_used)``: the crossing triangles in
    ascending order, their chord endpoints as an (m, 2, n) array, and the
    level actually traced.  The distance function is interpolated linearly
    along each crossed side, from its lower to its higher vertex index, and
    the point is then projected radially onto the exact sphere, so the two
    triangles sharing a side share that endpoint bit for bit.  If the sphere
    passes through a mesh vertex (within ``SNAP_REL * level``) the level is
    nudged upward.

    Both tests read a distance index kept in ``mesh.about(center)``: the
    sorted vertex distances, where the vertices nearest the level are the
    two neighbours of its ``searchsorted`` place (``|f - t|`` rounds
    monotonically in ``f`` on each side), and each triangle's least and
    greatest corner distance, between which the level must lie for the
    triangle to cross it.  Only crossing triangles are gathered.
    """
    a = np.asarray(center, dtype=float)
    t = float(level)
    if t <= 0.0:
        raise ValueError("level must be positive")
    f = mesh.about(a)["distances"]
    ordered, f_min, f_max = distance_index(mesh, a)

    for _ in range(64):
        i = np.searchsorted(ordered, t)
        near = ordered[max(i - 1, 0):i + 1]
        if not np.any(np.abs(near - t) < SNAP_REL * t):
            break
        t += 2.5 * SNAP_REL * t
    else:
        raise MeshTopologyError("level could not be snapped away from mesh vertices")

    triangles = np.flatnonzero((f_min <= t) & (t < f_max))
    # sides (0, 1), (1, 2), (2, 0); a crossing triangle has exactly two
    # crossed sides, taken here in that order
    tri = mesh.triangles[triangles]
    above = f[tri] > t
    nxt = np.roll(tri, -1, axis=1)
    sides = above != np.roll(above, -1, axis=1)
    lo = np.minimum(tri, nxt)[sides]
    hi = np.maximum(tri, nxt)[sides]

    s = (t - f[lo]) / (f[hi] - f[lo])
    pts = mesh.vertices[lo] + s[:, None] * (mesh.vertices[hi] - mesh.vertices[lo])
    rad = pts - a
    pts = a + rad * (t / np.linalg.norm(rad, axis=1))[:, None]
    return triangles, pts.reshape(len(triangles), 2, len(a)), t


def distance_index(mesh: SimplicialSurface, center):
    """Sorted vertex distances from ``center`` and each triangle's least and
    greatest corner distance, kept in the mesh's store for the center."""
    store = mesh.about(center)
    if "distance_index" not in store:
        f = store["distances"]
        c = f[mesh.triangles]
        store["distance_index"] = (
            np.sort(f),
            np.minimum(np.minimum(c[:, 0], c[:, 1]), c[:, 2]),
            np.maximum(np.maximum(c[:, 0], c[:, 1]), c[:, 2]),
        )
    return store["distance_index"]
