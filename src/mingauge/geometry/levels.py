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
    """
    a = np.asarray(center, dtype=float)
    t = float(level)
    if t <= 0.0:
        raise ValueError("level must be positive")
    cached = mesh._cache.get("distances")  # kept for the last center
    if cached is None or not np.array_equal(cached[0], a):
        cached = mesh._cache["distances"] = (
            a.copy(), np.linalg.norm(mesh.vertices - a, axis=1))
    f = cached[1]

    for _ in range(64):
        if not np.any(np.abs(f - t) < SNAP_REL * t):
            break
        t += 2.5 * SNAP_REL * t
    else:
        raise MeshTopologyError("level could not be snapped away from mesh vertices")

    above = (f > t)[mesh.triangles]
    triangles = np.flatnonzero((above[:, 0] != above[:, 1])
                               | (above[:, 1] != above[:, 2]))
    # sides (0, 1), (1, 2), (2, 0); a crossing triangle has exactly two
    # crossed sides, taken here in that order
    tri, above = mesh.triangles[triangles], above[triangles]
    nxt = np.roll(tri, -1, axis=1)
    sides = above != np.roll(above, -1, axis=1)
    lo = np.minimum(tri, nxt)[sides]
    hi = np.maximum(tri, nxt)[sides]

    s = (t - f[lo]) / (f[hi] - f[lo])
    pts = mesh.vertices[lo] + s[:, None] * (mesh.vertices[hi] - mesh.vertices[lo])
    rad = pts - a
    pts = a + rad * (t / np.linalg.norm(rad, axis=1))[:, None]
    return triangles, pts.reshape(len(triangles), 2, len(a)), t
