"""Extraction of distance-sphere level curves from triangle meshes."""
from __future__ import annotations

import numpy as np

from ..errors import MeshTopologyError
from .types import LevelCurve, SimplicialSurface

SNAP_REL = 1e-9


def level_polyline(
    mesh: SimplicialSurface,
    center,
    level: float,
    snap_rel: float = SNAP_REL,
) -> LevelCurve:
    """Trace {x on mesh : |x - center| = level} as polylines.

    The distance function is interpolated linearly along triangle edges and
    every crossing point is then projected radially onto the exact sphere.
    If the sphere passes through a mesh vertex (within ``snap_rel * level``)
    the level is nudged upward and the shift recorded.
    """
    a = np.asarray(center, dtype=float)
    t = float(level)
    if t <= 0.0:
        raise ValueError("level must be positive")
    f = np.linalg.norm(mesh.vertices - a, axis=1)

    t0 = t
    for _ in range(64):
        if not np.any(np.abs(f - t) < snap_rel * t):
            break
        t += 2.5 * snap_rel * t
    else:
        raise MeshTopologyError("level could not be snapped away from mesh vertices")
    snap_shift = (t - t0) / t0

    above = f > t
    tri = mesh.triangles
    pattern = above[tri]
    n_above = pattern.sum(axis=1)
    crossing = np.flatnonzero((n_above == 1) | (n_above == 2))
    if len(crossing) == 0:
        return LevelCurve([], [], [], t, a, snap_shift)

    # Collect crossed edges of crossing triangles: those whose endpoint flags
    # differ.  Each crossing triangle has exactly two.
    local_edges = np.array([[0, 1], [1, 2], [2, 0]])
    tc = tri[crossing]                       # (m, 3)
    pc = pattern[crossing]                   # (m, 3)
    edge_v0 = tc[:, local_edges[:, 0]]       # (m, 3)
    edge_v1 = tc[:, local_edges[:, 1]]
    crossed = pc[:, local_edges[:, 0]] != pc[:, local_edges[:, 1]]  # (m, 3)
    if not np.all(crossed.sum(axis=1) == 2):
        raise MeshTopologyError("inconsistent crossing pattern on a triangle")

    m = len(crossing)
    pair_pos = np.argsort(~crossed, axis=1)[:, :2]  # indices of the two crossed edges
    rows = np.repeat(np.arange(m), 2)
    ev0 = edge_v0[rows, pair_pos.ravel()]
    ev1 = edge_v1[rows, pair_pos.ravel()]
    # group by the edge code lo * (V + 1) + hi, which sorts like (lo, hi)
    base = len(mesh.vertices) + 1
    codes, inverse = np.unique(np.minimum(ev0, ev1) * base
                               + np.maximum(ev0, ev1), return_inverse=True)
    uniq = np.stack([codes // base, codes % base], axis=1)
    seg_nodes = inverse.reshape(m, 2)        # two curve nodes per triangle

    # One interpolated + sphere-projected point per crossed edge.
    fa, fb = f[uniq[:, 0]], f[uniq[:, 1]]
    s = (t - fa) / (fb - fa)
    pts = mesh.vertices[uniq[:, 0]] + s[:, None] * (
        mesh.vertices[uniq[:, 1]] - mesh.vertices[uniq[:, 0]]
    )
    rad = pts - a
    pts = a + rad * (t / np.linalg.norm(rad, axis=1))[:, None]

    # Chain segments: nodes are crossed edges, segments are triangles.
    adj: dict[int, list[tuple[int, int]]] = {}
    for q in range(m):
        n0, n1 = int(seg_nodes[q, 0]), int(seg_nodes[q, 1])
        adj.setdefault(n0, []).append((n1, q))
        adj.setdefault(n1, []).append((n0, q))

    seg_used = np.zeros(m, dtype=bool)
    polylines, closed, seg_tris = [], [], []

    def walk(start: int):
        node_seq = [start]
        tri_seq = []
        cur = start
        while True:
            nxt = None
            for (nb, q) in adj[cur]:
                if not seg_used[q]:
                    nxt = (nb, q)
                    break
            if nxt is None:
                return node_seq, tri_seq, False
            nb, q = nxt
            seg_used[q] = True
            tri_seq.append(int(crossing[q]))
            if nb == start:
                return node_seq, tri_seq, True
            node_seq.append(nb)
            cur = nb

    order = sorted(adj.keys())
    # open paths first (their endpoints have a single incident segment)
    for node in order:
        if len(adj[node]) == 1:
            (_, q0) = adj[node][0]
            if seg_used[q0]:
                continue
            nodes, tris_, is_loop = walk(node)
            polylines.append(pts[nodes])
            closed.append(is_loop)
            seg_tris.append(np.asarray(tris_, dtype=np.int64))
    # remaining segments belong to loops
    for node in order:
        for (_, q) in adj[node]:
            if not seg_used[q]:
                nodes, tris_, is_loop = walk(node)
                polylines.append(pts[nodes])
                closed.append(is_loop)
                seg_tris.append(np.asarray(tris_, dtype=np.int64))

    return LevelCurve(polylines, closed, seg_tris, t, a, snap_shift)
