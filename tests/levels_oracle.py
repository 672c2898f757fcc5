"""Reference level-curve tracing: chords chained into polylines.

This is the sphere-flux route the per-triangle chords replaced, kept as the
oracle they are tested against.  Crossed edges are grouped by their vertex
pair, segments are walked into open paths and loops, and the flux is summed
polyline by polyline.  The chords must equal its segments bit for bit.

``decompose_radial`` is the tangent/normal split the flux integrand used
before ``geometry.tangent_part`` took its place; ``flux_oracle`` sums the
chords with it, and the package's flux must match it bit for bit.
"""
import numpy as np

from mingauge.errors import MeshTopologyError
from mingauge.geometry import level_chords
from mingauge.geometry.levels import SNAP_REL
from mingauge.invariants import GAUSS_OFFSET, _segment_rule
from meshing_oracle import whole_frames


def decompose_radial(point, a, frame):
    """``(tangential, normal)`` parts of ``point - a`` for the orthonormal
    ``frame`` rows: ``point`` (..., n), ``frame`` (..., 2, n), ``a`` (n,)."""
    point = np.asarray(point, dtype=float)
    frame = np.asarray(frame, dtype=float)
    a = np.asarray(a, dtype=float)
    x = point - a
    coef = np.einsum("...n,...kn->...k", x, frame)
    tangential = np.einsum("...k,...kn->...n", coef, frame)
    return tangential, x - tangential


def flux_oracle(mesh, center, levels):
    """``(raw, errors)`` of the sphere flux at ``levels``: the chords' line
    integral of |tangential part| with ``decompose_radial`` as integrand."""
    c = np.asarray(center, dtype=float)
    raw, errors = np.zeros(len(levels)), np.zeros(len(levels))
    all_frames = whole_frames(mesh)
    for k, t in enumerate(levels):
        tris, ends, _ = level_chords(mesh, c, t)
        if len(tris) == 0:
            continue
        frames = all_frames[tris]

        def tang_norm(points):
            return np.linalg.norm(decompose_radial(points, c, frames)[0],
                                  axis=1)

        raw[k], errors[k] = _segment_rule(ends[:, 0], ends[:, 1], tang_norm)
    return raw, errors


def level_polyline(mesh, center, level):
    """``(polylines, closed, segment_triangles, level_used)`` of the sphere
    |x - center| = level: (k_i, n) point arrays, a loop flag each, and the
    triangle each segment lies in (k_i - 1 of them, or k_i for a loop)."""
    a = np.asarray(center, dtype=float)
    t = float(level)
    f = np.linalg.norm(mesh.vertices - a, axis=1)
    for _ in range(64):
        if not np.any(np.abs(f - t) < SNAP_REL * t):
            break
        t += 2.5 * SNAP_REL * t
    else:
        raise MeshTopologyError("level could not be snapped away from mesh vertices")

    above = f > t
    tri = mesh.triangles
    pattern = above[tri]
    n_above = pattern.sum(axis=1)
    crossing = np.flatnonzero((n_above == 1) | (n_above == 2))
    if len(crossing) == 0:
        return [], [], [], t

    local_edges = np.array([[0, 1], [1, 2], [2, 0]])
    tc = tri[crossing]
    pc = pattern[crossing]
    edge_v0 = tc[:, local_edges[:, 0]]
    edge_v1 = tc[:, local_edges[:, 1]]
    crossed = pc[:, local_edges[:, 0]] != pc[:, local_edges[:, 1]]
    assert np.all(crossed.sum(axis=1) == 2)

    m = len(crossing)
    pair_pos = np.argsort(~crossed, axis=1)[:, :2]
    rows = np.repeat(np.arange(m), 2)
    ev0 = edge_v0[rows, pair_pos.ravel()]
    ev1 = edge_v1[rows, pair_pos.ravel()]
    base = len(mesh.vertices) + 1
    codes, inverse = np.unique(np.minimum(ev0, ev1) * base
                               + np.maximum(ev0, ev1), return_inverse=True)
    uniq = np.stack([codes // base, codes % base], axis=1)
    seg_nodes = inverse.reshape(m, 2)

    fa, fb = f[uniq[:, 0]], f[uniq[:, 1]]
    s = (t - fa) / (fb - fa)
    pts = mesh.vertices[uniq[:, 0]] + s[:, None] * (
        mesh.vertices[uniq[:, 1]] - mesh.vertices[uniq[:, 0]]
    )
    rad = pts - a
    pts = a + rad * (t / np.linalg.norm(rad, axis=1))[:, None]

    adj = {}
    for q in range(m):
        n0, n1 = int(seg_nodes[q, 0]), int(seg_nodes[q, 1])
        adj.setdefault(n0, []).append((n1, q))
        adj.setdefault(n1, []).append((n0, q))

    seg_used = np.zeros(m, dtype=bool)
    polylines, closed, seg_tris = [], [], []

    def walk(start):
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

    def emit(node):
        nodes, tris_, is_loop = walk(node)
        polylines.append(pts[nodes])
        closed.append(is_loop)
        seg_tris.append(np.asarray(tris_, dtype=np.int64))

    order = sorted(adj)
    for node in order:  # open paths first: their ends have one segment
        if len(adj[node]) == 1 and not seg_used[adj[node][0][1]]:
            emit(node)
    for node in order:  # what is left forms loops
        for (_, q) in adj[node]:
            if not seg_used[q]:
                emit(node)
    return polylines, closed, seg_tris, t


def polyline_segments(curve):
    """``(A, B, owners)`` of every segment of a traced curve, in walk order."""
    polylines, closed, seg_tris, _ = curve
    A, B = [], []
    for pts, loop in zip(polylines, closed):
        A.append(pts if loop else pts[:-1])
        B.append(np.roll(pts, -1, axis=0) if loop else pts[1:])
    return np.concatenate(A), np.concatenate(B), np.concatenate(seg_tris)


def curve_flux(mesh, curve, center):
    """(midpoint value, gauss value) of the |tangent| line integral, summed
    polyline by polyline."""
    c = np.asarray(center, dtype=float)
    mid_total = gauss_total = 0.0

    frames = whole_frames(mesh)

    def tang_norm(points, owners):
        tang, _ = decompose_radial(points, c, frames[owners])
        return np.linalg.norm(tang, axis=1)

    polylines, closed, seg_tris, _ = curve
    for pts, loop, owners in zip(polylines, closed, seg_tris):
        if loop:
            A, B = pts, np.roll(pts, -1, axis=0)
        else:
            A, B = pts[:-1], pts[1:]
        d = B - A
        L = np.linalg.norm(d, axis=1)
        mid = 0.5 * (A + B)
        mid_total += float(np.sum(L * tang_norm(mid, owners)))
        g1 = tang_norm(mid - GAUSS_OFFSET * d, owners)
        g2 = tang_norm(mid + GAUSS_OFFSET * d, owners)
        gauss_total += float(np.sum(L * 0.5 * (g1 + g2)))
    return mid_total, gauss_total
