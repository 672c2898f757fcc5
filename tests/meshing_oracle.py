"""Slow reference mesh topology: loop triangulations, row-wise edge grouping,
scipy's connected components and end counts relabelled at each radius; and
the whole-mesh corner gather, frames and centroids.

These are the implementations the index-arithmetic triangulations, the
int64-coded edge grouping, the numpy component labelling, the one-pass
spanning-forest end sweep and the per-block and per-selection frames and
centroids replaced, kept as the oracles they must match exactly.
"""
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from mingauge.ends import rim_vertex_mask
from mingauge.geometry import orthonormal_frame


def whole_corners(mesh):
    """(T, 3, n) corners of every triangle, in one gather."""
    return mesh.vertices[mesh.triangles]


def whole_frames(mesh):
    """(T, 2, n) tangent frames of every triangle, in one pass, as the mesh
    once cached them."""
    c = whole_corners(mesh)
    return orthonormal_frame(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])


def whole_centroids(mesh):
    """(T, n) corner means of every triangle, in one pass, as the mesh once
    cached them."""
    c = whole_corners(mesh)
    return (c[:, 0] + c[:, 1] + c[:, 2]) / 3.0


def loop_grid_triangles(nu, nv, wrap_v):
    """Grid triangulation with alternating diagonals, one cell at a time."""
    cols = nv if wrap_v else nv + 1

    def vid(i, j):
        return i * cols + (j % cols if wrap_v else j)

    tris = []
    for i in range(nu):
        for j in range(nv):
            a = vid(i, j)
            b = vid(i + 1, j)
            c = vid(i + 1, j + 1)
            d = vid(i, j + 1)
            if (i + j) % 2 == 0:
                tris.append((a, b, c))
                tris.append((a, c, d))
            else:
                tris.append((a, b, d))
                tris.append((b, c, d))
    return np.asarray(tris, dtype=np.int64)


def loop_polar_triangles(rings, sectors):
    """Polar-disk triangulation: central fan, then ring cells one at a time."""
    def vid(ring, j):
        return 1 + ring * sectors + (j % sectors)

    tris = []
    for j in range(sectors):  # central fan
        tris.append((0, vid(0, j), vid(0, j + 1)))
    for r in range(rings - 1):
        for j in range(sectors):
            a, b = vid(r, j), vid(r, j + 1)
            c, d = vid(r + 1, j), vid(r + 1, j + 1)
            if (r + j) % 2 == 0:
                tris.append((a, c, d))
                tris.append((a, d, b))
            else:
                tris.append((a, c, b))
                tris.append((c, d, b))
    return np.asarray(tris, dtype=np.int64)


def _sorted_sides(triangles):
    edges = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )
    edges.sort(axis=1)
    return edges


def unique_boundary(triangles):
    """Edges used by exactly one triangle, grouped with np.unique(axis=0)."""
    keys, counts = np.unique(_sorted_sides(triangles), axis=0,
                             return_counts=True)
    return keys[counts == 1]


def unique_edge_table(triangles):
    """(keys, starts, counts, owner) from a lexsort and np.unique(axis=0)."""
    e = _sorted_sides(triangles)
    owner = np.tile(np.arange(len(triangles)), 3)
    order = np.lexsort((e[:, 1], e[:, 0]))
    e, owner = e[order], owner[order]
    keys, starts = np.unique(e, axis=0, return_index=True)
    counts = np.diff(np.append(starts, len(e)))
    return keys, starts, counts, owner


def scipy_components(n, i, j):
    """(count, labels) from scipy.sparse.csgraph.connected_components."""
    graph = coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    return connected_components(graph, directed=False)


def per_radius_ends(mesh, center, radius):
    """(unbounded, bounded) components outside one ball, labelled from
    scratch: triangles with a vertex outside, joined across interior edges
    with an endpoint outside; unbounded ones hold a rim triangle."""
    outside = np.linalg.norm(mesh.vertices - center, axis=1) > radius
    a, b, c = outside[mesh.triangles].T
    tri_mask = a | b | c
    sel = np.flatnonzero(tri_mask)
    if len(sel) == 0:
        return 0, 0
    edges, pairs = mesh.interior_edges, mesh.interior_pairs
    keep = (tri_mask[pairs[:, 0]] & tri_mask[pairs[:, 1]]
            & (outside[edges[:, 0]] | outside[edges[:, 1]]))
    remap = np.full(len(tri_mask), -1)
    remap[sel] = np.arange(len(sel))
    count, labels = scipy_components(len(sel), remap[pairs[keep, 0]],
                                     remap[pairs[keep, 1]])
    a, b, c = rim_vertex_mask(mesh)[mesh.triangles[sel]].T
    on_rim = a | b | c
    unbounded = len(np.unique(labels[on_rim]))
    return unbounded, count - unbounded
