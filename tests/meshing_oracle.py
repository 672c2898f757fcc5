"""Slow reference mesh topology: loop triangulations, row-wise edge grouping
and scipy's connected components.

These are the implementations the index-arithmetic triangulations, the
int64-coded edge table and the numpy component labelling replaced, kept as
the oracles they must match exactly.
"""
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


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
