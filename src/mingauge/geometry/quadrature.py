"""Surface integration on triangle meshes.

A fixed symmetric 6-node rule (exact through degree 4 on flat triangles)
handles smooth integrands; triangles straddling a region boundary are split
recursively until the indicator is resolved, and leaves are classified by
their centroid.  Error bars come from comparing against one global uniform
refinement.
"""
from __future__ import annotations

import numpy as np

from .types import triangle_areas

# 6-point symmetric triangle rule, barycentric nodes / weights (sum 1).
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
TRI6_BARY = np.array(
    [
        [1 - 2 * _A1, _A1, _A1], [_A1, 1 - 2 * _A1, _A1], [_A1, _A1, 1 - 2 * _A1],
        [1 - 2 * _A2, _A2, _A2], [_A2, 1 - 2 * _A2, _A2], [_A2, _A2, 1 - 2 * _A2],
    ]
)
TRI6_W = np.array([_W1, _W1, _W1, _W2, _W2, _W2])

DEFAULT_CUT_DEPTH = 6


def split4(corners: np.ndarray, owners: np.ndarray):
    """One midpoint subdivision: (m,3,n) -> (4m,3,n), owners repeated."""
    v0, v1, v2 = corners[:, 0], corners[:, 1], corners[:, 2]
    m01 = 0.5 * (v0 + v1)
    m12 = 0.5 * (v1 + v2)
    m20 = 0.5 * (v2 + v0)
    kids = np.concatenate(
        [
            np.stack([v0, m01, m20], axis=1),
            np.stack([v1, m12, m01], axis=1),
            np.stack([v2, m20, m12], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ]
    )
    return kids, np.concatenate([owners] * 4)


def _rule_sum(corners, owners, integrand):
    """Apply the 6-node rule to a batch of flat triangles."""
    if len(corners) == 0:
        return 0.0
    areas = triangle_areas(corners)
    if integrand is None:
        return float(areas.sum())
    # nodes: (m, 6, n)
    nodes = np.einsum("qb,mbn->mqn", TRI6_BARY, corners)
    m, q, n = nodes.shape
    vals = integrand(nodes.reshape(m * q, n), np.repeat(owners, q))
    vals = np.asarray(vals, dtype=float).reshape(m, q)
    return float(np.einsum("mq,q,m->", vals, TRI6_W, areas))


def _classify(corners, region):
    """Return boolean masks (full, cut) for a batch of triangles."""
    m = len(corners)
    pts = np.concatenate([corners.reshape(3 * m, -1), corners.mean(axis=1)])
    flags = np.asarray(region(pts), dtype=bool)
    at_corners = flags[: 3 * m].reshape(m, 3)
    at_centroid = flags[3 * m:]
    inside_all = at_corners.all(axis=1) & at_centroid
    outside_all = (~at_corners).all(axis=1) & ~at_centroid
    return inside_all, ~inside_all & ~outside_all


def integrate_mesh(
    mesh,
    integrand=None,
    region=None,
    cut_depth: int = DEFAULT_CUT_DEPTH,
    refine: int = 0,
) -> float:
    """Integrate ``integrand(points, owner_triangles)`` over mesh (cap) region.

    integrand=None computes plain area.  ``region`` is a vectorized indicator
    on ambient points; None integrates everywhere.  ``refine`` uniformly
    splits every triangle that many times first (used for error estimates).
    """
    corners = mesh.corners()
    owners = np.arange(len(corners))
    for _ in range(refine):
        corners, owners = split4(corners, owners)
    if region is None:
        return _rule_sum(corners, owners, integrand)

    total = 0.0
    for level in range(cut_depth + 1):
        if len(corners) == 0:
            break
        full, cut = _classify(corners, region)
        total += _rule_sum(corners[full], owners[full], integrand)
        if level == cut_depth:
            # resolve remaining leaves by centroid membership
            leaf = corners[cut]
            leaf_owners = owners[cut]
            if len(leaf):
                keep = np.asarray(region(leaf.mean(axis=1)), dtype=bool)
                total += _rule_sum(leaf[keep], leaf_owners[keep], integrand)
        else:
            corners, owners = split4(corners[cut], owners[cut])
    return total


def integrate_with_error(
    mesh,
    integrand=None,
    region=None,
    cut_depth: int = DEFAULT_CUT_DEPTH,
):
    """(value, error) where value uses one refinement beyond the base pass."""
    coarse = integrate_mesh(mesh, integrand, region, cut_depth)
    fine = integrate_mesh(mesh, integrand, region, cut_depth, refine=1)
    err = abs(fine - coarse) / 3.0 + 1e-15 * abs(fine)
    return fine, err


def surface_measure(mesh, region=None, cut_depth: int = DEFAULT_CUT_DEPTH) -> float:
    """Area of {x in mesh : region(x)} with boundary-resolving subdivision."""
    return integrate_mesh(mesh, None, region, cut_depth)


def ball_region(center, radius: float, complement: bool = False):
    """Vectorized indicator of |x - center| < radius (or its complement)."""
    c = np.asarray(center, dtype=float)
    r2 = float(radius) ** 2

    def region(points):
        d2 = ((points - c) ** 2).sum(axis=1)
        return d2 > r2 if complement else d2 < r2

    return region


def shell_region(center, r_lo: float, r_hi: float, extra=None):
    """Indicator of r_lo < |x - center| < r_hi, optionally AND ``extra``."""
    c = np.asarray(center, dtype=float)
    lo2, hi2 = float(r_lo) ** 2, float(r_hi) ** 2

    def region(points):
        d2 = ((points - c) ** 2).sum(axis=1)
        out = (d2 > lo2) & (d2 < hi2)
        if extra is not None:
            out &= np.asarray(extra(points), dtype=bool)
        return out

    return region
