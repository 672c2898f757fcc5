"""Surface integration over radial shells on triangle meshes.

A fixed symmetric 6-node rule (exact through degree 4 on flat triangles)
handles smooth integrands.  Every integral is taken over the shells
``radii[k-1] <= |x - center| < radii[k]`` around one center: triangles
straddling a sphere are split recursively until their corners and centroid
agree on a shell, and leaves left at the cut depth go to their centroid's
shell.  Error bars come from comparing against one global uniform
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
# top-level triangles refined together: bounds the live subdivision and
# integrand arrays when many spheres cut the mesh at once
_BLOCK_TRIANGLES = 8_192


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


def _rule_values(corners, owners, integrand):
    """The 6-node rule applied to each flat triangle of a batch."""
    areas = triangle_areas(corners)
    if integrand is None:
        return areas
    # nodes: (m, 6, n)
    nodes = np.einsum("qb,mbn->mqn", TRI6_BARY, corners)
    m, q, n = nodes.shape
    vals = integrand(nodes.reshape(m * q, n), np.repeat(owners, q))
    return np.asarray(vals, dtype=float).reshape(m, q) @ TRI6_W * areas


def radial_integrals(
    mesh,
    center,
    radii,
    integrand=None,
    cut_depth: int = DEFAULT_CUT_DEPTH,
    refine: int = 0,
) -> np.ndarray:
    """Each triangle's integral over each shell between consecutive radii.

    Returns a (K, T) array for K radii and T mesh triangles: row k holds the
    integral of ``integrand(points, owner_triangles)`` (plain area when None)
    over ``radii[k-1] <= |x - center| < radii[k]``, with ``radii[-1] = 0``,
    so cumulative row sums are ball integrals.  ``radii`` must be strictly
    increasing; a last radius of ``np.inf`` takes in the whole mesh.
    ``refine`` uniformly splits every triangle that many times first (used
    for error estimates).
    """
    c = np.asarray(center, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if (radii.ndim != 1 or len(radii) == 0 or not radii[0] >= 0
            or not np.all(np.diff(radii) > 0)):
        raise ValueError("radii must be a nonempty, strictly increasing "
                         "sequence of nonnegative radii")
    r2 = radii**2
    K = len(radii)

    def shell_of(points):
        # d^2 < r^2 is inside the ball of radius r; K means outside them all
        return np.searchsorted(r2, ((points - c) ** 2).sum(axis=-1),
                               side="right")

    mesh_corners = mesh.corners()
    T = len(mesh_corners)
    out = np.zeros((K, T))
    for lo in range(0, T, _BLOCK_TRIANGLES):
        hi = min(lo + _BLOCK_TRIANGLES, T)
        corners, owners = mesh_corners[lo:hi], np.arange(lo, hi)
        for _ in range(refine):
            corners, owners = split4(corners, owners)
        for level in range(cut_depth + 1):
            shell = shell_of(corners.mean(axis=1))
            if level == cut_depth:
                done = np.ones(len(corners), dtype=bool)
            else:
                done = (shell_of(corners) == shell[:, None]).all(axis=1)
            take = done & (shell < K)
            if take.any():
                vals = _rule_values(corners[take], owners[take], integrand)
                out[:, lo:hi] += np.bincount(
                    shell[take] * (hi - lo) + owners[take] - lo, weights=vals,
                    minlength=K * (hi - lo),
                ).reshape(K, hi - lo)
            corners, owners = split4(corners[~done], owners[~done])
            if len(corners) == 0:
                break
    return out


def integrate_with_error(
    mesh,
    center,
    radius: float,
    integrand=None,
    cut_depth: int = DEFAULT_CUT_DEPTH,
):
    """(value, error) over the ball |x - center| < radius.

    The value uses one uniform refinement beyond the base pass and the error
    is a third of what that refinement changed.  ``radius = np.inf``
    integrates over the whole mesh.
    """
    coarse = float(radial_integrals(mesh, center, [radius], integrand,
                                    cut_depth).sum())
    fine = float(radial_integrals(mesh, center, [radius], integrand,
                                  cut_depth, refine=1).sum())
    err = abs(fine - coarse) / 3.0 + 1e-15 * abs(fine)
    return fine, err
