"""Slow reference quadrature: midpoint subdivision with centroid assignment.

This is the cut-cell scheme the exact flat-triangle integrals replaced, kept
as the oracle they are tested against.  Triangles straddling a sphere are
split into four by their edge midpoints until their corners and centroid
agree on a shell; leaves left at the cut depth go to their centroid's shell.
Every leaf takes a symmetric 6-node rule.  Integrands are pointwise
callables ``(points, owner_triangles) -> values``; ``None`` is area.
"""
import numpy as np

from mingauge.geometry import decompose_radial, triangle_areas
from mingauge.geometry.quadrature import TRI6_BARY, TRI6_W


def split4(corners, owners):
    """One midpoint subdivision: (m,3,n) -> (4m,3,n), owners repeated."""
    v0, v1, v2 = corners[:, 0], corners[:, 1], corners[:, 2]
    m01, m12, m20 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v2 + v0)
    kids = np.concatenate([
        np.stack([v0, m01, m20], axis=1),
        np.stack([v1, m12, m01], axis=1),
        np.stack([v2, m20, m12], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ])
    return kids, np.concatenate([owners] * 4)


def _rule(corners, owners, integrand):
    areas = triangle_areas(corners)
    if integrand is None:
        return areas
    nodes = np.einsum("qb,mbn->mqn", TRI6_BARY, corners)
    m, q, n = nodes.shape
    vals = integrand(nodes.reshape(m * q, n), np.repeat(owners, q))
    return np.asarray(vals, dtype=float).reshape(m, q) @ TRI6_W * areas


def cut_cell_integrals(mesh, center, radii, integrand=None, cut_depth=6,
                       refine=0):
    """(K, T) shell integrals like ``radial_integrals``; ``refine`` splits
    every triangle uniformly that many times first."""
    c = np.asarray(center, dtype=float)
    r2 = np.asarray(radii, dtype=float) ** 2
    K = len(r2)

    def shell_of(points):
        return np.searchsorted(r2, ((points - c) ** 2).sum(axis=-1),
                               side="right")

    T = len(mesh.triangles)
    out = np.zeros((K, T))
    corners, owners = mesh.corners(), np.arange(T)
    for _ in range(refine):
        corners, owners = split4(corners, owners)
    for level in range(cut_depth + 1):
        shell = shell_of(corners.mean(axis=1))
        if level == cut_depth:
            done = np.ones(len(corners), dtype=bool)
        else:
            done = (shell_of(corners) == shell[:, None]).all(axis=1)
        take = done & (shell < K)
        vals = _rule(corners[take], owners[take], integrand)
        out += np.bincount(shell[take] * T + owners[take], weights=vals,
                           minlength=K * T).reshape(K, T)
        corners, owners = split4(corners[~done], owners[~done])
        if len(corners) == 0:
            break
    return out


def cut_cell_shells(mesh, center, radii, integrand=None, cut_depth=6):
    """(value, error) per shell: one uniform refinement beyond the base pass
    gives the value, and what it changed is the error."""
    coarse = cut_cell_integrals(mesh, center, radii, integrand,
                                cut_depth).sum(axis=1)
    fine = cut_cell_integrals(mesh, center, radii, integrand, cut_depth,
                              refine=1).sum(axis=1)
    return fine, np.abs(fine - coarse)


def defect_integrand(mesh, center):
    """|normal part|^2 / |x - center|^4, pointwise."""
    c = np.asarray(center, dtype=float)

    def f(points, owners):
        _, nor = decompose_radial(points, c, mesh.frames()[owners],
                                  check=False)
        r2 = np.sum((points - c) ** 2, axis=1)
        return np.sum(nor * nor, axis=1) / r2**2

    return f


def inverse_power_integrand(center):
    """1 / |x - center|^2, pointwise."""
    c = np.asarray(center, dtype=float)
    return lambda points, owners: 1.0 / np.sum((points - c) ** 2, axis=1)


def integrand_of(kind, mesh, center):
    """The pointwise integrand a ``radial_integrals`` kind names."""
    return {"area": None,
            "inverse_power": inverse_power_integrand(center),
            "defect": defect_integrand(mesh, center)}[kind]
