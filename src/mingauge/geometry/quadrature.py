"""Exact integrals over radial shells on flat-triangle meshes.

On a flat triangle the base point ``a`` has a constant height ``h`` above the
triangle's plane, so ``|x - a|^2 = h^2 + rho^2``, rho the in-plane distance
from the foot of ``a``, and each integrand a report needs (p = 2) depends on
rho alone: ``"area"`` 1, ``"inverse_power"`` 1 / (h^2 + rho^2) and
``"defect"`` |normal part|^2 / |x - a|^4 = h^2 / (h^2 + rho^2)^2.  Over the
signed fan pieces (foot, P_i, P_i+1) of a triangle, the part inside the disk
rho < sigma = sqrt(R^2 - h^2) integrates to the angular integral of
G(min(rho_edge, sigma)), G the radial antiderivative: G(sigma) times the
angle at the foot (an atan2) where the outer edge leaves the disk, an edge
integral where it stays inside (closed form for area and defect, 12-point
Gauss-Legendre for the inverse power).  Only triangles straddling a sphere
are clipped.  A height or in-plane distance within ``on_surface_tolerance``
of the base (a base on the surface, as ``on_mesh`` reads it) reads as 0: the
defect vanishes there and the inverse power's first ball diverges (``inf``).

Each base point has one table in the mesh's store: every triangle's squared
height and squared nearest / farthest distance, its whole integral of each
kind and one fill mask, no in-plane corners.  One sweep of
``_BLOCK_TRIANGLES`` blocks makes each block's in-plane corners once, from
its one corner gather, and the edge terms once for all kinds, filling the
triangles inside the largest ball asked for; a later, larger ball computes
just the triangles it adds, and a straddling triangle's corners are made
anew for each sphere that clips it.  Shells are differences of balls taken
in place.  Every step is elementwise or matrix by matrix and each Gauss
rule sums its nodes in one fixed order, so the values do not depend on the
blocks, the selections or the order in which kinds and balls were asked for.
"""
from __future__ import annotations

import numpy as np

from .levels import distance_index
from .types import (_BLOCK_TRIANGLES, _NEAR_SURFACE, max_safe_radius,
                    on_surface_tolerance, triangle_centroids, triangle_frames,
                    wedge)

KINDS = ("area", "inverse_power", "defect")
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_GL_U, _GL_W = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W


def _cross(x, y):
    return x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]


def _dot(x, y):
    return np.einsum("...n,...n->...", x, y)


def _log_ratio(s2, h2, flat):
    """log(1 + s^2 / h^2), or log(s^2) on the rows ``flat`` where h = 0
    (there only shells count)."""
    if len(flat) == 0:
        out = s2 / h2
        return np.log1p(out, out=out)
    h2 = h2.copy()
    h2[flat] = 1.0
    out = np.log1p(s2 / h2)
    out[flat] = np.log(s2[flat])
    return out


def _antiderivative(kind, s2, h2, flat):
    """G(sigma), the integral of the integrand times rho over rho < sigma."""
    if kind == "area":
        return 0.5 * s2
    if kind == "defect":
        return np.where(h2 > 0.0, 0.5 * s2 / (h2 + s2), 0.0)
    return 0.5 * _log_ratio(s2, h2, flat)


def _edge(kind, cross, A, b, xx, h2, flat, lo, hi):
    """Integral of G(rho) d(theta) along the edge points X + u D, u in
    [lo, hi]; d(theta) = cross(X, Y) du / |X + u D|^2."""
    if kind == "area":
        return 0.5 * cross * (hi - lo)
    if kind == "defect":
        # integral of du / (A u^2 + 2 b u + h^2 + |X|^2) is an arctan
        k = np.sqrt(A * h2 + cross * cross)
        p, q = A * hi + b, A * lo + b
        ok = (h2 > 0.0) & (k > 0.0)
        k = np.where(ok, k, 1.0)
        return np.where(ok, 0.5 * cross
                        * np.arctan2(k * (p - q), k * k + p * q) / k, 0.0)
    # in place, with the operation order of s2 = xx + u (2b + A u) and
    # total + w log_ratio / s2, so each node rounds as that form does
    total = np.zeros(cross.shape)
    b2 = 2.0 * b
    for t, w in zip(_GL_U, _GL_W):
        u = lo + (hi - lo) * t
        s2 = A * u
        s2 += b2
        s2 *= u
        s2 += xx
        term = _log_ratio(s2, h2, flat)
        term *= w
        term /= s2
        total += term
    return 0.5 * cross * (hi - lo) * total


def _fan_integrals(kinds, P, h2, sigma2=None):
    """Each triangle's integral of every kind in ``kinds`` (a row each) over
    the disk rho^2 < sigma2 (all of it when ``sigma2`` is None), from
    in-plane corners P (m, 3, 2) about the foot; the edge terms are made
    once for all kinds.  A whole triangle's edges run over u in [0, 1] as
    scalars, so each Gauss node is the node itself."""
    X, Y = P, P.take([1, 2, 0], axis=1)  # the next corner, as np.roll(P, -1)
    D = Y - X
    cross, A, b, xx = _cross(X, Y), _dot(D, D), _dot(X, D), _dot(X, X)
    flat = np.flatnonzero(h2 == 0.0)
    h2 = np.broadcast_to(h2[:, None], cross.shape)
    if sigma2 is None:
        lo, hi, angle = 0.0, 1.0, None
    else:
        s2 = sigma2[:, None]
        disc = b * b - A * (xx - s2)
        root = np.sqrt(np.maximum(disc, 0.0))
        lo = np.where(disc > 0.0, np.clip((-b - root) / A, 0.0, 1.0), 0.0)
        hi = np.where(disc > 0.0, np.clip((-b + root) / A, 0.0, 1.0), 0.0)
        Xa, Xb = X + lo[..., None] * D, X + hi[..., None] * D
        angle = (np.arctan2(_cross(X, Xa), _dot(X, Xa))
                 + np.arctan2(_cross(Xb, Y), _dot(Xb, Y)))
    out = np.empty((len(kinds), len(P)))
    for row, kind in zip(out, kinds):
        outside = 0.0 if angle is None else (
            _antiderivative(kind, s2, h2, flat) * angle)
        row[:] = (_edge(kind, cross, A, b, xx, h2, flat, lo, hi)
                  + outside).sum(axis=1)
    return out


def _table(mesh, center, r2):
    """The base point's table, kept in the mesh's store for ``center``:
    squared heights and squared nearest / farthest distances of every
    triangle, its whole integral of each of ``KINDS`` (a (K, T) array) and
    the mask of the triangles whose whole integrals are filled in.  One
    sweep of ``_BLOCK_TRIANGLES`` blocks makes the in-plane corners of each
    block once and fills the triangles the ball of squared radius ``r2``
    holds; a larger ball later gathers the corners of what it adds anew."""
    store = mesh.about(center)
    if "table" not in store:
        T = len(mesh.triangles)
        h2, near2, far2 = np.empty(T), np.empty(T), np.empty(T)
        whole, filled = np.zeros((len(KINDS), T)), np.zeros(T, dtype=bool)
        for lo in range(0, T, _BLOCK_TRIANGLES):
            sl = slice(lo, lo + _BLOCK_TRIANGLES)
            P, h2[sl], near2[sl], far2[sl] = _in_plane_block(mesh.corners(sl),
                                                             center)
            take = np.flatnonzero(far2[sl] <= r2)
            whole[:, lo + take] = _fan_integrals(KINDS, P[take], h2[lo + take])
            filled[lo + take] = True
        store["table"] = h2, near2, far2, whole, filled
    h2, near2, far2, whole, filled = store["table"]
    todo = np.flatnonzero((far2 <= r2) & ~filled)
    for i in range(0, len(todo), _BLOCK_TRIANGLES):
        block = todo[i:i + _BLOCK_TRIANGLES]
        P = _corners_in_plane(mesh.corners(block), center)[0]
        whole[:, block] = _fan_integrals(KINDS, P, h2[block])
    filled[todo] = True
    return store["table"]


def _corners_in_plane(corners, center):
    """In-plane corners (m, 3, 2; positively oriented, as frames follow
    corner order) of ``corners`` about the foot of ``center``, with the
    offsets ``corners - center`` and the frames.  The stacked matmul
    multiplies matrix by matrix, so a block or any selection of triangles
    gets the bits of the whole mesh."""
    x, frames = corners - center, triangle_frames(corners)
    return (np.matmul(x, np.ascontiguousarray(frames.transpose(0, 2, 1))),
            x, frames)


def _in_plane_block(corners, center):
    """``_corners_in_plane``'s in-plane corners, squared heights and squared
    nearest / farthest distances of ``corners`` about ``center``, each step
    elementwise.  A height or in-plane distance to the triangle at most the
    on-surface tolerance reads as 0, so a nearest distance is 0 or past it."""
    P, x, frames = _corners_in_plane(corners, center)
    centroid = triangle_centroids(corners) - center
    X, Y = P, P.take([1, 2, 0], axis=1)  # the next corner, as np.roll(P, -1)
    foot = triangle_centroids(P)
    normal = centroid - foot[:, :1] * frames[:, 0] - foot[:, 1:] * frames[:, 1]
    h2 = _dot(normal, normal)
    d2 = _dot(x, x)
    far2 = np.maximum(np.maximum(d2[:, 0], d2[:, 1]), d2[:, 2])
    tol2 = on_surface_tolerance(center) ** 2
    h2[h2 <= tol2] = 0.0
    # in-plane distance from the foot to the closed triangle
    D = Y - X
    near = X + np.clip(-_dot(X, D) / _dot(D, D), 0.0, 1.0)[..., None] * D
    e2 = _dot(near, near)
    foot2 = np.minimum(np.minimum(e2[:, 0], e2[:, 1]), e2[:, 2])
    inside = _cross(X, Y) >= 0.0
    foot2[(inside[:, 0] & inside[:, 1] & inside[:, 2]) | (foot2 <= tol2)] = 0.0
    return P, h2, h2 + foot2, far2


def on_mesh(mesh, center) -> tuple[float, int]:
    """``(distance, sheets)`` of ``center``, kept in the mesh's store: the
    distance to the closed triangles (``_in_plane_block``'s, 0 within the
    on-surface tolerance) within the reach
    ``_NEAR_SURFACE * max_safe_radius`` or the on-surface tolerance, else
    ``inf``; and ``round(theta / 2 pi)``, theta the angles at ``center`` of the
    triangles within the tolerance: a corner's, pi on a side, else 2 pi."""
    store = mesh.about(center)
    if "on_mesh" not in store:
        c = store["center"]
        tol2 = on_surface_tolerance(c) ** 2
        reach = max(_NEAR_SURFACE * max_safe_radius(mesh, c), np.sqrt(tol2))
        # a point of a triangle lies within its longest side of each corner
        corners = mesh.corners(distance_index(mesh, c)[1] - mesh.sides <= reach)
        near2 = _in_plane_block(corners, c)[2]
        d = float(np.sqrt(near2.min(initial=np.inf)))
        x = corners[near2 <= tol2] - c
        D = x.take([1, 2, 0], axis=1) - x  # side k leaves corner k
        e = x + np.clip(-_dot(x, D) / _dot(D, D), 0.0, 1.0)[..., None] * D
        v = D.take([2, 0, 1], axis=1)  # the side into corner k
        angle = np.arctan2(np.linalg.norm(wedge(D, v), axis=-1), -_dot(D, v))
        angle[_dot(x, x) > tol2] = np.inf
        side = np.where(_dot(e, e).min(axis=1) <= tol2, np.pi, 2.0 * np.pi)
        theta = float(np.minimum(angle.min(axis=1), side).sum())
        store["on_mesh"] = (d if d <= reach else np.inf, round(theta / 2 / np.pi))
    return store["on_mesh"]


def sweep_start(mesh, center, end: float, pad: float = 0.0) -> float:
    """First radius of a geometric sweep out to ``end``: ``0.02 end`` within
    ``on_mesh``'s reach, where 1.3 times the distance would be ~0 or a
    near-critical radius (level curves almost tangent to the spheres), else
    1.3 times the nearest vertex distance plus ``pad``; at most ``0.5 end``."""
    if on_mesh(mesh, center)[0] < np.inf:
        return 0.02 * end
    return min(1.3 * mesh.about(center)["distances"].min() + pad, 0.5 * end)


def radial_integrals(mesh, center, radii, kind: str = "area") -> np.ndarray:
    """Each triangle's integral over each shell between consecutive radii.

    Returns a (K, T) array for K radii and T mesh triangles: row k holds the
    integral of ``kind`` (see ``KINDS``) over ``radii[k-1] <= |x - center| <
    radii[k]``, with ``radii[-1] = 0``, so cumulative row sums are ball
    integrals.  ``radii`` must be strictly increasing; a last radius of
    ``np.inf`` takes in the whole mesh.  The inverse power's first row is
    ``inf`` on triangles that contain ``center``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown integrand kind {kind!r}; expected one of "
                         f"{', '.join(KINDS)}")
    c = np.asarray(center, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if (radii.ndim != 1 or len(radii) == 0 or not radii[0] >= 0
            or not np.all(np.diff(radii) > 0)):
        raise ValueError("radii must be a nonempty, strictly increasing "
                         "sequence of nonnegative radii")
    radii2 = radii**2
    h2, near2, far2, whole, _ = _table(mesh, c, radii2[-1])
    whole = whole[KINDS.index(kind)]
    balls = np.zeros((len(radii), len(far2)))
    for k, r2 in enumerate(radii2):
        inside = far2 <= r2
        np.copyto(balls[k], whole, where=inside)
        # straddling triangles: their in-plane corners are made anew
        cut = np.flatnonzero((near2 < r2) & ~inside)
        P = _corners_in_plane(mesh.corners(cut), c)[0]
        balls[k, cut] = _fan_integrals((kind,), P, h2[cut], r2 - h2[cut])[0]
    # balls are finite, so a triangle inside two of them adds exactly 0 to
    # the shell between; the inverse power diverges only in the first ball.
    # Rows turn into shells in place, from the last one down.
    for k in range(len(balls) - 1, 0, -1):
        np.subtract(balls[k], balls[k - 1], out=balls[k])
    if kind == "inverse_power":
        balls[0, near2 == 0.0] = np.inf
    return balls
