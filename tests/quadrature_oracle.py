"""Reference quadratures for ``radial_integrals``.

``cut_cell_integrals`` is the slow midpoint subdivision with centroid
assignment that the exact flat-triangle integrals replaced, kept as the
oracle they are tested against.  Triangles straddling a sphere are split
into four by their edge midpoints until their corners and centroid agree on
a shell; leaves left at the cut depth go to their centroid's shell.  Every
leaf takes a symmetric 6-node rule.  Integrands are pointwise callables
``(points, owner_triangles) -> values``; ``None`` is area.

``fan_radial_integrals`` is the plain form of the exact fan integrals: every
triangle's whole integral at once, both logarithms on every Gauss node and
per-node ``u`` arrays on whole edges, on the in-plane data of
``in_plane_one_pass``, which builds it for the whole mesh in one pass.
``radial_integrals``, the base point's table and the in-plane corners
made anew for any selection must match them byte for byte.
"""
import numpy as np

from mingauge.geometry import on_surface_tolerance, triangle_areas
from mingauge.geometry.quadrature import _GL_U, _GL_W, _cross, _dot
from levels_oracle import decompose_radial
from meshing_oracle import whole_corners, whole_frames

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
    corners, owners = whole_corners(mesh), np.arange(T)
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
    frames = whole_frames(mesh)

    def f(points, owners):
        _, nor = decompose_radial(points, c, frames[owners])
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


def _log_ratio(s2, h2):
    """log(1 + s^2 / h^2), or log(s^2) at h = 0 (where only shells count)."""
    flat = h2 == 0.0
    return np.where(flat, np.log(np.where(flat, s2, 1.0)),
                    np.log1p(s2 / np.where(flat, 1.0, h2)))


def _antiderivative(kind, s2, h2):
    if kind == "area":
        return 0.5 * s2
    if kind == "defect":
        return np.where(h2 > 0.0, 0.5 * s2 / (h2 + s2), 0.0)
    return 0.5 * _log_ratio(s2, h2)


def _edge(kind, cross, A, b, xx, h2, lo, hi):
    if kind == "area":
        return 0.5 * cross * (hi - lo)
    if kind == "defect":
        k = np.sqrt(A * h2 + cross * cross)
        p, q = A * hi + b, A * lo + b
        ok = (h2 > 0.0) & (k > 0.0)
        k = np.where(ok, k, 1.0)
        return np.where(ok, 0.5 * cross
                        * np.arctan2(k * (p - q), k * k + p * q) / k, 0.0)
    total = 0.0
    for t, w in zip(_GL_U, _GL_W):
        u = lo + (hi - lo) * t
        s2 = xx + u * (2.0 * b + A * u)
        total = total + w * _log_ratio(s2, h2) / s2
    return 0.5 * cross * (hi - lo) * total


def _fan_integrals(kind, P, h2, sigma2=None):
    X, Y = P, np.roll(P, -1, axis=1)
    D = Y - X
    cross, A, b, xx = _cross(X, Y), _dot(D, D), _dot(X, D), _dot(X, X)
    h2 = np.broadcast_to(h2[:, None], cross.shape)
    if sigma2 is None:
        lo, hi = np.zeros_like(A), np.ones_like(A)
        outside = 0.0
    else:
        s2 = sigma2[:, None]
        disc = b * b - A * (xx - s2)
        root = np.sqrt(np.maximum(disc, 0.0))
        lo = np.where(disc > 0.0, np.clip((-b - root) / A, 0.0, 1.0), 0.0)
        hi = np.where(disc > 0.0, np.clip((-b + root) / A, 0.0, 1.0), 0.0)
        Xa, Xb = X + lo[..., None] * D, X + hi[..., None] * D
        angle = (np.arctan2(_cross(X, Xa), _dot(X, Xa))
                 + np.arctan2(_cross(Xb, Y), _dot(Xb, Y)))
        outside = _antiderivative(kind, s2, h2) * angle
    return (_edge(kind, cross, A, b, xx, h2, lo, hi) + outside).sum(axis=1)


def in_plane_one_pass(mesh, center):
    """``_in_plane_block``'s (P, h2, near2, far2), every triangle at once."""
    x = whole_corners(mesh) - center
    frames = whole_frames(mesh)
    P = np.matmul(x, np.ascontiguousarray(frames.transpose(0, 2, 1)))
    X, Y = P, np.roll(P, -1, axis=1)
    foot = (P[:, 0] + P[:, 1] + P[:, 2]) / 3.0
    normal = (whole_corners(mesh).mean(axis=1) - center
              - foot[:, :1] * frames[:, 0] - foot[:, 1:] * frames[:, 1])
    h2 = _dot(normal, normal)
    d2 = _dot(x, x)
    far2 = np.maximum(np.maximum(d2[:, 0], d2[:, 1]), d2[:, 2])
    tol2 = on_surface_tolerance(center) ** 2
    h2[h2 <= tol2] = 0.0
    D = Y - X
    near = X + np.clip(-_dot(X, D) / _dot(D, D), 0.0, 1.0)[..., None] * D
    e2 = _dot(near, near)
    foot2 = np.minimum(np.minimum(e2[:, 0], e2[:, 1]), e2[:, 2])
    inside = _cross(X, Y) >= 0.0
    foot2[(inside[:, 0] & inside[:, 1] & inside[:, 2]) | (foot2 <= tol2)] = 0.0
    return P, h2, h2 + foot2, far2


def fan_radial_integrals(mesh, center, radii, kind):
    """(K, T) shell integrals like ``radial_integrals``, with the whole
    integrals of every triangle computed in one pass and nothing kept."""
    c = np.asarray(center, dtype=float)
    P, h2, near2, far2 = in_plane_one_pass(mesh, c)
    whole = _fan_integrals(kind, P, h2)
    balls = np.zeros((len(radii), len(P)))
    for k, r2 in enumerate(np.asarray(radii, dtype=float) ** 2):
        inside = far2 <= r2
        balls[k, inside] = whole[inside]
        cut = (near2 < r2) & ~inside
        balls[k, cut] = _fan_integrals(kind, P[cut], h2[cut], r2 - h2[cut])
    shells = np.diff(balls, axis=0, prepend=0.0)
    if kind == "inverse_power":
        shells[0, near2 == 0.0] = np.inf
    return shells
