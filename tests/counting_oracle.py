"""Reference section hit tests: one Cramer solve per section dimension.

These are the pair tests the single Plücker-coordinate ``intgeom._hit_test``
replaced, kept as the oracle it is tested against.  Lines in R^3 solve by
cross products and measure the hit along the line; (n-2)-planes project the
triangle onto the section's complement and measure the hit in the section.
Their gray zone, ``EDGE_EPS`` wide in barycentric terms, is their own.  The
pairs ``_hit_test`` leaves undecided lie in it, and hits agree on every pair
that the Cramer tests do not call gray and ``_hit_test`` decides.

``rational_hits`` decides one pair in ``Fraction`` arithmetic only, by a
Cramer solve with the same symbolic tie-break: the reference for every pair
``_hit_test``'s error bounds decide and for ``intgeom._settle``, which
decides the rest.

``cap_index_one_sort`` is the cap index ``intgeom._cap_index`` builds in
chunks, made from every listing at once with one stable sort.
"""
from fractions import Fraction

import numpy as np

from mingauge.geometry import wedge
from mingauge.intgeom import _CAP_COLS, _CAP_ROWS, _ranges

EDGE_EPS = 1e-9  # barycentric half-width of the Cramer tests' gray zone


def _barycentric_zones(det, det_scale, a_num, b_num, eps):
    """Cramer solve of a batch of pairs and its tangency gray zone.

    Returns (alpha, beta, inside, potential, gray): ``inside`` hits lie clear
    of the triangle's edges, ``potential`` ones lie on the ``eps``-widened
    triangle, and ``gray`` marks near-parallel pairs and potential hits near
    an edge, whose count cannot be trusted.
    """
    safe = np.abs(det) > 1e-13 * det_scale
    inv = np.where(safe, det, 1.0)
    alpha = a_num / inv
    beta = b_num / inv
    inside = safe & (alpha > eps) & (beta > eps) & (alpha + beta < 1.0 - eps)
    potential = safe & (alpha > -eps) & (beta > -eps) & (alpha + beta < 1.0 + eps)
    near_edge = (
        (np.abs(alpha) <= eps) | (np.abs(beta) <= eps)
        | (np.abs(alpha + beta - 1.0) <= eps)
    )
    gray = (~safe) | (potential & near_edge)
    return alpha, beta, inside, potential, gray


def _line_hit_test(A, e1, e2, base):
    """Pair test for line sections in R^3 via cross-product Cramer solves.

    The hit lies at ``base + (s / det) u``.
    """
    tvec = base - A
    w_det = np.cross(e2, e1)
    w_alpha = np.cross(e2, tvec)
    w_beta = np.cross(tvec, e1)
    abs_s = np.abs(np.einsum("tn,tn->t", e2, w_beta))
    det_scale = np.linalg.norm(w_det, axis=1) + 1e-300

    def test(sections, complements, ti, si, radii, eps):
        dirs = np.take(sections[:, 0, :], si, axis=0)
        det = np.einsum("pn,pn->p", np.take(w_det, ti, axis=0), dirs)
        a_num = np.einsum("pn,pn->p", np.take(w_alpha, ti, axis=0), dirs)
        b_num = np.einsum("pn,pn->p", np.take(w_beta, ti, axis=0), dirs)
        _, _, inside, potential, gray = _barycentric_zones(
            det, np.take(det_scale, ti), a_num, b_num, eps)
        s = np.take(abs_s, ti)
        abs_det = np.abs(det)
        hits = np.empty((len(radii), len(ti)), dtype=bool)
        for k, r in enumerate(radii):
            hits[k] = inside & (s <= r * abs_det)
            gray |= potential & (np.abs(s - r * abs_det) <= eps * r * abs_det)
        return hits, gray

    return test


def _plane_hit_test(A, e1, e2, base):
    """Pair test for (n-2)-plane sections via Cramer solves on projections.

    By Cauchy-Binet ``det = (c1^c2) . (e1^e2)``, so the near-parallel rule
    scales it by ``|e1^e2|``, as the line test scales by ``|e2 x e1|``.
    """
    t0 = base - A
    w_scale = np.linalg.norm(wedge(e1, e2), axis=1) + 1e-300

    def test(sections, complements, ti, si, radii, eps):
        comp = complements[si]
        m1 = np.einsum("pn,pin->pi", e1[ti], comp)
        m2 = np.einsum("pn,pin->pi", e2[ti], comp)
        tt = np.einsum("pn,pin->pi", t0[ti], comp)
        det = m1[:, 0] * m2[:, 1] - m2[:, 0] * m1[:, 1]
        a_num = tt[:, 0] * m2[:, 1] - m2[:, 0] * tt[:, 1]
        b_num = m1[:, 0] * tt[:, 1] - tt[:, 0] * m1[:, 1]
        alpha, beta, inside, potential, gray = _barycentric_zones(
            det, w_scale[ti], a_num, b_num, eps)

        sec = sections[si]
        b0 = np.einsum("pn,pkn->pk", A[ti] - base, sec)
        f1 = np.einsum("pn,pkn->pk", e1[ti], sec)
        f2 = np.einsum("pn,pkn->pk", e2[ti], sec)
        w = b0 + alpha[:, None] * f1 + beta[:, None] * f2
        rho2 = np.sum(w * w, axis=1)
        hits = np.empty((len(radii), len(ti)), dtype=bool)
        for k, r in enumerate(radii):
            hits[k] = inside & (rho2 <= r * r)
            gray |= potential & (np.abs(rho2 - r * r) <= 3.0 * eps * r * r)
        return hits, gray

    return test


def rational_hits(corners, base, rows, radii):
    """Hits (one per radius) of the triangle ``corners`` (3, n) by the
    section through ``base`` that the complement ``rows`` (2, n) define,
    in rationals on the float inputs.

    The section meets ``A + alpha e1 + beta e2`` where the rows map it to
    the base's image: ``alpha u + beta v = t`` with ``u, v, t`` the images
    of ``e1``, ``e2`` and ``base - A``.  Ties are broken by solving for the
    image moved by ``(eps, eps^2)`` instead: ``alpha det``, ``beta det`` and
    ``(1 - alpha - beta) det`` are then polynomials in eps, positive times
    ``det`` when their first nonzero coefficient is.  A hit counts inside
    radius r when the unmoved hit lies within r of the base.
    """
    A, B, C = ([Fraction(x) for x in corner] for corner in corners)
    rows = [[Fraction(x) for x in row] for row in rows]
    e1 = [y - x for x, y in zip(A, B)]
    e2 = [y - x for x, y in zip(A, C)]
    t0 = [Fraction(y) - x for x, y in zip(A, base)]
    u, v, t = ([sum(c * x for c, x in zip(row, vec)) for row in rows]
               for vec in (e1, e2, t0))

    def cross(p, q):
        return p[0] * q[1] - p[1] * q[0]

    det = cross(u, v)
    a_det = (cross(t, v), v[1], -v[0])
    b_det = (cross(u, t), -u[1], u[0])
    g_det = (det - a_det[0] - b_det[0], u[1] - v[1], v[0] - u[0])
    if det == 0 or not all(next((c for c in poly if c != 0), 0) * det > 0
                           for poly in (a_det, b_det, g_det)):
        return [False] * len(radii)
    alpha, beta = a_det[0] / det, b_det[0] / det
    w = [alpha * x + beta * y - z for x, y, z in zip(e1, e2, t0)]
    return [sum(x * x for x in w) <= Fraction(r) ** 2 for r in radii]


def cap_index_one_sort(caps, row0, nrow, col0, ncol):
    """``_cap_index``'s (listed, start) from all listings and one sort."""
    size = nrow * ncol
    k, cap = _ranges(np.zeros_like(size), size)
    cells = ((row0[cap] + k // ncol[cap]) * _CAP_COLS
             + (col0[cap] + k % ncol[cap]) % _CAP_COLS).astype(np.int16)
    listed = caps[cap[np.argsort(cells, kind="stable")]].astype(np.int32)
    start = np.zeros(_CAP_ROWS * _CAP_COLS + 1, dtype=np.intp)
    np.cumsum(np.bincount(cells, minlength=_CAP_ROWS * _CAP_COLS),
              out=start[1:])
    return listed, start
