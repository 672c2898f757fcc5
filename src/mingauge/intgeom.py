"""Random-section counting and the radial-projection picture.

A 2-surface in R^n is sliced by affine (n-2)-planes through a base point:
lines for n = 3, 2-planes for n = 4.  Counting the intersection points inside
a ball, averaged over Haar-random sections, ties back to the surface's radial
projection x -> x/|x|: the projection compresses area by a factor

    |x_normal| / |x|^(p + 1)          (p = 2 here)

so section-count averages, projected sphere measure, and the defect integral
can all be compared against one another.

Counting culls before it tests: a (triangle, section) pair is hit-tested only
when the section meets the triangle's corner cap, the cap about the summed
unit directions from the base to its corners that holds them all.  Caps are
found through an angular cap index for lines in R^3 (_cap_cull) and through
triangle groups for 2-planes in R^4 (_group_cull).  One float hit test serves
every n (_hit_test): it takes the signs of the base's barycentric weights in
the section's complement, and then the radius test, each under a stated error
bound; the few pairs the bounds leave undecided are decided in rationals with
a symbolic tie-break (_settle).  So every count is exact on the float mesh.
crofton_verify is the same line count with base 0 on a region of the unit
sphere: its mean, times half the sphere's area, is the region's area.  A base
on the mesh (geometry.on_mesh) is in every section: counting refuses it.

Memory.  A count holds, per pruned triangle, what one corner pass gives (its
index, the hit test's Plucker vectors and largest corner distance, its corner
cap), the cull's rims and index or groups, and the (radii, sections) counts.
All else lives for one block: corner gathers for _BLOCK_TRIANGLES triangles,
cap tests for _BLOCK_GATHER candidate pairs, and a block of sections with its
frames, drawn and factored by an elementwise Gram-Schmidt QR as the count
reaches them (their bits depend on neither the block nor the BLAS kernel), and
its candidates.
"""
from math import gamma, pi, sqrt
from typing import NamedTuple

import numpy as np

from .errors import IdentityNotApplicableError
from .geometry import (distance_index, on_mesh, on_surface_tolerance,
                       sphere_area, wedge)
from .geometry.types import _BLOCK_TRIANGLES

MAX_MC_SAMPLES = 1_000_000  # random sections one count may draw
# section frames factored at a time, which bounds the Gram-Schmidt arrays
_BLOCK_FRAMES = 8192
_BLOCK_CANDIDATES = 100_000  # ~ culling candidates handled per block
_BLOCK_GATHER = 8192  # candidate pairs whose coordinates are gathered at once
# A triangle's corner cap: the unit center c of the sum of its unit corner
# directions u_i, and the radius rho, the largest 2 asin(|u_i - c| / 2) plus
# _CAP_MARGIN rad.  A hit's direction is a positive combination of the u_i,
# and a cap narrower than pi/2 is convex, so every hit lies m = _CAP_MARGIN -
# 1e-14 inside the rim, the corner angles, the group radii and the tilt of a
# section's rows from the section its complement rows define being a few ulps
# off.  For every rho from _CAP_MARGIN to pi/2 that room covers the few ulps
# of the cap index's theta, phi and asin(sin rho / sin theta) argument, which
# m moves by over cos(_CAP_MAX_ANGLE) m > 0.96 m, and the ~1e-15 error of
# (F . c)^2 >= cos^2 rho, as cos^2 grows by sin m sin(2 rho - m) >= sin^2 m ~
# 1e-14 from rho to rho - m.  Caps from pi/2 on pass every section.  The index
# and the groups keep the test's pairs, but for directions ~1e-15 / rho rad
# outside a rim, where no hit lies.
_CAP_MARGIN = 1e-7
# _cap_cull's lat-long grid on S^2; caps wider than _CAP_MAX_ANGLE would fill
# many cells
_CAP_ROWS, _CAP_COLS = 64, 128
_CAP_MAX_ANGLE = 0.25
# the cap index is built this many listings (cap x cell) at a time
_CAP_CHUNK = 1 << 14
# _group_cull's groups: a cell of the _GROUP_GRID-per-axis grid of [-1, 1]^n
# over the cap center, and a power-of-_GROUP_CLASS_BASE class of the cap
# radius.
_GROUP_GRID = 12
_GROUP_CLASS_BASE = 2.0


# --------------------------------------------------------------------------
# radial projection


def radial_jacobian(points, frames, center):
    """Area scaling of x -> x/|x| on the surface: |x_normal| / |x|^3.

    ``points`` (..., n) paired with orthonormal tangent ``frames``
    (..., 2, n); broadcasts over leading axes.
    """
    x = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)
    frames = np.asarray(frames, dtype=float)
    coef = np.einsum("...n,...kn->...k", x, frames)
    r2 = np.sum(x * x, axis=-1)
    n2 = np.maximum(r2 - np.sum(coef * coef, axis=-1), 0.0)
    return np.sqrt(n2) / r2 ** 1.5


# --------------------------------------------------------------------------
# section sampling


def sample_grassmann(n: int, p: int, count: int, rng):
    """Haar-random orthonormal section frames through the origin.

    Returns (sections, complements): (count, n-p, n) rows spanning each
    section plane and (count, p, n) rows spanning its orthogonal complement,
    the columns of a Gaussian (n, n) matrix's Q factor with R's diagonal
    positive (``_signed_qr_frames``).  That Q is exactly Haar on O(n)
    (Mezzadri, Notices AMS 54, 2007), so the frame is rotation-invariant.
    """
    if not 1 <= p < n:
        raise ValueError("need 1 <= p < n")
    return _signed_qr_frames(rng.standard_normal((count, n, n)), n - p)


def _signed_qr_frames(columns, k):
    """The Q, with R's diagonal positive, of square (m, n, n) matrices: the
    first ``k`` columns of each as (m, k, n) rows, the rest as (m, n - k, n).

    Modified Gram-Schmidt run twice (``_gram_schmidt_q``): each column, less
    its projections on the columns before it, is divided by its norm, which
    is R's diagonal entry, so it comes out positive with no sign pass.  The
    second pass keeps the columns orthonormal to working precision (Giraud,
    Langou, Rozloznik and van den Eshof, Numer. Math. 101, 2005: twice is
    enough).  A column exactly in the span of the earlier ones would divide
    by 0; a Gaussian draw is one with probability 0, and planted directions
    are padded to square with a generic block.

    Every entry is formed by elementwise numpy over the stack, each sum added
    term by term in a fixed order, so a frame's bits depend on its own matrix
    alone: not on the block that holds it, nor on the BLAS kernel.  Working
    ``_BLOCK_FRAMES`` matrices at a time bounds the working arrays.
    """
    m, n, _ = columns.shape
    sections, complements = np.empty((m, k, n)), np.empty((m, n - k, n))
    for lo in range(0, m, _BLOCK_FRAMES):
        sl = slice(lo, lo + _BLOCK_FRAMES)
        # entry (i, j) of the block's matrices is the contiguous q[i, j]
        q = _gram_schmidt_q(np.ascontiguousarray(
            np.transpose(columns[sl], (1, 2, 0))))
        sections[sl] = np.transpose(q[:, :k], (2, 1, 0))
        complements[sl] = np.transpose(q[:, k:], (2, 1, 0))
    return sections, complements


def _gram_schmidt_q(a):
    """The Q, (n, n, b), of the (n, n, b) entry-major matrices ``a``, formed
    in place column by column (``_signed_qr_frames``)."""
    n = len(a)
    for j in range(n):
        v = a[:, j]
        for _ in range(2):
            for k in range(j):
                dot = a[0, k] * v[0]
                for i in range(1, n):
                    dot += a[i, k] * v[i]
                v -= a[:, k] * dot
        norm = v[0] * v[0]
        for i in range(1, n):
            norm += v[i] * v[i]
        v /= np.sqrt(norm)
    return a


class _SectionDraws:
    """The ``count`` Haar-random (n-2)-plane frames of one count, drawn from
    ``rng`` a block at a time by ``take(m)`` (``sample_grassmann``).  The
    generator gives the same normals drawn at once or in pieces, and QR
    factors matrix by matrix, so the frames are those of one whole draw."""

    def __init__(self, n: int, count: int, rng):
        self.count, self._n, self._rng = count, n, rng

    def take(self, m: int):
        """The next ``m`` frames."""
        return sample_grassmann(self._n, 2, m, self._rng)


# --------------------------------------------------------------------------
# section / mesh intersection counting


class _Triangles(NamedTuple):
    """What a count keeps of the triangles that can meet its ball."""

    kept: np.ndarray     # (T,) int32 mesh indices
    W: list              # _hit_test's three (T, k) Plucker vectors
    s2: np.ndarray       # (T,) largest squared corner distance
    center: np.ndarray   # (T, n) unit corner-cap centers
    radius: np.ndarray   # (T,) corner-cap radii, _CAP_MARGIN included


def _angle(u, v):
    """Angles between the unit directions ``u`` and ``v``, rows paired."""
    return 2.0 * np.arcsin(np.minimum(
        0.5 * np.linalg.norm(u - v, axis=-1), 1.0))


def _pruned_triangles(mesh, base, r_max) -> _Triangles:
    """The triangles that can meet the ball |x - base| <= r_max (a point of
    a triangle lies within its longest side of each corner), with their
    ``_hit_test`` Plucker vectors and largest squared corner distance and
    their corner caps (``_CAP_MARGIN``), from one pass over their corners.
    The base is off every closed triangle, so a plane through it has each
    triangle's corners strictly on one side: their directions' sum is not 0."""
    n = len(base)
    kept = np.flatnonzero(distance_index(mesh, base)[1] - mesh.sides
                          <= r_max).astype(np.int32)
    W = [np.empty((len(kept), n * (n - 1) // 2)) for _ in range(3)]
    center = np.empty((len(kept), n))
    s2, radius = np.empty(len(kept)), np.empty(len(kept))
    for lo in range(0, len(kept), _BLOCK_TRIANGLES):
        sl = slice(lo, lo + _BLOCK_TRIANGLES)
        d = mesh.corners(kept[sl]) - base
        for i in range(3):
            W[i][sl] = wedge(d[:, (i + 1) % 3], d[:, (i + 2) % 3])
        d2 = np.einsum("tin,tin->ti", d, d)
        s2[sl] = d2.max(axis=1)
        d /= np.sqrt(d2)[..., None]
        c = d.sum(axis=1)
        center[sl] = c = c / np.linalg.norm(c, axis=1)[:, None]
        radius[sl] = _angle(d, c[:, None]).max(axis=1)
    return _Triangles(kept, W, s2, center, radius + _CAP_MARGIN)


def _rims(radius):
    """``cos^2`` of the cap radii, -1 (every section) from pi/2 on."""
    return np.where(radius < pi / 2, np.cos(radius) ** 2, -1.0)


def _cull_pairs(center, rim, sections):
    """(cap, section) index pairs whose section meets the cap.

    The angle from the unit ``center`` c to a section through the base with
    orthonormal rows ``F_j`` has ``cos^2 = sum_j (F_j . c)^2``, so a pair
    survives when that is at least the cap's ``rim`` (``_rims``).  Each row
    is one contiguous (S, T) product.  Returns (ti, si, candidates = S x T).
    """
    near = sections[:, 0, :] @ center.T
    np.square(near, out=near)
    for j in range(1, sections.shape[1]):
        proj = sections[:, j, :] @ center.T
        near += np.square(proj, out=proj)
    si, ti = np.divmod(np.flatnonzero(near >= rim), len(rim))
    return ti, si, near.size


def _sphere_cells(u):
    """Lat-long grid cell of each unit direction in ``u`` (m, 3)."""
    theta = np.arctan2(np.hypot(u[:, 0], u[:, 1]), u[:, 2])
    phi = np.arctan2(u[:, 1], u[:, 0])
    row = np.minimum((theta * (_CAP_ROWS / pi)).astype(np.intp), _CAP_ROWS - 1)
    col = ((phi + pi) * (_CAP_COLS / (2 * pi))).astype(np.intp) % _CAP_COLS
    return row * _CAP_COLS + col


def _ranges(starts, lengths):
    """Concatenated ``arange(s, s + n)`` per (s, n), and each one's row."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    pos = np.arange(owner.size) + np.repeat(starts - np.cumsum(lengths)
                                            + lengths, lengths)
    return pos, owner


def _cap_test(pairs, test):
    """Indices of the ``pairs`` candidate pairs that pass ``test(sl)``,
    which gathers their coordinates ``_BLOCK_GATHER`` pairs at a time."""
    keep = np.empty(pairs, dtype=bool)
    for lo in range(0, pairs, _BLOCK_GATHER):
        sl = slice(lo, min(lo + _BLOCK_GATHER, pairs))
        keep[sl] = test(sl)
    return np.flatnonzero(keep)


def _cap_index(caps, row0, nrow, col0, ncol):
    """``(listed, start)``: the triangles ``caps`` listed cell by cell of
    the grid, cell ``c`` holding ``listed[start[c]:start[c + 1]]`` in the
    order of ``caps``.

    Cap i covers ``nrow[i]`` rows from ``row0[i]`` and ``ncol[i]`` columns
    from ``col0[i]``, wrapped.  Its listings (cap x cell) are made in chunks
    of about ``_CAP_CHUNK`` as int16 cells; then each chunk, sorted by cell
    stably, puts its triangles in its cells' next free places.  So no array
    as long as all the listings holds more than int32, and no int64
    temporary is longer than a chunk.
    """
    size = nrow * ncol
    ends, total = np.cumsum(size), int(size.sum())
    cuts = np.searchsorted(ends, np.arange(_CAP_CHUNK, total, _CAP_CHUNK),
                           side="right")
    chunks = [(a, b, slice(ends[a] - size[a], ends[b - 1]))
              for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(size)]) if a < b]
    cells = np.empty(total, dtype=np.int16)
    start = np.zeros(_CAP_ROWS * _CAP_COLS + 1, dtype=np.intp)
    for a, b, at in chunks:
        k, cap = _ranges(np.zeros(b - a, dtype=np.intp), size[a:b])
        cap += a
        row, col = np.divmod(k, ncol[cap])
        cells[at] = ((row0[cap] + row) * _CAP_COLS
                     + (col0[cap] + col) % _CAP_COLS)
        start[1:] += np.bincount(cells[at], minlength=len(start) - 1)
    np.cumsum(start, out=start)
    free, listed = start[:-1].copy(), np.empty(total, dtype=np.int32)
    for a, b, at in chunks:
        # cell ids fit int16, for which numpy's stable sort is a radix sort
        order = np.argsort(cells[at], kind="stable")
        chunk_cells = cells[at][order]
        n = np.bincount(chunk_cells, minlength=len(free))
        first = np.cumsum(n) - n  # each cell's first place in the chunk
        listed[free[chunk_cells] + np.arange(len(order))
               - first[chunk_cells]] = np.repeat(caps[a:b], size[a:b])[order]
        free += n
    return listed, start


def _cap_extents(center, radius):
    """``(always, caps, (row0, nrow, col0, ncol))`` for ``_cap_cull``: the
    triangles tested against every line, the capped ones, and each cap's
    first row, row count, first column and column count on the grid, as
    int32.  The per-cap angles die on return, before the index is built.
    """
    wide = radius > _CAP_MAX_ANGLE
    always = np.flatnonzero(wide).astype(np.int32)
    caps = np.flatnonzero(~wide).astype(np.int32)
    half, c = radius[caps], center[caps]
    theta = np.arctan2(np.hypot(c[:, 0], c[:, 1]), c[:, 2])
    phi = np.arctan2(c[:, 1], c[:, 0])

    row_h, col_w = pi / _CAP_ROWS, 2 * pi / _CAP_COLS
    row0 = np.maximum(np.floor((theta - half) / row_h), 0).astype(np.int32)
    nrow = np.minimum(np.floor((theta + half) / row_h),
                      _CAP_ROWS - 1).astype(np.int32) - row0 + 1
    polar = (theta <= half) | (theta + half >= pi)
    spread = np.where(polar, pi, np.arcsin(
        np.sin(half) / np.maximum(np.sin(theta), np.sin(half))))
    col0 = np.floor((phi - spread + pi) / col_w).astype(np.int32)
    ncol = np.floor((phi + spread + pi) / col_w).astype(np.int32) - col0 + 1
    ring = ncol >= _CAP_COLS
    col0[ring], ncol[ring] = 0, _CAP_COLS
    return always, caps, (row0, nrow, col0, ncol)


def _cap_cull(center, radius):
    """The ``_cull_pairs`` pairs for lines in R^3, through an angular index.

    A line along the unit vector ``u`` meets the corner cap about ``c`` when
    ``(u . c)^2`` is at least its rim: when ``u`` or ``-u`` lies in the cap.
    Each cap is listed under the grid cells of its rows and of the columns
    within ``asin(sin(radius) / sin(polar angle))`` of its azimuth, wrapped
    across phi = +-pi; a cap over a pole takes whole rings.  Caps wider than
    ``_CAP_MAX_ANGLE`` are tested against every line.  The cap test on a
    line's candidates (the lists of the cells of ``u`` and ``-u``, and the
    always-test caps) keeps ``_cull_pairs``' pairs.

    Returns ``cull(sections) -> (ti, si, candidates)`` and an estimate of
    the candidates per line, which sizes the section blocks.
    """
    always, caps, extents = _cap_extents(center, radius)
    listed, start = _cap_index(caps, *extents)
    rim = _rims(radius)
    wide_center, wide_rim = center[always], rim[always]

    def cull(sections):
        u = sections[:, 0, :]
        m = len(u)
        both = np.concatenate([u, -u])
        cells = _sphere_cells(both)
        lengths = start[cells + 1] - start[cells]
        pos, owner = _ranges(start[cells], lengths)
        ti = listed[pos]

        def near(sl):
            dots = np.einsum("pn,pn->p", np.take(both, owner[sl], axis=0),
                             np.take(center, ti[sl], axis=0))
            return dots * dots >= np.take(rim, ti[sl])

        keep = _cap_test(len(pos), near)
        k_w, si_w, wide_cells = _cull_pairs(wide_center, wide_rim, sections)
        ti = np.concatenate([ti[keep], always[k_w]])
        si = np.concatenate([owner[keep] % m, si_w])
        return ti, si, len(pos) + wide_cells

    per_line = 2 * len(listed) // (_CAP_ROWS * _CAP_COLS) + len(always) + 1
    return cull, per_line


def _group_cull(center, radius):
    """The ``_cull_pairs`` pairs for 2-planes in R^4, through triangle groups.

    The triangles are grouped by the grid cell of their cap center on
    [-1, 1]^n and by the power-of-``_GROUP_CLASS_BASE`` class of their cap
    radius.  A group with unit center ``g`` and radius ``rho = max(angle(g,
    c) + radius)`` over its members' caps about ``c`` holds every member's
    cap, and the angle to a section is 1-Lipschitz on the sphere, so a
    section meets a member's cap only if its angle to ``g`` is at most
    ``rho``: if ``sum_j (F_j . g)^2 >= cos^2 rho``.  Groups with ``rho >=
    pi/2`` pass every section.  The cap test on the members of a section's
    passed groups keeps ``_cull_pairs``' pairs.

    Returns ``cull(sections) -> (ti, si, candidates)``, the candidates being
    the group tests plus the member cap tests, and the expected candidates
    per Haar-random 2-plane in R^4, which sizes the section blocks.
    """
    cell = np.minimum(((center + 1.0) * (_GROUP_GRID / 2)).astype(np.intp),
                      _GROUP_GRID - 1)
    level = np.floor(np.log(radius) / np.log(_GROUP_CLASS_BASE)).astype(np.intp)
    level -= level.min()
    key = np.ravel_multi_index((*cell.T, level), (_GROUP_GRID,) * len(cell.T)
                               + (level.max() + 1,))
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    size = np.diff(np.r_[first, len(key)])
    member = order.astype(np.int32)
    member_center, member_rim = center[order], _rims(radius[order])
    group = np.add.reduceat(member_center, first, axis=0)
    group /= np.linalg.norm(group, axis=1)[:, None]
    rho = np.maximum.reduceat(_angle(member_center, np.repeat(
        group, size, axis=0)) + radius[order], first)
    rim = _rims(rho)

    def cull(sections):
        gi, si, tests = _cull_pairs(group, rim, sections)
        pos, owner = _ranges(first[gi], size[gi])
        si = si[owner]

        def near(sl):
            proj = np.einsum("pkn,pn->pk", np.take(sections, si[sl], axis=0),
                             np.take(member_center, pos[sl], axis=0))
            return (np.einsum("pk,pk->p", proj, proj)
                    >= np.take(member_rim, pos[sl]))

        keep = _cap_test(len(pos), near)
        return member[pos[keep]], si[keep], tests + len(pos)

    # |F g|^2 is uniform on [0, 1] for a Haar 2-plane in R^4: a group passes
    # with probability 1 - cos^2 rho, or 1 from rho = pi/2 (rim -1) on
    per_section = len(first) + size @ np.minimum(1.0 - rim, 1.0)
    return cull, int(per_section) + 1


def _hit_test(mesh, base, tri):
    """Float pair test of (n-2)-plane sections against the pruned triangles
    ``tri`` (``_pruned_triangles``), any n, the pairs' ``ti`` indexing
    ``tri.kept``: ``(hits, rest)``, ``rest`` marking the pairs its error
    bounds leave undecided, which ``_settle`` decides in rationals.

    With corner offsets ``d_i = P_i - base`` and complement rows ``c1, c2``,
    the section meets the triangle where the base's image is a convex
    combination of the projected corners ``q_i = (c1 . d_i, c2 . d_i)``,
    with weights ``C_i / D``: ``C_i = q_(i+1) x q_(i+2) = (c1^c2) . W_i``
    (Cauchy-Binet), ``W_i = d_(i+1)^d_(i+2)`` and ``D = sum C_i``.  Two C_i
    surely of opposite signs miss; three surely of one sign meet the
    triangle at ``V / D``, ``V = sum C_i d_i``, from the base, inside radius
    r when ``G = |V|^2 - r^2 D^2 <= 0``.  It reads each triangle's W_i and
    largest ``|d_i|^2`` from the corner pass that gives its cap; the corners
    of the few pairs inside are gathered again.

    The bounds (Higham, Accuracy and Stability of Numerical Algorithms,
    3.1; u = 2^-53) double the first-order error for the rounding of the
    bound and |c| = 1 + O(u), and are floored at 1e-200, far above the
    error of subnormal rounding.  C_i: each product in the expansion of
    (c1^c2) . (d^d') of the float P, base and c takes at most k + 6
    roundings (k = n(n-1)/2: both P - base, a product and a difference in
    each wedge, the product and k - 1 sums of the dot), so C_i is off by at
    most (k + 6) u |c1^+c2| . |d^+d'| <= 2 (k + 6) u |d| |d'| (^+: the
    wedge with a plus): ``e = 4 (k + 6) u s^2``, s the largest |d_i|.  G,
    with a = |D| and the C_i one sign: D and V are off by at most h = 3e +
    4ua and hs (the C_i's errors, the rounding of d and of the three-term
    sums), and |V| <= as, so by |x^2 - y^2| = |x - y| |x + y| and n + 1
    roundings of G itself, G is off by at most (s^2 + r^2) (h (2a + h) +
    (n + 1) u a^2), taken at the largest r.
    """
    n = mesh.vertices.shape[1]
    k, u = n * (n - 1) // 2, 2.0 ** -53

    def test(complements, ti, si, radii):
        cw = np.take(wedge(complements[:, 0], complements[:, 1]), si, axis=0)
        C = np.empty((3, len(ti)))
        for w, c in zip(tri.W, C):
            np.einsum("pk,pk->p", np.take(w, ti, axis=0), cw, out=c)
        s2 = np.take(tri.s2, ti)
        e = np.maximum(4 * (k + 6) * u * s2, 1e-200)
        hi, lo = C.max(axis=0), C.min(axis=0)
        rest = ~((hi > e) & (lo < -e))  # not surely opposite signs, or NaN
        inside = np.flatnonzero((lo > e) | (hi < -e))
        C, e, s2 = C[:, inside], e[inside], s2[inside]
        d = mesh.corners(tri.kept[ti[inside]]) - base
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.abs(C.sum(axis=0))
            V = np.einsum("ip,pin->pn", C, d)
            h = 3 * e + 4 * u * a
            bound = 2 * (s2 + radii.max() ** 2) * (
                h * (2 * a + h) + (n + 1) * u * a * a)
            G = np.einsum("pn,pn->p", V, V) - np.square(radii[:, None] * a)
            rest[inside] = ~np.all(np.abs(G) > np.maximum(bound, 1e-200),
                                   axis=0)
        hits = np.zeros((len(radii), len(ti)), dtype=bool)
        hits[:, inside] = G < 0
        return hits, rest

    return test


def _per_section(si, hits, rest, S):
    """Pair hits summed into (num_radii, S) counts, ``rest`` into (S,)."""
    counts = np.empty((len(hits), S), dtype=np.int64)
    for k, h in enumerate(hits):
        counts[k] = np.bincount(si[h], minlength=S)
    return counts, np.bincount(si[rest], minlength=S) > 0


def _settle(corners, base, rows, radii):
    """Exact hits (num_radii, g) of triangles with ``corners`` (g, 3, n)
    against the sections through ``base`` with the float complement ``rows``
    (g, 2, n), in rationals on the float inputs: ``_hit_test``'s ``C_i =
    q_(i+1) x q_(i+2)`` and ``G``, the origin moved by (eps, eps^2) for
    every triangle (Simulation of Simplicity, Edelsbrunner and Muecke 1990):
    a crossing at a vertex or an edge counts once, a D = 0 triangle never."""
    from fractions import Fraction  # only such pairs pay for the import
    F = np.vectorize(Fraction, otypes=[object])
    d = F(corners) - F(base)
    q = d @ np.swapaxes(F(rows), 1, 2)
    a, b = q[:, [1, 2, 0]], q[:, [2, 0, 1]]
    C = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    V, D = (C[..., None] * d).sum(axis=1), C.sum(axis=1)
    G = (V * V).sum(axis=1) - (F(radii)[:, None] * D) ** 2
    # C_i + (a_y - b_y) eps + (b_x - a_x) eps^2 has the sign of its lead term
    sign = np.zeros(C.shape, dtype=int)
    for key in (C, a[..., 1] - b[..., 1], b[..., 0] - a[..., 0]):
        sign = np.where(sign != 0, sign, (key > 0).astype(int) - (key < 0))
    return (np.abs(sign.sum(axis=1)) == 3) & (G <= 0)


class _SectionCounts(NamedTuple):
    """Section counts and the work that produced them."""

    counts: np.ndarray    # (num_radii, S) intersection counts
    jittered: int         # sections with a pair decided in rationals
    cells: int            # pruned triangles x sections
    candidates: int       # pairs the cull proposed to its cap test
    pairs_tested: int     # culled pairs given the hit test


def _count_sections(mesh, base, draws, radii) -> _SectionCounts:
    """(num_radii, S) intersection counts inside |x - base| <= r.

    ``draws`` hands out the S section frames: ``draws.count`` of them and
    ``draws.take(m)`` the next ``m`` as (sections, complements).  Each block
    of sections is culled and hit-tested once, and the pairs the float
    test leaves undecided are decided in rationals (``_settle``); what the
    count holds is in the module docstring.
    """
    base = np.asarray(base, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) == 0 or np.any(radii <= 0):
        raise ValueError("radii must be a nonempty 1-d array of positive cuts")
    if np.any(np.diff(radii) <= 0) and len(radii) > 1:
        raise ValueError("radii must be strictly increasing")
    if mesh.truncation_radius is not None:
        room = mesh.truncation_radius - float(np.linalg.norm(base))
        if radii.max() > room:
            raise ValueError(
                f"counting radius {radii.max():.6g} exceeds the region "
                f"covered by the truncated mesh ({room:.6g})"
            )
    tol = on_surface_tolerance(base)
    if on_mesh(mesh, base)[0] <= tol:
        point = ", ".join(f"{float(c):.6g}" for c in base)
        why = ("lies on the surface mesh: every section through it is pinned "
               "to that vertex" if mesh.about(base)["distances"].min() <= tol
               else f"[{point}] lies on a mesh edge or inside a mesh triangle: "
               "every section through it meets the surface at the base itself")
        raise IdentityNotApplicableError(f"base point {why}, so the count is "
                                         "ill-posed; offset the base point")
    tri = _pruned_triangles(mesh, base, radii.max())
    kept, S = tri.kept, draws.count
    counts = np.zeros((len(radii), S), dtype=np.int64)
    jittered = candidates = pairs_tested = 0
    if len(kept) == 0:
        return _SectionCounts(counts, jittered, 0, candidates, pairs_tested)
    hit_test = _hit_test(mesh, base, tri)
    cull, cost = (_cap_cull if len(base) == 3 else _group_cull)(tri.center,
                                                                 tri.radius)
    block = max(32, _BLOCK_CANDIDATES // cost)
    for lo in range(0, S, block):
        sec, comp = draws.take(min(block, S - lo))
        ti, si, proposed = cull(sec)
        candidates += proposed
        pairs_tested += len(ti)
        hits, rest = hit_test(comp, ti, si, radii)
        if len(g := np.flatnonzero(rest)):
            hits[:, g] = _settle(mesh.corners(kept[ti[g]]), base, comp[si[g]],
                                 radii)
        counts[:, lo:lo + len(sec)], rest = _per_section(si, hits, rest,
                                                         len(sec))
        jittered += int(rest.sum())
    return _SectionCounts(counts, jittered, len(kept) * S, candidates,
                          pairs_tested)


def counting_sweep(mesh, base, radii, samples: int = 20000,
                   seed: int | None = None) -> dict:
    """Monte-Carlo section-count averages over a shared sample of sections.

    Because every radius is evaluated on the same sections, the means are
    exactly nondecreasing in the cut radius.  ``cells`` (pruned triangles x
    samples), ``candidates`` (pairs the cull proposed to its cap test; for
    n = 4 the group tests plus the member cap tests) and ``pairs_tested``
    (pairs left by the cull) say how much of the counting work the cull
    saved.  ``jittered`` counts the sections with a pair that the float
    test's error bounds left undecided, decided in rationals.
    """
    if seed is None:
        raise ValueError("seed is required: counting is Monte-Carlo based")
    if samples < 100:
        raise ValueError("need at least 100 samples for a meaningful average")
    radii = np.asarray(radii, dtype=float)
    draws = _SectionDraws(mesh.vertices.shape[1], samples,
                          np.random.default_rng(seed))
    out = _count_sections(mesh, base, draws, radii)
    counts = out.counts
    means = counts.mean(axis=1)
    sd = counts.std(axis=1, ddof=1)
    ci = 1.96 * sd / sqrt(samples)
    return {
        "method": "monte_carlo",
        "radii": radii,
        "means": means,
        "ci95": ci,
        "max_observed": int(counts.max()),
        "samples": int(samples),
        "jittered": int(out.jittered),
        "seed": int(seed),
        "cells": int(out.cells),
        "candidates": int(out.candidates),
        "pairs_tested": int(out.pairs_tested),
    }


# --------------------------------------------------------------------------
# spherical regions: line counting and exact geodesic area


def geodesic_area(mesh) -> float:
    """Exact spherical area of the geodesic polyhedron over mesh vertices.

    Sums per-triangle solid angles 2*atan2(triple, 1 + a.b + b.c + c.a), so
    closed triangulations give 4*pi and geodesic hemispheres 2*pi to float
    accuracy regardless of the flat-triangle discretization error.
    """
    u = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
    a, b, c = np.moveaxis(u[mesh.triangles], 1, 0)
    trip = np.abs(np.einsum("tn,tn->t", a, np.cross(b, c)))
    den = (
        1.0 + np.einsum("tn,tn->t", a, b) + np.einsum("tn,tn->t", b, c)
        + np.einsum("tn,tn->t", c, a)
    )
    return float(np.sum(2.0 * np.arctan2(trip, den)))


def crofton_verify(region, samples: int = 100000,
                   seed: int | None = None) -> dict:
    """Check: area of a spherical region = (omega/2) x mean number of times
    a random line through the origin meets it.

    A line along ``u`` meets a flat triangle with corners on the unit sphere
    exactly when ``u`` or ``-u`` lies in its geodesic triangle, so the hits
    are section counts with base 0 inside radius 2.  The left side is the
    exact geodesic area, so closed regions and geodesic hemispheres must
    agree to roundoff.  Antipodal pairs share one sample, which makes the
    hemisphere estimator exactly variance-free.
    """
    if seed is None:
        raise ValueError("seed is required: the check is Monte-Carlo based")
    draws = _SectionDraws(3, samples, np.random.default_rng(seed))
    out = _count_sections(region, np.zeros(3), draws, [2.0])
    values = out.counts[0].astype(float)
    lhs = geodesic_area(region)
    factor = 0.5 * sphere_area(3)
    ci = float(factor * 1.96 * values.std(ddof=1) / sqrt(samples))
    rhs = factor * float(values.mean())
    floor = 1e-9 * max(1.0, abs(lhs))  # roundoff allowance for exact cases
    return {
        "lhs": float(lhs),
        "rhs": float(rhs),
        "ci95": ci,
        "gap": float(abs(lhs - rhs)),
        "passed": bool(abs(lhs - rhs) <= ci + floor),
        "samples": int(samples),
        "jittered": int(out.jittered),
        "seed": int(seed),
    }


# --------------------------------------------------------------------------
# counting-based bounds


def check_defect_counting_bound(defect: dict, counting: dict) -> dict:
    """Defect <= (omega_3/2) x mean section count, inside one ball.

    Pointwise the defect integrand |x_n|^2/|x|^4 never exceeds the
    projection Jacobian |x_n|/|x|^3, and integrating the Jacobian counts
    radial lines with multiplicity; the Monte-Carlo mean stands in for that
    count, so the bound must hold up to its confidence interval.  Pure
    arithmetic on a ``radial_defect`` estimate and a ``counting_sweep``
    result, compared at the sweep's outermost radius, which must be the
    defect's radius.
    """
    radius = float(counting["radii"][-1])
    if abs(radius - defect["radius"]) > 1e-12 * max(1.0, defect["radius"]):
        raise ValueError(
            f"defect radius {defect['radius']:.6g} differs from the outermost "
            f"counting radius {radius:.6g}"
        )
    half_omega = 0.5 * sphere_area(3)
    bound = half_omega * float(counting["means"][-1])
    bound_err = half_omega * float(counting["ci95"][-1])
    margin = bound - defect["value"]
    slack = bound_err + defect["error"] + 1e-9 * max(1.0, abs(bound))
    return {
        "passed": bool(margin >= -slack),
        "margin": float(margin),
        "detail": {"bound": float(bound), "bound_error": float(bound_err),
                   "defect": float(defect["value"]), "radius": radius},
    }


def counting_bound_constant(p: int = 2, route: str = "gamma") -> float:
    """Constant tying end counts to section counts; two independent routes.

    route="gamma":  2^(p-1) (p+1) sqrt(pi) Gamma((p+2)/2) / Gamma((p+3)/2)
    route="sphere": 2^(p-1) p omega_(p+1) / omega_p
    Both give pi, 8, 6*pi, ... and must agree to full precision.
    """
    if route == "gamma":
        return (
            2.0 ** (p - 1) * (p + 1) * sqrt(pi)
            * gamma((p + 2) / 2.0) / gamma((p + 3) / 2.0)
        )
    if route == "sphere":
        return 2.0 ** (p - 1) * p * sphere_area(p + 1) / sphere_area(p)
    raise ValueError("route must be 'gamma' or 'sphere'")


def check_ends_counting_bound(num_ends: int, max_count: int) -> dict:
    """Falsification check: end count <= constant x max section count.

    The check takes the sharper, starlike constant; the report states the
    non-starlike one, twice it, as an estimate.
    """
    c = counting_bound_constant()
    bound = c * max_count
    return {
        "passed": bool(num_ends <= bound + 1e-12),
        "margin": float(bound - num_ends),
        "detail": {"ends": int(num_ends), "max_count": int(max_count),
                   "constant": float(c), "starlike": True,
                   "bound": float(bound)},
    }
