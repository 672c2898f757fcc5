"""Core geometric types: triangulated surfaces, charts, frames.

All ambient points are plain float64 numpy arrays of shape (n,) with n the
ambient dimension (3 or 4 in practice).  Tangent frames are arrays of shape
(2, n) whose rows are orthonormal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gamma, pi
from typing import Callable, Sequence

import numpy as np

from ..errors import MeshTopologyError

MIN_TRIANGLE_AREA = 1e-14
# per-triangle passes run this many triangles at a time, so that each
# (block, 3) temporary stays in cache and none spans the whole mesh
_BLOCK_TRIANGLES = 4096
_SAFE_MARGIN = 0.98  # share of the covered radius max_safe_radius returns
# a base within this share of max_safe_radius of the mesh sweeps as on it
_NEAR_SURFACE = 1e-3


def orthonormal_frame(xu: np.ndarray, xv: np.ndarray) -> np.ndarray:
    """Gram-Schmidt a pair of tangent vectors into a (2, n) orthonormal frame.

    Broadcasts over leading axes: inputs (..., n) give frames (..., 2, n).
    """
    xu = np.asarray(xu, dtype=float)
    xv = np.asarray(xv, dtype=float)
    e1 = xu / np.linalg.norm(xu, axis=-1, keepdims=True)
    w = xv - np.sum(xv * e1, axis=-1, keepdims=True) * e1
    e2 = w / np.linalg.norm(w, axis=-1, keepdims=True)
    return np.stack([e1, e2], axis=-2)


def tangent_part(x: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Projection of ``x`` onto the plane the orthonormal ``frame`` rows
    span: ``x`` (..., n) and ``frame`` (..., 2, n) give (..., n); the normal
    part is ``x - tangent_part(x, frame)``."""
    coef = np.einsum("...n,...kn->...k", x, frame)
    return np.einsum("...k,...kn->...n", coef, frame)


@dataclass
class SimplicialSurface:
    """Triangulated 2-surface immersed in R^n.

    vertices         (V, n) float64 coordinates
    triangles        (T, 3) int vertex indices
    truncation_radius  |x| at which an unbounded surface was cut off, or None
    name             free-form label used in reports
    boundary_edges   (B, 2) int64, the edges used by one triangle, as sorted
                     vertex pairs in lexicographic order
    boundary_owner   (B,) the triangle of each boundary edge
    interior_edges   (E, 2) int32, the edges two triangles share, as sorted
                     vertex pairs in lexicographic order
    interior_pairs   (E, 2) int32, the two triangles of each interior edge
    sides            (T,) each triangle's longest side

    The edge arrays, derived at construction, are the whole topology kept;
    ``_cache`` holds only one base point's store (see ``about``): each pass
    gathers the corners it needs, per block or selection, with
    ``corners(which)``.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    truncation_radius: float | None = None
    name: str = ""
    boundary_edges: np.ndarray = field(init=False)
    boundary_owner: np.ndarray = field(init=False)
    interior_edges: np.ndarray = field(init=False)
    interior_pairs: np.ndarray = field(init=False)
    sides: np.ndarray = field(init=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2:
            raise MeshTopologyError("vertices must be (V, n)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshTopologyError("triangles must be (T, 3)")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshTopologyError("non-finite vertex coordinates")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise MeshTopologyError("triangle vertex index out of range")
        areas = np.empty(len(self.triangles))
        self.sides = np.empty(len(areas))
        for lo in range(0, len(areas), _BLOCK_TRIANGLES):
            sl = slice(lo, lo + _BLOCK_TRIANGLES)
            c = self.corners(sl)
            areas[sl] = triangle_areas(c)
            d = c.take([1, 2, 0], axis=1) - c
            d = np.einsum("tkn,tkn->tk", d, d)
            np.sqrt(np.maximum(np.maximum(d[:, 0], d[:, 1]), d[:, 2]),
                    out=self.sides[sl])
        if areas.size and areas.min() <= MIN_TRIANGLE_AREA:
            k = int(np.argmin(areas))
            raise MeshTopologyError(
                f"triangle {k} is degenerate (area {areas.min():.3e})"
            )
        del areas
        self._check_edges()

    # -- derived quantities ---------------------------------------------------
    def corners(self, which) -> np.ndarray:
        """Vertex coordinates of the triangles ``which`` (a slice, an index
        array or a mask), shape (m, 3, n); gathered anew at each call."""
        return np.take(self.vertices, self.triangles[which], axis=0)

    def about(self, center) -> dict:
        """The store of values kept for the base point ``center``:
        ``"center"``, its ``"distances"`` |vertex - center|, and as they are
        first asked for, the ``"distance_index"`` (``levels.distance_index``),
        the quadrature ``"table"`` (``quadrature``), ``"on_mesh"`` and the
        ``"flux"`` traced at each level (``invariants.flux_profile``).
        Another center empties the store."""
        center = np.asarray(center, dtype=float)
        store = self._cache.get("about")
        if store is None or not np.array_equal(store["center"], center):
            with np.errstate(over="ignore"):  # a center past 1e154 is +inf away
                dist = np.linalg.norm(self.vertices - center, axis=1)
            store = self._cache["about"] = {"center": center.copy(),
                                            "distances": dist}
        return store

    def _check_edges(self):
        """Group the 3T triangle sides by the int64 code lo * (V + 1) + hi
        with one stable argsort, reject an edge of more than two triangles,
        and keep the boundary and interior edges with their triangles.  The
        codes are built a column of sides at a time; vertex pairs and owning
        triangles are decoded at the edge starts only."""
        tri, T, V1 = self.triangles, len(self.triangles), len(self.vertices) + 1
        code = np.empty((3, T), dtype=np.int64)  # row k: the sides (k, k + 1)
        for k in range(3):
            a, b = tri[:, k], tri[:, (k + 1) % 3]
            np.minimum(a, b, out=code[k])
            code[k] *= V1
            code[k] += np.maximum(a, b)
        order = np.argsort(code.ravel(), kind="stable")  # side k T + t
        code = code.ravel()[order]
        if np.any(code[2:] == code[:-2]):
            raise MeshTopologyError("an edge is shared by more than two triangles")
        # new[i]: sorted side i starts an edge; new[3T] closes the last one
        new = np.ones(len(code) + 1, dtype=bool)
        np.not_equal(code[1:], code[:-1], out=new[1:-1])
        starts = np.flatnonzero(new[:-1])
        twice = ~new[1:][starts]  # the next side continues the edge
        key = code[starts]
        del code
        # the triangles of each edge's first and each interior one's second side
        second = order[1:][starts[twice]]
        owner = order[starts]
        del order, starts
        owner %= T
        second %= T
        self.boundary_edges = np.stack(np.divmod(key[~twice], V1), axis=1)
        self.boundary_owner = owner[~twice]
        edges = self.interior_edges = np.empty((len(second), 2), dtype=np.int32)
        np.divmod(key[twice], V1, out=(edges[:, 0], edges[:, 1]))
        pairs = self.interior_pairs = np.empty_like(edges)
        pairs[:, 0], pairs[:, 1] = owner[twice], second

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]


def sphere_area(p: int) -> float:
    """Measure of the unit sphere S^(p-1) in R^p (2, 2*pi, 4*pi, ...)."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    return 2.0 * pi ** (p / 2.0) / gamma(p / 2.0)


def on_surface_tolerance(center) -> float:
    """1e-9 (1 + |center|), the one roundoff bound on where the base sits.
    The quadrature reads heights and in-plane distances within it as 0,
    ``on_mesh`` counts the sheets within it, counting refuses a base that
    near the mesh, and the report's outermost counting radius must pass
    it."""
    return 1e-9 * (1.0 + float(np.linalg.norm(center)))


def max_safe_radius(mesh: SimplicialSurface, center) -> float:
    """Largest |x - center| radius guaranteed covered by the truncated mesh,
    with a 2% margin."""
    center = np.asarray(center, dtype=float)
    with np.errstate(over="ignore"):  # a center past 1e154 is +inf away
        if mesh.truncation_radius is None:
            return _SAFE_MARGIN * float(mesh.about(center)["distances"].max())
        return _SAFE_MARGIN * (mesh.truncation_radius
                               - float(np.linalg.norm(center)))


def wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plucker coordinates ``a_i b_j - a_j b_i`` (i < j) of rows (..., n), as
    a C-contiguous (..., n(n-1)/2) array; a row's norm is the area of the
    parallelogram its pair of vectors spans."""
    i, j = np.triu_indices(a.shape[-1], 1)
    return np.ascontiguousarray(a[..., i] * b[..., j] - a[..., j] * b[..., i])


def triangle_frames(corners: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frames (..., 2, n) of triangles given as (..., 3,
    n) corner arrays: ``orthonormal_frame`` of the sides from corner 0."""
    return orthonormal_frame(corners[..., 1, :] - corners[..., 0, :],
                             corners[..., 2, :] - corners[..., 0, :])


def triangle_centroids(corners: np.ndarray) -> np.ndarray:
    """Corner means (..., n) of (..., 3, n) corner arrays, summed in corner
    order as ``mean(axis=-2)`` does, without its strided reduction."""
    return (corners[..., 0, :] + corners[..., 1, :] + corners[..., 2, :]) / 3.0


def triangle_areas(corners: np.ndarray) -> np.ndarray:
    """Areas of triangles given as (..., 3, n) corner arrays, any n: half the
    norm of the wedge of two sides, which, unlike the Gram determinant
    |u|^2 |v|^2 - (u.v)^2, does not cancel on long thin triangles."""
    u = corners[..., 1, :] - corners[..., 0, :]
    v = corners[..., 2, :] - corners[..., 0, :]
    return 0.5 * np.linalg.norm(wedge(u, v), axis=-1)


@dataclass
class ImmersionChart:
    """Smooth parametrization of a surface patch over a rectangle.

    ``evaluate``/``derivatives`` must accept numpy arrays u, v of equal shape
    and return (..., n) resp. a pair of (..., n) arrays.  ``periodic_v`` marks
    charts whose v-extremes describe the same curve (tubes).
    """

    name: str
    domain: tuple[float, float, float, float]  # (u0, u1, v0, v1)
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    derivatives: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    periodic_v: bool = False

    def points(self, u, v) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.asarray(self.evaluate(u, v), dtype=float)

    def first_form(self, u, v):
        """E, F, G of the first fundamental form at (u, v)."""
        xu, xv = self.derivatives(np.asarray(u, float), np.asarray(v, float))
        E = np.sum(xu * xu, axis=-1)
        F = np.sum(xu * xv, axis=-1)
        G = np.sum(xv * xv, axis=-1)
        return E, F, G
