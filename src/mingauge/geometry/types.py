"""Core geometric types: triangulated surfaces, charts, frames.

All ambient points are plain float64 numpy arrays of shape (n,) with n the
ambient dimension (3 or 4 in practice).  Tangent frames are arrays of shape
(2, n) whose rows are orthonormal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import MeshTopologyError

MIN_TRIANGLE_AREA = 1e-14


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

    The edge arrays, derived at construction, are the whole topology kept;
    ``_cache`` holds only frames, centroids and one base point's store.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    truncation_radius: float | None = None
    name: str = ""
    boundary_edges: np.ndarray = field(init=False)
    boundary_owner: np.ndarray = field(init=False)
    interior_edges: np.ndarray = field(init=False)
    interior_pairs: np.ndarray = field(init=False)
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
        areas = triangle_areas(self.corners())
        if areas.size and areas.min() <= MIN_TRIANGLE_AREA:
            k = int(np.argmin(areas))
            raise MeshTopologyError(
                f"triangle {k} is degenerate (area {areas.min():.3e})"
            )
        self._check_edges()

    # -- derived quantities ---------------------------------------------------
    def corners(self) -> np.ndarray:
        """Vertex coordinates per triangle, shape (T, 3, n); gathered anew at
        each call, not kept."""
        return self.vertices[self.triangles]

    def centroids(self) -> np.ndarray:
        """Corner means, shape (T, n), summed in corner order as
        ``mean(axis=1)`` does, without its strided reduction."""
        if "centroids" not in self._cache:
            c = self.corners()
            self._cache["centroids"] = (c[:, 0] + c[:, 1] + c[:, 2]) / 3.0
        return self._cache["centroids"]

    def frames(self) -> np.ndarray:
        """Per-triangle orthonormal tangent frames, shape (T, 2, n)."""
        if "frames" not in self._cache:
            c = self.corners()
            self._cache["frames"] = orthonormal_frame(
                c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]
            )
        return self._cache["frames"]

    def about(self, center) -> dict:
        """Values kept for ``center``, such as its ``"distances"`` |vertex -
        center|; another center empties the store."""
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
        and keep the boundary and interior edges with their triangles."""
        tri = self.triangles
        nxt = np.roll(tri, -1, axis=1)  # sides (0, 1), (1, 2), (2, 0)
        lo = np.minimum(tri, nxt).T.ravel()
        hi = np.maximum(tri, nxt).T.ravel()
        code = lo * (len(self.vertices) + 1) + hi
        order = np.argsort(code, kind="stable")
        starts = np.flatnonzero(np.diff(code[order], prepend=-1))
        counts = np.diff(np.append(starts, len(code)))
        if counts.size and counts.max() > 2:
            raise MeshTopologyError("an edge is shared by more than two triangles")
        owner = order % len(tri)  # side k belongs to triangle k mod T
        side = order[starts]  # the first side of each edge
        edges = np.stack([lo[side], hi[side]], axis=1)
        once, twice = counts == 1, counts == 2
        self.boundary_edges = edges[once]
        self.boundary_owner = owner[starts[once]]
        self.interior_edges = edges[twice].astype(np.int32)
        i0 = starts[twice]
        self.interior_pairs = np.stack([owner[i0], owner[i0 + 1]],
                                       axis=1).astype(np.int32)

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]


def on_surface_tolerance(center) -> float:
    """1e-9 (1 + |center|): a vertex this near ``center`` is ``center``."""
    return 1e-9 * (1.0 + float(np.linalg.norm(center)))


def on_surface_multiplicity(mesh: SimplicialSurface, center) -> int:
    """Number of mesh vertices within ``on_surface_tolerance(center)`` of
    ``center``: zero for a base point off the surface, else one per sheet
    through it in the catalog meshes.  The one test of whether a base lies
    on the surface.
    """
    center = np.asarray(center, dtype=float)
    tol = on_surface_tolerance(center)
    return int(np.count_nonzero(mesh.about(center)["distances"] <= tol))


def wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plucker coordinates ``a_i b_j - a_j b_i`` (i < j) of rows (..., n), as
    a C-contiguous (..., n(n-1)/2) array; a row's norm is the area of the
    parallelogram its pair of vectors spans."""
    i, j = np.triu_indices(a.shape[-1], 1)
    return np.ascontiguousarray(a[..., i] * b[..., j] - a[..., j] * b[..., i])


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
