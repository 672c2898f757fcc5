"""Core geometric types: triangulated surfaces, charts, frames.

All ambient points are plain float64 numpy arrays of shape (n,) with n the
ambient dimension (3 or 4 in practice).  Tangent frames are arrays of shape
(2, n) whose rows are orthonormal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import InvalidFrameError, MeshTopologyError

FRAME_TOL = 1e-9
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


def check_frame(frame: np.ndarray, tol: float = FRAME_TOL) -> None:
    """Raise InvalidFrameError unless every frame has orthonormal rows.

    ``frame`` is one (k, n) frame or a batch of them shaped (..., k, n).
    """
    frame = np.asarray(frame, dtype=float)
    if frame.ndim < 2:
        raise InvalidFrameError(
            f"frame must be shaped (..., k, n), got shape {frame.shape}")
    f2 = frame.reshape(-1, frame.shape[-2], frame.shape[-1])
    gram = np.einsum("kin,kjn->kij", f2, f2)
    dev = np.max(np.abs(gram - np.eye(frame.shape[-2])))
    if not np.isfinite(dev) or dev > tol:
        raise InvalidFrameError(f"frame rows not orthonormal (deviation {dev:.3e})")


def decompose_radial(point, a, frame, check: bool = True):
    """Split ``point - a`` into its tangential and normal parts.

    ``frame`` rows span the tangent plane at ``point``.  Supports batched
    input: ``point`` (..., n), ``frame`` (..., 2, n), ``a`` (n,).
    Returns (tangential, normal), both shaped like ``point``.
    """
    point = np.asarray(point, dtype=float)
    frame = np.asarray(frame, dtype=float)
    a = np.asarray(a, dtype=float)
    if check:
        check_frame(frame)
    x = point - a
    coef = np.einsum("...n,...kn->...k", x, frame)
    tangential = np.einsum("...k,...kn->...n", coef, frame)
    return tangential, x - tangential


@dataclass
class SimplicialSurface:
    """Triangulated 2-surface immersed in R^n.

    vertices         (V, n) float64 coordinates
    triangles        (T, 3) int vertex indices
    boundary_edges   (B, 2) the edges used by one triangle, as sorted vertex
                     pairs in lexicographic order; None takes them from the
                     triangles, and a declared set (any order) is checked
    truncation_radius  |x| at which an unbounded surface was cut off, or None
    name             free-form label used in reports
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray | None = None
    truncation_radius: float | None = None
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

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
        areas = self.areas()
        if areas.size and areas.min() <= MIN_TRIANGLE_AREA:
            k = int(np.argmin(areas))
            raise MeshTopologyError(
                f"triangle {k} is degenerate (area {areas.min():.3e})"
            )
        self._check_edges()

    # -- derived quantities, computed once ---------------------------------
    def corners(self) -> np.ndarray:
        """Vertex coordinates per triangle, shape (T, 3, n)."""
        if "corners" not in self._cache:
            self._cache["corners"] = self.vertices[self.triangles]
        return self._cache["corners"]

    def areas(self) -> np.ndarray:
        if "areas" not in self._cache:
            c = self.corners()
            self._cache["areas"] = triangle_areas(c)
        return self._cache["areas"]

    def centroids(self) -> np.ndarray:
        if "centroids" not in self._cache:
            self._cache["centroids"] = self.corners().mean(axis=1)
        return self._cache["centroids"]

    def frames(self) -> np.ndarray:
        """Per-triangle orthonormal tangent frames, shape (T, 2, n)."""
        if "frames" not in self._cache:
            c = self.corners()
            self._cache["frames"] = orthonormal_frame(
                c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]
            )
        return self._cache["frames"]

    def edge_table(self):
        """``(keys, starts, counts, owner)``: the distinct edges as sorted
        pairs in lexicographic order; edge k is used by the triangles
        ``owner[starts[k]:starts[k] + counts[k]]``, in ascending order.
        Edges are grouped by the int64 code lo * (V + 1) + hi.
        """
        if "edge_table" not in self._cache:
            tri = self.triangles
            nxt = np.roll(tri, -1, axis=1)  # sides (0, 1), (1, 2), (2, 0)
            lo = np.minimum(tri, nxt).T.ravel()
            hi = np.maximum(tri, nxt).T.ravel()
            code = lo * (len(self.vertices) + 1) + hi
            order = np.argsort(code, kind="stable")
            starts = np.flatnonzero(np.diff(code[order], prepend=-1))
            keys = np.stack([lo[order[starts]], hi[order[starts]]], axis=1)
            counts = np.diff(np.append(starts, len(code)))
            owner = order % len(tri)
            self._cache["edge_table"] = (keys, starts, counts, owner)
        return self._cache["edge_table"]

    def interior_edge_pairs(self):
        """(E, 2) triangle index pairs sharing an interior edge, plus the edges."""
        if "interior_edge_pairs" not in self._cache:
            keys, starts, counts, owner = self.edge_table()
            two = counts == 2
            i0 = starts[two]
            pairs = np.stack([owner[i0], owner[i0 + 1]], axis=1)
            self._cache["interior_edge_pairs"] = (keys[two], pairs)
        return self._cache["interior_edge_pairs"]

    def _check_edges(self):
        """Reject an edge of more than two triangles, or a declared boundary
        other than the edges used once; keep the boundary as those edges."""
        keys, _, counts, _ = self.edge_table()
        if counts.size and counts.max() > 2:
            raise MeshTopologyError("an edge is shared by more than two triangles")
        single = keys[counts == 1]
        if self.boundary_edges is not None:
            be = np.sort(np.asarray(self.boundary_edges, dtype=np.int64)
                         .reshape(-1, 2), axis=1)
            if not np.array_equal(be[np.lexsort((be[:, 1], be[:, 0]))], single):
                raise MeshTopologyError(
                    f"declared boundary ({len(be)} edges) is not the set of "
                    f"{len(single)} edges used by one triangle")
        self.boundary_edges = single

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    def total_area(self) -> float:
        return float(self.areas().sum())


def triangle_areas(corners: np.ndarray) -> np.ndarray:
    """Areas of triangles given as (..., 3, n) corner arrays (any n via Gram)."""
    u = corners[..., 1, :] - corners[..., 0, :]
    v = corners[..., 2, :] - corners[..., 0, :]
    uu = np.sum(u * u, axis=-1)
    vv = np.sum(v * v, axis=-1)
    uv = np.sum(u * v, axis=-1)
    g = uu * vv - uv * uv
    return 0.5 * np.sqrt(np.maximum(g, 0.0))


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
    ambient_dim: int = 3
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
