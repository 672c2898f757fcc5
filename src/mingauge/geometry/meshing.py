"""Mesh generators: chart grids, polar disks, tubes, icospheres.

Grid and polar-disk triangles come from index arithmetic on the cells; the
boundary is left to ``SimplicialSurface``, which derives its edges at
construction.
"""
from __future__ import annotations

import numpy as np

from ..errors import DegenerateChartError
from .types import ImmersionChart, SimplicialSurface

DEGENERACY_TOL = 1e-12


def _grid_triangles(nu: int, nv: int, wrap_v: bool) -> np.ndarray:
    """Triangulate an (nu+1) x (nv or nv+1) vertex grid with alternating diagonals.

    Cell (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1),
    d = (i, j+1) and gives (a, b, c), (a, c, d) when i + j is even, else
    (a, b, d), (b, c, d); cells follow in row-major order.
    """
    cols = nv if wrap_v else nv + 1
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    j1 = (j + 1) % cols
    a, b = i * cols + j, (i + 1) * cols + j
    c, d = (i + 1) * cols + j1, i * cols + j1
    even = (i + j) % 2 == 0
    first = np.stack([a, b, np.where(even, c, d)], axis=-1)
    second = np.stack([np.where(even, a, b), c, d], axis=-1)
    return np.stack([first, second], axis=-2).reshape(-1, 3)


def mesh_from_chart(
    chart: ImmersionChart,
    resolution: tuple[int, int],
    truncation_radius: float | None = None,
) -> SimplicialSurface:
    """Sample a chart on a structured grid and triangulate it.

    ``resolution`` is the number of cells (nu, nv).  Periodic charts are
    stitched in v so no seam boundary appears.  Raises DegenerateChartError
    when the first fundamental form is numerically singular at a grid point.
    """
    nu, nv = resolution
    if nu < 1 or nv < 1:
        raise ValueError("resolution must be at least (1, 1)")
    u0, u1, v0, v1 = chart.domain
    u_values = np.linspace(u0, u1, nu + 1)
    v_values = np.linspace(v0, v1, nv + 1)
    uu, vv = np.meshgrid(u_values, v_values, indexing="ij")

    E, F, G = chart.first_form(uu, vv)
    det = E * G - F * F
    scale = E * G  # det / scale: sin^2 of the coordinate angle, at any scale
    bad = det <= DEGENERACY_TOL * scale
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise DegenerateChartError(
            f"chart '{chart.name}' singular near (u, v) = "
            f"({u_values[i]:.6g}, {v_values[j]:.6g})"
        )

    # the grid's temporaries go before the mesh groups its edges
    del E, F, G, det, scale, bad
    pts = chart.points(uu, vv)
    del uu, vv
    if chart.periodic_v:
        pts = pts[:, :-1, :]  # last v-column duplicates the first
    verts = pts.reshape(-1, pts.shape[-1])
    del pts
    tris = _grid_triangles(nu, nv, chart.periodic_v)
    return SimplicialSurface(
        vertices=verts,
        triangles=tris,
        truncation_radius=truncation_radius,
        name=chart.name,
    )


def polar_disk_mesh(
    point_fn,
    radii: np.ndarray,
    sectors: int,
    truncation_radius: float | None = None,
    name: str = "",
) -> SimplicialSurface:
    """Triangulated topological disk from a polar parametrization.

    ``point_fn(rho, phi)`` maps polar domain coordinates to ambient points
    (vectorized).  ``radii`` are the positive ring radii in increasing order;
    a single center vertex at rho = 0 closes the disk, so the mesh has no
    inner hole.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) < 1 or np.any(np.diff(radii) <= 0) or radii[0] <= 0:
        raise ValueError("radii must be a strictly increasing positive 1-d array")
    phi = np.linspace(0.0, 2.0 * np.pi, sectors, endpoint=False)
    rr, pp = np.meshgrid(radii, phi, indexing="ij")
    ring_pts = np.asarray(point_fn(rr, pp), dtype=float).reshape(len(radii) * sectors, -1)
    center = np.asarray(point_fn(np.zeros(1), np.zeros(1)), dtype=float).reshape(1, -1)
    verts = np.concatenate([center, ring_pts])

    # central fan (0, (0, j), (0, j+1)), then ring cells r = 0 .. R-2 with
    # a = (r, j), b = (r, j+1), c = (r+1, j), d = (r+1, j+1), giving
    # (a, c, d), (a, d, b) when r + j is even, else (a, c, b), (c, d, b)
    j = np.arange(sectors)
    fan = np.stack([np.zeros_like(j), 1 + j, 1 + (j + 1) % sectors], axis=-1)
    r, j = np.meshgrid(np.arange(len(radii) - 1), j, indexing="ij")
    a, b = 1 + r * sectors + j, 1 + r * sectors + (j + 1) % sectors
    c, d = a + sectors, b + sectors
    even = (r + j) % 2 == 0
    first = np.stack([a, c, np.where(even, d, b)], axis=-1)
    second = np.stack([np.where(even, a, c), d, b], axis=-1)
    cells = np.stack([first, second], axis=-2).reshape(-1, 3)
    tris = np.concatenate([fan, cells])
    return SimplicialSurface(
        vertices=verts,
        triangles=tris,
        truncation_radius=truncation_radius,
        name=name,
    )


_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
        (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
        (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
    ],
    dtype=float,
)
_ICO_FACES = np.array(
    [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ],
    dtype=np.int64,
)


def icosphere(
    subdivisions: int = 3,
    radius: float = 1.0,
    center=(0.0, 0.0, 0.0),
    name: str = "icosphere",
) -> SimplicialSurface:
    """Closed sphere mesh from a subdivided icosahedron (20 * 4^k triangles)."""
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS[0])
    faces = _ICO_FACES.copy()
    for _ in range(subdivisions):
        edge_mid: dict[tuple[int, int], int] = {}
        new_faces = []
        verts_list = list(verts)

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in edge_mid:
                m = verts_list[i] + verts_list[j]
                m = m / np.linalg.norm(m)
                edge_mid[key] = len(verts_list)
                verts_list.append(m)
            return edge_mid[key]

        for (a, b, c) in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        verts = np.asarray(verts_list)
        faces = np.asarray(new_faces, dtype=np.int64)
    verts = verts * radius + np.asarray(center, dtype=float)
    return SimplicialSurface(
        vertices=verts,
        triangles=faces,
        truncation_radius=None,
        name=name,
    )


def spherical_cap_mesh(
    angle: float,
    rings: int = 48,
    sectors: int = 256,
    name: str = "cap",
) -> SimplicialSurface:
    """Geodesic cap {polar angle <= angle} on the unit sphere about +z.

    An even sector count makes the rim polygon antipodally symmetric, which
    keeps hemisphere complements exact.
    """
    if not 0 < angle <= np.pi:
        raise ValueError("cap angle must lie in (0, pi]")

    def pt(theta, phi):
        st = np.sin(theta)
        return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)

    radii = np.linspace(angle / rings, angle, rings)
    return polar_disk_mesh(pt, radii, sectors, truncation_radius=None, name=name)
