from .types import (
    ImmersionChart,
    SimplicialSurface,
    max_safe_radius,
    on_surface_tolerance,
    orthonormal_frame,
    sphere_area,
    tangent_part,
    triangle_areas,
    wedge,
)
from .meshing import (
    icosphere,
    mesh_from_chart,
    polar_disk_mesh,
    spherical_cap_mesh,
)
from .quadrature import on_mesh, radial_integrals, sweep_start
from .levels import distance_index, level_chords

__all__ = [
    "ImmersionChart",
    "SimplicialSurface",
    "distance_index",
    "icosphere",
    "level_chords",
    "max_safe_radius",
    "mesh_from_chart",
    "on_mesh",
    "on_surface_tolerance",
    "orthonormal_frame",
    "polar_disk_mesh",
    "radial_integrals",
    "sphere_area",
    "spherical_cap_mesh",
    "sweep_start",
    "tangent_part",
    "triangle_areas",
    "wedge",
]
