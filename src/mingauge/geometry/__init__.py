from .types import (
    ImmersionChart,
    LevelCurve,
    SimplicialSurface,
    check_frame,
    decompose_radial,
    orthonormal_frame,
    triangle_areas,
)
from .meshing import (
    icosphere,
    mesh_from_chart,
    polar_disk_mesh,
    spherical_cap_mesh,
)
from .quadrature import integrate_with_error, radial_integrals, triangle_rule
from .levels import level_polyline

__all__ = [
    "ImmersionChart",
    "LevelCurve",
    "SimplicialSurface",
    "check_frame",
    "decompose_radial",
    "icosphere",
    "integrate_with_error",
    "level_polyline",
    "mesh_from_chart",
    "orthonormal_frame",
    "polar_disk_mesh",
    "radial_integrals",
    "spherical_cap_mesh",
    "triangle_areas",
    "triangle_rule",
]
