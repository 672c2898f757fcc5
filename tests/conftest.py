"""Session-scoped surface fixtures so meshes are built once."""
import numpy as np
import pytest

from mingauge.catalog import build_surface
from mingauge.geometry.types import triangle_frames


@pytest.fixture(scope="session")
def coarse(request):
    cache = {}

    def get(name, **kwargs):
        key = (name, tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = build_surface(name, resolution="coarse", **kwargs)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def default(request):
    cache = {}

    def get(name, **kwargs):
        key = (name, tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = build_surface(name, **kwargs)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def catenoid_default(default):
    return default("catenoid")


@pytest.fixture(scope="session")
def plane_default(default):
    return default("plane")


@pytest.fixture(scope="session")
def catenoid_coarse(coarse):
    return coarse("catenoid")


@pytest.fixture(scope="session")
def plane_coarse(coarse):
    return coarse("plane")


@pytest.fixture(scope="session")
def enneper_coarse(coarse):
    return coarse("enneper")


@pytest.fixture(scope="session")
def sphere_coarse(coarse):
    return coarse("sphere")


@pytest.fixture(scope="session")
def parabola_coarse(coarse):
    return coarse("complex_parabola_r4")


@pytest.fixture(scope="session")
def helicoid_coarse(coarse):
    return coarse("helicoid")


@pytest.fixture(scope="session")
def off_catenoid_vertex(catenoid_coarse):
    """``base(offset)``: the catenoid ``coarse`` vertex nearest |x| = 10,
    moved ``offset`` along its normal (the sum of its triangles' normals)."""
    mesh = catenoid_coarse.mesh
    k = np.argmin(np.abs(np.linalg.norm(mesh.vertices, axis=1) - 10.0))
    around = np.flatnonzero((mesh.triangles == k).any(axis=1))
    frames = triangle_frames(mesh.corners(around))
    normal = np.cross(frames[:, 0], frames[:, 1]).sum(axis=0)
    return lambda offset: (mesh.vertices[k]
                           + offset * normal / np.linalg.norm(normal))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
