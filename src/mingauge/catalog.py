"""Built-in surface catalog.

Each entry builds an exact chart plus a triangulated mesh truncated at a
prescribed ambient radius, together with a default off-surface base point and
the invariant values the surface is expected to produce from that base point
(closed form, literature, or derived here).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateChartError, MeshTopologyError
from .geometry import (
    ImmersionChart,
    SimplicialSurface,
    icosphere,
    mesh_from_chart,
    orthonormal_frame,
    polar_disk_mesh,
    spherical_cap_mesh,
    tangent_part,
)


@dataclass
class SurfaceSpec:
    """A catalog surface: chart, mesh, base point and reference values."""

    name: str
    params: dict
    chart: ImmersionChart
    mesh: SimplicialSurface
    base_point: np.ndarray
    targets: dict = field(default_factory=dict)
    notes: str = ""
    #: True for non-minimal reference entries kept to show which checks are
    #: expected to break when the mean-curvature hypothesis is dropped.
    control: bool = False

    @property
    def ambient_dim(self) -> int:
        return self.mesh.ambient_dim


# --------------------------------------------------------------------------
# charts


def plane_chart(offset: float, half: float) -> ImmersionChart:
    def ev(u, v):
        return np.stack([u, v, np.full_like(np.asarray(u, float), offset)], axis=-1)

    def de(u, v):
        one = np.ones_like(np.asarray(u, float))
        zero = np.zeros_like(one)
        return (np.stack([one, zero, zero], axis=-1),
                np.stack([zero, one, zero], axis=-1))

    return ImmersionChart("plane", (-half, half, -half, half), ev, de)


def catenoid_chart(c: float, u_lo: float, u_hi: float) -> ImmersionChart:
    def ev(u, v):
        r = c * np.cosh(u / c)
        return np.stack([r * np.cos(v), r * np.sin(v), u], axis=-1)

    def de(u, v):
        sh = np.sinh(u / c)
        ch = c * np.cosh(u / c)
        xu = np.stack([sh * np.cos(v), sh * np.sin(v), np.ones_like(sh)], axis=-1)
        xv = np.stack([-ch * np.sin(v), ch * np.cos(v), np.zeros_like(sh)], axis=-1)
        return xu, xv

    return ImmersionChart(
        "catenoid", (u_lo, u_hi, 0.0, 2.0 * np.pi), ev, de, periodic_v=True
    )


def enneper_point(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.stack(
        [
            u - u**3 / 3.0 + u * v**2,
            -(v - v**3 / 3.0 + v * u**2),
            u**2 - v**2,
        ],
        axis=-1,
    )


def enneper_chart(half: float) -> ImmersionChart:
    def de(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        xu = np.stack([1 - u**2 + v**2, -2 * u * v, 2 * u], axis=-1)
        xv = np.stack([2 * u * v, -(1 - v**2 + u**2), -2 * v], axis=-1)
        return xu, xv

    return ImmersionChart("enneper", (-half, half, -half, half), enneper_point, de)


def helicoid_chart(pitch: float, r_max: float) -> ImmersionChart:
    """Helicoid covered snugly around the ball |x| <= r_max.

    Coordinates (u, theta) with radial coordinate u * W(theta), where
    W(theta)^2 = (kappa r_max)^2 - (pitch * theta)^2.  The image boundary
    stays outside the ball while the chart domain remains a rectangle.
    """
    kappa = 1.05
    theta_max = 1.01 * r_max / pitch
    k2 = (kappa * r_max) ** 2

    def W(theta):
        return np.sqrt(k2 - (pitch * theta) ** 2)

    def ev(u, th):
        u = np.asarray(u, dtype=float)
        th = np.asarray(th, dtype=float)
        rho = u * W(th)
        return np.stack([rho * np.cos(th), rho * np.sin(th), pitch * th], axis=-1)

    def de(u, th):
        u = np.asarray(u, dtype=float)
        th = np.asarray(th, dtype=float)
        w = W(th)
        dw = -(pitch**2) * th / w
        cos, sin = np.cos(th), np.sin(th)
        xu = np.stack([w * cos, w * sin, np.zeros_like(w)], axis=-1)
        xt = np.stack(
            [u * dw * cos - u * w * sin,
             u * dw * sin + u * w * cos,
             np.full_like(w, pitch)],
            axis=-1,
        )
        return xu, xt

    return ImmersionChart(
        "helicoid", (-1.0, 1.0, -theta_max, theta_max), ev, de
    )


def sphere_chart(radius: float, center) -> ImmersionChart:
    center = np.asarray(center, dtype=float)
    inset = 0.3

    def ev(th, ph):
        th = np.asarray(th, dtype=float)
        ph = np.asarray(ph, dtype=float)
        st, ct = np.sin(th), np.cos(th)
        return center + radius * np.stack(
            [st * np.cos(ph), st * np.sin(ph), ct], axis=-1
        )

    def de(th, ph):
        th = np.asarray(th, dtype=float)
        ph = np.asarray(ph, dtype=float)
        st, ct = np.sin(th), np.cos(th)
        xt = radius * np.stack([ct * np.cos(ph), ct * np.sin(ph), -st], axis=-1)
        xp = radius * np.stack([-st * np.sin(ph), st * np.cos(ph),
                                np.zeros_like(st)], axis=-1)
        return xt, xp

    return ImmersionChart(
        "sphere", (inset, np.pi - inset, 0.0, 2.0 * np.pi), ev, de, periodic_v=True
    )


def complex_parabola_point(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.stack([u, v, u**2 - v**2, 2 * u * v], axis=-1)


def complex_parabola_chart(half: float) -> ImmersionChart:
    def de(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        one = np.ones_like(u)
        zero = np.zeros_like(u)
        xu = np.stack([one, zero, 2 * u, 2 * v], axis=-1)
        xv = np.stack([zero, one, -2 * v, 2 * u], axis=-1)
        return xu, xv

    return ImmersionChart("complex_parabola_r4", (-half, half, -half, half),
                          complex_parabola_point, de)


# --------------------------------------------------------------------------
# builders

_RESOLUTIONS = {
    "plane": {
        "default": {"rings": 110, "sectors": 96, "r_inner": 0.05},
        "coarse": {"rings": 56, "sectors": 48, "r_inner": 0.05},
    },
    "catenoid": {
        "default": {"nu": 192, "nv": 96},
        "coarse": {"nu": 96, "nv": 48},
    },
    "enneper": {
        "default": {"rings": 110, "sectors": 192, "r_inner": 0.02},
        "coarse": {"rings": 64, "sectors": 96, "r_inner": 0.02},
    },
    "helicoid": {
        "default": {"nu": 64, "ntheta": 1024},
        "coarse": {"nu": 32, "ntheta": 384},
    },
    "sphere": {
        "default": {"subdivisions": 4},
        "coarse": {"subdivisions": 3},
    },
    "complex_parabola_r4": {
        "default": {"rings": 96, "sectors": 96, "r_inner": 0.02},
        "coarse": {"rings": 48, "sectors": 64, "r_inner": 0.02},
    },
}

_DEFAULT_PARAMS = {
    "plane": {"offset": 1.0, "r_max": 200.0},
    "catenoid": {"c": 1.0, "r_max": 200.0, "u_min": None},
    "enneper": {"r_max": 200.0},
    "helicoid": {"pitch": 1.0, "r_max": 40.0},
    "sphere": {"radius": 1.0, "center": (0.0, 0.0, 2.0)},
    "complex_parabola_r4": {"r_max": 60.0},
}

_MAX_LENGTH = 1e75
# how far the catenoid's rim may sit from r_max, relative to it: the root
# finder's 2e-12 step in u moves |x| by about 2e-12 / c of r_max, so necks
# thinner than about 1e-6 cannot be truncated where they were asked to be
_RIM_RTOL = 1e-6
# r_max / pitch is about the helicoid chart's largest angle in radians; from
# 2e14 up, reports were seen to divide by zero in the quadrature
_MAX_R_OVER_PITCH = 1e14
# the most triangles a mesh may have, 8 x the default helicoid's
MAX_TRIANGLES = 2**20


def _check_budget(res, field: str) -> None:
    if _triangle_count(res) > MAX_TRIANGLES:
        raise ConfigError(field, f"would mesh more than {MAX_TRIANGLES:,} "
                                 "triangles")


def _triangle_count(res) -> int:
    """Triangles of the mesh a merged resolution asks for: 20 x 4^k on an
    icosphere, a center fan and two per cell on a polar disk, two per cell
    on a chart grid."""
    if "subdivisions" in res:  # capped: from 8 on it is over budget
        return 20 * 4 ** min(res["subdivisions"], 9)
    if "rings" in res:
        return res["sectors"] * (2 * res["rings"] - 1)
    return 2 * math.prod(res.values())


def _polar_radii(res, r_outer: float) -> np.ndarray:
    """Ring radii of a polar preset whose grid fits the disk."""
    if res["sectors"] < 3:
        raise ConfigError("surface.resolution.sectors", "must be at least 3")
    if not 0 < res["r_inner"] < r_outer:
        raise ConfigError("surface.resolution.r_inner",
                          f"must lie in (0, {r_outer:.6g})")
    return np.geomspace(res["r_inner"], r_outer, res["rings"])


def _build_plane(params, res):
    h = float(params["offset"])
    r_max = _check_length(params, "r_max")
    if r_max <= abs(h):
        raise ConfigError("surface.params.r_max", "must exceed |offset|")
    disk_r = np.sqrt(r_max**2 - h**2)

    def pt(rho, phi):
        return np.stack(
            [rho * np.cos(phi), rho * np.sin(phi),
             np.full_like(np.asarray(rho, float), h)], axis=-1
        )

    radii = _polar_radii(res, disk_r)
    mesh = polar_disk_mesh(pt, radii, res["sectors"],
                           truncation_radius=r_max, name="plane")
    return SurfaceSpec(
        name="plane",
        params=dict(params),
        chart=plane_chart(h, disk_r),
        mesh=mesh,
        base_point=np.zeros(3),
        targets={
            "projective_volume": 2 * np.pi,
            "radial_defect": np.pi if h != 0 else 0.0,
            "ends": 1,
            "provenance": "closed-form",
        },
        notes="flat plane z = offset; invariants known in closed form",
    )


def _brentq(f, xa: float, xb: float) -> float:
    """Root of ``f`` in ``[xa, xb]`` by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's C ``brentq`` at its default tolerances:
    it performs the same float operations in the same order, so it returns
    the same double as ``scipy.optimize.brentq``.  Raises ``ValueError``
    when ``f`` has one sign at both ends, gives NaN, or does not converge.
    """
    xtol, rtol, maxiter = 2e-12, 4 * sys.float_info.epsilon, 100

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # signbit, for the nonzero, non-NaN values that reach each sign test
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # an underflowed denominator makes C's step inf or NaN,
                # which the test below turns into a bisection
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den
                        if den else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise ValueError(f"failed to converge after {maxiter} iterations")


def _check_length(params, key: str) -> float:
    """``params[key]`` as a float whose fourth power stays finite.

    The first fundamental form and the chart meshing raise lengths to the
    fourth power; the bound leaves room for the builders' own factors.
    """
    value = float(params[key])
    if not abs(value) <= _MAX_LENGTH:
        raise ConfigError(f"surface.params.{key}",
                          f"must not exceed {_MAX_LENGTH:g} in absolute value")
    return value


def catenoid_u_max(c: float, r_max: float) -> float:
    """u with |x(u, .)| = r_max on the catenoid of neck radius c."""
    with np.errstate(over="ignore"):  # thin necks: +inf at the far end
        return _brentq(lambda u: (c * np.cosh(u / c)) ** 2 + u**2 - r_max**2,
                       0.0, c * np.arccosh(r_max / c) + 1.0)


def _build_catenoid(params, res):
    c = float(params["c"])
    r_max = _check_length(params, "r_max")
    if c <= 0:
        raise ConfigError("surface.params.c", "must be positive")
    if r_max <= 2 * c:
        raise ConfigError("surface.params.r_max", "must exceed 2c")
    # a neck so thin that r_max / c overflows gives an infinite bracket;
    # thinner than about 1e-6, the root misses the rim (see _RIM_RTOL)
    u_hi = catenoid_u_max(c, r_max) if r_max / c < math.inf else 0.0
    with np.errstate(over="ignore"):
        rim = float(np.hypot(c * np.cosh(u_hi / c), u_hi))
    if not abs(rim - r_max) <= _RIM_RTOL * r_max:
        raise ConfigError("surface.params.c", "too small to resolve against "
                          f"r_max = {r_max:.6g}")
    u_lo = -u_hi if params.get("u_min") is None else float(params["u_min"])
    if not -u_hi <= u_lo < u_hi:  # below the top rim, inside the ball
        raise ConfigError("surface.params.u_min", "must lie in [-u_max, "
                          f"u_max) = [{-u_hi:.6g}, {u_hi:.6g})")
    chart = catenoid_chart(c, u_lo, u_hi)
    mesh = mesh_from_chart(chart, (res["nu"], res["nv"]), truncation_radius=r_max)
    one_sided = params.get("u_min") is not None
    targets = {} if one_sided else {
        "projective_volume": 4 * np.pi,
        "radial_defect": 2 * np.pi,
        "ends": 2,
        "provenance": "literature",
    }
    return SurfaceSpec(
        name="catenoid",
        params=dict(params),
        chart=chart,
        mesh=mesh,
        base_point=np.zeros(3),
        targets=targets,
        notes="embedded, two ends" if not one_sided else
              "truncated below: compact inner boundary inside the ball",
    )


def enneper_domain_radius(r_max: float) -> float:
    """Domain radius rho with min over angles of |x(rho, .)| = r_max."""

    def worst(rho):
        return rho**6 / 9 + rho**4 / 3 + rho**2 - r_max**2

    return _brentq(worst, r_max ** (1.0 / 3.0) * 0.5,
                   (3 * r_max) ** (1.0 / 3.0) + 2.0)


def _build_enneper(params, res):
    r_max = _check_length(params, "r_max")
    if r_max <= 0:
        raise ConfigError("surface.params.r_max", "must be positive")
    try:
        rho_max = enneper_domain_radius(r_max)
    except ValueError as exc:  # the bracket misses it for tiny or huge r_max
        raise ConfigError("surface.params.r_max",
                          f"no domain radius found: {exc}") from None

    def pt(rho, phi):
        return enneper_point(rho * np.cos(phi), rho * np.sin(phi))

    radii = _polar_radii(res, rho_max)
    mesh = polar_disk_mesh(pt, radii, res["sectors"],
                           truncation_radius=r_max, name="enneper")
    return SurfaceSpec(
        name="enneper",
        params=dict(params),
        chart=enneper_chart(rho_max / np.sqrt(2.0)),
        mesh=mesh,
        base_point=np.array([0.0, 0.0, 1.0]),
        targets={
            "projective_volume": 6 * np.pi,
            "radial_defect": 3 * np.pi,
            "ends": 1,
            "provenance": "literature",
        },
        notes=(
            "one end winding three times around infinity (total curvature "
            "-4 pi, so multiplicity 3 by Jorge-Meeks); targets count all "
            "three sheets"
        ),
    )


def _build_helicoid(params, res):
    pitch = _check_length(params, "pitch")
    r_max = _check_length(params, "r_max")
    if pitch <= 0:
        raise ConfigError("surface.params.pitch", "must be positive")
    chart = helicoid_chart(pitch, r_max)
    mesh = mesh_from_chart(chart, (res["nu"], res["ntheta"]),
                           truncation_radius=r_max)
    if not r_max <= _MAX_R_OVER_PITCH * pitch:
        raise ConfigError("surface.params.r_max", "must not exceed "
                          f"{_MAX_R_OVER_PITCH:g} x pitch")
    return SurfaceSpec(
        name="helicoid",
        params=dict(params),
        chart=chart,
        mesh=mesh,
        base_point=np.array([0.0, 0.5 * pitch, 0.0]),
        targets={"ends": 1, "provenance": "derived"},
        notes="one end; projective volume grows without bound, estimates are "
              "flagged as truncation-limited",
    )


def _build_sphere(params, res):
    radius = _check_length(params, "radius")
    center = np.asarray(params["center"], dtype=float)
    mesh = icosphere(res["subdivisions"], radius, center, name="sphere")
    return SurfaceSpec(
        name="sphere",
        params=dict(params),
        chart=sphere_chart(radius, center),
        mesh=mesh,
        base_point=np.zeros(3),
        targets={"ends": 0, "provenance": "closed-form"},
        notes="non-minimal control: flux monotonicity is expected to fail",
        control=True,
    )


def _build_complex_parabola(params, res):
    r_max = _check_length(params, "r_max")
    rho_max = np.sqrt((-1.0 + np.sqrt(1.0 + 4.0 * r_max**2)) / 2.0)

    def pt(rho, phi):
        return complex_parabola_point(rho * np.cos(phi), rho * np.sin(phi))

    radii = _polar_radii(res, rho_max)
    mesh = polar_disk_mesh(pt, radii, res["sectors"],
                           truncation_radius=r_max, name="complex_parabola_r4")
    return SurfaceSpec(
        name="complex_parabola_r4",
        params=dict(params),
        chart=complex_parabola_chart(rho_max / np.sqrt(2.0)),
        mesh=mesh,
        base_point=np.array([0.0, 0.0, -1.0, 0.0]),
        targets={
            "projective_volume": 4 * np.pi,
            "radial_defect": 2 * np.pi,
            "ends": 1,
            "provenance": "derived",
        },
        notes="holomorphic graph w = z^2 in R^4; one end winding twice",
    )


_BUILDERS = {
    "plane": _build_plane,
    "catenoid": _build_catenoid,
    "enneper": _build_enneper,
    "helicoid": _build_helicoid,
    "sphere": _build_sphere,
    "complex_parabola_r4": _build_complex_parabola,
}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def catalog_entry_info(name: str) -> dict:
    """Static metadata for listings, without building the mesh."""
    if name not in _BUILDERS:
        raise ConfigError("surface", f"unknown surface '{name}'")
    return {
        "name": name,
        "params": dict(_DEFAULT_PARAMS[name]),
        "resolutions": {k: dict(v) for k, v in _RESOLUTIONS[name].items()},
    }


def build_surface(name: str, params: dict | None = None,
                  resolution="default") -> SurfaceSpec:
    """Construct a catalog surface.

    ``params`` overrides the defaults for the entry; ``resolution`` is a
    preset name or a dict of overrides merged onto the default preset.
    """
    if name not in _BUILDERS:
        raise ConfigError("surface", f"unknown surface '{name}' "
                                     f"(known: {', '.join(catalog_names())})")
    p = dict(_DEFAULT_PARAMS[name])
    if params:
        unknown = set(params) - set(p)
        if unknown:
            raise ConfigError(f"surface.params.{sorted(unknown)[0]}",
                              "unknown parameter")
        for key, value in params.items():  # a point or a number
            if np.shape(value) != np.shape(p[key]):
                raise ConfigError(f"surface.params.{key}", "must be a number"
                                  if np.ndim(p[key]) == 0 else
                                  f"must be a list of {len(p[key])} numbers")
        p.update(params)
    if isinstance(resolution, str):
        if resolution not in _RESOLUTIONS[name]:
            raise ConfigError("surface.resolution",
                              f"unknown preset '{resolution}'")
        res = dict(_RESOLUTIONS[name][resolution])
    else:
        res = dict(_RESOLUTIONS[name]["default"])
        unknown = set(resolution) - set(res)
        if unknown:
            raise ConfigError(f"surface.resolution.{sorted(unknown)[0]}",
                              "unknown field")
        res.update(resolution)
    sizes = {k: v for k, v in res.items() if k != "r_inner"}
    given = resolution if isinstance(resolution, dict) else {}
    _check_budget(sizes, "surface.resolution." + max(
        sizes, key=lambda k: (k in given, sizes[k])))  # a field the config set
    try:
        spec = _BUILDERS[name](p, res)
    except (MeshTopologyError, DegenerateChartError) as exc:
        # parameters that pass the checks above but still give a broken mesh
        raise ConfigError("surface", f"cannot build '{name}': {exc}") from exc
    except ConfigError as exc:
        # a preset's r_inner conflicts only with the r_max that sets the disk
        if (exc.field != "surface.resolution.r_inner"
                or isinstance(resolution, dict) and "r_inner" in resolution):
            raise
        raise ConfigError("surface.params.r_max", "leaves a disk narrower than "
                          f"the preset's r_inner {res['r_inner']:g}") from None
    spec.targets = dict(spec.targets)
    return spec


def spherical_region(kind: str, angle: float | None = None,
                     sectors: int | None = None) -> SimplicialSurface:
    """Subsets of the unit sphere used by the line-counting identities: the
    icosphere of 3 subdivisions, or a hemisphere or cap meshed with 36 rings
    of ``sectors`` cells (96 when not given).

    A ``ConfigError`` names the ``mingauge crofton`` flag at fault.
    """
    if angle is not None and kind in ("full", "hemisphere"):
        raise ConfigError("angle", f"only a cap takes an angle, not {kind}")
    if sectors is not None and sectors < 3:
        raise ConfigError("sectors", "must be at least 3")
    if kind == "full":
        if sectors is not None:
            raise ConfigError("sectors", "only a hemisphere or a cap takes "
                              "sectors, not full")
        return icosphere(3, 1.0, (0.0, 0.0, 0.0), name="sphere_full")
    if sectors is None:
        sectors = 96
    if kind == "hemisphere":
        angle = np.pi / 2
    elif kind != "cap":
        raise ConfigError("set", f"unknown spherical set '{kind}'")
    elif angle is None:
        raise ConfigError("angle", "cap requires an angle")
    elif not 0 < angle <= np.pi:
        raise ConfigError("angle", "must lie in (0, pi]")
    _check_budget({"rings": 36, "sectors": sectors}, "sectors")
    try:
        return spherical_cap_mesh(float(angle), rings=36, sectors=sectors,
                                  name=kind if kind == "hemisphere" else
                                  f"cap_{angle:.4f}")
    except MeshTopologyError as exc:  # a cap too narrow for its grid
        raise ConfigError("angle", f"cannot mesh the cap: {exc}") from exc


# --------------------------------------------------------------------------
# minimality validation


def verify_minimality(chart: ImmersionChart) -> dict:
    """Finite-difference check that the chart's mean curvature vanishes.

    Second derivatives come from central differences of the exact first
    derivatives.  The residual |H| at each sample is scaled by the local cell
    size, so the verdict is resolution-independent.  Works in any ambient
    dimension (the normal component is taken by projecting out the tangent
    frame).  Returns the check's report entry (``passed``, ``margin``,
    ``detail``) plus the largest unscaled ``max_mean_curvature``.
    """
    gu, gv, tol, fd_rel = 20, 20, 1e-3, 1e-4
    u0, u1, v0, v1 = chart.domain
    hu = fd_rel * (u1 - u0)
    hv = fd_rel * (v1 - v0)
    us = np.linspace(u0 + 2 * hu, u1 - 2 * hu, gu)
    vs = np.linspace(v0 + 2 * hv, v1 - 2 * hv, gv)
    uu, vv = np.meshgrid(us, vs, indexing="ij")

    xu, xv = chart.derivatives(uu, vv)
    xu_p, _ = chart.derivatives(uu + hu, vv)
    xu_m, _ = chart.derivatives(uu - hu, vv)
    xu_vp, xv_p = chart.derivatives(uu, vv + hv)
    xu_vm, xv_m = chart.derivatives(uu, vv - hv)
    x_uu = (xu_p - xu_m) / (2 * hu)
    x_vv = (xv_p - xv_m) / (2 * hv)
    x_uv = (xu_vp - xu_vm) / (2 * hv)

    E = np.sum(xu * xu, axis=-1)
    F = np.sum(xu * xv, axis=-1)
    G = np.sum(xv * xv, axis=-1)
    det = E * G - F * F

    frame = orthonormal_frame(xu, xv)

    def normal_part(w):
        return w - tangent_part(w, frame)

    H = (
        G[..., None] * normal_part(x_uu)
        - 2 * F[..., None] * normal_part(x_uv)
        + E[..., None] * normal_part(x_vv)
    ) / (2 * det[..., None])
    Hnorm = np.linalg.norm(H, axis=-1)

    du = (us[-1] - us[0]) / max(gu - 1, 1)
    dv = (vs[-1] - vs[0]) / max(gv - 1, 1)
    cell = np.sqrt(det) * du * dv
    worst = float((Hnorm * np.sqrt(cell)).max())
    return {
        "passed": bool(worst <= tol),
        "margin": tol - worst,
        "detail": {"max_scaled_residual": worst, "tol": tol, "grid": [gu, gv]},
        "max_mean_curvature": float(Hnorm.max()),
    }
