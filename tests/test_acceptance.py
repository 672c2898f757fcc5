"""Acceptance gate: one test, one printed verdict line, per shipped criterion.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
verdict lines also for passing criteria).

The Enneper references count all three sheets of its one end: the Weierstrass
data g = z, f = 1 give total curvature -4 pi, so by Jorge-Meeks the end has
multiplicity 3 and density 3 at infinity.

* criterion 02: Enneper volume/defect vs 6*pi / 3*pi
* criterion 07: the Enneper ends-bound margin vs (4 / (2 pi)) 6 pi - 1 = 11
"""
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from mingauge.catalog import build_surface, spherical_region
from mingauge.ends import check_ends_bound, ends_estimate
from mingauge.geometry import orthonormal_frame
from mingauge.intgeom import (
    check_defect_counting_bound,
    counting_bound_constant,
    counting_sweep,
    crofton_verify,
    radial_jacobian,
)
from mingauge.invariants import (
    boundary_constant,
    check_band_area_bound,
    check_defect_volume_identity,
    check_density_identity,
    check_monotonicity,
    flux_profile,
    level_grid,
    max_safe_radius,
    projective_volume,
    radial_defect,
    sphere_area,
)
from mingauge.report import parse_config, run_report


def verdict(num: int, passed: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if passed else 'FAIL'} — {detail}",
          flush=True)
    return passed


# --------------------------------------------------------------------------
# 1. catenoid volume, both routes, single-threaded runtime


def test_criterion_01_catenoid_volume_both_routes():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", MINGAUGE_THREADS="1")
    code = (
        "import time, numpy as np\n"
        "from mingauge.catalog import build_surface\n"
        "from mingauge.invariants import projective_volume\n"
        "t0 = time.perf_counter()\n"
        "spec = build_surface('catenoid')\n"
        "vol = projective_volume(spec.mesh, spec.base_point)\n"
        "print('%.3f %.10f %.10f' % (time.perf_counter() - t0,\n"
        "      vol['value'], vol['slope_estimate']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    wall, v_flux, v_slope = map(float, proc.stdout.split())
    target = 4 * np.pi
    ok = (
        abs(v_flux - target) <= 0.03 * target
        and abs(v_slope - target) <= 0.03 * target
        and abs(v_flux - v_slope) <= 0.05 * max(abs(v_flux), abs(v_slope))
        and wall <= 60.0
    )
    assert verdict(1, ok,
                   f"catenoid V flux={v_flux:.6f} slope={v_slope:.6f} "
                   f"(target {target:.6f} +/- 3%, mutual 5%), "
                   f"single-threaded wall {wall:.1f}s <= 60s")


# --------------------------------------------------------------------------
# 2. Enneper three-sheet invariants and the relation


def test_criterion_02_enneper_quoted_invariants(default):
    spec = default("enneper")
    vol = projective_volume(spec.mesh, spec.base_point)
    q = radial_defect(spec.mesh, spec.base_point)
    v, qv = vol["value"], q["value"]
    v_ok = abs(v - 6 * np.pi) <= 0.03 * 6 * np.pi
    q_ok = abs(qv - 3 * np.pi) <= 0.03 * 3 * np.pi
    rel_ok = abs(2 * qv - v) <= 0.02 * abs(v)
    ok = v_ok and q_ok and rel_ok
    verdict(2, ok,
            f"enneper V={v:.6f} ({v / np.pi:.4f} pi, three-sheet 6 pi: "
            f"{'ok' if v_ok else 'MISS'}), Q={qv:.6f} ({qv / np.pi:.4f} pi, "
            f"three-sheet 3 pi: {'ok' if q_ok else 'MISS'}), "
            f"|2Q-V|/V={abs(2 * qv - v) / v:.4f} <= 0.02: "
            f"{'ok' if rel_ok else 'MISS'}")
    assert ok, (
        f"measured V={v:.6f} and Q={qv:.6f} against the three-sheet values "
        f"6*pi and 3*pi (ratios {v / (6 * np.pi):.3f}, "
        f"{qv / (3 * np.pi):.3f}), internal relation "
        f"|2Q-V|/V={abs(2 * qv - v) / v:.4f}"
    )


# --------------------------------------------------------------------------
# 3. flat-plane closed forms


def test_criterion_03_plane_closed_form(default):
    spec = default("plane")
    vol = projective_volume(spec.mesh, spec.base_point)
    q = radial_defect(spec.mesh, spec.base_point)
    v_rel = abs(vol["value"] - 2 * np.pi) / (2 * np.pi)
    q_rel = abs(q["value"] - np.pi) / np.pi
    # on-surface base point: volume = 2 x defect + (preimages) x circle
    # length, all known exactly for a plane through the base point; the
    # defect identity with no boundary and the volume as the flux
    gap = check_defect_volume_identity({"value": 0.0, "radius": np.inf},
                                       2 * np.pi, {"value": 0.0},
                                       1)["detail"]["rel_gap"]
    ok = v_rel <= 1e-3 and q_rel <= 1e-3 and gap <= 1e-10
    assert verdict(3, ok,
                   f"plane V rel err {v_rel:.2e} <= 1e-3, "
                   f"Q rel err {q_rel:.2e} <= 1e-3, "
                   f"on-surface closed-form rel_gap {gap:.1e} <= 1e-10")


# --------------------------------------------------------------------------
# 4. monotonicity suite, with the control violating it


def test_criterion_04_monotonicity_suite(default):
    details = []
    ok = True
    for name in ("plane", "catenoid", "enneper", "helicoid"):
        spec = default(name)
        levels = level_grid(spec.mesh, spec.base_point, 24)
        prof = flux_profile(spec.mesh, spec.base_point, levels)
        out = check_monotonicity(prof)
        ok &= out["passed"]
        details.append(f"{name} {out['detail']['rel_violation']:.1e}")
    sphere = default("sphere")
    levels = np.linspace(0.5, 2.9, 24)
    prof = flux_profile(sphere.mesh, sphere.base_point, levels)
    control = check_monotonicity(prof)
    ok &= not control["passed"]
    details.append(
        f"sphere violates ({control['detail']['rel_violation']:.2f})")
    assert verdict(4, ok,
                   "max relative drop at 24 levels: " + ", ".join(details))


# --------------------------------------------------------------------------
# 5. density identity on catenoid and plane


def test_criterion_05_density_identity(default):
    worst = {}
    for name in ("catenoid", "plane"):
        spec = default(name)
        r_hi = max_safe_radius(spec.mesh, spec.base_point)
        bnd = boundary_constant(spec.mesh, spec.base_point, within_radius=r_hi)
        out = check_density_identity(spec.mesh, spec.base_point,
                                     np.geomspace(0.3 * r_hi, r_hi, 6), bnd)
        worst[name] = out["detail"]["max_residual"]
    ok = all(value <= 1e-2 for value in worst.values())
    assert verdict(5, ok,
                   "max |2 area(t) - raw flux(t)| residual: "
                   + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
                   + " (tol 1e-2)")


# --------------------------------------------------------------------------
# 6. band area bound: randomized catenoid bands + flat annulus closed form


def test_criterion_06_band_area_bound(default):
    spec = default("catenoid")
    r_hi = max_safe_radius(spec.mesh, spec.base_point)
    rng = np.random.default_rng(42)
    ratios = []
    for _ in range(10):
        lo = rng.uniform(0.15, 0.55) * r_hi
        hi = min(lo + rng.uniform(0.15, 0.4) * r_hi, 0.95 * r_hi)
        out = check_band_area_bound(spec.mesh, spec.base_point, [(lo, hi)])
        assert out["num_crossing"] > 0, "band drew no crossing component"
        ratios.append(out["detail"]["min_area_over_bound"])
    bands_ok = min(ratios) >= 1.0

    # flat annulus between radii 1 and 3, pure closed-form arithmetic:
    # area pi (R2^2 - R1^2) against the bound (omega_2/2) ((R2 - R1)/2)^2
    r1, r2 = 1.0, 3.0
    annulus_ratio = (np.pi * (r2**2 - r1**2)) / (
        sphere_area(2) / 2.0 * ((r2 - r1) / 2.0) ** 2)
    annulus_ok = abs(annulus_ratio - 8.0) <= 1e-6
    ok = bands_ok and annulus_ok
    assert verdict(6, ok,
                   f"10 random catenoid bands: min area/bound "
                   f"{min(ratios):.3f} >= 1; flat annulus ratio "
                   f"{annulus_ratio:.12f} (exact 8, tol 1e-6)")


# --------------------------------------------------------------------------
# 7. end counts and the volume bound margins


def test_criterion_07_end_counts_and_margins(default):
    expected = {"catenoid": 2, "enneper": 1, "plane": 1, "helicoid": 1}
    counts = {}
    stab_ok = True
    for name, want in expected.items():
        spec = default(name)
        out = ends_estimate(spec.mesh, spec.base_point)
        counts[name] = out.stable_count
        stab_ok &= out.stabilized and out.stable_count == want

    margins = {}
    margin_err = {}
    for name in ("catenoid", "enneper"):
        spec = default(name)
        vol = projective_volume(spec.mesh, spec.base_point)
        bound = check_ends_bound(counts[name], vol["value"])
        margins[name] = bound["margin"]
        margin_err[name] = (4.0 / sphere_area(2)) * vol["error"] + 1e-9
    cat_ok = abs(margins["catenoid"] - 6.0) <= margin_err["catenoid"]
    enn_ok = abs(margins["enneper"] - 11.0) <= margin_err["enneper"]
    ok = stab_ok and cat_ok and enn_ok
    verdict(7, ok,
            f"ends {counts} (want {expected}); margins: catenoid "
            f"{margins['catenoid']:.4f} vs 6 +/- "
            f"{margin_err['catenoid']:.4f} "
            f"({'ok' if cat_ok else 'MISS'}), enneper "
            f"{margins['enneper']:.4f} vs 11 +/- {margin_err['enneper']:.4f} "
            f"({'ok' if enn_ok else 'MISS'})")
    assert ok, (
        f"ends {counts} (want {expected}); the enneper margin is bound - "
        f"ends = (4 / (2 pi)) V - 1 = {margins['enneper']:.4f}, expected 11 "
        f"for the three-sheet V = 6*pi"
    )


# --------------------------------------------------------------------------
# 8. line-counting identities on spherical regions


def test_criterion_08_crofton_identities():
    t0 = time.perf_counter()
    full = crofton_verify(spherical_region("full"),
                          samples=100000, seed=0)
    hemi = crofton_verify(
        spherical_region("hemisphere", sectors=64),
        samples=100000, seed=0)
    cap = crofton_verify(
        spherical_region("cap", angle=1.2, sectors=64),
        samples=100000, seed=0)
    wall = time.perf_counter() - t0

    exact_ok = (
        abs(full["rhs"] - 4 * np.pi) <= 1e-9
        and abs(hemi["rhs"] - 2 * np.pi) <= 1e-9
        and full["ci95"] == 0.0 and hemi["ci95"] == 0.0
    )
    cap_ok = cap["passed"] and cap["ci95"] <= 0.01 * abs(cap["lhs"])
    ci_ok = all(r["ci95"] <= 0.01 * max(abs(r["lhs"]), 1e-12)
                for r in (full, hemi, cap))
    ok = exact_ok and cap_ok and ci_ok and wall <= 30.0
    assert verdict(8, ok,
                   f"full rhs={full['rhs']:.9f} (4 pi exact), hemisphere "
                   f"rhs={hemi['rhs']:.9f} (2 pi exact), cap gap "
                   f"{cap['gap']:.2e} <= ci {cap['ci95']:.2e} "
                   f"({100 * cap['ci95'] / cap['lhs']:.2f}% of value), "
                   f"wall {wall:.1f}s <= 30s")


# --------------------------------------------------------------------------
# 9. defect vs counting bound margins


def test_criterion_09_defect_counting_bound(default):
    def bound_at_cut(spec, seed):
        # defect and section counts estimated once each at the cut radius
        R = max_safe_radius(spec.mesh, spec.base_point)
        sweep = counting_sweep(spec.mesh, spec.base_point, [R],
                               samples=20000, seed=seed)
        q = radial_defect(spec.mesh, spec.base_point, R)
        return check_defect_counting_bound(q, sweep), sweep

    cat = default("catenoid")
    out, sweep = bound_at_cut(cat, 11)
    mean = sweep["means"][0]
    ci = sweep["ci95"][0]
    cat_ok = out["margin"] >= 0.0 and mean >= 1.0 - ci

    plane = default("plane")
    pout, _ = bound_at_cut(plane, 6)
    plane_ok = abs(pout["margin"] - np.pi) <= 0.02 * np.pi
    ok = cat_ok and plane_ok
    assert verdict(9, ok,
                   f"catenoid margin {out['margin']:.4f} >= 0 with mean "
                   f"{mean:.4f} >= 1 - {ci:.4f}; plane margin "
                   f"{pout['margin']:.6f} = {pout['margin'] / np.pi:.5f} pi "
                   f"(pi +/- 2%)")


# --------------------------------------------------------------------------
# 10. constants by two routes


def test_criterion_10_constants():
    omega_ok = (
        abs(sphere_area(1) - 2.0) <= 1e-12
        and abs(sphere_area(2) - 2 * np.pi) <= 1e-12
        and abs(sphere_area(3) - 4 * np.pi) <= 1e-12
    )
    c_gamma = counting_bound_constant(2, route="gamma")
    c_sphere = counting_bound_constant(2, route="sphere")
    c_ok = abs(c_gamma - 8.0) <= 1e-12 and abs(c_sphere - 8.0) <= 1e-12
    ok = omega_ok and c_ok
    assert verdict(10, ok,
                   f"sphere areas (2, 2 pi, 4 pi) to 1e-12; counting "
                   f"constant gamma route {c_gamma!r}, sphere route "
                   f"{c_sphere!r} (both 8 to 1e-12)")


# --------------------------------------------------------------------------
# 11. byte-identical reports for identical config+seed


def test_criterion_11_deterministic_reports(tmp_path):
    config = parse_config({
        "surface": {"name": "plane", "params": {"r_max": 120.0},
                    "resolution": "coarse"},
        "levels": {"count": 12},
        "mc": {"seed": 7, "samples": 2000},
    })
    run_report(config, tmp_path / "a")
    run_report(config, tmp_path / "b")
    same_report = ((tmp_path / "a/report.json").read_bytes()
                   == (tmp_path / "b/report.json").read_bytes())
    same_sweeps = ((tmp_path / "a/sweeps.csv").read_bytes()
                   == (tmp_path / "b/sweeps.csv").read_bytes())
    ok = same_report and same_sweeps
    assert verdict(11, ok,
                   f"two identical config+seed runs: report.json identical "
                   f"{same_report}, sweeps.csv identical {same_sweeps}")


# --------------------------------------------------------------------------
# 12. radial projection Jacobian vs finite differences


def test_criterion_12_radial_jacobian_fd(default):
    rng = np.random.default_rng(20240817)
    worst = {}
    for name in ("catenoid", "enneper"):
        chart = default(name).chart
        u0, u1, v0, v1 = chart.domain
        u = rng.uniform(u0 + 0.05, u1 - 0.05, 1000)
        v = rng.uniform(v0, v1, 1000)
        pts = chart.points(u, v)
        xu, xv = chart.derivatives(u, v)
        jac = radial_jacobian(pts, orthonormal_frame(xu, xv), np.zeros(3))

        h = 1e-5

        def ray(uu, vv):
            p = chart.points(uu, vv)
            return p / np.linalg.norm(p, axis=-1, keepdims=True)

        fu = (ray(u + h, v) - ray(u - h, v)) / (2 * h)
        fv = (ray(u, v + h) - ray(u, v - h)) / (2 * h)
        fd = np.linalg.norm(np.cross(fu, fv), axis=-1)
        fd /= np.linalg.norm(np.cross(xu, xv), axis=-1)
        worst[name] = float(np.max(np.abs(fd - jac) / np.abs(fd)))
    ok = all(value <= 1e-6 for value in worst.values())
    assert verdict(12, ok,
                   "max relative FD gap at 1000 samples: "
                   + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
                   + " (tol 1e-6)")
