"""The catalog's Enneper and catenoid charts against their Weierstrass data.

The immersion of data ``(h, g)`` is the real part of the path integral of
``((1 - h^2) g, i (1 + h^2) g, 2 h g) dz``; this is how the catalog's
three-sheet Enneper values were argued.  The integral is taken here by
composite Gauss-Legendre quadrature along straight paths in ``z`` or, for
data with a pole at the origin, in ``log z``.
"""
import numpy as np

from mingauge.catalog import catenoid_chart, enneper_point


def enneper_phi(z):
    """h = z, g = 1."""
    return np.stack([1 - z**2, 1j * (1 + z**2), 2 * z], axis=-1)


def catenoid_phi(z):
    """h = z, g = 1/z^2: a catenoid of neck radius 2, double pole at 0."""
    return np.stack([(1 - z**2) / z**2, 1j * (1 + z**2) / z**2, 2 / z],
                    axis=-1)


def integrate_phi(phi, z0, z1, segments=16, order=10, log_path=False):
    """Path integral of ``phi`` from ``z0`` to each ``z1``, shape (N, 3)."""
    xi, w = np.polynomial.legendre.leggauss(order)
    t = ((np.arange(segments)[:, None] + 0.5 * (xi + 1)) / segments).ravel()
    w = np.tile(w, segments) / (2 * segments)
    z1 = np.asarray(z1, dtype=complex).ravel()
    if log_path:  # straight in log z, taking the short way around
        w0, w1 = np.log(z0), np.log(z1)
        w1 = w1 + 2j * np.pi * np.round((w0.imag - w1.imag) / (2 * np.pi))
        zs = np.exp(w0 + (w1 - w0)[:, None] * t)
        dz = zs * (w1 - w0)[:, None]
    else:
        zs = z0 + (z1 - z0)[:, None] * t
        dz = np.broadcast_to((z1 - z0)[:, None], zs.shape)
    return np.einsum("k,nkc,nk->nc", w, phi(zs), dz)


def loop_period(phi, radius, samples=1024):
    """Integral of ``phi`` once around the circle |z| = radius."""
    z = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
    return (phi(z) * (1j * z)[:, None]).mean(axis=0) * 2 * np.pi


def kabsch_max_error(X, Y):
    """Best proper-rigid-motion alignment of X onto Y; max residual."""
    mx, my = X.mean(0), Y.mean(0)
    A, B = X - mx, Y - my
    U, _, Vt = np.linalg.svd(A.T @ B)
    if np.linalg.det(U @ Vt) < 0:
        U[:, -1] *= -1
    R = (U @ Vt).T
    return float(np.abs(A @ R.T - B).max())


def test_quadrature_matches_exact_antiderivative():
    # for h=z, g=1 the integrand has antiderivative (z - z^3/3, i(z + z^3/3), z^2)
    rng = np.random.default_rng(11)
    z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    z1 = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)

    def F(z):
        return np.stack([z - z**3 / 3, 1j * (z + z**3 / 3), z**2], axis=-1)

    got = integrate_phi(enneper_phi, z0, z1, segments=12, order=10)
    np.testing.assert_allclose(got, F(z1) - F(z0), atol=1e-12)


def test_enneper_matches_cubic_closed_form():
    rng = np.random.default_rng(7)
    z = rng.uniform(-2, 2, 400) + 1j * rng.uniform(-2, 2, 400)
    pts = np.real(integrate_phi(enneper_phi, 0j, z, segments=12, order=10))
    ref = enneper_point(z.real, z.imag)
    assert np.abs(pts - ref).max() < 1e-8


def test_period_residue_detection():
    # h=z, g=1/z: the middle component has residue i, so the loop integral
    # picks up a real translation of -2*pi there
    def phi(z):
        return np.stack([(1 - z**2) / z, 1j * (1 + z**2) / z, 2 * np.ones_like(z)],
                        axis=-1)

    period = np.real(loop_period(phi, 1.0))
    np.testing.assert_allclose(period, [0.0, -2 * np.pi, 0.0], atol=1e-9)
    # period is invariant under deformation of the loop
    np.testing.assert_allclose(np.real(loop_period(phi, 2.7)), period, atol=1e-9)


def test_catenoid_data_is_single_valued():
    np.testing.assert_allclose(np.real(loop_period(catenoid_phi, 1.0)), 0.0,
                               atol=1e-12)


def test_annulus_chart_reproduces_catenoid():
    # h=z, g=1/z^2 integrates to a catenoid of neck radius 2 with
    # z = exp(u/2 + i(v - pi)) relative to the direct parametrization
    su = np.linspace(-1.5, 1.5, 21)
    th = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    ss, tt = np.meshgrid(su, th, indexing="ij")
    z = np.exp(ss + 1j * tt).ravel()
    Xw = np.real(integrate_phi(catenoid_phi, 1.0 + 0j, z, segments=12,
                               order=10, log_path=True))
    direct = catenoid_chart(2.0, -3.0, 3.0)
    Xd = direct.evaluate(2 * ss, tt + np.pi).reshape(-1, 3)
    assert kabsch_max_error(Xw, Xd) < 1e-6 * 2.0


def test_log_path_agrees_with_clear_straight_path():
    # real periods vanish, so the immersion is path independent
    z = np.exp(np.array([0.3 + 2.9j, -0.2 + 0.4j, 0.1 - 1.0j]))
    a = integrate_phi(catenoid_phi, 1.0 + 0j, z, segments=24, order=10,
                      log_path=True)
    b = integrate_phi(catenoid_phi, 1.0 + 0j, z, segments=24, order=10)
    np.testing.assert_allclose(np.real(a), np.real(b), atol=1e-10)
