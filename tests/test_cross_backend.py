"""Cross-backend physics checks tying the dipole model to the analytic sphere.

A point dipole with the quasi-static sphere polarisability must reproduce
the sphere's dipole-mode eigenvalue in the small-size limit, and a sphere
handled through the hybrid coupling must agree with the same sphere
replaced by its equivalent point dipole.  These are physics agreements
between independent constructions, not identities of one code path.
"""

import math

import numpy as np
import pytest

from scatmodes import (
    DipoleScene,
    SphereSpec,
    assemble_hybrid,
    basis,
    cm_scattering,
    mie_t_coefficients,
    regular_wave_table,
    transition,
)


def clausius_mossotti(radius, eps_r):
    """Quasi-static polarisability volume of a small dielectric sphere."""
    return 4.0 * math.pi * radius**3 * (eps_r - 1.0) / (eps_r + 2.0)


def dipole_tm1(radius, eps_r, k):
    """Dominant eigenvalue of the one-dipole model of a small sphere."""
    scene = DipoleScene([[0.0, 0.0, 0.0]], clausius_mossotti(radius, eps_r))
    ms = cm_scattering(transition(scene, k).S)
    return ms.t[0]


@pytest.mark.parametrize("eps_r", [2.0, 4.0, 12.0])
def test_rayleigh_limit_dipole_vs_mie(eps_r):
    # agreement improves like (ka)^2 as the sphere shrinks
    k = 1.0
    errors = []
    for radius in (0.10, 0.05, 0.025):
        t_dip = dipole_tm1(radius, eps_r, k)
        _, tm = mie_t_coefficients(SphereSpec(radius, "dielectric", eps_r=eps_r), k, 1)
        errors.append(abs(t_dip - tm[0]) / abs(tm[0]))
    assert errors[0] < 0.05
    assert errors[-1] < 3e-3
    # halving ka should cut the relative error by roughly four
    assert errors[1] < 0.4 * errors[0]
    assert errors[2] < 0.4 * errors[1]


def test_hybrid_sphere_vs_equivalent_point_dipole():
    # a small sphere coupled through its transition matrix behaves like
    # one more dipole with the quasi-static polarisability
    rng = np.random.default_rng(17)
    k = 1.0
    radius, eps_r = 0.05, 4.0
    n = 4
    pos = rng.normal(size=(n, 3))
    pos /= np.linalg.norm(pos, axis=1)[:, None]
    pos *= (0.45 + 0.2 * rng.random(n))[:, None]
    alpha = 6.0 * math.pi * (0.4 + rng.random(n))
    cloud = DipoleScene(pos, alpha, ("background",) * 2 + ("controllable",) * 2,
                        sphere=SphereSpec(radius, "dielectric", eps_r=eps_r))

    wb = basis(12)
    ms_hybrid = cm_scattering(assemble_hybrid(cloud, k, wave_basis=wb, residual_tol=1.0))

    equivalent = DipoleScene(
        np.vstack([pos, [[0.0, 0.0, 0.0]]]),
        np.concatenate([alpha, [clausius_mossotti(radius, eps_r)]]),
        ("background",) * 2 + ("controllable",) * 2 + ("background",),
    )
    ts = transition(equivalent, k, wave_basis=wb)
    ms_dip = cm_scattering(ts.S, ts.S_b)

    top_h = np.sort(np.abs(ms_hybrid.t))[::-1][:5]
    top_d = np.sort(np.abs(ms_dip.t))[::-1][:5]
    # quasi-static replacement is exact only as ka -> 0; (ka)^2 ~ 2.5e-3
    assert np.abs(top_h - top_d).max() < 5e-3 * top_h[0]


def test_wave_table_continuous_at_poles():
    # points exactly on the z axis (theta = 0, pi) against nearby points
    b = basis(6)
    k = 1.7
    for z in (0.6, -0.6):
        on_axis = np.array([[0.0, 0.0, z]])
        off = np.array([[1e-9, -1e-9, z]])
        t_on = regular_wave_table(b, k, on_axis)
        t_off = regular_wave_table(b, k, off)
        assert np.abs(t_on - t_off).max() < 1e-7


def test_axis_value_of_axisymmetric_tm_wave():
    # on the z axis only |m| <= 1 waves survive; the TM (1,0) value there
    # follows from the radial functions and the m = 0 angular factors
    from scipy.special import spherical_jn

    k = 1.7
    z = 0.4
    x = k * z
    v = regular_wave_table(basis(1), k, np.array([[0.0, 0.0, z]]))
    b = basis(1)
    tm10 = v[b.position(1, 0, True)][0]
    r3 = math.sqrt(2.0) * spherical_jn(1, x) / x
    n10 = math.sqrt(3.0 / (4.0 * math.pi))
    # dY10/dtheta vanishes on the axis, so only the radial term survives
    expected_z = r3 * n10
    assert abs(tm10[2] - expected_z) < 1e-14
    assert abs(tm10[0]) < 1e-14 and abs(tm10[1]) < 1e-14
