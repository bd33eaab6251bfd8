import numpy as np
import pytest
from numpy.testing import assert_allclose

from scatmodes import (
    DomainError,
    ResolutionError,
    SphereSpec,
    basis,
    check_unitary,
    mie_modeset,
    mie_t_coefficients,
    mie_tmatrix,
    truncation_order,
)
from oracles import mie_reference_dielectric, mie_reference_pec, rayleigh_tm_dipole


def test_vacuum_sphere_scatters_nothing():
    te, tm = mie_t_coefficients(SphereSpec(1.0, "dielectric", eps_r=1.0), 0.5, 6)
    assert np.all(te == 0.0) and np.all(tm == 0.0)


def test_pec_entries_on_lossless_circle():
    for ka in (0.3, 1.0, 2.5):
        te, tm = mie_t_coefficients(SphereSpec(1.0, "pec"), ka, 15)
        t = np.concatenate([te, tm])
        assert np.abs(np.abs(t + 0.5) - 0.5).max() < 1e-12


def test_pec_against_high_precision_reference():
    spec = SphereSpec(1.0, "pec")
    for ka in (0.5, 1.0, 2.0):
        te, tm = mie_t_coefficients(spec, ka, 10)
        for l in range(1, 11):
            ote, otm = mie_reference_pec(l, ka)
            assert abs(te[l - 1] - ote) <= 1e-10 * max(abs(ote), 1e-30)
            assert abs(tm[l - 1] - otm) <= 1e-10 * max(abs(otm), 1e-30)


def test_dielectric_against_high_precision_reference():
    spec = SphereSpec(1.0, "dielectric", eps_r=4.0)
    for ka in (0.5, 1.0):
        te, tm = mie_t_coefficients(spec, ka, 10)
        for l in range(1, 11):
            ote, otm = mie_reference_dielectric(l, ka, 4.0)
            assert abs(te[l - 1] - ote) <= 1e-10 * max(abs(ote), 1e-30)
            assert abs(tm[l - 1] - otm) <= 1e-10 * max(abs(otm), 1e-30)


@pytest.mark.parametrize("spec", [SphereSpec(1.0, "pec"),
                                  SphereSpec(1.0, "dielectric", eps_r=4.0),
                                  SphereSpec(1.0, "dielectric", eps_r=2.0, mu_r=1.5)],
                         ids=["pec", "eps4", "eps2-mu1.5"])
def test_coefficients_against_high_precision_reference_over_sweep_sizes(spec):
    # the recurrence Bessel functions of swe, from the Rayleigh regime to a
    # basis past ka, against the 40-digit oracle with the tolerances above
    for ka in (0.01, 3.0, 8.0):
        l_max = truncation_order(ka)
        te, tm = mie_t_coefficients(spec, ka, l_max)
        for l in range(1, l_max + 1, 3):
            if spec.material == "pec":
                ote, otm = mie_reference_pec(l, ka)
            else:
                ote, otm = mie_reference_dielectric(l, ka, spec.eps_r, spec.mu_r)
            assert abs(te[l - 1] - ote) <= 1e-10 * max(abs(ote), 1e-30)
            assert abs(tm[l - 1] - otm) <= 1e-10 * max(abs(otm), 1e-30)


def test_reference_matches_rayleigh_asymptote():
    # validates the oracle itself at small ka
    ka = 1e-2
    _, otm = mie_reference_pec(1, ka)
    assert abs(otm - rayleigh_tm_dipole(ka)) < 1e-4 * abs(otm)


def test_unitarity_and_m_degeneracy():
    for spec in (SphereSpec(1.0, "pec"),
                  SphereSpec(1.0, "dielectric", eps_r=4.0),
                  SphereSpec(1.0, "dielectric", eps_r=2.0, mu_r=1.5)):
        k = 1.0
        b = basis(truncation_order(k * spec.radius))
        t_op = mie_tmatrix(spec, k, b)
        assert check_unitary(2.0 * t_op + np.eye(b.size)) < 1e-12
        diag = np.diag(t_op)
        for l in range(1, b.l_max + 1):
            for pol in ("TE", "TM"):
                vals = diag[b.position(l, np.arange(-l, l + 1), pol == "TM")]
                assert np.ptp(np.abs(vals)) <= 1e-13 * max(abs(vals[0]), 1e-300)


def test_high_degree_decay():
    te, tm = mie_t_coefficients(SphereSpec(1.0, "pec"), 1.0, 20)
    mags = np.abs(tm)
    tail = mags[3:]
    assert np.all(np.diff(tail) < 0.0)
    assert mags[-1] < 1e-20


def test_modeset_degeneracy_and_vectors():
    k = 1.0
    spec = SphereSpec(0.8, "pec")
    b = basis(truncation_order(k * spec.radius))
    ms = mie_modeset(spec, k, b)
    # the l=1 TM eigenvalue appears with multiplicity exactly three
    te, tm = mie_t_coefficients(spec, k, b.l_max)
    count = int(np.sum(np.abs(ms.t - tm[0]) <= 4e-16))
    assert count == 3
    # coordinate eigenvectors are exactly orthonormal
    gram = ms.a.conj().T @ ms.a
    assert np.all(gram == np.eye(b.size))
    assert_allclose(ms.modal_significance, np.abs(ms.t))


def test_resolution_error():
    with pytest.raises(ResolutionError):
        mie_tmatrix(SphereSpec(1.0, "pec"), 2.0, basis(3))


def test_material_validation():
    with pytest.raises(DomainError):
        SphereSpec(-1.0, "pec")
    with pytest.raises(DomainError):
        SphereSpec(1.0, "dielectric", eps_r=0.5)
    with pytest.raises(DomainError):
        SphereSpec(1.0, "metal")
