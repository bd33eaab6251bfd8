import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from scatmodes import (
    DipoleScene,
    GeometryError,
    HybridScene,
    ResolutionError,
    SphereSpec,
    assemble_hybrid,
    assemble_u4,
    basis,
    check_unitary,
    cm_scattering,
    hybrid_impedance_modes,
    hybrid_scattering_modes,
    hybrid_transition,
    mie_tmatrix,
    outgoing_wave_table,
    swe,
    transition,
)
from scatmodes.cli import SPEED_OF_LIGHT, parse_scenario

from conftest import hybrid_sweep_seed7


def matched_distance(t1, t2, threshold=1e-7):
    t1 = np.asarray(t1)
    t2 = np.asarray(t2)
    t1 = t1[np.abs(t1) > threshold]
    t2 = t2[np.abs(t2) > threshold]
    assert t1.size == t2.size
    if t1.size == 0:
        return 0.0
    cost = np.abs(t1[:, None] - t2[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _cloud(rng, n, r_lo, r_hi, k, n_background=0):
    pos = rng.normal(size=(n, 3))
    pos /= np.linalg.norm(pos, axis=1)[:, None]
    pos *= (r_lo + (r_hi - r_lo) * rng.random(n))[:, None]
    region = ["background"] * n_background + ["controllable"] * (n - n_background)
    return DipoleScene(pos, 6.0 * math.pi / k**3 * (0.3 + rng.random(n)), tuple(region))


@pytest.fixture(scope="module")
def hybrid_setup():
    rng = np.random.default_rng(88)
    k = 2.0
    sphere = SphereSpec(0.08, "dielectric", eps_r=4.0)
    scene = _cloud(rng, 7, 0.62, 0.8, k, n_background=3)
    hs = HybridScene(scene, sphere)
    system = assemble_hybrid(hs, k, wave_basis=basis(18))
    return hs, k, system


def test_scene_validation():
    sphere = SphereSpec(0.3, "pec")
    inside = DipoleScene([[0.0, 0.0, 0.2]], 1.0)
    with pytest.raises(GeometryError):
        HybridScene(inside, sphere)


def test_u4_against_outgoing_wave_oracle(hybrid_setup):
    # the projected coupling operator must reproduce the outgoing-wave
    # samples; aliasing noise grows with degree, so the gate tightens
    # toward low degrees where the sphere actually responds
    hs, k, system = hybrid_setup
    oracle = outgoing_wave_table(system.basis, k, hs.mom_scene.positions)
    oracle = oracle.reshape(system.basis.size, -1)[:, system.blocks.perm]
    scale = np.abs(oracle).max(axis=1)
    err = np.abs(system.U4.data - oracle).max(axis=1) / scale
    ls = np.array([i.l for i in system.basis.indices])
    assert err[ls <= 8].max() < 1e-8
    assert err[ls <= 12].max() < 1e-6
    assert err.max() < 1e-3


def test_u4_column_residuals_with_generous_clearance():
    # clearance of many sphere radii: the projection itself certifies 1e-8
    rng = np.random.default_rng(5)
    k = 2.0
    sphere = SphereSpec(0.06, "dielectric", eps_r=4.0)
    scene = _cloud(rng, 3, 0.7, 0.8, k)
    hs = HybridScene(scene, sphere)
    assert hs.clearance >= sphere.radius
    u4 = assemble_u4(hs, k, basis(20), residual_tol=1e-8)
    assert u4.meta["column_residuals"].max() < 1e-8


def test_u4_far_dipole_small_without_high_l_growth():
    # far dipole: weak coupling, no evanescent high-degree blow-up; a
    # nearby dipole shows the opposite (near-field dominated) signature
    k = 2.0
    sphere = SphereSpec(0.05, "dielectric", eps_r=4.0)
    b = basis(8)
    ls = np.array([i.l for i in b.indices])
    far = assemble_u4(HybridScene(DipoleScene([[0.0, 0.0, 20.0]], 1.0), sphere),
                      k, b, r_fit=0.3, residual_tol=1.0)
    near = assemble_u4(HybridScene(DipoleScene([[0.0, 0.0, 0.45]], 1.0), sphere),
                       k, b, r_fit=0.14, residual_tol=1.0)

    def high_low(u4):
        mags = np.abs(u4.data).max(axis=1)
        return mags[ls >= 6].max() / mags[ls <= 2].max()

    assert np.linalg.norm(far.data) < 1e-4 * np.linalg.norm(near.data)
    assert high_low(far) < 3.0
    assert high_low(near) > 1e3


def test_u4_residual_gate():
    rng = np.random.default_rng(6)
    k = 2.0
    sphere = SphereSpec(0.3, "dielectric", eps_r=4.0)
    scene = _cloud(rng, 3, 0.62, 0.7, k)  # tight clearance
    hs = HybridScene(scene, sphere)
    with pytest.raises(ResolutionError):
        assemble_u4(hs, k, basis(10), residual_tol=1e-6)
    # the closed form's truncation gauge fails the same scene
    with pytest.raises(ResolutionError, match="U4 truncation residual"):
        assemble_hybrid(hs, k, wave_basis=basis(10), residual_tol=1e-6)


def _generous_clearance():
    rng = np.random.default_rng(5)
    scene = _cloud(rng, 3, 0.7, 0.8, 2.0)
    return HybridScene(scene, SphereSpec(0.06, "dielectric", eps_r=4.0)), [2.0], basis(20)


def _criterion_8():
    rng = np.random.default_rng(88)
    scene = _cloud(rng, 7, 0.62, 0.8, 2.0, n_background=3)
    return HybridScene(scene, SphereSpec(0.08, "dielectric", eps_r=4.0)), [2.0], basis(18)


def _hybrid_sweep_seed7():
    sc = parse_scenario(hybrid_sweep_seed7())
    ks = 2.0 * math.pi * sc["frequencies"] / SPEED_OF_LIGHT
    return HybridScene(sc["scene"], sc["sphere"]), ks, basis(14)


U4_CASES = {"generous-clearance": _generous_clearance, "criterion-8": _criterion_8,
            "hybrid-sweep-seed-7": _hybrid_sweep_seed7}


def _closed_and_quadrature(case):
    """(k, wave basis, closed-form system, quadrature U4) per wavenumber of the case."""
    hs, ks, wb = U4_CASES[case]()
    for k in ks:
        yield (k, wb, assemble_hybrid(hs, k, wave_basis=wb),
               assemble_u4(hs, k, wb, residual_tol=1.0))


@pytest.mark.parametrize("case", U4_CASES)
def test_closed_form_u4_matches_quadrature_per_degree(case):
    # per degree, the closed form and the quadrature projection differ by
    # less than the quadrature's own misfit of that column on the fit sphere
    for k, wb, system, quad in _closed_and_quadrature(case):
        closed = system.U4.data[:, np.argsort(system.blocks.perm)]   # scene order
        norms = swe.radial_norms(wb, k * quad.meta["r_fit"])[:, None]
        field = np.sqrt((np.abs(closed) ** 2 * norms).sum(axis=0))
        allowed = quad.meta["column_residuals"] * field
        ls = wb.arrays()[0]
        for l in range(1, wb.l_max + 1):
            rows = ls == l
            gap = np.sqrt((np.abs(closed[rows] - quad.data[rows]) ** 2 * norms[rows]).sum(axis=0))
            assert np.all(gap <= allowed), (l, (gap / allowed).max())


@pytest.mark.parametrize("case", U4_CASES)
def test_truncation_gauge_matches_quadrature_residuals(case):
    for _, _, system, quad in _closed_and_quadrature(case):
        gauge = system.U4.meta["column_residuals"][np.argsort(system.blocks.perm)]
        assert_allclose(gauge, quad.meta["column_residuals"], rtol=1e-6)
        assert system.U4.meta["r_fit"] == quad.meta["r_fit"]


def test_vacuum_sphere_reduces_to_dipole_modes(hybrid_setup):
    hs, k, system = hybrid_setup
    vac = HybridScene(hs.mom_scene, SphereSpec(hs.sphere.radius, "dielectric", eps_r=1.0))
    sys_v = assemble_hybrid(vac, k, wave_basis=system.basis)
    ms_v = hybrid_scattering_modes(vac, k, system=sys_v)
    ts = transition(hs.mom_scene, k, wave_basis=system.basis)
    ms_ref = cm_scattering(ts.S, ts.S_b)
    assert matched_distance(ms_v.t, ms_ref.t, threshold=1e-9) < 1e-10


def test_sphere_only_reduces_to_mie(hybrid_setup):
    hs, k, system = hybrid_setup
    empty = DipoleScene(np.zeros((0, 3)), np.zeros(0), ())
    so = HybridScene(empty, hs.sphere)
    ts = hybrid_transition(so, k, wave_basis=system.basis)
    t_ref = mie_tmatrix(hs.sphere, k, system.basis)
    assert np.abs(ts.T.data - t_ref.data).max() < 1e-8


def test_composite_unitarity(hybrid_setup):
    hs, k, system = hybrid_setup
    ts = hybrid_transition(hs, k, system=system)
    assert check_unitary(ts.S).deviation < 1e-6
    assert check_unitary(ts.S_b).deviation < 1e-6


def test_path_equivalence(hybrid_setup):
    hs, k, system = hybrid_setup
    ms_s = hybrid_scattering_modes(hs, k, system=system)
    ms_i = hybrid_impedance_modes(hs, k, system=system)
    sig = np.abs(ms_s.t) > 1e-6
    t_s = np.abs(ms_s.t[sig])
    t_i = np.abs(ms_i.t[np.abs(ms_i.t) > 1e-6])
    assert t_s.size == t_i.size
    cost = np.abs(t_s[:, None] - t_i[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 1e-5


def test_strong_sphere_detunes_dominant_mode():
    # sweeping k, the dominant-mode resonance peak moves when the vacuum
    # sphere is replaced by a strongly polarisable one
    rng = np.random.default_rng(8)
    pos = rng.normal(size=(3, 3))
    pos /= np.linalg.norm(pos, axis=1)[:, None]
    pos *= (0.50 + 0.12 * rng.random(3))[:, None]
    scene = DipoleScene(pos, 6.0 * math.pi / 2.0**3 * (0.5 + 1.5 * rng.random(3)))
    ks = np.linspace(1.4, 3.0, 9)
    wb = basis(14)

    def peak_k(eps_r):
        hs = HybridScene(scene, SphereSpec(0.22, "dielectric", eps_r=eps_r))
        tops = []
        for k in ks:
            system = assemble_hybrid(hs, k, wave_basis=wb, residual_tol=1.0)
            ms = hybrid_scattering_modes(hs, k, system=system)
            tops.append(np.abs(ms.t).max())
        return int(np.argmax(tops))

    i_weak = peak_k(1.0)
    i_strong = peak_k(100.0)
    assert 0 < i_weak < len(ks) - 1  # a genuine interior resonance
    assert i_weak != i_strong


def test_invalid_r_fit_rejected():
    sphere = SphereSpec(0.2, "dielectric", eps_r=4.0)
    hs = HybridScene(DipoleScene([[0.0, 0.0, 0.5]], 1.0), sphere)
    with pytest.raises(GeometryError):
        assemble_u4(hs, 1.0, basis(6), r_fit=0.1)   # inside the sphere
    with pytest.raises(GeometryError):
        assemble_u4(hs, 1.0, basis(6), r_fit=0.6)   # beyond the dipole
    for r_fit in (0.1, 0.6):
        with pytest.raises(GeometryError):
            assemble_hybrid(hs, 1.0, wave_basis=basis(10), r_fit=r_fit)
