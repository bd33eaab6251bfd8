"""``cm_scattering`` on the range of S - S_b against its dense oracle.

Every case solves one operator pair densely (the n x n Schur
decomposition of S_b^H S, from the bare matrices) and with the range
engine, fed by the blocks themselves, whose solves stand in for every
n x n product.  The nontrivial spectra must agree at the
acceptance suite's tolerances and the range engine's own invariants must
hold on the modes it returns.
The lossless bank is compared in acceptance criterion 2, which already
solves it densely.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scatmodes import (
    DipoleScene,
    DomainError,
    GeometryError,
    Port,
    ResolutionError,
    ShapeError,
    SolveError,
    SphereSpec,
    assemble_hybrid,
    basis,
    check_unitary,
    cm_scattering,
    transition,
)
from conftest import random_scene
from oracles import MappingError
from test_acceptance import assert_multisets_close, optimal_match

LIBRARY_ERRORS = (DomainError, GeometryError, MappingError, ResolutionError,
                  ShapeError, SolveError)


def _assert_matches_dense(ts, *ranged):
    """Range engines (default: ``cm_scattering(ts)``) vs dense oracle.

    Returns the worst matched |dt| above 1e-9 over the engines given.
    """
    dense = cm_scattering(ts.S, ts.S_b)
    worst = 0.0
    for ms in ranged or (cm_scattering(ts),):
        d = ms.diagnostics
        assert d["solver"] == "schur"
        assert d["rank"] <= ts.n_c
        assert_multisets_close(dense.t, ms.t)
        assert ms.circle_deviation.max(initial=0.0) <= 1e-8
        assert max(ms.orthogonality, d["eigen_residual"]) < 1e-8
        # every mode left out of the range has s = 1 to rounding
        assert np.sort(np.abs(dense.t))[:dense.n_modes - ms.n_modes].max(initial=0.0) < 1e-9
        sig1, sig2 = dense.t[np.abs(dense.t) > 1e-9], ms.t[np.abs(ms.t) > 1e-9]
        assert sig1.size == sig2.size
        worst = max(worst, float(optimal_match(sig1, sig2)[2].max(initial=0.0)))
    return worst


def test_ground_plane_bank(ground_plane_bank):
    worst = 0.0
    for scene, k in ground_plane_bank:
        ts = transition(scene, k)
        ms = cm_scattering(ts)
        worst = max(worst, _assert_matches_dense(ts, ms))
        # image currents add no unknowns: Z is 3N x 3N and the range has rank <= 3 N_c
        assert ts.system.shape == (3 * scene.n_dipoles,) * 2
        assert ms.diagnostics["rank"] <= 3 * scene.is_controllable.sum()
    assert worst < 1e-12


@pytest.mark.parametrize("region", [None, ("background", "controllable", "background")])
def test_port_bank(region):
    k = 2.0
    trio = np.array([[0.0, -0.35, 0.0], [0.0, 0.0, 0.0], [0.0, 0.35, 0.0]])
    scene = DipoleScene(trio, 6.0 * math.pi / k**3 * 0.8, region, ports=(Port(1, "x", 73.0),))
    gs = transition(scene, k)
    assert _assert_matches_dense(gs) < 1e-12


@pytest.mark.parametrize("seed", [88, 89, 90])
def test_hybrid_bank(seed):
    rng = np.random.default_rng(seed)
    k = 2.0
    pos = rng.normal(size=(6, 3))
    pos /= np.linalg.norm(pos, axis=1)[:, None]
    pos *= (0.62 + 0.18 * rng.random(6))[:, None]
    scene = DipoleScene(pos, 6.0 * math.pi / k**3 * (0.3 + rng.random(6)),
                        ("background",) * 3 + ("controllable",) * 3,
                        sphere=SphereSpec(0.08, "dielectric", eps_r=4.0))
    ts = assemble_hybrid(scene, k, wave_basis=basis(10), residual_tol=1.0)
    assert _assert_matches_dense(ts, cm_scattering(ts)) < 1e-12


def test_single_dipole_pads_with_trivial_modes():
    # three dipole modes span the range; the fourth requested mode is s = 1
    scene = DipoleScene([[0.0, 0.0, 0.0]], 6.0 * math.pi * 0.7)
    ts = transition(scene, 1.0)
    ms = cm_scattering(ts, n_modes=4)
    assert ms.n_modes == 4 and ms.diagnostics["rank"] == 3
    assert ms.t[3] == 0.0 and ms.s[3] == 1.0
    assert np.abs(ms.a.conj().T @ ms.a - np.eye(4)).max() < 1e-14
    assert np.abs(ms.f.conj().T @ ms.f - np.eye(4)).max() < 1e-14
    assert np.abs(ms.f - ts.S_b @ ms.a).max() < 1e-14
    _assert_matches_dense(ts)


def test_n_modes_keeps_the_most_significant():
    ts = transition(random_scene(np.random.default_rng(3), 6, 0.8, n_background=2), 1.0)
    dense = cm_scattering(ts.S, ts.S_b, n_modes=2)
    assert dense.n_modes == 2
    full, top = cm_scattering(ts), cm_scattering(ts, n_modes=2)
    assert top.n_modes == 2
    assert np.array_equal(top.s, full.s[:2])
    assert np.abs(dense.t - top.t).max() < 1e-12


def test_transition_set_carries_its_own_s_b():
    ts = transition(random_scene(np.random.default_rng(3), 4, 0.5), 1.0)
    with pytest.raises(ValueError):
        cm_scattering(ts, ts.S_b)


@pytest.mark.parametrize("seed", [0, 2])
def test_indefinite_radiation_scene_matches_dense(seed):
    # the impedance engine raises SolveError on these scenes (R~ indefinite);
    # the range engine needs neither R~ nor Z~ and matches the dense oracle
    scene = random_scene(np.random.default_rng(seed), 150, 2.0, n_background=50)
    ts = transition(scene, 1.0)
    assert _assert_matches_dense(ts) < 1e-13


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), ka=st.floats(0.1, 1.5),
       background=st.floats(0.0, 1.0), anisotropic=st.booleans(),
       k=st.floats(0.5, 3.0))
def test_random_scenes_property(seed, n, ka, background, anisotropic, k):
    # any small random scene: the range engine matches the dense oracle and
    # keeps unitarity and the circle, or the assembly raises one of the
    # library's own errors
    try:
        scene = random_scene(np.random.default_rng(seed), n, ka, k=k,
                             n_background=int(background * n), anisotropic=anisotropic)
        ts = transition(scene, k)
        assert check_unitary(ts.S) < 1e-8
        assert check_unitary(ts.S_b) < 1e-8
    except LIBRARY_ERRORS:
        return
    # a scene that assembles and factorises is solved on its range
    _assert_matches_dense(ts)
