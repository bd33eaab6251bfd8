import numpy as np
import pytest
import scipy.linalg as la
from numpy.testing import assert_allclose

from scatmodes import (
    DomainError,
    ScatterOracle,
    cm_t_form,
    composed_matvec,
    iterate,
    transition,
)
from conftest import random_scene


def _random_symmetric_unitary(rng, dim):
    h = rng.standard_normal((dim, dim))
    return la.expm(1j * (h + h.T))


def test_composed_matvec_free_space():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((8, 8))
    t = t + t.T + 0j
    oracle = ScatterOracle.from_matrices(t, np.zeros_like(t))
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert_allclose(composed_matvec(oracle, x), t @ x, atol=1e-14)


def test_composed_matvec_1x1():
    oracle = ScatterOracle.from_matrices(np.array([[-1.0 + 0j]]),
                                         np.array([[0.0 + 0j]]))
    assert composed_matvec(oracle, np.array([1.0 + 0j]))[0] == -1.0


def test_composed_matvec_against_dense_product():
    rng = np.random.default_rng(1)
    s = _random_symmetric_unitary(rng, 20)
    sb = _random_symmetric_unitary(rng, 20)
    t = (s - np.eye(20)) / 2.0
    tb = (sb - np.eye(20)) / 2.0
    x = rng.standard_normal(20) + 1j * rng.standard_normal(20)

    o_t = ScatterOracle.from_matrices(t, tb)
    explicit = (2.0 * tb.conj().T @ t + tb.conj().T + t) @ x
    assert np.abs(composed_matvec(o_t, x) - explicit).max() < 1e-12

    o_s = ScatterOracle.from_matrices(t, tb, kind="S-form")
    assert np.abs(composed_matvec(o_s, x) - sb.conj().T @ s @ x).max() < 1e-12


def test_symmetry_probe_rejects_nonreciprocal_operator():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))  # not symmetric
    oracle = ScatterOracle.from_matrices(t, np.zeros_like(t))
    with pytest.raises(DomainError):
        oracle.validate(rng)


def test_linearity_probe():
    calls = {"n": 0}

    def nonlinear(x):
        calls["n"] += 1
        return x + 1e-3 * np.abs(x)

    oracle = ScatterOracle(apply=nonlinear, apply_background=lambda x: 0 * x, dim=5)
    with pytest.raises(DomainError):
        oracle.validate(np.random.default_rng(0))


def test_invariant_subspace_exactness():
    d = np.diag([-1.0, -0.5, -0.1] + [0.0] * 9).astype(complex)
    oracle = ScatterOracle.from_matrices(d, np.zeros_like(d))
    start = np.zeros(12, dtype=complex)
    start[:3] = [1.0, 2.0, -1.0]
    ms, log = iterate(oracle, n_modes=3, max_iter=10, start=start)
    assert log.n_iterations <= 4
    assert_allclose(np.sort(ms.t.real), [-1.0, -0.5, -0.1], atol=1e-12)
    assert np.abs(ms.t.imag).max() < 1e-12


def test_zero_operator_terminates_immediately():
    z = np.zeros((10, 10), dtype=complex)
    oracle = ScatterOracle.from_matrices(z, z)
    ms, log = iterate(oracle, n_modes=3, max_iter=20)
    assert log.converged
    assert log.n_iterations <= 2
    assert np.abs(ms.t).max() == 0.0


@pytest.mark.parametrize("kind", ["T-form", "S-form"])
def test_matches_dense_on_random_scene(kind):
    rng = np.random.default_rng(33)
    scene = random_scene(rng, 9, 0.9, n_background=4)
    k = 1.0
    ts = transition(scene, k)
    assert ts.S.shape[0] <= 300
    dense = cm_t_form(ts.T, ts.T_b)
    oracle = ScatterOracle.from_matrices(ts.T, ts.T_b, kind=kind)
    ms, log = iterate(oracle, n_modes=5, max_iter=60)
    assert log.n_iterations <= 60
    assert np.abs(np.abs(dense.t[:5]) - np.abs(ms.t[:5])).max() < 1e-6


def test_krylov_basis_orthonormal():
    rng = np.random.default_rng(34)
    scene = random_scene(rng, 7, 0.7, n_background=3)
    ts = transition(scene, 1.0)
    oracle = ScatterOracle.from_matrices(ts.T, ts.T_b)
    ms, log = iterate(oracle, n_modes=4, max_iter=40)
    q = log.basis
    assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() < 1e-10


def test_nested_subspace_coverage_monotone():
    # projection error of a fixed probe onto the growing Krylov basis is
    # non-increasing (the per-iteration residual itself is not monotone;
    # see the horizontal analysis in the repository notes)
    rng = np.random.default_rng(35)
    scene = random_scene(rng, 6, 0.6, n_background=2)
    ts = transition(scene, 1.0)
    oracle = ScatterOracle.from_matrices(ts.T, ts.T_b)
    ms, log = iterate(oracle, n_modes=4, max_iter=30)
    q = log.basis
    probe = composed_matvec(oracle, ms.a[:, 0])
    errs = []
    for m in range(1, q.shape[1] + 1):
        p = q[:, :m]
        errs.append(np.linalg.norm(probe - p @ (p.conj().T @ probe)))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_residual_reaches_tolerance():
    rng = np.random.default_rng(36)
    scene = random_scene(rng, 5, 0.5, n_background=2)
    ts = transition(scene, 1.0)
    oracle = ScatterOracle.from_matrices(ts.T, ts.T_b)
    ms, log = iterate(oracle, n_modes=3, max_iter=60, tol_eig=0.0)
    assert log.converged and log.reason == "residual"
    assert log.residuals[-1] < 1e-6 * max(log.residuals)


def test_n_modes_exceeds_dimension():
    z = np.zeros((3, 3), dtype=complex)
    with pytest.raises(DomainError):
        iterate(ScatterOracle.from_matrices(z, z), n_modes=5)


def test_max_iter_returns_nonconverged_estimate():
    rng = np.random.default_rng(40)
    scene = random_scene(rng, 8, 0.8, n_background=3)
    ts = transition(scene, 1.0)
    oracle = ScatterOracle.from_matrices(ts.T, ts.T_b)
    ms, log = iterate(oracle, n_modes=5, max_iter=3, tol_eig=0.0)
    assert not log.converged
    assert log.reason == "max_iter"
    assert ms.diagnostics["converged"] is False
    # only as many Ritz values exist as the subspace holds
    assert ms.n_modes == min(5, log.n_iterations)
