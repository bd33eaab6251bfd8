import numpy as np
import pytest
import scipy.linalg as la
from numpy.testing import assert_allclose

from scatmodes import iterative
from scatmodes import (
    DipoleScene,
    DomainError,
    Port,
    ScatterOracle,
    ShapeError,
    SphereSpec,
    assemble_hybrid,
    cm_scattering,
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


def test_symmetry_probe_rejects_nonreciprocal_operator():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))  # not symmetric
    with pytest.raises(DomainError, match="not complex symmetric"):
        ScatterOracle.from_matrices(t, np.zeros_like(t))


def test_callback_oracle_on_a_nonsymmetric_matrix_is_refused_when_made():
    # the probe runs at construction, so composed_matvec never sees an operator whose
    # conjugation trick would give a wrong composed product
    a = np.triu(np.ones((6, 6))) + 0j
    with pytest.raises(DomainError, match="apply is not complex symmetric"):
        ScatterOracle(lambda x: a @ x, lambda x: 0 * x, dim=6)
    with pytest.raises(DomainError, match="apply_background is not complex symmetric"):
        ScatterOracle(lambda x: 0 * x, lambda x: a @ x, dim=6)


def test_linearity_probe():
    def nonlinear(x):
        return x + 1e-3 * np.abs(x)

    with pytest.raises(DomainError, match="linearity probe"):
        ScatterOracle(apply=nonlinear, apply_background=lambda x: 0 * x, dim=5)


@pytest.mark.parametrize("pencil", ["blocks", "non-reciprocal-matrices", "non-linear-callback"])
def test_iterate_probes_only_pencils_not_built_from_blocks(pencil):
    # blocks are trusted: Z is solved once per application of N and never for a
    # probe; matrices and callbacks are probed when the oracle is made, and the
    # probe rejects bad ones before iterate can take them
    rng = np.random.default_rng(45)
    if pencil == "blocks":
        blocks = transition(random_scene(rng, 6, 0.6, n_background=2), 1.0)
        solve, calls = blocks.solve, []
        blocks.solve = lambda rhs: calls.append(rhs.shape) or solve(rhs)
        ms = iterate(blocks, n_modes=3)
        assert len(calls) == ms.diagnostics["iterations"]
        return
    with pytest.raises(DomainError):
        if pencil == "non-reciprocal-matrices":
            t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            ScatterOracle.from_matrices(t, np.zeros_like(t))
        else:
            ScatterOracle(apply=lambda x: x + 1e-3 * np.abs(x),
                          apply_background=lambda x: 0 * x, dim=5)


def test_invariant_subspace_exactness():
    # n_modes + OVERSAMPLING = 5 seeded columns span all of C^5, an invariant
    # subspace: the Ritz pairs of the first block are exact
    d = np.diag([-1.0, -0.5, -0.1, 0.0, 0.0]).astype(complex)
    oracle = ScatterOracle.from_matrices(d, np.zeros_like(d))
    ms = iterate(oracle, n_modes=3)
    assert ms.diagnostics["converged"] and ms.diagnostics["iterations"] == 1
    assert_allclose(np.sort(ms.t.real), [-1.0, -0.5, -0.1], atol=1e-12)
    assert np.abs(ms.t.imag).max() < 1e-12


def test_invariant_stop_when_a_response_adds_no_direction():
    # the seeded block spans C^4, so the first response adds nothing to Q; at |t| ~ 1e8
    # the rounding residual (about 1e-7) stays above TOL_RESIDUAL, so the stop is "invariant"
    d = np.diag(1e8 * np.array([-1.0, -0.5, -0.25, -0.1])).astype(complex)
    ms = iterate(ScatterOracle.from_matrices(d, np.zeros_like(d)), n_modes=2)
    assert ms.diagnostics["reason"] == "invariant" and ms.diagnostics["iterations"] == 1
    assert ms.diagnostics["residuals"][-1] > iterative.TOL_RESIDUAL
    assert ms.diagnostics["converged"] is False
    assert_allclose(ms.t.real, [-1e8, -0.5e8], rtol=1e-14)


def test_zero_operator_terminates_immediately():
    z = np.zeros((10, 10), dtype=complex)
    oracle = ScatterOracle.from_matrices(z, z)
    ms = iterate(oracle, n_modes=3)
    assert ms.diagnostics["converged"]
    assert ms.diagnostics["iterations"] <= 2
    assert np.abs(ms.t).max() == 0.0


def test_matches_dense_on_random_scene():
    rng = np.random.default_rng(33)
    scene = random_scene(rng, 9, 0.9, n_background=4)
    k = 1.0
    ts = transition(scene, k)
    assert ts.S.shape[0] <= 300
    dense = cm_t_form(ts.T, ts.T_b)
    oracle = ScatterOracle.from_matrices(ts.T, ts.T_b)
    ms = iterate(oracle, n_modes=5)
    assert ms.diagnostics["iterations"] <= 60
    assert np.abs(np.abs(dense.t[:5]) - np.abs(ms.t[:5])).max() < 1e-6


def test_krylov_basis_orthonormal():
    rng = np.random.default_rng(34)
    scene = random_scene(rng, 7, 0.7, n_background=3)
    ts = transition(scene, 1.0)
    oracle = ScatterOracle.from_matrices(ts.T, ts.T_b)
    ms = iterate(oracle, n_modes=4)
    q = ms.diagnostics["krylov_basis"]
    assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() < 1e-10


def test_nested_subspace_coverage_monotone():
    # projection error of a fixed probe onto the growing Krylov basis is
    # non-increasing (the per-iteration residual itself is not monotone;
    # see the horizontal analysis in the repository notes)
    rng = np.random.default_rng(35)
    scene = random_scene(rng, 6, 0.6, n_background=2)
    ts = transition(scene, 1.0)
    oracle = ScatterOracle.from_matrices(ts.T, ts.T_b)
    ms = iterate(oracle, n_modes=4)
    q = ms.diagnostics["krylov_basis"]
    probe = composed_matvec(oracle, ms.a[:, 0])
    errs = []
    for m in range(1, q.shape[1] + 1):
        p = q[:, :m]
        errs.append(np.linalg.norm(probe - p @ (p.conj().T @ probe)))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_residual_reaches_tolerance():
    # every returned pair's residual ||N x - theta x||, recomputed on the dense
    # composed matrix, is within TOL_RESIDUAL, and so (N is normal) is each t
    rng = np.random.default_rng(36)
    scene = random_scene(rng, 5, 0.5, n_background=2)
    ts = transition(scene, 1.0)
    oracle = ScatterOracle.from_matrices(ts.T, ts.T_b)
    ms = iterate(oracle, n_modes=3)
    assert ms.diagnostics["converged"] and ms.diagnostics["reason"] == "residual"
    assert ms.diagnostics["residuals"][-1] <= 1e-8
    tbh = ts.T_b.conj().T
    composed = 2.0 * tbh @ ts.T + tbh + ts.T
    assert np.abs(np.linalg.norm(ms.a, axis=0) - 1.0).max() < 1e-12
    assert np.linalg.norm(composed @ ms.a - ms.a * ms.t, axis=0).max() <= 1e-8
    assert np.abs(ms.t - cm_t_form(ts.T, ts.T_b).t[:3]).max() <= 1e-8


def test_n_modes_exceeds_dimension():
    # as every engine, iterate returns min(n_modes, dim) modes
    z = np.zeros((3, 3), dtype=complex)
    ms = iterate(ScatterOracle.from_matrices(z, z), n_modes=5)
    assert ms.n_modes == 3 and ms.a.shape == ms.f.shape == (3, 3)
    assert ms.diagnostics["converged"]


def test_max_iter_returns_nonconverged_estimate(monkeypatch):
    rng = np.random.default_rng(40)
    scene = random_scene(rng, 8, 0.8, n_background=3)
    ts = transition(scene, 1.0)
    oracle = ScatterOracle.from_matrices(ts.T, ts.T_b)
    monkeypatch.setattr(iterative, "MAX_ITER", 1)
    ms = iterate(oracle, n_modes=5)
    assert ms.diagnostics["reason"] == "max_iter" and ms.diagnostics["iterations"] == 1
    assert ms.diagnostics["residuals"][-1] > 1e-8
    assert ms.diagnostics["converged"] is False
    # the block holds n_modes Ritz pairs from the first iteration on
    assert ms.n_modes == 5


def _degenerate_oracle():
    # a normal composed operator with t = 0.9 three times and 0.5 twice
    rng = np.random.default_rng(41)
    q = la.qr(rng.standard_normal((14, 14)))[0]  # real orthogonal: T is symmetric and normal
    t = np.array([0.9] * 3 + [0.5] * 2 + list(0.3 * rng.random(9)))
    return ScatterOracle.from_matrices(q @ np.diag(t + 0j) @ q.T, np.zeros((14, 14)))


def test_block_returns_every_mode_of_a_degenerate_eigenspace():
    ms = iterate(_degenerate_oracle(), n_modes=5)
    assert ms.diagnostics["converged"]
    assert np.abs(ms.t - [0.9, 0.9, 0.9, 0.5, 0.5]).max() < 1e-10
    assert np.abs(ms.a.conj().T @ ms.a - np.eye(5)).max() < 1e-8


def test_composed_matvec_of_a_block_is_the_columnwise_product():
    rng = np.random.default_rng(42)
    ts = transition(random_scene(rng, 6, 0.6, n_background=2), 1.0)
    oracle = ScatterOracle.from_matrices(ts.T, ts.T_b)
    x = rng.standard_normal((oracle.dim, 4)) + 1j * rng.standard_normal((oracle.dim, 4))
    by_column = np.column_stack([composed_matvec(oracle, col) for col in x.T])
    assert np.abs(composed_matvec(oracle, x) - by_column).max() < 1e-14
    with pytest.raises(ShapeError):
        composed_matvec(oracle, x[:-1])


@pytest.mark.parametrize("bank", ["two-region", "port", "ground-plane", "hybrid"])
def test_block_oracle_acts_as_the_dense_operators(bank):
    # T and T_b through the factors: the blocks' composed action, S_b and T - T_b (the
    # latter through the Schur complement) equal those of the n x n matrices, and an
    # oracle on the blocks' actions passes its probes when made (a hybrid's readout is
    # complex and its T_b carries the sphere's Mie offset)
    rng = np.random.default_rng(43)
    scene = random_scene(rng, 8, 0.7, n_background=3)
    if bank == "port":
        scene = DipoleScene(scene.positions, scene.polarizability, scene.region,
                            ports=(Port(5, "y", 60.0),))
    elif bank == "ground-plane":
        scene = DipoleScene(scene.positions + [0.0, 0.0, 1.0], scene.polarizability,
                            scene.region, ground_plane=True)
    elif bank == "hybrid":
        sphere = SphereSpec(0.5 * scene.min_dipole_radius, "dielectric", eps_r=4.0)
        scene = DipoleScene(scene.positions, scene.polarizability, scene.region, sphere=sphere)
    blocks = assemble_hybrid(scene, 1.0, residual_tol=1.0) if bank == "hybrid" \
        else transition(scene, 1.0)
    ScatterOracle(blocks.apply, blocks.apply_background, blocks.dim)
    t, t_b = blocks.T, blocks.T_b
    x = rng.standard_normal((blocks.dim, 5)) + 1j * rng.standard_normal((blocks.dim, 5))
    for got, want in ((composed_matvec(blocks, x),
                       composed_matvec(ScatterOracle.from_matrices(t, t_b), x)),
                      (blocks.apply_sb(x), x + 2.0 * t_b @ x),
                      (blocks.diff(x), (t - t_b) @ x)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n_modes", [0, -1])
@pytest.mark.parametrize("engine", ["iterate", "cm_scattering-blocks", "cm_scattering-matrices"])
def test_n_modes_below_one_is_a_domain_error(engine, n_modes):
    blocks = transition(random_scene(np.random.default_rng(44), 4, 0.5, n_background=2), 1.0)
    run = {"iterate": lambda: iterate(blocks, n_modes=n_modes),
           "cm_scattering-blocks": lambda: cm_scattering(blocks, n_modes=n_modes),
           "cm_scattering-matrices": lambda: cm_scattering(blocks.S, blocks.S_b,
                                                           n_modes=n_modes)}[engine]
    with pytest.raises(DomainError, match="n_modes"):
        run()
