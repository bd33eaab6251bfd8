import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mpmath as mp

from scatmodes import (
    DipoleScene,
    ModeSet,
    OperatorMatrix,
    Port,
    ShapeError,
    basis,
    check_t_power,
    check_unitary,
    check_unitary_factored,
    generalized_scattering,
    scattering_unitarity,
    transition,
    s_from_t,
    schur_system,
    t_from_s,
)
from scatmodes.dipoles import factorization_residual
from conftest import random_scene
from oracles import (
    MappingError,
    embed_identity,
    factored_unitarity_reference,
    factorization_residual_reference,
    t_power_reference,
    unitary_deviation_reference,
)


def test_s_t_roundtrip_trivial():
    t0 = np.zeros((4, 4))
    assert np.all(s_from_t(t0).data == np.eye(4))
    assert np.all(t_from_s(np.eye(4)).data == 0.0)
    assert s_from_t(np.array([[-1.0]])).data[0, 0] == -1.0


def test_s_t_roundtrip_random():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    back = t_from_s(s_from_t(t)).data
    assert np.abs(back - t).max() < 1e-15


def test_s_from_t_shape_error():
    with pytest.raises(ShapeError):
        s_from_t(np.zeros((2, 3)))


def test_eigen_maps_points():
    # the eigenvalue maps s -> t, lambda are ModeSet.t and ModeSet.lam
    ms = ModeSet(s=np.array([-1.0, 1.0], dtype=complex))
    assert ms.t[0] == -1.0 and ms.lam[0] == 0.0
    assert ms.t[1] == 0.0 and not np.isfinite(ms.lam[1])
    # s = j against 40-digit arithmetic
    mp.mp.dps = 40
    s = mp.mpc(0, 1)
    lam_ref = complex(1j * (s + 1) / (s - 1))
    ms = ModeSet(s=np.array([1j]))
    assert_allclose([ms.t[0].real, ms.t[0].imag], [-0.5, 0.5], rtol=1e-15)
    assert abs(ms.lam[0] - lam_ref) < 1e-15


def test_eigen_from_lambda_inverse():
    # t = -1/(1 + j lambda), the impedance engine's map, inverts ModeSet.lam
    lam = np.array([-3.0, 0.0, 0.7, 12.0])
    t = -1.0 / (1.0 + 1j * lam)
    ms = ModeSet(s=1.0 + 2.0 * t)
    assert np.abs(ms.lam - lam).max() < 1e-12
    assert ms.t[1] == -1.0


def test_check_unitary():
    assert check_unitary(np.eye(5)).deviation == 0.0
    th = np.linspace(0.1, 2.0, 5)
    assert check_unitary(np.diag(np.exp(1j * th))).deviation < 1e-15
    m = np.eye(3) * 1.01
    rep = check_unitary(m, tol=1e-8)
    assert not rep.passed


def test_check_t_power():
    assert check_t_power(np.zeros((3, 3))).passed
    assert check_t_power(np.diag([-1.0, -1.0])).deviation < 1e-15


def test_lossless_scene_checks():
    from scatmodes import transition
    rng = np.random.default_rng(5)
    scene = random_scene(rng, 10, 0.6)
    ts = transition(scene, 1.0)
    assert check_unitary(ts.S).deviation < 1e-8
    assert check_t_power(ts.T).deviation < 1e-8


def _ground_plane_set():
    from scatmodes.modes import parity_restricted
    scene = DipoleScene([[0.1, 0.0, 0.2], [-0.1, 0.1, 0.3], [0.0, -0.15, 0.1]], 0.05,
                        ("background", "controllable", "controllable"), ground_plane=True)
    return parity_restricted(transition(scene, 2.0))


FACTORED_UNITARITY_CASES = {
    "lossless": lambda: transition(random_scene(np.random.default_rng(5), 10, 0.6,
                                                n_background=4), 1.0),
    "port": lambda: generalized_scattering(
        DipoleScene([[0.0, -0.35, 0.0], [0.0, 0.0, 0.0], [0.0, 0.35, 0.0]], 0.5,
                    ("background", "controllable", "background"), ports=(Port(1, "x", 73.0),)),
        2.0),
    "ground-plane": _ground_plane_set,
    # one degree cannot hold two dipoles 0.8 apart at k = 2: S is far from unitary
    "under-resolved": lambda: transition(
        DipoleScene([[0.4, 0.0, 0.0], [-0.4, 0.1, 0.0]], 1.0, ("background", "controllable")),
        2.0, basis(1)),
}


@pytest.mark.filterwarnings("ignore:wave basis l_max=1 under-resolves")
@pytest.mark.parametrize("case", FACTORED_UNITARITY_CASES)
def test_factored_unitarity_matches_dense(case):
    # ||S^H S - I|| from the QR of the readout and Z^-1 is the dense check's
    # quantity, for S and S_b, on the rows a transition set keeps
    ts = FACTORED_UNITARITY_CASES[case]()
    blocks = ts.blocks
    u = blocks.U1 if ts.kept is None else blocks.U1[ts.kept]
    factored = [check_unitary_factored(u, blocks.solve).deviation,
                check_unitary_factored(u[:, :blocks.n_b], blocks.solve_bb).deviation]
    dense = [check_unitary(ts.S).deviation, check_unitary(ts.S_b).deviation]
    assert np.abs(np.subtract(factored, dense)).max() <= 1e-14
    if case == "under-resolved":
        assert min(dense) > 0.01
    else:
        chosen = scattering_unitarity(ts)
        assert chosen["unitarity_form"] == "factored"
        assert [chosen["unitarity_S"], chosen["unitarity_S_b"]] == factored


def _layouts(a):
    """a C-ordered, F-ordered and as a non-contiguous view into a larger array."""
    big = np.zeros((a.shape[0] + 2, 2 * a.shape[1] + 1), dtype=a.dtype)
    big[1:-1, 1::2] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "view": big[1:-1, 1::2]}


def _close_to_reference(got, want):
    return abs(got - want) <= 1e-15 + 1e-12 * abs(want)


def _unitary(rng, n, dtype):
    a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if dtype is complex else 0)
    return np.linalg.qr(a)[0]


def _square_cases():
    rng = np.random.default_rng(13)
    ts = _ground_plane_set()  # restricted to the kept rows
    return {
        "real-unitary": _unitary(rng, 5, float),
        "complex-unitary": _unitary(rng, 7, complex),
        # the deviation of a 448 x 448 unitary is rounding, ~1e-15: it is lost
        # if the identity is taken off after the norm instead of before
        "complex-unitary-448": _unitary(rng, 448, complex),
        "real-general": rng.standard_normal((4, 4)),
        "complex-general": rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)),
        "empty": np.zeros((0, 0), dtype=complex),
        "one": np.array([[np.exp(0.3j)]]),
        "kept-S": ts.S.data,
        "kept-T": ts.T.data,
    }


SQUARE_CASES = _square_cases()


@pytest.mark.parametrize("layout", ["C", "F", "view"])
@pytest.mark.parametrize("case", SQUARE_CASES)
def test_dense_checks_match_the_full_product(case, layout):
    # the one-triangle Gram and norm give the full product's deviations
    m = _layouts(SQUARE_CASES[case])[layout]
    assert _close_to_reference(check_unitary(m).deviation, unitary_deviation_reference(m))
    assert _close_to_reference(check_t_power(m).deviation, t_power_reference(m))


def _readout_cases():
    """(u, solve of z) pairs: lossless, lossy, complex readout, kept rows, 1 and 0 columns."""
    rng = np.random.default_rng(17)
    blocks = FACTORED_UNITARITY_CASES["lossless"]().blocks
    plain = transition(random_scene(rng, 6, 0.6), 1.0).blocks  # n_b = 0
    gp = _ground_plane_set()
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    return {
        "lossless": (blocks.readout, blocks.solve),
        "lossless-background": (blocks.U1_b, blocks.solve_bb),
        "kept-rows": (gp.blocks.readout[gp.kept], gp.blocks.solve),
        "lossy": (rng.standard_normal((20, 5)), lambda rhs: np.linalg.solve(z, rhs)),
        "complex": (rng.standard_normal((20, 5)) + 1j * rng.standard_normal((20, 5)),
                    lambda rhs: np.linalg.solve(z, rhs)),
        "one-column": (blocks.readout[:, :1], lambda rhs: rhs / blocks.system[0, 0]),
        "no-background": (plain.U1_b, plain.solve_bb),
    }


READOUT_CASES = _readout_cases()


@pytest.mark.parametrize("layout", ["C", "F", "view"])
@pytest.mark.parametrize("case", READOUT_CASES)
def test_factored_unitarity_matches_the_full_product(case, layout):
    u, solve = READOUT_CASES[case]
    u = _layouts(u)[layout]
    assert _close_to_reference(check_unitary_factored(u, solve).deviation,
                               factored_unitarity_reference(u, solve))


def _impedance_cases():
    """Complex symmetric z with u: a lossless scene (real u), its compressed system (complex u), others."""
    rng = np.random.default_rng(19)
    blocks = FACTORED_UNITARITY_CASES["lossless"]().blocks
    sys_t = schur_system(blocks)
    u = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return {
        "lossless": (blocks.system, blocks.readout),
        "compressed": (sys_t.Z_tilde, sys_t.U1_tilde),
        "general-real-u": (z + z.T, u.real),
        "general-complex-u": (z + z.T, u),
        "one": (np.array([[2.0 - 1.0j]]), u[:, :1]),
        "empty": (np.zeros((0, 0), dtype=complex), u[:, :0]),
    }


IMPEDANCE_CASES = _impedance_cases()


@pytest.mark.parametrize("layout", ["C", "F", "view"])
@pytest.mark.parametrize("case", IMPEDANCE_CASES)
def test_factorization_residual_matches_the_full_product(case, layout):
    z, u = (_layouts(a)[layout] for a in IMPEDANCE_CASES[case])
    assert _close_to_reference(factorization_residual(z, u),
                               factorization_residual_reference(z, u))


def test_map_consistency_unitary_pair():
    # eigenvalues of S_b^H S with unitary factors stay on |s| = 1,
    # hence t on the circle |t + 1/2| = 1/2
    rng = np.random.default_rng(8)
    h1 = rng.standard_normal((12, 12))
    h2 = rng.standard_normal((12, 12))
    import scipy.linalg as la
    s = la.expm(1j * (h1 + h1.T))
    sb = la.expm(1j * (h2 + h2.T))
    vals = np.linalg.eigvals(sb.conj().T @ s)
    assert np.abs(np.abs(vals) - 1.0).max() < 1e-8
    t = (vals - 1.0) / 2.0
    assert np.abs(np.abs(t + 0.5) - 0.5).max() < 1e-8
    lam = 1j * (vals + 1.0) / (vals - 1.0)
    assert np.abs(lam.imag).max() < 1e-6 * (1.0 + np.abs(lam).max())


def test_embed_identity_explicit_map():
    b6 = basis(1)
    s_small = OperatorMatrix("S", np.array([[0.3 + 0.1j]]))
    out = embed_identity(s_small, b6, index_map={0: 0})
    expected = np.eye(6, dtype=complex)
    expected[0, 0] = 0.3 + 0.1j
    assert np.all(out.data == expected)


def test_embed_identity_identity():
    b = basis(2)
    small = OperatorMatrix("S", np.eye(6, dtype=complex), basis(1))
    out = embed_identity(small, b)
    assert np.all(out.data == np.eye(b.size))


def test_embed_identity_by_wave_index():
    small_b = basis(1)
    big_b = basis(2)
    s_small = OperatorMatrix("S", np.diag(np.arange(1.0, 7.0) + 0j), small_b)
    out = embed_identity(s_small, big_b)
    for i, idx in enumerate(small_b.indices):
        assert out.data[big_b.position(idx), big_b.position(idx)] == i + 1.0


def test_embed_identity_errors():
    b = basis(1)
    s_small = OperatorMatrix("S", np.eye(2, dtype=complex))
    with pytest.raises(MappingError):
        embed_identity(s_small, b, index_map={0: 1, 1: 1})
    with pytest.raises(MappingError):
        embed_identity(s_small, b, index_map={0: 1})
    with pytest.raises(MappingError):
        embed_identity(s_small, b)  # no basis, no map


def test_embedded_background_matches_small_basis_computation():
    # substructure modes with a small-sphere background: computing the
    # background S on a compact basis and embedding it must match the
    # direct large-basis computation for an object within that validity
    from scipy.optimize import linear_sum_assignment

    from scatmodes import (
        DipoleScene,
        HybridScene,
        SphereSpec,
        assemble_hybrid,
        cm_scattering,
        hybrid_transition,
        mie_tmatrix,
    )

    k = 1.0
    sphere = SphereSpec(0.15, "dielectric", eps_r=4.0)
    pos = np.array([[0.5, 0.0, 0.1], [0.0, 0.55, -0.1], [-0.45, 0.2, 0.3]])
    scene = DipoleScene(pos, 6.0 * math.pi * 0.8)
    hs = HybridScene(scene, sphere)

    big = basis(10)
    # the projection truncation is common to both compared paths here,
    # so the residual gate is irrelevant for this embedding check
    system = assemble_hybrid(hs, k, wave_basis=big, residual_tol=1.0)
    ts = hybrid_transition(hs, k, system=system)

    small = basis(2)
    t_small = mie_tmatrix(sphere, k, small, enforce_truncation=False)
    sb_embedded = embed_identity(s_from_t(t_small), big)
    ms_embed = cm_scattering(ts.S, sb_embedded)
    ms_direct = cm_scattering(ts.S, ts.S_b)

    t1 = ms_embed.t[np.abs(ms_embed.t) > 1e-9]
    t2 = ms_direct.t[np.abs(ms_direct.t) > 1e-9]
    assert t1.size == t2.size
    cost = np.abs(t1[:, None] - t2[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 1e-8
