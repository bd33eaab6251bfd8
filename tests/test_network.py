import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mpmath as mp

from scatmodes import (
    DipoleScene,
    ModeSet,
    Port,
    basis,
    check_t_power,
    check_unitary,
    check_unitary_factored,
    scattering_unitarity,
    transition,
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


def test_eigen_maps_points():
    # the eigenvalue maps s -> t, lambda are ModeSet.t and ModeSet.lam
    eye = np.eye(2, dtype=complex)
    ms = ModeSet(s=np.array([-1.0, 1.0], dtype=complex), a=eye, f=eye)
    assert ms.t[0] == -1.0 and ms.lam[0] == 0.0
    assert ms.t[1] == 0.0 and not np.isfinite(ms.lam[1])
    # s = j against 40-digit arithmetic
    mp.mp.dps = 40
    s = mp.mpc(0, 1)
    lam_ref = complex(1j * (s + 1) / (s - 1))
    ms = ModeSet(s=np.array([1j]), a=eye[:, :1], f=eye[:, :1])
    assert_allclose([ms.t[0].real, ms.t[0].imag], [-0.5, 0.5], rtol=1e-15)
    assert abs(ms.lam[0] - lam_ref) < 1e-15


def test_eigen_from_lambda_inverse():
    # t = -1/(1 + j lambda), the impedance engine's map, inverts ModeSet.lam
    lam = np.array([-3.0, 0.0, 0.7, 12.0])
    t = -1.0 / (1.0 + 1j * lam)
    eye = np.eye(t.size, dtype=complex)
    ms = ModeSet(s=1.0 + 2.0 * t, a=eye, f=eye)
    assert np.abs(ms.lam - lam).max() < 1e-12
    assert ms.t[1] == -1.0


def test_check_unitary():
    assert check_unitary(np.eye(5)) == 0.0
    th = np.linspace(0.1, 2.0, 5)
    assert check_unitary(np.diag(np.exp(1j * th))) < 1e-15
    # ||(1.01^2 - 1) I||_F / sqrt(3)
    assert abs(check_unitary(np.eye(3) * 1.01) - 0.0201) < 1e-15


def test_check_t_power():
    assert check_t_power(np.zeros((3, 3))) == 0.0
    assert check_t_power(np.diag([-1.0, -1.0])) < 1e-15


def test_lossless_scene_checks():
    from scatmodes import transition
    rng = np.random.default_rng(5)
    scene = random_scene(rng, 10, 0.6)
    ts = transition(scene, 1.0)
    assert check_unitary(ts.S) < 1e-8
    assert check_t_power(ts.T) < 1e-8


def _ground_plane_set():
    """An image-reduced ground-plane set: its readout is exactly 0 on the forbidden waves."""
    scene = DipoleScene([[0.1, 0.0, 0.2], [-0.1, 0.1, 0.3], [0.0, -0.15, 0.1]], 0.05,
                        ("background", "controllable", "controllable"), ground_plane=True)
    return transition(scene, 2.0)


FACTORED_UNITARITY_CASES = {
    "lossless": lambda: transition(random_scene(np.random.default_rng(5), 10, 0.6,
                                                n_background=4), 1.0),
    "port": lambda: transition(
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
    # quantity, for S and S_b
    blocks = FACTORED_UNITARITY_CASES[case]()
    u = blocks.readout
    factored = [check_unitary_factored(u, blocks.solve),
                check_unitary_factored(u[:, :blocks.n_b], blocks.solve_bb)]
    dense = [check_unitary(blocks.S), check_unitary(blocks.S_b)]
    assert np.abs(np.subtract(factored, dense)).max() <= 1e-14
    if case == "under-resolved":
        assert min(dense) > 0.01
    else:
        chosen = scattering_unitarity(blocks)
        assert chosen["unitarity_form"] == "factored"
        assert [chosen["unitarity_S"], chosen["unitarity_S_b"]] == factored


def _bound_bank(kind):
    """Real-readout blocks with 3N > n/2: a cloud, the same with two ports, or above a plane."""
    rng = np.random.default_rng(51)
    bank = []
    for n, ka in ((60, 0.3), (80, 0.9)):
        scene = random_scene(rng, n, ka, n_background=20)
        if kind == "port":
            scene = DipoleScene(scene.positions, scene.polarizability, scene.region,
                                ports=(Port(30, "x", 73.0), Port(45, "z", 50.0)))
        elif kind == "ground-plane":
            lift = [0.0, 0.0, 1.1 * np.abs(scene.positions[:, 2]).max() + 0.05]
            scene = DipoleScene(scene.positions + lift, scene.polarizability, scene.region,
                                ground_plane=True)
        blocks = transition(scene, 1.0)
        assert 2 * blocks.readout.shape[1] > blocks.readout.shape[0]
        bank.append(blocks)
    return bank


@pytest.mark.parametrize("kind", ["cloud", "port", "ground-plane"])
def test_unitarity_bound_covers_the_dense_deviation(kind):
    # where 3N > n/2 the deviations come from S^H S - I = 4 B^H E B with a
    # probed ||B||_2; they are never below the dense check's, and a system
    # whose Re Z is perturbed by 1e-6 I fails the bound and is checked densely
    for blocks in _bound_bank(kind):
        chosen = scattering_unitarity(blocks)
        dense = [check_unitary(blocks.S), check_unitary(blocks.S_b)]
        assert chosen["unitarity_form"] == "bound"
        assert chosen["unitarity_S"] >= dense[0] and chosen["unitarity_S_b"] >= dense[1]
        assert max(chosen["unitarity_S"], chosen["unitarity_S_b"]) <= 1e-8
        perturbed = dataclasses.replace(
            blocks, system=blocks.system + 1e-6 * np.eye(blocks.system.shape[0]))
        assert scattering_unitarity(perturbed) == {
            "unitarity_S": check_unitary(perturbed.S),
            "unitarity_S_b": check_unitary(perturbed.S_b), "unitarity_form": "dense"}


def test_cm_scattering_records_the_unitarity_of_its_pencil():
    # dense matrices are checked as the engine decomposes them, I + 2 (S - I) / 2
    # and likewise S_b, with form "dense"; blocks record scattering_unitarity's
    # figures key for key, in its factored and its bound form
    from scatmodes import cm_scattering

    blocks = FACTORED_UNITARITY_CASES["lossless"]()
    s, s_b = 0.9 * blocks.S, blocks.S_b  # a lossy S against a unitary S_b
    eye = np.eye(s.shape[0])
    recorded = cm_scattering(s, s_b).diagnostics
    assert {key: recorded[key] for key in ("unitarity_S", "unitarity_S_b", "unitarity_form")} \
        == {"unitarity_S": check_unitary(eye + 2.0 * (0.5 * (s - eye))),
            "unitarity_S_b": check_unitary(eye + 2.0 * (0.5 * (s_b - eye))),
            "unitarity_form": "dense"}
    assert recorded["unitarity_S"] > 0.1 and recorded["unitarity_S_b"] < 1e-12
    for blocks, form in ((blocks, "factored"), (_bound_bank("cloud")[0], "bound")):
        chosen = scattering_unitarity(blocks)
        recorded = cm_scattering(blocks).diagnostics
        assert chosen["unitarity_form"] == form
        assert {key: recorded[key] for key in chosen} == chosen


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
    ts = _ground_plane_set()  # "kept-": its S and T couple only the allowed waves
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
        "kept-S": ts.S,
        "kept-T": ts.T,
    }


SQUARE_CASES = _square_cases()


@pytest.mark.parametrize("layout", ["C", "F", "view"])
@pytest.mark.parametrize("case", SQUARE_CASES)
def test_dense_checks_match_the_full_product(case, layout):
    # the one-triangle Gram and norm give the full product's deviations
    m = _layouts(SQUARE_CASES[case])[layout]
    assert _close_to_reference(check_unitary(m), unitary_deviation_reference(m))
    assert _close_to_reference(check_t_power(m), t_power_reference(m))


def _readout_cases():
    """(u, solve of z) pairs: lossless, lossy, complex readout, exact zero rows, 1 and 0 columns."""
    rng = np.random.default_rng(17)
    blocks = FACTORED_UNITARITY_CASES["lossless"]()
    plain = transition(random_scene(rng, 6, 0.6), 1.0)  # n_b = 0
    gp = _ground_plane_set()
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    return {
        "lossless": (blocks.readout, blocks.solve),
        "lossless-background": (blocks.U1_b, blocks.solve_bb),
        "kept-rows": (gp.readout, gp.solve),  # 0 on the forbidden waves
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
    assert _close_to_reference(check_unitary_factored(u, solve),
                               factored_unitarity_reference(u, solve))


def _impedance_cases():
    """Complex symmetric z with u: a lossless scene (real u), its compressed system (complex u), others."""
    rng = np.random.default_rng(19)
    blocks = FACTORED_UNITARITY_CASES["lossless"]()
    u = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return {
        "lossless": (blocks.system, blocks.readout),
        "compressed": (blocks.Z_tilde, blocks.U1_tilde),
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
    out = embed_identity(np.array([[0.3 + 0.1j]]), b6, index_map={0: 0})
    expected = np.eye(6, dtype=complex)
    expected[0, 0] = 0.3 + 0.1j
    assert np.all(out == expected)


def test_embed_identity_identity():
    b = basis(2)
    out = embed_identity(np.eye(6, dtype=complex), b, basis(1))
    assert np.all(out == np.eye(b.size))


def test_embed_identity_by_wave_index():
    small_b = basis(1)
    big_b = basis(2)
    out = embed_identity(np.diag(np.arange(1.0, 7.0) + 0j), big_b, small_b)
    for i, wave in enumerate(zip(small_b.l, small_b.m, small_b.tm)):
        assert out[big_b.position(*wave), big_b.position(*wave)] == i + 1.0


def test_embed_identity_errors():
    b = basis(1)
    s_small = np.eye(2, dtype=complex)
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
        SphereSpec,
        assemble_hybrid,
        cm_scattering,
        mie_t_coefficients,
        transition,
    )

    k = 1.0
    sphere = SphereSpec(0.15, "dielectric", eps_r=4.0)
    pos = np.array([[0.5, 0.0, 0.1], [0.0, 0.55, -0.1], [-0.45, 0.2, 0.3]])
    scene = DipoleScene(pos, 6.0 * math.pi * 0.8, sphere=sphere)

    big = basis(10)
    # the projection truncation is common to both compared paths here,
    # so the residual gate is irrelevant for this embedding check
    ts = assemble_hybrid(scene, k, wave_basis=big, residual_tol=1.0)

    small = basis(2)
    # the compact background's Mie diagonal, below the truncation rule's basis
    t_te, t_tm = mie_t_coefficients(sphere, k, small.l_max)
    l, tm = small.l, small.tm
    t_small = np.diag(np.where(tm, t_tm[l - 1], t_te[l - 1]))
    sb_embedded = embed_identity(2.0 * t_small + np.eye(small.size), big, small)
    ms_embed = cm_scattering(ts.S, sb_embedded)
    ms_direct = cm_scattering(ts.S, ts.S_b)

    t1 = ms_embed.t[np.abs(ms_embed.t) > 1e-9]
    t2 = ms_direct.t[np.abs(ms_direct.t) > 1e-9]
    assert t1.size == t2.size
    cost = np.abs(t1[:, None] - t2[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 1e-8
