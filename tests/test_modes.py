import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from scatmodes import (
    DipoleScene,
    Port,
    ShapeError,
    ScatterOracle,
    SolveError,
    SphereSpec,
    assemble_hybrid,
    assemble_impedance,
    basis,
    cm_impedance_substructure,
    cm_scattering,
    cm_t_form,
    mie_modeset,
    mie_tmatrix,
    mirror_scene,
    recover_currents,
    substructure_power_check,
    tilde_tmatrix,
    track_modes,
    transition,
)
from scatmodes.dipoles import factorization_residual
from scatmodes.modes import (
    CANCELLATION_THRESHOLD,
    DEGENERACY_GAP,
    ModeSet,
    _eig_orthonormal,
    parity_leakage,
)
from scatmodes.swe import ground_plane_filter
from conftest import random_scene


def matched_distance(t1, t2, threshold=1e-8):
    t1 = np.asarray(t1)
    t2 = np.asarray(t2)
    t1 = t1[np.abs(t1) > threshold]
    t2 = t2[np.abs(t2) > threshold]
    assert t1.size == t2.size, f"significant-mode counts differ: {t1.size} vs {t2.size}"
    if t1.size == 0:
        return 0.0
    cost = np.abs(t1[:, None] - t2[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@pytest.fixture(scope="module")
def two_region():
    rng = np.random.default_rng(314)
    scene = random_scene(rng, 8, 0.8, n_background=3)
    k = 1.0
    ts = transition(scene, k)
    return scene, k, ts


# ---------------------------------------------------------------------------
# scattering form
# ---------------------------------------------------------------------------

def test_cm_scattering_identity_background(two_region):
    _, _, ts = two_region
    ms_default = cm_scattering(ts.S)
    ms_eye = cm_scattering(ts.S, np.eye(ts.S.shape[0]))
    assert matched_distance(ms_default.t, ms_eye.t) < 1e-12


def test_cm_scattering_equal_operators(two_region):
    _, _, ts = two_region
    ms = cm_scattering(ts.S, ts.S)
    assert np.abs(ms.s - 1.0).max() < 1e-10
    assert np.abs(ms.t).max() < 1e-10


def test_cm_scattering_1x1():
    ms = cm_scattering(np.array([[-1.0 + 0j]]), np.array([[1.0 + 0j]]))
    assert ms.s[0] == -1.0
    assert ms.t[0] == -1.0
    assert ms.lam[0] == 0.0


def test_cm_scattering_shape_error(two_region):
    _, _, ts = two_region
    with pytest.raises(ShapeError):
        cm_scattering(ts.S, np.eye(3))


SHAPE_PAIRS = [((3,), (3,)), ((), ()), ((2, 3), (2, 3)), ((3, 3), (4, 4))]


@pytest.mark.parametrize("shapes", SHAPE_PAIRS, ids=[f"{a}-{b}" for a, b in SHAPE_PAIRS])
@pytest.mark.parametrize("entry", ["cm_scattering", "cm_t_form", "from_matrices"])
def test_operators_that_are_not_one_square_pair_are_a_shape_error(entry, shapes):
    # every matrix entry point refuses 1-D, 0-D, non-square and mismatched input alike
    first, second = (np.zeros(shape, dtype=complex) for shape in shapes)
    call = {"cm_scattering": cm_scattering, "cm_t_form": cm_t_form,
            "from_matrices": ScatterOracle.from_matrices}[entry]
    with pytest.raises(ShapeError):
        call(first, second)


def test_cm_scattering_orthogonality(two_region):
    _, _, ts = two_region
    ms = cm_scattering(ts.S, ts.S_b)
    n = ms.n_modes
    assert np.abs(ms.a.conj().T @ ms.a - np.eye(n)).max() < 1e-8
    assert np.abs(ms.f.conj().T @ ms.f - np.eye(n)).max() < 1e-8
    assert np.abs(ms.f - ts.S_b @ ms.a).max() < 1e-12
    assert ms.circle_deviation.max() < 1e-8


def test_modeset_measures_equal_the_eigenpairs_own(two_region):
    # orthogonality is the larger Gram deviation of a and f, and the cancellation flag
    # from s is the measured ||(S - S_b) a|| < threshold ||S a||, the range engine's
    # s = 1 padding included
    _, _, ts = two_region
    ms = cm_scattering(ts, n_modes=ts.n_c + 4)
    gram = [np.abs(v.conj().T @ v - np.eye(ms.n_modes)).max() for v in (ms.a, ms.f)]
    assert ms.orthogonality == max(gram)
    s_a = ts.S @ ms.a
    measured = np.linalg.norm(s_a - ts.S_b @ ms.a, axis=0) \
        < CANCELLATION_THRESHOLD * np.linalg.norm(s_a, axis=0)
    assert np.array_equal(ms.cancellation, measured)
    assert ms.cancellation[-4:].all() and not ms.cancellation[:3].any()
    eye = np.eye(3, 2, dtype=complex)
    assert ModeSet(s=np.ones(2), a=eye, f=eye).orthogonality == 0.0


def test_cm_scattering_qz_fallback():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    sb = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    with pytest.warns(UserWarning, match="S_b failed the unitarity check"):
        ms = cm_scattering(s, sb)
    assert ms.diagnostics["solver"] == "qz"
    ref = np.sort_complex(np.linalg.eigvals(np.linalg.solve(sb, s)))
    assert np.abs(np.sort_complex(ms.s) - ref).max() < 1e-10


def test_cm_scattering_qz_fallback_names_non_normal_operator():
    # S_b = I passes its unitarity check; a non-unitary S makes S_b^H S non-normal
    rng = np.random.default_rng(3)
    s = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    with pytest.warns(UserWarning, match=r"S_b\^H S is not normal") as record:
        ms = cm_scattering(s)
    assert ms.diagnostics["solver"] == "qz"
    assert ms.diagnostics["unitarity_S_b"] == 0.0
    assert not any("unitarity check" in str(w.message) for w in record)


# ---------------------------------------------------------------------------
# transition form
# ---------------------------------------------------------------------------

def test_cm_t_form_free_space(two_region):
    _, _, ts = two_region
    zero = np.zeros_like(ts.T)
    ms = cm_t_form(ts.T, zero)
    vals = np.linalg.eigvals(ts.T)
    assert matched_distance(ms.t, vals) < 1e-10


def test_cm_t_form_both_representations(two_region):
    _, _, ts = two_region
    ms_a = cm_t_form(ts.T, ts.T_b, "excitation")
    ms_f = cm_t_form(ts.T, ts.T_b, "scattered")
    assert matched_distance(ms_a.t, ms_f.t) < 1e-8
    # scattered-representation vectors relate to excitations through S_b
    assert np.abs(ms_f.f - ts.S_b @ ms_f.a).max() < 1e-10


def test_cm_t_form_1x1():
    ms = cm_t_form(np.array([[-1.0 + 0j]]), np.array([[0.0 + 0j]]))
    assert abs(ms.t[0] + 1.0) < 1e-15


def test_cm_t_form_matches_scattering(two_region):
    _, _, ts = two_region
    ms_s = cm_scattering(ts.S, ts.S_b)
    ms_t = cm_t_form(ts.T, ts.T_b)
    assert matched_distance(ms_s.t, ms_t.t) < 1e-8


# ---------------------------------------------------------------------------
# impedance (Schur) form
# ---------------------------------------------------------------------------

def test_impedance_no_background_is_classic_cm():
    rng = np.random.default_rng(21)
    scene = random_scene(rng, 5, 0.6)
    k = 1.0
    ts = transition(scene, k)
    ms_z = cm_impedance_substructure(ts)
    ms_s = cm_scattering(ts.S)
    assert matched_distance(ms_z.t, ms_s.t, threshold=1e-9) < 1e-8
    # classic pencil: eigenvalues real, currents R-orthogonal; a unit excitation's
    # eigencurrent radiates |t|^2
    r = ts.Z_tilde.real
    i_c = recover_currents(ms_z, ts).currents_c
    gram = i_c.conj().T @ r @ i_c
    assert np.abs(gram - np.diag(np.abs(ms_z.t) ** 2)).max() < 1e-8


def test_impedance_matches_scattering(two_region):
    _, _, ts = two_region
    ms_z = cm_impedance_substructure(ts)
    ms_s = cm_scattering(ts.S, ts.S_b)
    assert matched_distance(ms_s.t, ms_z.t, threshold=1e-7) < 1e-6
    # stored fields and excitations satisfy the mode-set contract
    assert np.abs(ms_z.f - ts.S_b @ ms_z.a).max() < 1e-10
    assert np.abs(ms_z.f.conj().T @ ms_z.f - np.eye(ms_z.n_modes)).max() < 1e-8


def test_impedance_single_controllable_dipole_three_modes():
    scene = DipoleScene([[0.0, 0.0, 0.12], [0.0, 0.0, -0.12]],
                        6.0 * math.pi * 0.8,
                        region=("background", "controllable"))
    ms = cm_impedance_substructure(assemble_impedance(scene, 1.0))
    assert ms.n_modes == 3
    assert np.all(np.abs(ms.t) > 1e-8)


def test_schur_factorization_residual(two_region):
    _, _, ts = two_region
    assert factorization_residual(ts.Z_tilde, ts.U1_tilde) < 1e-8


# ---------------------------------------------------------------------------
# modified transition matrix
# ---------------------------------------------------------------------------

def test_tilde_identity_and_spectrum(two_region):
    _, _, ts = two_region
    tt, identity_residual = tilde_tmatrix(ts)
    assert identity_residual < 1e-8
    vals = np.linalg.eigvals(tt)
    assert np.abs(np.abs(vals + 0.5) - 0.5).max() < 1e-8
    ms_s = cm_scattering(ts.S, ts.S_b)
    assert matched_distance(ms_s.t, vals) < 1e-6


def test_tilde_empty_controllable():
    rng = np.random.default_rng(31)
    scene = random_scene(rng, 3, 0.4, n_background=3)
    tt, _ = tilde_tmatrix(assemble_impedance(scene, 1.0))
    assert np.all(tt == 0.0)


# ---------------------------------------------------------------------------
# current recovery
# ---------------------------------------------------------------------------

def test_recover_currents_empty_controllable():
    rng = np.random.default_rng(41)
    scene = random_scene(rng, 4, 0.5, n_background=4)
    k = 1.0
    ts = transition(scene, k)
    ms = cm_scattering(ts.S, ts.S_b)
    rec = recover_currents(ms, ts)
    assert np.abs(rec.currents).max() < 1e-10


def test_recover_currents_agreement(two_region):
    _, _, ts = two_region
    ms = cm_scattering(ts.S, ts.S_b)
    rec = recover_currents(ms, ts)
    sig = (np.abs(ms.t) > 1e-3) & ~rec.skipped
    assert sig.any()
    assert np.nanmax(rec.agreement[sig]) < 1e-6
    # per-mode reference for the column-wise agreement
    ref = [np.linalg.norm(rec.currents_c[:, n] - rec.currents_c_alt[:, n])
           / np.linalg.norm(rec.currents_c[:, n]) for n in np.flatnonzero(~rec.skipped)]
    np.testing.assert_allclose(rec.agreement[~rec.skipped], ref, rtol=1e-12)


def test_recovered_current_radiates_scaled_field(two_region):
    # -U1~ I_cn = t_n f_n for the stored normalisations
    _, _, ts = two_region
    ms = cm_scattering(ts.S, ts.S_b)
    rec = recover_currents(ms, ts)
    radiated = -ts.U1_tilde @ rec.currents_c
    expected = ms.f * ms.t[None, :]
    sig = np.abs(ms.t) > 1e-3
    err = np.linalg.norm(radiated[:, sig] - expected[:, sig], axis=0)
    assert err.max() < 1e-6 * np.abs(ms.t[sig]).max()


def test_recover_currents_skips_tiny_modes(two_region):
    _, _, ts = two_region
    ms = cm_scattering(ts.S, ts.S_b)
    rec = recover_currents(ms, ts, t_min=1e-3)
    assert np.all(np.isnan(rec.agreement[rec.skipped]))
    assert rec.skipped[-1]  # weakest mode of the big basis is ~0


# ---------------------------------------------------------------------------
# power identity
# ---------------------------------------------------------------------------

def test_power_check_zero_mode():
    t = np.zeros((2, 2), dtype=complex)
    from scatmodes.modes import ModeSet
    ms = ModeSet(s=np.array([1.0 + 0j]), a=np.array([[1.0], [0.0]], dtype=complex),
                 f=np.array([[1.0], [0.0]], dtype=complex))
    res = substructure_power_check(t, t, ms)
    assert np.all(res == 0.0)


def test_power_check_1x1_analytic():
    from scatmodes.modes import ModeSet
    ms = ModeSet(s=np.array([-1.0 + 0j]), a=np.array([[1.0 + 0j]]),
                 f=np.array([[1.0 + 0j]]))
    res = substructure_power_check(np.array([[-1.0 + 0j]]),
                                   np.array([[0.0 + 0j]]), ms)
    assert res.max() < 1e-15


def test_power_check_random_scene(two_region):
    _, _, ts = two_region
    ms = cm_scattering(ts.S, ts.S_b)
    res = substructure_power_check(ts.T, ts.T_b, ms)
    assert res.max() < 1e-8


# ---------------------------------------------------------------------------
# ground plane
# ---------------------------------------------------------------------------

def test_vertical_dipole_above_plane_parity():
    # a z-directed dipole on the axis keeps only m = 0 TM (odd l) content
    scene = DipoleScene([[0.0, 0.0, 0.25]],
                        np.diag([1e-8, 1e-8, 6.0 * math.pi * 1.2]),
                        ground_plane=True)
    blocks = transition(scene, 1.0)
    ms = cm_scattering(blocks)
    assert parity_leakage(transition(mirror_scene(scene), 1.0)) < 1e-12
    sig = np.abs(ms.t) > 1e-6
    assert sig.any()
    a_sig = np.abs(ms.a[:, sig]).max(axis=1)
    for row in np.flatnonzero(a_sig > 1e-8):
        l, m, tm = blocks.basis.l[row], blocks.basis.m[row], blocks.basis.tm[row]
        assert tm and m == 0 and l % 2 == 1


def test_ground_plane_matches_mirrored_brute_force(ground_plane_bank):
    scene, k = ground_plane_bank[0]
    ms_f = cm_scattering(transition(scene, k))
    ts = transition(mirror_scene(scene), k)
    ms_full = cm_scattering(ts.S, ts.S_b)
    keep = ground_plane_filter(ts.basis)
    proj = np.zeros(ts.basis.size)
    proj[keep] = 1.0
    frac = (proj[:, None] * np.abs(ms_full.a) ** 2).sum(axis=0)
    t_sym = ms_full.t[frac > 0.5]
    assert matched_distance(ms_f.t, t_sym, threshold=1e-9) < 1e-8


def test_horizontal_dipole_image_cancellation():
    # at small height the image nearly cancels a tangential dipole, so the
    # dominant substructure significance drops strictly below free space
    k = 1.0
    alpha = np.diag([6.0 * math.pi * 1.0, 1e-6, 1e-6])
    height = 0.05
    gp = DipoleScene([[0.0, 0.0, height]], alpha, ground_plane=True)
    free = DipoleScene([[0.0, 0.0, height]], alpha)
    t_gp = np.abs(cm_scattering(transition(gp, k)).t).max()
    t_free = np.abs(cm_scattering(transition(free, k).S).t).max()
    assert t_gp < t_free


# ---------------------------------------------------------------------------
# tracking
# ---------------------------------------------------------------------------

def test_track_single_point():
    rng = np.random.default_rng(5)
    scene = random_scene(rng, 4, 0.5)
    ms = cm_scattering(transition(scene, 1.0).S)
    ids = track_modes([ms])
    assert len(ids) == 1
    assert list(ids[0]) == list(range(ms.n_modes))  # n_modes traces of one point each


def test_track_constant_operators():
    rng = np.random.default_rng(6)
    scene = random_scene(rng, 5, 0.6, n_background=2)
    ts = transition(scene, 1.0)
    ms = [cm_scattering(ts.S, ts.S_b, n_modes=6) for _ in range(3)]
    ids = track_modes(ms)
    main = set.intersection(*(set(point.tolist()) for point in ids))
    assert len(main) == 6
    for trace_id in main:
        modes = [int(np.flatnonzero(point == trace_id)[0]) for point in ids]
        assert modes == [modes[0]] * 3


def test_track_mie_crossing_keeps_identity():
    # TE and TM l=1 traces of a dielectric sphere cross in |t| over ka;
    # tracking must follow each (l, pol) family through the crossing
    from scatmodes import truncation_order
    spec = SphereSpec(1.0, "dielectric", eps_r=16.0)
    kas = np.linspace(0.72, 0.93, 8)
    b = basis(truncation_order(kas[-1]))
    sets = [mie_modeset(spec, ka, b) for ka in kas]
    from scatmodes import mie_t_coefficients
    analytic = np.array([mie_t_coefficients(spec, ka, 1) for ka in kas])[:, :, 0]
    mags = np.abs(analytic)  # columns: TE1, TM1
    assert (mags[0, 0] > mags[0, 1]) != (mags[-1, 0] > mags[-1, 1])  # they swap

    ids = track_modes(sets)
    # the t of each trace present at every point
    long = [[ms.t[point == trace_id][0] for ms, point in zip(sets, ids)]
            for trace_id in sorted(set.intersection(*(set(point.tolist()) for point in ids)))]
    assert long
    matched = 0
    for col in range(2):
        for t in long:
            if np.allclose(np.abs(np.array(t)), mags[:, col], atol=1e-12):
                matched += 1
                break
    assert matched == 2


def test_track_numbers_unmatched_modes_with_the_next_free_ids():
    # 3 modes, then 4 whose 4th overlaps no earlier mode, then 2: matched
    # modes take their partner's id, and an unmatched one the next free id
    eye = np.eye(5, dtype=complex)

    def modeset(cols):
        return ModeSet(s=np.ones(len(cols), dtype=complex), a=eye[:, cols], f=eye[:, cols])

    sets = [modeset([0, 1, 2]), modeset([1, 0, 2, 3]), modeset([4, 3])]
    ids = track_modes(sets)
    assert [point.tolist() for point in ids] == [[0, 1, 2], [1, 0, 2, 3], [4, 3]]
    assert all(len(set(point.tolist())) == point.size for point in ids)
    assert [3 in point for point in ids] == [False, True, True]  # one trace, two points
    assert track_modes([]) == []


def test_track_dimension_mismatch():
    rng = np.random.default_rng(7)
    ms1 = cm_scattering(transition(random_scene(rng, 3, 0.4), 1.0).S)
    ms2 = cm_scattering(transition(random_scene(rng, 3, 0.8), 1.0).S)
    if ms1.a.shape[0] != ms2.a.shape[0]:
        with pytest.raises(ShapeError):
            track_modes([ms1, ms2])


def test_impedance_conditioning_surfaced():
    # dense subwavelength grids make the compressed radiation matrix
    # numerically rank deficient; the impedance path must say so while
    # the scattering and modified-transition paths stay sharp
    rng = np.random.default_rng(60)
    scene = random_scene(rng, 16, 0.45, n_background=1, strength=(0.1, 6.0))
    ts = transition(scene, 1.0)
    with pytest.warns(UserWarning, match="radiation matrix spread"):
        ms_z = cm_impedance_substructure(ts)
    assert ms_z.diagnostics["r_condition"] > 1e12
    ms_s = cm_scattering(ts.S, ts.S_b)
    tilde_vals = np.linalg.eigvals(tilde_tmatrix(ts)[0])
    assert matched_distance(ms_s.t, tilde_vals, threshold=1e-6) < 1e-10


# ---------------------------------------------------------------------------
# one block-impedance core for every scene kind
# ---------------------------------------------------------------------------

def _dipole_blocks():
    rng = np.random.default_rng(314)
    return assemble_impedance(random_scene(rng, 8, 0.8, n_background=3), 1.0)


def _port_blocks():
    rng = np.random.default_rng(315)
    scene = random_scene(rng, 6, 0.8, n_background=2)
    ported = DipoleScene(scene.positions, scene.polarizability, scene.region,
                         ports=(Port(3, "x", 73.0), Port(5, "z", 50.0)))
    return assemble_impedance(ported, 1.0)


def _hybrid_scene():
    rng = np.random.default_rng(88)
    k = 2.0
    pos = rng.normal(size=(5, 3))
    pos *= (0.62 + 0.18 * rng.random(5))[:, None] / np.linalg.norm(pos, axis=1)[:, None]
    region = ("background",) * 2 + ("controllable",) * 3
    scene = DipoleScene(pos, 6.0 * math.pi / k**3 * (0.3 + rng.random(5)), region)
    return dataclasses.replace(scene, sphere=SphereSpec(0.08, "dielectric", eps_r=4.0)), k, basis(18)


def _hybrid_blocks():
    hs, k, wave_basis = _hybrid_scene()
    return assemble_hybrid(hs, k, wave_basis=wave_basis)


@pytest.mark.parametrize("make_blocks, tol", [
    (_dipole_blocks, 1e-6),
    (_port_blocks, 1e-6),
    (_hybrid_blocks, 1e-5),
], ids=["dipole", "port", "hybrid"])
def test_impedance_engine_matches_scattering_on_every_scene_kind(make_blocks, tol):
    blocks = make_blocks()
    ms_z = cm_impedance_substructure(blocks)
    ms_s = cm_scattering(blocks.S, blocks.S_b)
    assert ms_z.n_modes == blocks.n_c
    assert matched_distance(ms_s.t, ms_z.t, threshold=1e-7) < tol
    assert np.abs(np.linalg.norm(ms_z.f, axis=0) - 1.0).max() < 1e-12
    assert np.abs(ms_z.f - blocks.S_b @ ms_z.a).max() < 10 * tol


def _ground_plane_blocks():
    rng = np.random.default_rng(316)
    base = random_scene(rng, 7, 0.6, n_background=3)
    scene = DipoleScene(base.positions + [0.0, 0.0, 1.0], base.polarizability, base.region,
                        ground_plane=True)
    return transition(scene, 1.0)


@pytest.mark.parametrize("make_blocks", [
    _dipole_blocks,
    _port_blocks,
    _ground_plane_blocks,
    _hybrid_blocks,
], ids=["dipole", "port", "ground-plane", "hybrid"])
def test_background_action_matches_the_dense_s_b(make_blocks):
    # S_b and, through reciprocity, S_b^H act from the Z_bb factors and the
    # diagonal offset as the dense S_b does
    blocks = make_blocks()
    n = blocks.readout.shape[0]
    rng = np.random.default_rng(17)
    x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    s_b = blocks.S_b
    apply_sb = blocks.apply_sb
    for got, want in ((apply_sb(x), s_b @ x),
                      (np.conj(apply_sb(np.conj(x))), s_b.conj().T @ x)):
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_hybrid_offset_is_the_mie_diagonal_in_its_own_array():
    hs, k, wave_basis = _hybrid_scene()
    t_b0 = assemble_hybrid(hs, k, wave_basis=wave_basis).T_b0
    assert t_b0.ndim == 1
    assert np.array_equal(t_b0, np.diag(mie_tmatrix(hs.sphere, k, wave_basis)))
    assert t_b0.base is None


def test_singular_system_raises_solve_error(two_region):
    # duplicate one controllable unknown: Z and the Schur complement are singular
    _, _, ts = two_region
    ms = cm_scattering(ts.S, ts.S_b)
    z, u = ts.system.copy(), ts.readout.copy()
    i, j = ts.n_b, ts.n_b + 1
    z[j, :] = z[i, :]
    z[:, j] = z[:, i]
    u[:, j] = u[:, i]
    singular = dataclasses.replace(ts, system=z, readout=u)
    with pytest.raises(SolveError):
        singular.factorize()
    with pytest.raises(SolveError):
        tilde_tmatrix(singular)
    with pytest.raises(SolveError):
        recover_currents(ms, singular)


def test_factorisation_cache_is_scoped_to_one_blocks_object(two_region):
    # transition factorises the blocks; a copy with another Z must solve
    # and eliminate the background with its own factors
    _, _, blocks = two_region
    blocks.Z_tilde  # the original's elimination is made and kept first
    nb = blocks.n_b
    z = blocks.system + 0.2 * np.eye(blocks.system.shape[0])
    u1, u1_b, u1_c = blocks.readout, blocks.U1_b, blocks.U1_c
    copy = dataclasses.replace(blocks, system=z)
    assert np.abs(copy.T + u1 @ np.linalg.solve(z, u1.T)).max() < 1e-12
    assert np.abs(copy.T_b + u1_b @ np.linalg.solve(z[:nb, :nb], u1_b.T)).max() < 1e-12
    w = np.linalg.solve(z[:nb, :nb], z[:nb, nb:])
    assert np.abs(copy.Z_tilde - (z[nb:, nb:] - z[nb:, :nb] @ w)).max() < 1e-12
    assert np.abs(copy.U1_tilde - (u1_c - u1_b @ w)).max() < 1e-12


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("seed", [0, 2])
def test_indefinite_compressed_radiation_raises_solve_error(seed):
    # 100 controllable dipoles against 448 waves: R~ is singular to rounding,
    # so the general eigensolver returns eigencurrents it cannot normalise
    # (infinite lambda, or a non-positive radiated power)
    scene = random_scene(np.random.default_rng(seed), 150, 2.0, n_background=50)
    ts = transition(scene, 1.0)
    with pytest.raises(SolveError, match="compressed radiation matrix is indefinite"):
        cm_impedance_substructure(ts)


def test_kept_eigenpairs_are_those_of_every_cluster_orthonormalised():
    # with keep, _eig_orthonormal orthonormalises only the clusters that can
    # reach the keep pairs of largest |s|, and those pairs come out bit for
    # bit as when every cluster is; here a chain 2 + 0.7 g, 2, 2 - 0.7 g (each
    # within the gap g of the next, the ends not) straddles the third pair, so
    # the cluster about the fourth value re-orthonormalises the third vector
    g = DEGENERACY_GAP * 3.0
    vals = np.array([3.0, 2.0 + 0.7 * g, 2.0, 2.0 - 0.7 * g, 1.0, 0.5, -0.25, 0.1])
    rng = np.random.default_rng(8)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = x @ np.diag(vals) @ np.linalg.inv(x)
    s_all, v_all = _eig_orthonormal(m)
    top = np.argsort(-np.abs(s_all), kind="stable")[:3]
    s_kept, v_kept = _eig_orthonormal(m, keep=3)
    assert np.array_equal(s_kept, s_all)
    assert np.array_equal(v_kept[:, top], v_all[:, top])
