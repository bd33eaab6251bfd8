import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scatmodes import (
    DipoleScene,
    DomainError,
    GeometryError,
    Port,
    assemble_impedance,
    basis,
    check_unitary,
    cm_scattering,
    mirror_scene,
    transition,
)
from scatmodes.dipoles import _readout_product
from scatmodes.swe import ground_plane_filter, mirror_parity, regular_wave_table
from conftest import random_scene
from oracles import ground_plane_pair_reference, impedance_reference, system_permutation


def test_single_dipole_radiative_correction():
    # Re(Z) equals the rank-3 projector onto the three degree-1 waves
    blocks = assemble_impedance(DipoleScene([[0.0, 0.0, 0.0]], 1.0), 1.5)
    assert blocks.factorization_residual() < 1e-10
    z = blocks.Z
    assert_allclose(z.real, np.eye(3) / (6.0 * math.pi), rtol=1e-14)


def test_two_dipole_reciprocity():
    scene = DipoleScene([[0.0, 0.0, 0.1], [0.2, -0.1, 0.0]], [0.5, 0.8])
    z = assemble_impedance(scene, 2.0).Z
    assert np.abs(z - z.T).max() == 0.0


def test_radiation_matrix_positive_semidefinite():
    rng = np.random.default_rng(42)
    scene = random_scene(rng, 5, 0.5)
    z = assemble_impedance(scene, 1.0).Z
    w = np.linalg.eigvalsh(z.real)
    assert w.min() >= -1e-12 * np.linalg.norm(z)


def test_projection_origin_dipole_rows():
    scene = DipoleScene([[0.0, 0.0, 0.0]], 1.0)
    b = basis(4)
    u1 = regular_wave_table(b, 1.0, scene.positions).reshape(b.size, 3)
    assert u1.dtype == np.float64
    ls = b.l
    nonzero = np.abs(u1).max(axis=1) > 0.0
    assert np.all(ls[nonzero] == 1)


def test_factorization_residual_20_dipoles():
    rng = np.random.default_rng(7)
    scene = random_scene(rng, 20, 1.0)
    blocks = assemble_impedance(scene, 1.0)
    assert blocks.factorization_residual() < 1e-8


def test_empty_controllable_region():
    rng = np.random.default_rng(9)
    scene = random_scene(rng, 4, 0.5, n_background=4)
    ts = transition(scene, 1.0)
    assert np.abs(ts.T - ts.T_b).max() < 1e-15
    ms = cm_scattering(ts.S, ts.S_b)
    assert np.abs(ms.s - 1.0).max() < 1e-12


def test_empty_background_region():
    rng = np.random.default_rng(10)
    scene = random_scene(rng, 4, 0.5)
    ts = transition(scene, 1.0)
    assert np.all(ts.S_b == np.eye(ts.S_b.shape[0]))


def test_two_region_unitarity():
    rng = np.random.default_rng(11)
    scene = random_scene(rng, 20, 1.2, n_background=10)
    ts = transition(scene, 1.0)
    assert check_unitary(ts.S) < 1e-8
    assert check_unitary(ts.S_b) < 1e-8
    assert np.abs(ts.T - ts.T.T).max() < 1e-10 * np.abs(ts.T).max()


def test_scene_validation():
    with pytest.raises(GeometryError):
        DipoleScene([[0, 0, 0], [0, 0, 0]], 1.0)
    with pytest.raises(DomainError):
        DipoleScene([[0, 0, 0]], -1.0)
    with pytest.raises(DomainError):
        DipoleScene([[0, 0, 0]], 1.0, region=("elsewhere",))
    with pytest.raises(DomainError):
        assemble_impedance(DipoleScene([[0, 0, 0]], 1.0), -2.0)
    with pytest.raises(DomainError):
        Port(0, "x", -50.0)
    with pytest.raises(DomainError):
        DipoleScene([[0, 0, 1]], 1.0, region=("background",),
                    ports=(Port(0, "x", 50.0),))


# ---------------------------------------------------------------------------
# ground plane / image theory
# ---------------------------------------------------------------------------

def test_mirror_scene_geometry():
    scene = DipoleScene([[0.0, 0.1, 0.3]], 1.0, ground_plane=True)
    m = mirror_scene(scene)
    assert m.n_dipoles == 2
    assert_allclose(m.positions[1], [0.0, 0.1, -0.3])
    assert not m.ground_plane
    with pytest.raises(GeometryError):
        DipoleScene([[0.0, 0.0, -0.1]], 1.0, ground_plane=True)
    with pytest.raises(GeometryError):
        mirror_scene(DipoleScene([[0.0, 0.0, 0.1]], 1.0))


def test_image_current_signs():
    # drive the mirrored scene with a PEC-symmetric excitation: the image
    # current is the original with tangential components flipped, and the
    # image-reduced system's unknown is sqrt(2) times the original current
    k = 1.0
    scene = DipoleScene([[0.05, 0.02, 0.3]], 1.0, ground_plane=True)
    blocks = assemble_impedance(mirror_scene(scene), k)
    keep = ground_plane_filter(blocks.basis)
    rng = np.random.default_rng(0)
    a = np.zeros(blocks.basis.size, dtype=complex)
    a[keep] = rng.standard_normal(keep.size)
    current = np.linalg.solve(blocks.Z, blocks.U1.T @ a)
    inv = np.empty_like(blocks.perm)
    inv[blocks.perm] = np.arange(blocks.perm.size)
    i_orig = current[inv[0:3]]
    i_img = current[inv[3:6]]
    flip = np.array([-1.0, -1.0, 1.0])
    assert_allclose(i_img, flip * i_orig, rtol=1e-10, atol=1e-14)
    reduced = assemble_impedance(scene, k, blocks.basis)
    assert_allclose(np.linalg.solve(reduced.Z, reduced.U1.T @ a), math.sqrt(2.0) * i_orig,
                    rtol=1e-10, atol=1e-14)


def test_mirrored_scene_parity_decoupling():
    # parity-allowed and parity-forbidden waves do not couple through S
    rng = np.random.default_rng(1)
    pos = np.column_stack([rng.normal(size=3) * 0.1,
                           rng.normal(size=3) * 0.1,
                           0.1 + 0.2 * rng.random(3)])
    scene = DipoleScene(pos, 6.0 * math.pi * (0.5 + rng.random(3)), ground_plane=True)
    ts = transition(mirror_scene(scene), 1.0)
    keep = ground_plane_filter(ts.basis)
    drop = np.setdiff1d(np.arange(ts.basis.size), keep)
    s = ts.S
    assert np.linalg.norm(s[np.ix_(keep, drop)]) < 1e-10 * np.linalg.norm(s)
    assert np.linalg.norm(s[np.ix_(drop, keep)]) < 1e-10 * np.linalg.norm(s)


@pytest.mark.parametrize("solver", ["dense-scattering", "dense-impedance", "t-form", "iterative"])
def test_ground_plane_point_factorises_the_image_reduced_system(solver, monkeypatch):
    # a ground-plane point factorises the 3N x 3N image-reduced Z, never the
    # 6N x 6N mirrored one, and its readout is exactly 0 on the forbidden waves
    import scipy.linalg

    from scatmodes import cli
    from test_cli import _ground_plane

    sizes = []
    lu_factor = scipy.linalg.lu_factor

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a))
        return lu_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", recording)
    sc = cli.parse_scenario(_ground_plane(solver))
    wave_basis, angular, _ = cli._sweep_basis(sc)
    k = 2.0 * math.pi * sc["frequencies"][0] / cli.SPEED_OF_LIGHT
    three_n = 3 * sc["scene"].n_dipoles
    cli._solve_point(sc, k, wave_basis, seed=1, angular=angular)
    assert (three_n, three_n) in sizes and max(max(shape) for shape in sizes) == three_n

    readout = cli._operators(sc, k, wave_basis, angular)[0].readout
    allowed = mirror_parity(wave_basis) > 0
    assert readout.shape == (wave_basis.size, three_n)
    assert not readout[~allowed].any()
    assert (np.abs(readout[allowed]).max(axis=1) > 0.0).any()


# ---------------------------------------------------------------------------
# ports
# ---------------------------------------------------------------------------

def _symmetric_port_scene(k, with_port):
    pos = np.array([[0.0, -0.35, 0.0], [0.0, 0.0, 0.0], [0.0, 0.35, 0.0]])
    ports = (Port(1, "x", 73.0),) if with_port else ()
    return DipoleScene(pos, 6.0 * math.pi / k**3 * 0.8, ports=ports)


def test_port_scattering_is_unitary():
    k = 2.0
    gs = transition(_symmetric_port_scene(k, True), k)
    assert check_unitary(gs.S) < 1e-8
    assert gs.basis.extra_labels == ("port0",)
    assert gs.S.shape[0] == gs.basis.wave.size + 1


def test_port_leaves_quiet_modes_unchanged():
    # modes with zero current at the port element keep their eigenvalues
    k = 2.0
    scene0 = _symmetric_port_scene(k, False)
    scene1 = _symmetric_port_scene(k, True)
    ts = transition(scene0, k)
    gs = transition(scene1, k, ts.basis)

    ms0 = cm_scattering(ts.S)
    sb_aug = np.eye(gs.S.shape[0], dtype=complex)
    ms1 = cm_scattering(gs.S, sb_aug)

    currents = np.linalg.solve(ts.Z, ts.U1.T @ ms0.a)
    inv = np.empty_like(ts.perm)
    inv[ts.perm] = np.arange(ts.perm.size)
    port_row = inv[3 * 1 + 0]
    rel_port = np.abs(currents[port_row]) / np.linalg.norm(currents, axis=0).clip(1e-300)

    quiet = (rel_port < 1e-12) & (np.abs(ms0.t) > 1e-9)
    assert quiet.sum() >= 3
    for n in np.flatnonzero(quiet):
        assert np.abs(ms1.t - ms0.t[n]).min() < 1e-8

    # the port does change the spectrum as a whole (loud modes move)
    loud = (rel_port > 1e-3) & (np.abs(ms0.t) > 0.05)
    moved = 0
    for n in np.flatnonzero(loud):
        near0 = int((np.abs(ms0.t - ms0.t[n]) < 1e-10).sum())
        near1 = int((np.abs(ms1.t - ms0.t[n]) < 1e-10).sum())
        if near1 < near0:
            moved += 1
    assert moved >= 1


def test_undersized_basis_warns():
    rng = np.random.default_rng(77)
    scene = random_scene(rng, 8, 1.5)
    with pytest.warns(UserWarning, match="factorization residual"):
        assemble_impedance(scene, 1.0, basis(2))


def test_generalized_spherical_block_is_terminated_scattering():
    # the wave-wave block of the augmented matrix must equal the (lossy)
    # scattering of the scene with the port terminated in z0; assembled
    # here independently from the raw Green blocks
    from scatmodes.dipoles import ETA0, dyadic_green

    k = 2.0
    pos = np.array([[0.0, -0.3, 0.0], [0.0, 0.0, 0.0], [0.0, 0.3, 0.05]])
    alpha = 6.0 * math.pi / k**3 * 0.9
    scene = DipoleScene(pos, alpha, ports=(Port(1, "y", 50.0),))
    gs = transition(scene, k)
    nw = gs.basis.wave.size
    s_block = gs.S[:nw, :nw]

    # independent assembly of the loaded impedance system
    n = 3
    z = np.zeros((3 * n, 3 * n), dtype=complex)
    for p in range(n):
        for q in range(n):
            if p != q:
                z[3 * p:3 * p + 3, 3 * q:3 * q + 3] = \
                    (1j / k) * dyadic_green(k, pos[p][None], pos[q][None])[0, 0]
        z[3 * p:3 * p + 3, 3 * p:3 * p + 3] = \
            np.eye(3) / (6.0 * math.pi) - 1j * np.eye(3) / (alpha * k**3)
    z[3 * 1 + 1, 3 * 1 + 1] += 50.0 / ETA0
    u1 = regular_wave_table(gs.basis.wave, k, pos).reshape(nw, 3 * n)
    s_ref = np.eye(nw) - 2.0 * u1 @ np.linalg.solve(z, u1.T.astype(complex))
    assert np.abs(s_block - s_ref).max() < 1e-12

    # the loaded block is passive: I - S^H S positive semidefinite
    w = np.linalg.eigvalsh(np.eye(nw) - s_block.conj().T @ s_block)
    assert w.min() > -1e-12
    assert w.max() > 1e-6  # the port genuinely absorbs power


# ---------------------------------------------------------------------------
# system-order assembly: the one array the blocks view
# ---------------------------------------------------------------------------

def _hybrid_scene():
    from scatmodes import SphereSpec

    pos = [[0.5, 0.0, 0.1], [0.0, 0.55, -0.1], [-0.45, 0.2, 0.3], [0.1, -0.5, 0.2]]
    return DipoleScene(pos, 6.0 * math.pi * 0.8,
                       ("controllable", "background", "controllable", "background"),
                       sphere=SphereSpec(0.15, "dielectric", eps_r=4.0))


def _port_reference(scene, k, wave_basis):
    from scatmodes.dipoles import ETA0

    z, u = impedance_reference(scene, k, wave_basis)
    perm = system_permutation(scene)
    rows = [int(np.flatnonzero(perm == 3 * p.element + p.axis)[0]) for p in scene.ports]
    z0 = np.array([p.z0 for p in scene.ports]) / ETA0
    z[rows, rows] += z0
    u_port = np.zeros((len(rows), z.shape[0]))
    u_port[np.arange(len(rows)), rows] = np.sqrt(z0)
    return z, np.vstack([u, u_port])


def _hybrid_reference(hs, k, wave_basis):
    from scatmodes import mie_tmatrix
    from scatmodes.hybrid import u4_expansion

    z, u = impedance_reference(hs, k, wave_basis)
    u4 = u4_expansion(hs, k, wave_basis)[0]  # in system order
    t1 = np.diag(mie_tmatrix(hs.sphere, k, wave_basis))
    return z + (u4.T * t1) @ u4, u + t1[:, None] * u4


def _assembly_case(case):
    """(scene, blocks, reference Z, reference U1) of one scene kind, the references in
    ordered pairs."""
    from scatmodes import assemble_hybrid

    rng = np.random.default_rng(21)
    k = 1.0
    if case == "hybrid":
        hs = _hybrid_scene()
        wb = basis(10)
        return hs, assemble_hybrid(hs, k, wb, residual_tol=1.0), *_hybrid_reference(hs, k, wb)
    if case == "port":
        base = random_scene(rng, 9, 0.7, n_background=3)
        scene = DipoleScene(base.positions, base.polarizability, base.region,
                            ports=(Port(4, "x", 73.0), Port(7, "z", 50.0)))
        blocks = assemble_impedance(scene, k)
        return scene, blocks, *_port_reference(scene, k, blocks.basis.wave)
    if case == "ground-plane":
        base = random_scene(rng, 7, 0.6, n_background=3)
        scene = DipoleScene(base.positions + [0.0, 0.0, 1.0], base.polarizability,
                            base.region, ground_plane=True)
        blocks = assemble_impedance(scene, k)
        return scene, blocks, *ground_plane_pair_reference(scene, k, blocks.basis)
    n_background = {"plain": 0, "two-region": 6, "empty-background": 0, "anisotropic": 5}[case]
    scene = random_scene(rng, 14, 0.9, n_background=n_background,
                         anisotropic=case == "anisotropic")
    if case == "plain":
        # regions interleaved, so the system order is a real permutation
        scene = DipoleScene(scene.positions, scene.polarizability,
                            ("background", "controllable") * 7)
    blocks = assemble_impedance(scene, k)
    return scene, blocks, *impedance_reference(scene, k, blocks.basis)


ASSEMBLY_CASES = ("plain", "two-region", "empty-background", "anisotropic", "port", "ground-plane",
                  "hybrid")


@pytest.mark.parametrize("case", ASSEMBLY_CASES)
def test_assembly_matches_the_ordered_pair_reference(case):
    # Z filled by components from the i < j pairs, in system order, is bit for
    # bit the all-ordered-pairs scene-order system permuted, anisotropic (not
    # exactly symmetric) diagonal blocks and, above a ground plane, the image
    # terms included; there it is also P^T Z P and U1 P of the mirrored
    # reference, to rounding, and U1 is exactly 0 on the parity-forbidden waves
    scene, blocks, z_ref, u_ref = _assembly_case(case)
    assert np.array_equal(blocks.Z, z_ref)
    assert np.array_equal(blocks.U1, u_ref)
    if case != "ground-plane":
        return
    z_ref, u_ref = impedance_reference(scene, 1.0, blocks.basis)
    assert np.abs(blocks.Z - z_ref).max() <= 1e-14 * np.abs(z_ref).max()
    assert np.abs(blocks.U1 - u_ref).max() <= 1e-14 * np.abs(u_ref).max()
    drop = np.flatnonzero(mirror_parity(blocks.basis) < 0)
    assert drop.size and not blocks.U1[drop].any()


@pytest.mark.parametrize("case", ["two-region", "port", "ground-plane", "hybrid"])
def test_system_matrix_is_in_column_order(case):
    # Z is assembled in LAPACK's column order (a sphere's coupling is added in
    # that order), so its LU factorisation and the copy of Re Z in the
    # radiation check read it without a transposing copy
    _, blocks, _, _ = _assembly_case(case)
    assert blocks.system.flags.f_contiguous


def test_blocks_are_read_only_views_of_one_system_matrix(monkeypatch):
    # Z_bb, Z_bc, Z_cb and Z_cc view the system matrix, U1_b and U1_c the
    # readout; a dipole point never stacks the blocks into new arrays
    import sys

    from scatmodes import cli, dipoles
    from test_cli import _scenario

    scene = random_scene(np.random.default_rng(22), 10, 0.8, n_background=4)
    blocks = assemble_impedance(scene, 1.0)
    z = blocks.system
    for view in (blocks.Z_bb, blocks.Z_bc, blocks.Z_cb, blocks.Z_cc):
        assert np.shares_memory(view, z)
        assert not view.flags.writeable
    u = blocks.readout
    for view in (blocks.U1_b, blocks.U1_c):
        assert np.shares_memory(view, u)
        assert not view.flags.writeable
    assert not z.flags.writeable and not u.flags.writeable

    stacked = []
    for name in ("block", "hstack"):
        original = getattr(np, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == dipoles.__name__:
                stacked.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, recording)
    for solver in ("dense-scattering", "dense-impedance", "t-form", "iterative"):
        sc = cli.parse_scenario(_scenario(solver=solver))
        wave_basis, angular, _ = cli._sweep_basis(sc)
        cli._solve_point(sc, 2.0 * math.pi * sc["frequencies"][0] / cli.SPEED_OF_LIGHT,
                         wave_basis, seed=1, angular=angular)
    assert stacked == []


def _port_bank():
    rng = np.random.default_rng(23)
    scenes = []
    for i in range(6):
        base = random_scene(rng, 6 + i, 0.7, n_background=i % 3)
        ports = (Port(base.n_dipoles - 1, "xyz"[i % 3], 50.0 + 10.0 * i),)
        scenes.append(DipoleScene(base.positions, base.polarizability, base.region, ports=ports))
    return scenes


def test_operators_are_kept_read_only_arrays():
    # T, T_b, S and S_b are plain arrays, built once and shared by every reader
    blocks = transition(random_scene(np.random.default_rng(23), 6, 0.8, n_background=2), 1.0)
    for name in ("T", "T_b", "S", "S_b"):
        op = getattr(blocks, name)
        assert type(op) is np.ndarray and op.shape == (blocks.basis.size,) * 2
        assert op is getattr(blocks, name) and not op.flags.writeable


@pytest.mark.parametrize("bank", ["dipole", "port", "ground-plane"])
def test_real_readout_products_match_the_complex_product(bank, request):
    # T and T_b of a real readout come from real GEMMs on the interleaved
    # view of Z^-1 U1^T; the plain complex product gives the same operators
    if bank == "dipole":
        sets = [transition(scene, k) for scene, k in request.getfixturevalue("lossless_bank")]
    elif bank == "port":
        sets = [transition(scene, 1.0) for scene in _port_bank()]
    else:
        sets = [transition(scene, k) for scene, k in request.getfixturevalue("ground_plane_bank")]
    worst = 0.0
    for blocks in sets:
        assert not np.iscomplexobj(blocks.U1)
        u = blocks.U1.astype(complex)
        ub = u[:, :blocks.n_b]
        for t, plain in ((blocks.T, -u @ blocks.solve(u.T.copy())),
                         (blocks.T_b, -ub @ blocks.solve_bb(ub.T.copy()))):
            worst = max(worst, np.linalg.norm(t - plain) / max(np.linalg.norm(plain), 1e-300))
    assert worst <= 1e-15


def test_complex_readout_keeps_the_plain_product():
    # a hybrid's readout is complex: T is the plain complex product, unchanged
    from scatmodes import assemble_hybrid

    blocks = assemble_hybrid(_hybrid_scene(), 1.0, basis(10), residual_tol=1.0)
    u = blocks.U1
    assert np.iscomplexobj(u)
    t_b0 = np.diag(blocks.T_b0)
    assert np.array_equal(blocks.T, t_b0 + -u @ blocks.solve(u.T.astype(complex)))
    ub = u[:, :blocks.n_b]
    assert np.array_equal(blocks.T_b, t_b0 + -ub @ blocks.solve_bb(ub.T.astype(complex)))


def _readout_operands():
    rng = np.random.default_rng(29)
    u = rng.standard_normal((7, 5))
    x = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    wide = np.zeros((9, 8), dtype=complex)
    wide[2:7, 1:7:2] = x
    return {
        "1-D": (u, x[:, 0]),
        "2-D": (u, x),
        "F-ordered": (u, np.asfortranarray(x)),
        "sliced": (u, wide[2:7, 1:7:2]),
        "transposed-u": (np.ascontiguousarray(u.T).T, x),
        "column-slice-u": (u[:, :4], x[:4]),
        "no-columns-u": (u[:, :0], x[:0]),
        "no-columns-x": (u, x[:, :0]),
    }


READOUT_OPERANDS = _readout_operands()


@pytest.mark.parametrize("case", READOUT_OPERANDS)
def test_readout_product_matches_the_plain_product(case):
    # the real GEMM on x's interleaved float view is u @ x in C order
    u, x = READOUT_OPERANDS[case]
    got, want = _readout_product(u, x), u @ x
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous
    bound = 2 * u.shape[1] * np.finfo(float).eps * (np.abs(u) @ np.abs(x))  # summation order
    assert np.all(np.abs(got - want) <= bound)
