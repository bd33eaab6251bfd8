import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scatmodes import (
    DomainError,
    ResolutionError,
    ShapeError,
    WaveBasis,
    WaveIndex,
    basis,
    ground_plane_filter,
    mirror_parity,
    project_onto_regular,
    regular_wave_field,
    outgoing_wave_table,
    regular_wave_table,
    sphere_quadrature,
    truncation_order,
)
from scatmodes.dipoles import dyadic_green

from oracles import least_squares_expansion, regular_wave_reference, wave_table_per_wave


def test_truncation_order_examples():
    assert truncation_order(1.0) == 11
    assert truncation_order(0.001) == 4
    assert truncation_order(8.0) == 25


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_truncation_order_domain(bad):
    with pytest.raises(DomainError):
        truncation_order(bad)


def test_basis_sizes():
    assert basis(1).size == 6
    assert basis(2).size == 16
    assert basis(10).size == 240


def test_basis_ordering_deterministic():
    b = basis(2)
    first = [(i.l, i.m, i.pol) for i in b.indices[:4]]
    assert first == [(1, -1, "TE"), (1, -1, "TM"), (1, 0, "TE"), (1, 0, "TM")]
    assert len(set(b.indices)) == b.size
    for idx in b.indices:
        assert b.position(idx) == b.indices.index(idx)


def test_basis_domain():
    with pytest.raises(DomainError):
        basis(0)
    with pytest.raises(DomainError):
        WaveIndex(2, 3, "TE")
    with pytest.raises(DomainError):
        WaveIndex(1, 0, "TEM")


def test_regular_waves_at_origin():
    origin = np.zeros(3)
    for l in (2, 3, 5):
        for pol in ("TE", "TM"):
            v = regular_wave_field(WaveIndex(l, min(1, l - 1), pol), 2.0, origin)
            assert np.all(v == 0.0)
    v = regular_wave_field(WaveIndex(1, 0, "TM"), 2.0, origin)
    assert v[0] == 0.0 and v[1] == 0.0
    assert_allclose(v[2], 1.0 / math.sqrt(6.0 * math.pi), rtol=1e-14)
    assert np.all(regular_wave_field(WaveIndex(1, 0, "TE"), 2.0, origin) == 0.0)


def test_te_dipole_value_against_reference():
    # TE (1, 0) at |r| = 1/k on the x axis: j_1(1) * sqrt(3/8pi) * y_hat
    k = 3.0
    v = regular_wave_field(WaveIndex(1, 0, "TE"), k, np.array([1.0 / k, 0.0, 0.0]))
    from scipy.special import spherical_jn
    expected = spherical_jn(1, 1.0) * math.sqrt(3.0 / (8.0 * math.pi))
    assert_allclose(v, [0.0, expected, 0.0], atol=1e-15)


def test_wave_table_against_lpmv_reference():
    rng = np.random.default_rng(1)
    k = 1.3
    for _ in range(25):
        l = int(rng.integers(1, 7))
        m = int(rng.integers(-l, l + 1))
        pol = "TE" if rng.random() < 0.5 else "TM"
        pt = rng.normal(size=3)
        pt *= (0.2 + 2.0 * rng.random()) / np.linalg.norm(pt)
        mine = regular_wave_field(WaveIndex(l, m, pol), k, pt)
        ref = regular_wave_reference(l, m, pol, k, pt)
        assert_allclose(mine, ref, atol=5e-10)


def test_reality():
    rng = np.random.default_rng(2)
    tab = regular_wave_table(basis(5), 2.0, rng.normal(size=(8, 3)))
    assert tab.dtype == np.float64
    assert np.all(np.isfinite(tab))


def test_angular_orthonormality():
    l_max = 7
    b = basis(l_max)
    pts, w = sphere_quadrature(l_max)
    k = 1.0
    tab = regular_wave_table(b, k, pts)
    gram = np.einsum("p,npc,mpc->nm", w, tab, tab)
    # full-vector Gram is diagonal; normalising by the radial norms must give I
    d = np.sqrt(np.diag(gram))
    assert np.abs(gram / np.outer(d, d) - np.eye(b.size)).max() < 1e-10


def test_ground_plane_filter_examples():
    b = basis(3)
    kept = set(ground_plane_filter(b))
    assert b.position(WaveIndex(1, 0, "TM")) in kept
    assert b.position(WaveIndex(1, 0, "TE")) not in kept
    assert b.position(WaveIndex(1, 1, "TE")) in kept


def test_parity_keeps_half_of_each_degree_block():
    b = basis(6)
    sigma = mirror_parity(b)
    ls, _, _ = b.arrays()
    for l in range(1, 7):
        block = ls == l
        assert (sigma[block] > 0).sum() == block.sum() // 2 == 2 * l + 1


def test_mirror_parity_matches_reflection():
    # kept waves satisfy -M v(M r) = v(r) with M = diag(1, 1, -1)
    mirror = np.diag([1.0, 1.0, -1.0])
    b = basis(4)
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(5, 3))
    tab = regular_wave_table(b, 1.7, pts)
    tab_m = regular_wave_table(b, 1.7, pts @ mirror)
    sigma = mirror_parity(b)
    for n in range(b.size):
        assert_allclose(-(tab_m[n] @ mirror), sigma[n] * tab[n], atol=1e-14)


def test_project_single_wave_roundtrip():
    l_max = 5
    b = basis(l_max)
    k = 2.0
    pts, w = sphere_quadrature(l_max, radius=0.8)
    tab = regular_wave_table(b, k, pts)
    n0 = b.position(WaveIndex(3, -2, "TM"))
    coeffs, residual = project_onto_regular(pts, tab[n0], w, k, b)
    expected = np.zeros(b.size)
    expected[n0] = 1.0
    assert np.abs(coeffs - expected).max() < 1e-10
    assert residual < 1e-10


def test_project_zero_field():
    b = basis(3)
    pts, w = sphere_quadrature(3, radius=1.0)
    coeffs, residual = project_onto_regular(pts, np.zeros_like(pts), w, 1.0, b)
    assert np.all(coeffs == 0.0)
    assert residual == 0.0


def test_project_dipole_field_against_lstsq():
    # point dipole at 2r, sampled at r; oracle one: a brute-force fit on
    # a denser grid with a richer basis, oracle two: the analytic
    # expansion coefficients of a dipole field (lpmv-based route)
    from oracles import dipole_expansion_reference

    k = 1.5
    r_fit = 0.5
    src = np.array([0.0, 0.3, 1.0])
    src *= 2.0 * r_fit / np.linalg.norm(src)
    axis = np.array([0.4, -1.0, 0.2])
    axis /= np.linalg.norm(axis)

    def field(pts):
        g = dyadic_green(k, pts, src[None])[:, 0]
        return g @ axis

    l_max = 12
    b = basis(l_max)
    pts, w = sphere_quadrature(l_max, radius=r_fit,
                               polar_nodes=l_max + 9, azimuth_nodes=2 * l_max + 17)
    coeffs, residual = project_onto_regular(pts, field(pts), w, k, b)
    assert residual < 1e-2  # dominated by near-field truncation at l_max

    big = basis(20)
    ref_big = least_squares_expansion(field, k, big, r_fit, n_theta=30, n_phi=60)
    ref = ref_big[[big.position(i) for i in b.indices]]
    truth = dipole_expansion_reference(b, k, src, axis)

    # coefficients grow like (2l-1)!! with degree, so compare per block;
    # the fit's own bias from the truncated near field grows with l too
    ls = np.array([i.l for i in b.indices])
    for l in range(1, l_max + 1):
        m = ls == l
        scale = np.abs(truth[m]).max()
        fit_tol = 1e-5 if l <= 4 else (3e-4 if l <= 8 else 5e-3)
        assert np.abs(coeffs[m] - ref[m]).max() < fit_tol * scale
        proj_tol = 1e-7 if l <= 6 else 1e-4
        assert np.abs(coeffs[m] - truth[m]).max() < proj_tol * scale


def test_project_grid_too_small():
    b = basis(6)
    pts, w = sphere_quadrature(3, radius=1.0)
    with pytest.raises(ResolutionError):
        project_onto_regular(pts, np.zeros_like(pts), w, 1.0, b)


def test_project_batched_against_unbatched_and_loop_reference():
    # B columns mixing real, imaginary and complex dipole fields: checks the
    # interleaved real/imaginary GEMMs against B single calls and against a
    # plain-loop quadrature, with the radial norm taken from the table itself
    l_max = 4
    b = basis(l_max)
    k = 1.2
    r_fit = 0.6
    pts, w = sphere_quadrature(l_max, radius=r_fit, polar_nodes=l_max + 3,
                               azimuth_nodes=2 * l_max + 5)
    rng = np.random.default_rng(5)
    src = rng.normal(size=(2, 3))
    src *= 2.5 * r_fit / np.linalg.norm(src, axis=1)[:, None]
    g = dyadic_green(k, pts, src)                    # (P, 2, 3, 3)
    vals = np.stack([
        g[:, 0] @ np.array([1.0, 0.0, 0.0]),
        (g[:, 1] @ np.array([0.0, 0.6, 0.8])).real + 0j,
        1j * (g[:, 0] @ np.array([0.0, 0.0, 1.0])).imag,
        np.exp(0.7j) * (g[:, 1] @ np.array([0.3, -1.0, 0.4])),
    ], axis=-1)                                      # (P, 3, 4)
    table = regular_wave_table(b, k, pts)
    coeffs, residual = project_onto_regular(pts, vals, w, k, b, table=table)

    n_waves, n_pts = table.shape[:2]
    n_cols = vals.shape[2]
    ref = np.zeros((n_waves, n_cols), dtype=complex)
    ref_residual = np.zeros(n_cols)
    for col in range(n_cols):
        single, single_residual = project_onto_regular(pts, vals[:, :, col], w, k, b)
        assert np.abs(single - coeffs[:, col]).max() <= 1e-12 * np.abs(single).max()
        # residuals are relative to the field's quadrature norm already
        assert abs(single_residual - residual[col]) <= 1e-12
        for n in range(n_waves):
            inner = sum(w[p] * (table[n, p] @ vals[p, :, col]) for p in range(n_pts))
            denom = sum(w[p] * (table[n, p] @ table[n, p]) for p in range(n_pts))
            ref[n, col] = inner / denom
        misfit = scale = 0.0
        for p in range(n_pts):
            recon = sum(ref[n, col] * table[n, p] for n in range(n_waves))
            misfit += w[p] * np.sum(np.abs(recon - vals[p, :, col]) ** 2)
            scale += w[p] * np.sum(np.abs(vals[p, :, col]) ** 2)
        ref_residual[col] = math.sqrt(misfit / scale)
    assert np.abs(coeffs - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(residual - ref_residual).max() <= 1e-12
    assert residual.min() > 1e-7  # a misfit well above the roundoff floor


@pytest.mark.parametrize("table_basis, n_points_off", [(2, 0), (3, 1)])
def test_project_mismatched_table(table_basis, n_points_off):
    # a table built for a smaller basis or for one point fewer is rejected
    b = basis(3)
    k = 1.0
    pts, w = sphere_quadrature(3, radius=1.0)
    table = regular_wave_table(basis(table_basis), k, pts[n_points_off:])
    with pytest.raises(ShapeError):
        project_onto_regular(pts, np.ones_like(pts), w, k, b, table=table)


def test_project_vanishing_bessel_radius():
    # k r on the first zero of j_1: TE degree 1 carries no field there
    from scipy.optimize import brentq
    from scipy.special import spherical_jn

    k = 1.0
    r_zero = brentq(lambda x: spherical_jn(1, x), 4.0, 5.0, xtol=1e-15) / k
    pts, w = sphere_quadrature(3, radius=r_zero)
    with pytest.raises(ResolutionError, match="j_1"):
        project_onto_regular(pts, np.ones_like(pts), w, k, basis(3))


def test_quadrature_node_rule():
    with pytest.raises(ResolutionError):
        sphere_quadrature(5, polar_nodes=4)
    pts, w = sphere_quadrature(5)
    assert pts.shape == (6 * 11, 3)
    assert_allclose(w.sum(), 4.0 * math.pi, rtol=1e-13)


@pytest.mark.parametrize("kind, table", [("regular", regular_wave_table),
                                         ("outgoing", outgoing_wave_table)])
@pytest.mark.parametrize("wave_basis", [basis(1), basis(9),
                                        WaveBasis(7, basis(7).indices[3::5])],
                         ids=["l_max=1", "l_max=9", "subset"])
def test_wave_table_matches_per_wave_loop(kind, table, wave_basis):
    # the per-degree table against the per-wave loop it replaced, on
    # generic points, both poles and (regular waves only) the origin
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(40, 3))
    pts[1] = [0.0, 0.0, 0.7]
    pts[2] = [0.0, 0.0, -0.3]
    if kind == "regular":
        pts[0] = 0.0
    got = table(wave_basis, 1.7, pts)
    ref = wave_table_per_wave(wave_basis, 1.7, pts, kind)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    if kind == "regular":   # only the TM l=1 waves are nonzero at the origin
        ls, _, tm = wave_basis.arrays()
        assert np.count_nonzero(got[:, 0]) == np.count_nonzero(tm & (ls == 1))
