"""Independent reference implementations used as test oracles.

Deliberately written through different code paths than the library:
associated Legendre functions straight from scipy.special.lpmv, sphere
coefficients in high precision via mpmath, and least-squares fits
instead of quadrature projections.
"""

import math

import mpmath as mp
import numpy as np
from scipy.special import lpmv, spherical_jn

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# Regular spherical vector waves via lpmv + finite-difference angular gradients
# ---------------------------------------------------------------------------

def real_sph_harm(l, m, theta, phi):
    """Real spherical harmonic, no Condon-Shortley phase."""
    am = abs(m)
    norm = math.sqrt((2 * l + 1) / (4 * math.pi)
                     * math.factorial(l - am) / math.factorial(l + am))
    leg = (-1.0) ** am * lpmv(am, l, math.cos(theta))  # undo scipy's CS phase
    if m == 0:
        return norm * leg
    if m > 0:
        return math.sqrt(2.0) * norm * leg * math.cos(m * phi)
    return math.sqrt(2.0) * norm * leg * math.sin(am * phi)


def regular_wave_reference(l, m, pol, k, point, h=1e-6, kind="regular"):
    """Spherical vector wave by direct formula evaluation (lpmv + finite differences)."""
    from scipy.special import spherical_yn

    x, y, z = point
    r = math.sqrt(x * x + y * y + z * z)
    theta = math.acos(z / r)
    phi = math.atan2(y, x)
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    r_hat = np.array([st * cp, st * sp, ct])
    t_hat = np.array([ct * cp, ct * sp, -st])
    p_hat = np.array([-sp, cp, 0.0])

    dth = (real_sph_harm(l, m, theta + h, phi) - real_sph_harm(l, m, theta - h, phi)) / (2 * h)
    dph = (real_sph_harm(l, m, theta, phi + h) - real_sph_harm(l, m, theta, phi - h)) / (2 * h) / st
    yv = real_sph_harm(l, m, theta, phi)
    norm = 1.0 / math.sqrt(l * (l + 1.0))
    kr = k * r
    zl = spherical_jn(l, kr)
    dzl = spherical_jn(l, kr, derivative=True)
    if kind == "outgoing":
        zl = zl - 1j * spherical_yn(l, kr)
        dzl = dzl - 1j * spherical_yn(l, kr, derivative=True)
    if pol == "TE":
        return zl * norm * (dph * t_hat - dth * p_hat)
    r2 = dzl + zl / kr
    r3 = math.sqrt(l * (l + 1.0)) * zl / kr
    return norm * r2 * (dth * t_hat + dph * p_hat) + r3 * yv * r_hat


def dipole_expansion_reference(wave_basis, k, src, axis):
    """Regular-wave coefficients of a unit-dipole field about the origin.

    Independent route: the separation-of-variables expansion of the
    dyadic Green function gives the coefficient -j k u_n(k r_src) . axis
    with the outgoing waves evaluated through the lpmv-based reference.
    """
    out = np.empty(wave_basis.size, dtype=complex)
    for n, idx in enumerate(wave_basis.indices):
        u = regular_wave_reference(idx.l, idx.m, idx.pol, k, src, kind="outgoing")
        out[n] = -1j * k * (u @ axis)
    return out


# ---------------------------------------------------------------------------
# High precision sphere coefficients (engineering convention, xi = psi - j chi)
# ---------------------------------------------------------------------------

def _mp_psi(l, x):
    x = mp.mpf(x)
    return x * mp.sqrt(mp.pi / (2 * x)) * mp.besselj(l + mp.mpf("0.5"), x)


def _mp_chi(l, x):
    x = mp.mpf(x)
    return x * mp.sqrt(mp.pi / (2 * x)) * mp.bessely(l + mp.mpf("0.5"), x)


def _mp_dpsi(l, x):
    # (x j_l)' = x j_{l-1} - l j_l
    x = mp.mpf(x)
    return _mp_psi(l - 1, x) - l * _mp_psi(l, x) / x


def _mp_dchi(l, x):
    x = mp.mpf(x)
    return _mp_chi(l - 1, x) - l * _mp_chi(l, x) / x


def mie_reference_pec(l, ka):
    """(t_TE, t_TM) of a PEC sphere at x = ka, 40-digit arithmetic."""
    psi, chi = _mp_psi(l, ka), _mp_chi(l, ka)
    dpsi, dchi = _mp_dpsi(l, ka), _mp_dchi(l, ka)
    xi = psi - 1j * chi
    dxi = dpsi - 1j * dchi
    return complex(-psi / xi), complex(-dpsi / dxi)


def mie_reference_dielectric(l, ka, eps_r, mu_r=1.0):
    """(t_TE, t_TM) of a lossless dielectric sphere, 40-digit arithmetic."""
    n_ref = mp.sqrt(mp.mpf(eps_r) * mp.mpf(mu_r))
    eta = mp.sqrt(mp.mpf(mu_r) / mp.mpf(eps_r))
    x = mp.mpf(ka)
    x1 = n_ref * x
    psi, chi = _mp_psi(l, x), _mp_chi(l, x)
    dpsi, dchi = _mp_dpsi(l, x), _mp_dchi(l, x)
    xi = psi - 1j * chi
    dxi = dpsi - 1j * dchi
    d1 = _mp_dpsi(l, x1) / _mp_psi(l, x1)
    t_te = (d1 * psi - eta * dpsi) / (eta * dxi - d1 * xi)
    t_tm = (dpsi - eta * d1 * psi) / (eta * d1 * xi - dxi)
    return complex(t_te), complex(t_tm)


def rayleigh_tm_dipole(ka):
    """Small-sphere asymptote of the PEC TM dipole coefficient."""
    return -2j / 3.0 * ka ** 3


# ---------------------------------------------------------------------------
# Dense least-squares projection oracle
# ---------------------------------------------------------------------------

def least_squares_expansion(field, k, wave_basis, radius, n_theta, n_phi):
    """Fit regular-wave coefficients to a sampled field on a dense grid.

    ``field(points) -> (N, 3) complex``; plain lstsq on the stacked
    Cartesian components, no quadrature weights.
    """
    from scatmodes import swe

    th = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    ph = np.arange(n_phi) * 2.0 * math.pi / n_phi
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    pts = radius * np.stack([np.sin(tt) * np.cos(pp),
                             np.sin(tt) * np.sin(pp),
                             np.cos(tt)], axis=-1).reshape(-1, 3)
    vals = field(pts)
    table = swe.regular_wave_table(wave_basis, k, pts)
    a_mat = table.reshape(wave_basis.size, -1).T
    # radial factors spread column norms over many orders of magnitude;
    # normalise them so lstsq's rank cutoff does not truncate the basis
    scale = np.linalg.norm(a_mat, axis=0)
    scale[scale == 0.0] = 1.0
    coeffs, *_ = np.linalg.lstsq(a_mat / scale, vals.reshape(-1), rcond=None)
    return coeffs / scale


# ---------------------------------------------------------------------------
# Wave table evaluated one wave at a time
# ---------------------------------------------------------------------------

def legendre_tables_loop(l_max, x, s):
    """Normalised associated Legendre tables (P, Q = P / sin, D = dP/dtheta), one (l, m) at a time.

    The same recurrences as ``swe._legendre_tables``, which runs them for
    all orders m at once.
    """
    lm2 = l_max + 2
    npts = x.shape[0]
    P = np.zeros((lm2, lm2, npts))
    Q = np.zeros((lm2, lm2, npts))
    P[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, lm2 - 1):
        c = math.sqrt((2 * m + 1) / (2.0 * m))
        P[m, m] = c * s * P[m - 1, m - 1]
        if m == 1:
            Q[1, 1] = math.sqrt(3.0 / (8.0 * math.pi)) * np.ones(npts)
        else:
            Q[m, m] = c * s * Q[m - 1, m - 1]
    for m in range(0, l_max + 1):
        if m + 1 <= l_max:
            c = math.sqrt(2 * m + 3.0)
            P[m + 1, m] = c * x * P[m, m]
            Q[m + 1, m] = c * x * Q[m, m]
        for l in range(m + 2, l_max + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m)
                          / ((2.0 * l - 3.0) * (l * l - m * m)))
            P[l, m] = a * x * P[l - 1, m] - b * P[l - 2, m]
            Q[l, m] = a * x * Q[l - 1, m] - b * Q[l - 2, m]
    D = np.zeros((lm2, lm2, npts))
    for l in range(1, l_max + 1):
        D[l, 0] = -math.sqrt(l * (l + 1.0)) * P[l, 1]
        for m in range(1, l + 1):
            hi = math.sqrt((l - m) * (l + m + 1.0))
            lo = math.sqrt((l + m) * (l - m + 1.0))
            D[l, m] = 0.5 * (lo * P[l, m - 1] - hi * P[l, m + 1])
    return P, Q, D


def wave_table_per_wave(wave_basis, k, points, kind="regular"):
    """Wave table built by a Python loop over the waves, one (l, m, pol) at a time.

    The library evaluates a whole degree at once, from Legendre tables
    computed for all orders at once; this is the straightforward per-wave
    loop over ``legendre_tables_loop`` that it replaced, shape
    (n_waves, n_points, 3).
    """
    from scipy.special import spherical_yn

    from scatmodes import swe

    pts, r, ct, st, phi, r_hat, t_hat, p_hat = swe._spherical_frame(points)
    npts = pts.shape[0]
    l_max = wave_basis.l_max
    kr = k * r
    at_origin = kr < 1e-14
    kr_safe = np.where(at_origin, 1.0, kr)
    ls = np.arange(0, l_max + 1)
    zl = spherical_jn(ls[:, None], kr_safe[None, :])
    dzl = spherical_jn(ls[:, None], kr_safe[None, :], derivative=True)
    if kind == "outgoing":
        zl = zl - 1j * spherical_yn(ls[:, None], kr_safe[None, :])
        dzl = dzl - 1j * spherical_yn(ls[:, None], kr_safe[None, :], derivative=True)
    P, Q, D = legendre_tables_loop(l_max, ct, st)
    out = np.zeros((wave_basis.size, npts, 3), dtype=zl.dtype)
    sqrt2 = math.sqrt(2.0)
    for n, idx in enumerate(wave_basis.indices):
        l, m, pol = idx.l, idx.m, idx.pol
        am = abs(m)
        if m > 0:
            F = sqrt2 * np.cos(m * phi)
            G = -sqrt2 * m * np.sin(m * phi)
        elif m < 0:
            F = sqrt2 * np.sin(am * phi)
            G = sqrt2 * am * np.cos(am * phi)
        else:
            F = np.ones(npts)
            G = np.zeros(npts)
        norm = 1.0 / math.sqrt(l * (l + 1.0))
        d_theta = D[l, am] * F
        d_phi = Q[l, am] * G
        if pol == "TE":
            vec = (norm * zl[l] * d_phi)[:, None] * t_hat \
                - (norm * zl[l] * d_theta)[:, None] * p_hat
        else:
            Y = P[l, am] * F
            r2 = dzl[l] + zl[l] / kr_safe
            r3 = math.sqrt(l * (l + 1.0)) * zl[l] / kr_safe
            vec = (norm * r2 * d_theta)[:, None] * t_hat \
                + (norm * r2 * d_phi)[:, None] * p_hat \
                + (r3 * Y)[:, None] * r_hat
        vec[at_origin] = 0.0
        if pol == "TM" and l == 1:
            vec[at_origin, swe._ORIGIN_AXIS[m]] = swe._ORIGIN_TM1
        out[n] = vec
    return out


# ---------------------------------------------------------------------------
# Impedance system over all ordered dipole pairs, in scene order
# ---------------------------------------------------------------------------

def system_permutation(scene):
    """System order of a scene's flat unknowns: background unknowns first, each region in scene order."""
    mask = np.repeat(scene.is_controllable, 3)
    return np.concatenate([np.flatnonzero(~mask), np.flatnonzero(mask)])


def impedance_reference(scene, k, wave_basis):
    """Z and U1 of a dipole scene in system order, assembled the straightforward way.

    The Green blocks are evaluated on every ordered pair (i, j), i != j, in
    scene order, so both G_ij and G_ji are computed; the diagonal is filled
    one dipole at a time, and the system order is applied afterwards by
    permuting rows and columns.  A ground-plane scene is mirrored first.
    """
    from scatmodes import dipoles, swe

    if scene.ground_plane:
        scene = dipoles.mirror_scene(scene)
    pos = scene.positions
    n = scene.n_dipoles
    z = np.zeros((3 * n, 3 * n), dtype=complex)
    for i in range(n):
        others = np.delete(np.arange(n), i)
        row = (1j / k) * dipoles._green_blocks(k, pos[i] - pos[others])
        for j, block in zip(others, row):
            z[3 * i:3 * i + 3, 3 * j:3 * j + 3] = block
        z[3 * i:3 * i + 3, 3 * i:3 * i + 3] = \
            np.eye(3) / (6.0 * np.pi) - 1j * np.linalg.inv(scene.polarizability[i]) / k**3
    u1 = swe.regular_wave_table(wave_basis, k, pos).reshape(wave_basis.size, 3 * n)
    perm = system_permutation(scene)
    return z[np.ix_(perm, perm)], u1[:, perm]


# ---------------------------------------------------------------------------
# Operator checks as plain full-matrix numpy products
# ---------------------------------------------------------------------------

def _scaled(norm, dim):
    return float(norm) / math.sqrt(max(dim, 1))


def unitary_deviation_reference(m):
    """``||M^H M - I||_F / sqrt(dim)`` from the full product (0 for an empty M)."""
    return _scaled(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])), m.shape[0])


def t_power_reference(t):
    """``||T^H T + Re T||_F / sqrt(dim)`` from the full product."""
    return _scaled(np.linalg.norm(t.conj().T @ t + t.real), t.shape[0])


def factored_unitarity_reference(u, solve):
    """``||4 C^H C - 2 (C + C^H)||_F / sqrt(n)`` with ``C = R z^-1 R^T`` and ``u = Q R``."""
    n, m = u.shape
    if m == 0:
        return 0.0
    r = np.linalg.qr(u, mode="r")
    c = r @ solve(r.T.astype(complex))
    return _scaled(np.linalg.norm(4.0 * c.conj().T @ c - 2.0 * (c + c.conj().T)), n)


def factorization_residual_reference(z, u):
    """``||Re z - Re(u^H u)||_F / ||Re z||_F`` from the full product (0 for an empty z)."""
    if z.size == 0:
        return 0.0
    r = z.real
    return float(np.linalg.norm(r - (u.conj().T @ u).real) / max(np.linalg.norm(r), 1e-300))


# ---------------------------------------------------------------------------
# Identity embedding of a small-basis operator
# ---------------------------------------------------------------------------

class MappingError(ValueError):
    """A basis embedding or index map is not injective / not resolvable."""


def embed_identity(M, target_basis, index_map=None):
    """Embed M into a larger basis, acting as the identity elsewhere.

    By default the map matches wave indices between M's basis and the
    target basis; an explicit injective ``index_map`` (position in M ->
    position in target) overrides it.
    """
    from scatmodes import OperatorMatrix

    m = M.data
    n_target = target_basis.size
    if index_map is None:
        if M.basis is None:
            raise MappingError("embed_identity needs M.basis or an explicit index_map")
        try:
            index_map = {i: target_basis.position(idx)
                         for i, idx in enumerate(M.basis.indices)}
        except KeyError as err:
            raise MappingError(f"wave index {err.args[0]} absent from the target basis")
    if len(set(index_map.values())) != len(index_map):
        raise MappingError("index map is not injective")
    if len(index_map) != m.shape[0]:
        raise MappingError("index map must cover every row of M")
    if any(j < 0 or j >= n_target for j in index_map.values()):
        raise MappingError("index map exceeds the target basis")

    kind = M.kind
    out = np.eye(n_target, dtype=complex) if kind == "S" \
        else np.zeros((n_target, n_target), dtype=complex)
    if kind not in ("S", "T"):
        raise MappingError("identity embedding is defined for S and T operators")
    pos = np.array([index_map[i] for i in range(m.shape[0])])
    out[np.ix_(pos, pos)] = m
    return OperatorMatrix(kind=kind, data=out, basis=target_basis)
