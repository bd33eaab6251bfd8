"""Spherical vector wave bookkeeping and evaluation.

Index ordering, basis truncation, evaluation of regular (and outgoing)
spherical vector waves, parity filtering for a PEC ground plane at z = 0,
and quadrature projection of sampled fields onto regular waves.

Conventions
-----------
Time dependence exp(+j w t); outgoing waves carry exp(-j k r).  Angular
functions are real valued (cos/sin azimuthal dependence, no
Condon-Shortley phase) and the tangential angular patterns are
orthonormal over the unit sphere.  With this normalisation an outgoing
coefficient vector ``f`` carries the power ``|f|^2 / 2``, and regular
waves evaluate to real vectors for real wavenumbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import spherical_jn, spherical_yn

from .exceptions import DomainError, ResolutionError, ShapeError

TE = "TE"
TM = "TM"

#: Magnitude of a degree-1 TM regular wave at the origin, 1/sqrt(6 pi).
_ORIGIN_TM1 = 1.0 / math.sqrt(6.0 * math.pi)

#: Cartesian axis excited at the origin by the TM (l=1, m) waves.
_ORIGIN_AXIS = {-1: 1, 0: 2, 1: 0}  # m -> axis index (y, z, x)


@dataclass(frozen=True)
class WaveIndex:
    """Single spherical vector wave: degree ``l``, azimuthal index ``m``, polarisation."""

    l: int
    m: int
    pol: str

    def __post_init__(self):
        if self.l < 1:
            raise DomainError(f"wave degree must satisfy l >= 1, got l={self.l}")
        if abs(self.m) > self.l:
            raise DomainError(f"|m| <= l required, got l={self.l}, m={self.m}")
        if self.pol not in (TE, TM):
            raise DomainError(f"polarisation must be 'TE' or 'TM', got {self.pol!r}")


@dataclass(frozen=True)
class WaveBasis:
    """Ordered, truncated set of spherical vector wave indices.

    Ordering is (l ascending, m ascending, TE before TM), which makes
    files and tests bit-stable.  Size is ``2 * l_max * (l_max + 2)``.
    """

    l_max: int
    indices: tuple[WaveIndex, ...]
    convention: str = "power-real"

    def __post_init__(self):
        lookup = {idx: n for n, idx in enumerate(self.indices)}
        object.__setattr__(self, "_lookup", lookup)
        arrays = (np.array([i.l for i in self.indices], dtype=int),
                  np.array([i.m for i in self.indices], dtype=int),
                  np.array([i.pol == TM for i in self.indices], dtype=bool))
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "_arrays", arrays)

    @property
    def size(self) -> int:
        return len(self.indices)

    def position(self, idx: WaveIndex) -> int:
        """Position of ``idx`` in this basis (raises ``KeyError`` if absent)."""
        return self._lookup[idx]

    def __contains__(self, idx: WaveIndex) -> bool:
        return idx in self._lookup

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return read-only (l, m, is_tm) arrays over the basis order."""
        return self._arrays


def truncation_order(ka: float) -> int:
    """Truncation degree for a scatterer of electrical radius ``ka``.

    Uses ``l_max = ceil(ka + 7 ka^(1/3) + 3)``, clamped to at least 1.
    """
    ka = float(ka)
    if not math.isfinite(ka) or ka <= 0.0:
        raise DomainError(f"ka must be positive and finite, got {ka!r}")
    return max(1, math.ceil(ka + 7.0 * ka ** (1.0 / 3.0) + 3.0))


@functools.lru_cache(maxsize=64)
def basis(l_max: int) -> WaveBasis:
    """Deterministic enumeration of all (l, m, pol) with l <= l_max.

    Cached: repeated calls return the same immutable basis.
    """
    if l_max < 1:
        raise DomainError(f"l_max must be >= 1, got {l_max}")
    idx = [
        WaveIndex(l, m, pol)
        for l in range(1, l_max + 1)
        for m in range(-l, l + 1)
        for pol in (TE, TM)
    ]
    return WaveBasis(l_max=l_max, indices=tuple(idx))


def ground_plane_filter(wave_basis: WaveBasis) -> np.ndarray:
    """Positions of the waves compatible with a PEC ground plane at z = 0.

    Kept are TE waves with even l+m and TM waves with odd l+m: exactly
    the waves whose total field (source plus image) has vanishing
    tangential electric field on the plane.
    """
    return np.flatnonzero(mirror_parity(wave_basis) > 0)


def mirror_parity(wave_basis: WaveBasis) -> np.ndarray:
    """Parity (+1 kept / -1 rejected) of each wave under the PEC image map z -> -z."""
    l, m, tm = wave_basis.arrays()
    even = (l + m) % 2 == 0
    keep = np.where(tm, ~even, even)
    return np.where(keep, 1, -1)


# ---------------------------------------------------------------------------
# Angular function tables
# ---------------------------------------------------------------------------

def _legendre_tables(l_max: int, x: np.ndarray, s: np.ndarray):
    """Normalised associated Legendre tables over points.

    Returns (P, Q, D) with shapes (l_max+2, l_max+2, npts):
    P[l, m] = normalised ALP (spherical-harmonic normalisation, no
    Condon-Shortley phase); Q[l, m] = P[l, m] / sin(theta) for m >= 1,
    computed without dividing so it is finite at the poles; D[l, m] =
    dP[l, m]/dtheta.
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

    # first off-diagonal, then upward in l for every order m < l - 1 at once
    m = np.arange(l_max)
    c = np.sqrt(2 * m + 3.0)[:, None]
    P[m + 1, m] = c * x * P[m, m]
    Q[m + 1, m] = c * x * Q[m, m]
    for l in range(2, l_max + 1):
        m = np.arange(l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
        b = np.sqrt(
            (2.0 * l + 1.0)
            * ((l - 1.0) ** 2 - m * m)
            / ((2.0 * l - 3.0) * (l * l - m * m))
        )[:, None]
        P[l, m] = a * x * P[l - 1, m] - b * P[l - 2, m]
        Q[l, m] = a * x * Q[l - 1, m] - b * Q[l - 2, m]

    D = np.zeros((lm2, lm2, npts))
    for l in range(1, l_max + 1):
        D[l, 0] = -math.sqrt(l * (l + 1.0)) * P[l, 1]
        m = np.arange(1, l + 1)
        hi = np.sqrt((l - m) * (l + m + 1.0))[:, None]
        lo = np.sqrt((l + m) * (l - m + 1.0))[:, None]
        D[l, m] = 0.5 * (lo * P[l, m - 1] - hi * P[l, m + 1])
    return P, Q, D


def _spherical_frame(points: np.ndarray):
    """Spherical coordinates and unit-vector frames for an (N, 3) point array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ShapeError(f"points must have shape (N, 3), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must be finite")
    r = np.linalg.norm(pts, axis=1)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    safe_r = np.where(r > 0, r, 1.0)
    ct = np.clip(pts[:, 2] / safe_r, -1.0, 1.0)
    st = rho / safe_r
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    cp, sp = np.cos(phi), np.sin(phi)
    r_hat = np.stack([st * cp, st * sp, ct], axis=1)
    t_hat = np.stack([ct * cp, ct * sp, -st], axis=1)
    p_hat = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)
    return pts, r, ct, st, phi, r_hat, t_hat, p_hat


def _wave_table(wave_basis: WaveBasis, k: float, points: np.ndarray, kind: str):
    """Evaluate all basis waves at all points; shape (n_waves, n_points, 3)."""
    if k <= 0 or not math.isfinite(k):
        raise DomainError(f"wavenumber must be positive and finite, got {k!r}")
    pts, r, ct, st, phi, r_hat, t_hat, p_hat = _spherical_frame(points)
    npts = pts.shape[0]
    l_max = wave_basis.l_max
    kr = k * r
    at_origin = kr < 1e-14
    if kind == "outgoing" and np.any(at_origin):
        raise DomainError("outgoing waves are singular at the origin")

    kr_safe = np.where(at_origin, 1.0, kr)
    ls = np.arange(0, l_max + 1)
    jl = spherical_jn(ls[:, None], kr_safe[None, :])
    djl = spherical_jn(ls[:, None], kr_safe[None, :], derivative=True)
    if kind == "regular":
        zl, dzl = jl, djl
        dtype = float
    else:
        yl = spherical_yn(ls[:, None], kr_safe[None, :])
        dyl = spherical_yn(ls[:, None], kr_safe[None, :], derivative=True)
        zl = jl - 1j * yl
        dzl = djl - 1j * dyl
        dtype = complex

    P, Q, D = _legendre_tables(l_max, ct, st)
    # azimuthal factors F (pattern) and G (its phi derivative) per m = -l_max..l_max
    ms = np.arange(-l_max, l_max + 1)
    am = np.abs(ms)
    cos_m = np.cos(am[:, None] * phi[None, :])
    sin_m = np.sin(am[:, None] * phi[None, :])
    sqrt2 = math.sqrt(2.0)
    pos, neg = (ms > 0)[:, None], (ms < 0)[:, None]
    F = np.where(pos, sqrt2 * cos_m, np.where(neg, sqrt2 * sin_m, 1.0))
    G = np.where(pos, -sqrt2 * ms[:, None] * sin_m,
                 np.where(neg, sqrt2 * am[:, None] * cos_m, 0.0))

    out = np.zeros((wave_basis.size, npts, 3), dtype=dtype)
    l_arr, m_arr, tm_arr = wave_basis.arrays()
    for l in np.unique(l_arr):
        norm = 1.0 / math.sqrt(l * (l + 1.0))
        for tm in (False, True):
            rows = np.flatnonzero((l_arr == l) & (tm_arr == tm))
            if rows.size == 0:
                continue
            m = m_arr[rows]
            f, g = F[m + l_max], G[m + l_max]
            d_theta = D[l, np.abs(m)] * f          # dY/dtheta, (rows, npts)
            d_phi = Q[l, np.abs(m)] * g            # (1/sin) dY/dphi
            if not tm:
                radial = zl[l]
                out[rows] = (norm * radial * d_phi)[..., None] * t_hat \
                    - (norm * radial * d_theta)[..., None] * p_hat
            else:
                r2 = dzl[l] + zl[l] / kr_safe
                r3 = math.sqrt(l * (l + 1.0)) * zl[l] / kr_safe
                out[rows] = (norm * r2 * d_theta)[..., None] * t_hat \
                    + (norm * r2 * d_phi)[..., None] * p_hat \
                    + (r3 * (P[l, np.abs(m)] * f))[..., None] * r_hat
    if np.any(at_origin):
        out[:, at_origin] = 0.0
        for n in np.flatnonzero(tm_arr & (l_arr == 1)):
            out[n, at_origin, _ORIGIN_AXIS[m_arr[n]]] = _ORIGIN_TM1
    return out


def regular_wave_table(wave_basis: WaveBasis, k: float, points: np.ndarray) -> np.ndarray:
    """Real table of all regular waves at the given points, shape (n_waves, n_points, 3)."""
    return _wave_table(wave_basis, k, points, "regular")


def outgoing_wave_table(wave_basis: WaveBasis, k: float, points: np.ndarray) -> np.ndarray:
    """Complex table of all outgoing waves (radial dependence exp(-jkr)/kr at infinity)."""
    return _wave_table(wave_basis, k, points, "outgoing")


def radial_norms(wave_basis: WaveBasis, kr: float) -> np.ndarray:
    """Squared norm of each regular wave over a sphere of electrical radius ``kr``, per steradian.

    ``j_l^2`` for TE and ``(j_l' + j_l/kr)^2 + l(l+1) j_l^2/kr^2`` for TM.
    ``project_onto_regular`` keeps its own copy, so that the quadrature
    stays an independent check of the code that uses this one.
    """
    l, _, tm = wave_basis.arrays()
    jl = spherical_jn(l, kr)
    r2 = spherical_jn(l, kr, derivative=True) + jl / kr
    r3 = np.sqrt(l * (l + 1.0)) * jl / kr
    return np.where(tm, r2 * r2 + r3 * r3, jl * jl)


def regular_wave_field(idx: WaveIndex, k: float, point: np.ndarray) -> np.ndarray:
    """Value of one regular spherical vector wave at one point (real 3-vector)."""
    b = WaveBasis(l_max=idx.l, indices=(idx,))
    return regular_wave_table(b, k, np.atleast_2d(point))[0, 0]


# ---------------------------------------------------------------------------
# Quadrature grids and projection
# ---------------------------------------------------------------------------

def sphere_quadrature(l_max: int, radius: float = 1.0,
                      polar_nodes: int | None = None,
                      azimuth_nodes: int | None = None):
    """Product quadrature on a sphere: Gauss-Legendre in cos(theta), uniform in phi.

    Exact for products of angular patterns up to degree ``l_max`` with the
    default node counts (l_max + 1 polar, 2 l_max + 1 azimuthal).

    Returns
    -------
    points : (N, 3) array
    weights : (N,) array of solid-angle weights (sum = 4 pi)
    """
    if radius <= 0:
        raise DomainError(f"radius must be positive, got {radius}")
    n_th = polar_nodes if polar_nodes is not None else l_max + 1
    n_ph = azimuth_nodes if azimuth_nodes is not None else 2 * l_max + 1
    if n_th < l_max + 1 or n_ph < 2 * l_max + 1:
        raise ResolutionError(
            f"quadrature needs >= {l_max + 1} polar and >= {2 * l_max + 1} azimuthal nodes"
        )
    x, w = np.polynomial.legendre.leggauss(n_th)
    phi = 2.0 * math.pi * np.arange(n_ph) / n_ph
    ct = np.repeat(x, n_ph)
    st = np.sqrt(1.0 - np.repeat(x, n_ph) ** 2)
    ph = np.tile(phi, n_th)
    points = radius * np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=1)
    weights = np.repeat(w, n_ph) * (2.0 * math.pi / n_ph)
    return points, weights


def project_onto_regular(points: np.ndarray, values: np.ndarray,
                         weights: np.ndarray, k: float,
                         wave_basis: WaveBasis, table: np.ndarray | None = None):
    """Expand a field sampled on a spherical quadrature grid in regular waves.

    The samples must lie on a full quadrature sphere (``sphere_quadrature``)
    whose resolution covers ``wave_basis.l_max``, with all sources of the
    field strictly outside the sample radius.

    Parameters
    ----------
    points : (N, 3) array
        Sample positions, all at one radius.
    values : (N, 3) or (N, 3, B) array
        Complex field values; a trailing axis projects B fields at once.
    weights : (N,) array
        Solid-angle quadrature weights.
    k : float
        Wavenumber (rad/m).
    table : optional
        Precomputed ``regular_wave_table(wave_basis, k, points)``, shape
        (n_waves, N, 3).

    Returns
    -------
    coeffs : (n_waves,) or (n_waves, B) complex array
    residual : float or (B,) array
        Relative quadrature-norm misfit of the reconstruction.

    The inner products and the reconstruction run as real matrix products
    (BLAS GEMMs) of the table, flattened to (n_waves, 3N), against the
    complex fields viewed as interleaved real and imaginary columns.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(values, dtype=complex)
    batched = vals.ndim == 3
    if not batched:
        vals = np.atleast_2d(vals)[..., None]
    w = np.asarray(weights, dtype=float)
    if vals.shape[:2] != pts.shape or pts.shape[0] != w.shape[0]:
        raise ShapeError("points, values and weights must have matching leading dimensions")
    l_max = wave_basis.l_max
    if pts.shape[0] < (l_max + 1) ** 2:
        raise ResolutionError(
            f"{pts.shape[0]} nodes insufficient for l_max={l_max}; need >= {(l_max + 1) ** 2}"
        )
    r = np.linalg.norm(pts, axis=1)
    radius = r.mean()
    if radius <= 0 or np.max(np.abs(r - radius)) > 1e-9 * radius:
        raise DomainError("samples must lie on a single sphere of positive radius")

    if table is None:
        table = regular_wave_table(wave_basis, k, pts)  # (n, N, 3), real
    elif table.shape != (wave_basis.size, pts.shape[0], 3):
        raise ShapeError(
            f"table has shape {table.shape}; expected {(wave_basis.size, pts.shape[0], 3)}"
        )
    # squared radial factor of each wave, divided back out of the inner products
    kr = k * radius
    l, _, tm = wave_basis.arrays()
    jl = spherical_jn(l, kr)
    r2 = spherical_jn(l, kr, derivative=True) + jl / kr
    r3 = np.sqrt(l * (l + 1.0)) * jl / kr
    denom = np.where(tm, r2 * r2 + r3 * r3, jl * jl)
    # genuine zeros of j_l occur only past the turning point kr > l;
    # below it the function is merely (harmlessly) small
    vanished = l[~tm & (np.abs(jl) < 1e-13) & (kr > l)]
    if vanished.size:
        raise ResolutionError(
            f"j_{vanished[0]}(kr) vanishes at the sample radius; "
            f"TE degree {vanished[0]} unresolvable"
        )

    # Quadrature inner products of the full wave vectors against the field,
    # and the reconstruction from the coefficients, as real GEMMs
    flat = table.reshape(wave_basis.size, -1)                         # (n, 3N)
    weighted = (w[:, None, None] * vals).reshape(flat.shape[1], -1)   # (3N, B)
    coeffs = (flat @ weighted.view(float)).view(complex) / denom[:, None]
    recon = (flat.T @ coeffs.view(float)).view(complex).reshape(vals.shape)
    scale = np.sqrt(np.sum(w[:, None, None] * np.abs(vals) ** 2, axis=(0, 1)))
    misfit = np.sqrt(np.sum(w[:, None, None] * np.abs(recon - vals) ** 2, axis=(0, 1)))
    residual = misfit / np.where(scale > 0, scale, 1.0)
    if batched:
        return coeffs, residual
    return coeffs[:, 0], float(residual[0])
