"""Spherical vector wave bookkeeping and evaluation.

Index ordering, basis truncation, the spherical Bessel functions,
evaluation of regular (and outgoing) spherical vector waves, parity
filtering for a PEC ground plane at z = 0, and quadrature projection of
sampled fields onto regular waves.  A wave table is angular factors of the
basis and points (``angular_factors``, built once per sweep) times radial
factors of kr (``wave_table``, at each k).

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
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import DomainError, ResolutionError, ShapeError

#: Magnitude of a degree-1 TM regular wave at the origin, 1/sqrt(6 pi).
_ORIGIN_TM1 = 1.0 / math.sqrt(6.0 * math.pi)

#: Cartesian axis excited at the origin by the TM (l=1, m) waves.
_ORIGIN_AXIS = {-1: 1, 0: 2, 1: 0}  # m -> axis index (y, z, x)


def physical_memory() -> float:
    """Bytes of physical memory, infinite where the platform does not say."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") \
        if hasattr(os, "sysconf") else math.inf


@dataclass(frozen=True)
class WaveBasis:
    """Every spherical vector wave of degree 1 <= l <= ``l_max``, compared and hashed by
    ``l_max``, ordered l ascending, m ascending, TE before TM (2 (l^2 - 1) waves precede
    degree l): ``l``, ``m`` and ``tm`` are the read-only arrays of each wave's degree,
    azimuthal index and TM flag.  ``DomainError`` for l_max < 1, ``ResolutionError`` where
    one n x n complex operator (16 n^2 bytes) exceeds physical memory.
    """

    l_max: int
    l: np.ndarray = field(init=False, compare=False, repr=False)
    m: np.ndarray = field(init=False, compare=False, repr=False)
    tm: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.l_max < 1:
            raise DomainError(f"l_max must be >= 1, got {self.l_max}")
        n = 2 * self.l_max * (self.l_max + 2)
        memory = physical_memory()
        if 16 * n * n > memory:
            raise ResolutionError(f"wave basis l_max={self.l_max} has n={n} waves: one n x n "
                                  f"complex operator needs {16 * n * n} bytes, more than the "
                                  f"{memory} bytes of physical memory")
        q, tm = np.divmod(np.arange(n), 2)  # position inverted: q = l^2 - 1 + m + l
        l = np.sqrt(q + 1).astype(int)       # exact: l^2 <= q + 1 < (l + 1)^2
        for name, a in (("l", l), ("m", q + 1 - l * (l + 1)), ("tm", tm.astype(bool))):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    size = property(lambda self: self.l.size)

    def position(self, l, m, tm):
        """Row in this basis of the wave (l, m, tm), for scalars or arrays with ``tm`` a TM
        flag as in the ``tm`` attribute; ``KeyError`` for a wave it lacks."""
        l, m, tm = np.asarray(l), np.asarray(m), np.asarray(tm)
        if not np.all((l >= 1) & (l <= self.l_max) & (np.abs(m) <= l) & np.isin(tm, (0, 1))):
            raise KeyError(f"(l, m, tm) = ({l}, {m}, {tm}): not all in the basis")
        rows = 2 * (l * l - 1 + m + l) + tm
        return rows if rows.ndim else int(rows)


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
    """``WaveBasis(l_max)``, cached: repeated calls return the same immutable basis."""
    return WaveBasis(l_max)


def ground_plane_filter(wave_basis: WaveBasis) -> np.ndarray:
    """Positions of the waves compatible with a PEC ground plane at z = 0.

    Kept are TE waves with even l+m and TM waves with odd l+m: exactly
    the waves whose total field (source plus image) has vanishing
    tangential electric field on the plane.
    """
    return np.flatnonzero(mirror_parity(wave_basis) > 0)


def mirror_parity(wave_basis: WaveBasis) -> np.ndarray:
    """Parity (+1 kept / -1 rejected) of each wave under the PEC image map z -> -z."""
    l, m, tm = wave_basis.l, wave_basis.m, wave_basis.tm
    even = (l + m) % 2 == 0
    keep = np.where(tm, ~even, even)
    return np.where(keep, 1, -1)


# ---------------------------------------------------------------------------
# Spherical Bessel functions
# ---------------------------------------------------------------------------

def _j_ratios(l_max: int, x) -> np.ndarray:
    """``j_l(x) / j_{l-1}(x)`` at index l = 1..l_max + 1 (index 0 unset), by the downward
    (Miller) recurrence ``r_l = x / (2l + 1 - x r_{l+1})`` seeded with 0 above max(l_max, x)."""
    x = np.asarray(x, dtype=float)
    top = max(l_max, int(np.max(x, initial=0.0)))
    ratios = np.empty((l_max + 2,) + x.shape)
    r = np.zeros(x.shape)
    for n in range(top + max(15, int(1.2 * top)) + 2, 0, -1):
        r = x / (2 * n + 1 - x * r)
        if n <= l_max + 1:
            ratios[n] = r
    return ratios


def spherical_j(l_max: int, x) -> tuple[np.ndarray, np.ndarray]:
    """j_l(x) and j_l'(x) for l = 0..l_max at x > 0, each of shape (l_max + 1,) + x.shape.

    The running product of ``_j_ratios`` is normalised by ``j_0 = sin(x)/x``,
    or by j_1 where that is the larger (near the roots of j_0); ``j_l' =
    j_{l-1} - (l + 1) j_l / x`` (Abramowitz & Stegun, ch. 10).  As x -> 0
    the high degrees underflow to 0, quietly.  For l <= 30 and 1e-8 <= x <=
    30 both kinds and their derivatives lie within 1e-13 of scipy.special,
    relative to |value| where x <= l and to the envelope |h_l| (|h_l'|)
    where x > l, where they oscillate; where scipy is off by more (small x,
    high l), these are the nearer to mpmath's 40-digit values.
    """
    x = np.asarray(x, dtype=float)
    j = _j_ratios(l_max, x)
    j[0] = np.sin(x) / x
    j1 = (j[0] - np.cos(x)) / x
    j[1] = np.where(np.abs(j[0]) >= np.abs(j1), j[0] * j[1], j1)
    j[1:] = np.cumprod(j[1:], axis=0)
    return j[:l_max + 1], _derivatives(j, x)


def spherical_y(l_max: int, x) -> tuple[np.ndarray, np.ndarray]:
    """y_l(x) and y_l'(x) for l = 0..l_max at x > 0, by the upward recurrence
    ``y_{l+1} = (2l + 1) y_l / x - y_{l-1}``; as x -> 0 they overflow, quietly, as scipy's do."""
    x = np.asarray(x, dtype=float)
    y = np.empty((l_max + 2,) + x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        y[0] = -np.cos(x) / x
        y[1] = (y[0] - np.sin(x)) / x
        for l in range(1, l_max + 1):
            y[l + 1] = (2 * l + 1) / x * y[l] - y[l - 1]
        return y[:l_max + 1], _derivatives(y, x)


def _derivatives(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """z_l' for l = 0..L from z_0..z_{L+1} of one kind: ``-z_1``, then ``z_{l-1} - (l+1) z_l / x``."""
    dz = np.empty_like(z[:-1])
    dz[0] = -z[1]
    dz[1:] = z[:-2] - np.arange(2, z.shape[0]).reshape((-1,) + (1,) * x.ndim) * z[1:-1] / x
    return dz


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


@dataclass(frozen=True)
class AngularFactors:
    """The k-independent part of the wave table of ``wave_basis`` at ``points`` (N, 3).

    A TE wave is ``z_l tangential``, a TM wave ``(z_l' + z_l/kr) tangential +
    sqrt(l(l+1)) z_l/kr radial r_hat``, with z_l = j_l or h_l = j_l - j y_l
    at kr: ``tangential`` (N, 3, n_waves) holds the TE pattern, or for TM
    waves r_hat times it; ``radial`` (N, n_waves) is zero for TE waves.  Both
    are point-major, the waves last, as ``wave_table`` writes its table.
    Read-only, so threads share one object.
    """

    wave_basis: WaveBasis
    points: np.ndarray
    r: np.ndarray
    r_hat: np.ndarray
    tangential: np.ndarray
    radial: np.ndarray

    def __post_init__(self):
        for a in (self.points, self.r, self.r_hat, self.tangential, self.radial):
            a.flags.writeable = False

    def leading(self, wave_basis: WaveBasis, points: np.ndarray) -> AngularFactors:
        """The rows of ``wave_basis``, which leads this basis if it is no larger, at ``points``,
        which must be these factors' (else ``ShapeError``)."""
        n = wave_basis.size
        if not (np.array_equal(points, self.points)
                and wave_basis.l_max <= self.wave_basis.l_max):
            raise ShapeError("angular factors were built for other points or another basis")
        return replace(self, wave_basis=wave_basis, tangential=self.tangential[..., :n],
                       radial=self.radial[:, :n])


def angular_factors(wave_basis: WaveBasis, points: np.ndarray) -> AngularFactors:
    """Angular factors of every wave of ``wave_basis`` at the (N, 3) ``points``."""
    pts, r, ct, st, phi, r_hat, t_hat, p_hat = _spherical_frame(points)
    l_max = wave_basis.l_max
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

    l, m, tm = wave_basis.l, wave_basis.m, wave_basis.tm
    f, g, tm = F[m + l_max], G[m + l_max], tm[:, None]
    norm = 1.0 / np.sqrt(l * (l + 1.0))[:, None]
    d_theta = norm * D[l, np.abs(m)] * f           # dY/dtheta, (n_waves, N)
    d_phi = norm * Q[l, np.abs(m)] * g             # (1/sin) dY/dphi
    along_t = np.ascontiguousarray(np.where(tm, d_theta, d_phi).T)[:, None]
    along_p = np.ascontiguousarray(np.where(tm, d_phi, -d_theta).T)[:, None]
    return AngularFactors(
        wave_basis=wave_basis, points=pts.copy(), r=r, r_hat=r_hat,
        tangential=along_t * t_hat[..., None] + along_p * p_hat[..., None],
        radial=np.ascontiguousarray(np.where(tm, P[l, np.abs(m)] * f, 0.0).T))


def wave_table(angular: AngularFactors, k: float, kind: str = "regular") -> np.ndarray:
    """All waves of ``angular.wave_basis`` at its points, shape (n_waves, N, 3).

    ``kind`` is "regular" (a real table) or "outgoing" (complex, radial
    dependence exp(-jkr)/kr at infinity; singular at the origin).  The table
    is written in (N, 3, n_waves) memory order, so its ``reshape(n_waves,
    3 N)`` is a column-ordered view, not a copy.
    """
    if k <= 0 or not math.isfinite(k):
        raise DomainError(f"wavenumber must be positive and finite, got {k!r}")
    kr = k * angular.r
    at_origin = kr < 1e-14
    if kind == "outgoing" and np.any(at_origin):
        raise DomainError("outgoing waves are singular at the origin")

    kr_safe = np.where(at_origin, 1.0, kr)
    l, m, tm = angular.wave_basis.l, angular.wave_basis.m, angular.wave_basis.tm
    l_max = angular.wave_basis.l_max
    zl, dzl = spherical_j(l_max, kr_safe)
    if kind == "outgoing":
        yl, dyl = spherical_y(l_max, kr_safe)
        zl, dzl = zl - 1j * yl, dzl - 1j * dyl
    zl_kr = (zl / kr_safe).T  # (N, l_max + 1), points first as in the factors
    # each wave's radial factors gathered once from per-degree columns: z_l, z_l' + z_l/kr
    rho_t = np.hstack([zl.T, dzl.T + zl_kr])[:, tm * (l_max + 1) + l]
    degree = np.arange(l_max + 1)
    along_r = (np.sqrt(degree * (degree + 1.0)) * zl_kr)[:, l] * angular.radial
    out = rho_t[:, None] * angular.tangential  # (N, 3, n_waves)
    for axis in range(3):  # one (N, n_waves) product per axis: no (N, 3, n_waves) temporary
        out[:, axis] += along_r * angular.r_hat[:, axis, None]
    if np.any(at_origin):
        out[at_origin] = 0.0
        for n in np.flatnonzero(tm & (l == 1)):
            out[at_origin, _ORIGIN_AXIS[m[n]], n] = _ORIGIN_TM1
    return out.transpose(2, 0, 1)


def regular_wave_table(wave_basis: WaveBasis, k: float, points: np.ndarray) -> np.ndarray:
    """Real table of all regular waves at the given points, shape (n_waves, n_points, 3)."""
    return wave_table(angular_factors(wave_basis, points), k, "regular")


def radial_norms(wave_basis: WaveBasis, kr: float) -> np.ndarray:
    """Squared norm of each regular wave over a sphere of electrical radius ``kr``, per steradian.

    ``j_l^2`` for TE and ``(j_l' + j_l/kr)^2 + l(l+1) j_l^2/kr^2`` for TM.
    ``project_onto_regular`` keeps its own copy, so that the quadrature
    stays an independent check of the code that uses this one.
    """
    l, tm = wave_basis.l, wave_basis.tm
    j, dj = spherical_j(wave_basis.l_max, kr)
    jl = j[l]
    r2 = dj[l] + jl / kr
    r3 = np.sqrt(l * (l + 1.0)) * jl / kr
    return np.where(tm, r2 * r2 + r3 * r3, jl * jl)


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
    l, tm = wave_basis.l, wave_basis.tm
    j, dj = spherical_j(l_max, kr)
    jl = j[l]
    r2 = dj[l] + jl / kr
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
