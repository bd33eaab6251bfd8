"""Analytic diagonal transition matrices for spheres centred at the origin.

PEC and homogeneous lossless dielectric spheres.  Entries depend on
(l, pol) only and are degenerate over m.  These closed forms are the
library's independent oracle for every numerical backend.

Time convention exp(+j w t): outgoing radial dependence h_l^(2)(kr).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, ResolutionError
from .modes import ModeSet, _mode_order
from .swe import WaveBasis, _j_ratios, spherical_j, spherical_y, truncation_order

PEC = "pec"
DIELECTRIC = "dielectric"


@dataclass(frozen=True)
class SphereSpec:
    """Sphere radius (m) and lossless material."""

    radius: float
    material: str = PEC
    eps_r: float = 1.0
    mu_r: float = 1.0

    def __post_init__(self):
        if self.radius <= 0 or not math.isfinite(self.radius):
            raise DomainError(f"sphere radius must be positive, got {self.radius}")
        if self.material not in (PEC, DIELECTRIC):
            raise DomainError(f"material must be '{PEC}' or '{DIELECTRIC}', got {self.material!r}")
        if self.material == DIELECTRIC and not self.eps_r >= 1.0:
            raise DomainError(f"dielectric eps_r must be >= 1, got {self.eps_r}")
        if self.material == DIELECTRIC and not self.mu_r > 0.0:
            raise DomainError(f"dielectric mu_r must be positive, got {self.mu_r}")


def _riccati(l_max: int, x: float):
    """Riccati-Bessel psi, chi and derivatives for l = 0..l_max at real x."""
    jl, djl = spherical_j(l_max, x)
    yl, dyl = spherical_y(l_max, x)
    psi = x * jl
    chi = x * yl
    dpsi = jl + x * djl
    dchi = yl + x * dyl
    return psi, dpsi, chi, dchi


def mie_t_coefficients(spec: SphereSpec, k: float, l_max: int):
    """Transition eigenvalues (t_TE[l], t_TM[l]) for l = 1..l_max.

    Matching of tangential fields at the boundary expressed through the
    interior logarithmic derivative; the exterior outgoing function is
    ``xi = psi - j chi``.
    """
    if k <= 0 or not math.isfinite(k):
        raise DomainError(f"wavenumber must be positive, got {k!r}")
    x = k * spec.radius
    psi, dpsi, chi, dchi = _riccati(l_max, x)
    xi = psi - 1j * chi
    dxi = dpsi - 1j * dchi
    sl = slice(1, l_max + 1)
    if spec.material == PEC:
        t_te = -psi[sl] / xi[sl]
        t_tm = -dpsi[sl] / dxi[sl]
        return t_te, t_tm

    n_ref = math.sqrt(spec.eps_r * spec.mu_r)
    eta_rel = math.sqrt(spec.mu_r / spec.eps_r)
    if n_ref == 1.0 and spec.mu_r == 1.0:
        zeros = np.zeros(l_max, dtype=complex)
        return zeros, zeros.copy()
    # interior psi_l'/psi_l = j_{l-1}/j_l - l/x, from swe's downward ratio recurrence
    d1 = 1.0 / _j_ratios(l_max, n_ref * x)[sl] - np.arange(1, l_max + 1) / (n_ref * x)
    t_te = (d1 * psi[sl] - eta_rel * dpsi[sl]) / (eta_rel * dxi[sl] - d1 * xi[sl])
    t_tm = (dpsi[sl] - eta_rel * d1 * psi[sl]) / (eta_rel * d1 * xi[sl] - dxi[sl])
    return t_te, t_tm


def _t_diagonal(spec: SphereSpec, k: float, wave_basis: WaveBasis) -> np.ndarray:
    """The sphere's transition eigenvalue of each wave of the basis, in basis order; the basis
    must satisfy the truncation rule for the sphere's electrical radius (``ResolutionError``)."""
    need = truncation_order(k * spec.radius)
    if wave_basis.l_max < need:
        raise ResolutionError(
            f"basis l_max={wave_basis.l_max} below the truncation rule ({need}) "
            f"for ka={k * spec.radius:.4g}"
        )
    t_te, t_tm = mie_t_coefficients(spec, k, wave_basis.l_max)
    l, tm = wave_basis.l, wave_basis.tm
    return np.where(tm, t_tm[l - 1], t_te[l - 1])


def mie_tmatrix(spec: SphereSpec, k: float, wave_basis: WaveBasis) -> np.ndarray:
    """Diagonal transition matrix of a sphere on the given wave basis, n x n.

    The basis must satisfy the truncation rule for the sphere's electrical
    radius (else ``ResolutionError``); a deliberately compact basis takes
    ``mie_t_coefficients`` instead.
    """
    return np.diag(_t_diagonal(spec, k, wave_basis))


def mie_modeset(spec: SphereSpec, k: float, wave_basis: WaveBasis) -> ModeSet:
    """Characteristic modes of a sphere: diagonal entries with coordinate eigenvectors."""
    t_vals = _t_diagonal(spec, k, wave_basis)
    eye = np.eye(wave_basis.size, dtype=complex)
    order = _mode_order(t_vals, eye, wave_basis)
    a = eye[:, order]
    return ModeSet(s=1.0 + 2.0 * t_vals[order], a=a, f=a.copy(), diagnostics={"solver": "mie"})
