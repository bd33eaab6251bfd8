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
from scipy.special import spherical_jn, spherical_yn

from .exceptions import DomainError, ResolutionError
from .modes import ModeSet, _mode_order
from .network import OperatorMatrix
from .swe import WaveBasis, truncation_order

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
        if self.material == DIELECTRIC:
            if self.eps_r < 1.0 or self.mu_r <= 0.0:
                raise DomainError("dielectric needs real eps_r >= 1 and mu_r > 0")


def _log_derivative(l_max: int, x: float) -> np.ndarray:
    """Logarithmic derivative D_l(x) = psi_l'(x)/psi_l(x) by downward recurrence.

    Seeded far above l_max so the recursion has converged by l = l_max;
    stable for every real argument, including large l * x.
    """
    n_start = l_max + max(15, int(1.2 * abs(x))) + 2
    d = 0.0
    out = np.zeros(l_max + 1)
    for n in range(n_start, 0, -1):
        d = n / x - 1.0 / (d + n / x)
        if n - 1 <= l_max:
            out[n - 1] = d
    return out


def _riccati(l_max: int, x: float):
    """Riccati-Bessel psi, chi and derivatives for l = 0..l_max at real x."""
    ls = np.arange(l_max + 1)
    jl = spherical_jn(ls, x)
    yl = spherical_yn(ls, x)
    djl = spherical_jn(ls, x, derivative=True)
    dyl = spherical_yn(ls, x, derivative=True)
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
    d1 = _log_derivative(l_max, n_ref * x)[sl]
    t_te = (d1 * psi[sl] - eta_rel * dpsi[sl]) / (eta_rel * dxi[sl] - d1 * xi[sl])
    t_tm = (dpsi[sl] - eta_rel * d1 * psi[sl]) / (eta_rel * d1 * xi[sl] - dxi[sl])
    return t_te, t_tm


def mie_tmatrix(spec: SphereSpec, k: float, wave_basis: WaveBasis,
                enforce_truncation: bool = True) -> OperatorMatrix:
    """Diagonal transition matrix of a sphere on the given wave basis.

    By default the basis must satisfy the truncation rule for the
    sphere's electrical radius; ``enforce_truncation=False`` permits a
    deliberately compact basis (e.g. a small background embedded into a
    larger composite basis).
    """
    need = truncation_order(k * spec.radius)
    if enforce_truncation and wave_basis.l_max < need:
        raise ResolutionError(
            f"basis l_max={wave_basis.l_max} below the truncation rule ({need}) "
            f"for ka={k * spec.radius:.4g}"
        )
    t_te, t_tm = mie_t_coefficients(spec, k, wave_basis.l_max)
    l, _, tm = wave_basis.arrays()
    return OperatorMatrix("T", np.diag(np.where(tm, t_tm[l - 1], t_te[l - 1])), wave_basis)


def mie_modeset(spec: SphereSpec, k: float, wave_basis: WaveBasis) -> ModeSet:
    """Characteristic modes of a sphere: diagonal entries with coordinate eigenvectors."""
    t_op = mie_tmatrix(spec, k, wave_basis)
    t_vals = np.diag(t_op.data).copy()
    dim = wave_basis.size
    eye = np.eye(dim, dtype=complex)
    order = _mode_order(t_vals, eye, wave_basis)
    a = eye[:, order]
    return ModeSet(s=1.0 + 2.0 * t_vals[order], a=a, f=a.copy(), k=k,
                   basis=wave_basis, diagnostics={"solver": "mie"})
