"""Coupling of the dipole backend with a sphere described only by its T-matrix.

A dipole cloud (controllable and background regions) surrounds a sphere
centred at the origin whose scattering enters exclusively through its
diagonal transition matrix.  The coupling operator U4 maps dipole
currents to regular-wave coefficients about the sphere centre.  By the
addition theorem of the dyadic Green function those coefficients are, in
closed form, the outgoing waves evaluated at the dipoles (Chew, *Waves
and Fields in Inhomogeneous Media*, ch. 7), so ``u4_expansion`` takes
U4 from one outgoing-wave table at the dipole positions.  The same table,
carried ``QUAD_MARGIN`` degrees past the basis, gauges the truncation:
each column reports the relative tail of its dipole field's expansion on
a fit sphere between the sphere surface and the nearest dipole.
``assemble_u4`` builds U4 the independent way, by quadrature projection
of sampled dipole fields on that sphere, and measures the same residual.

The sphere is a field of the scene (``DipoleScene.sphere``); it and the
background dipoles together form the background.  The hybrid is an
assembly variant, not a second engine: ``sphere_fold`` gates a point's U4
and pairs it with the sphere's Mie coefficients t1 (the diagonal of
``T_b1``), which ``dipoles.transition`` folds into the scene's one
``BlockImpedance`` (``Z + U4^T T_b1 U4``, readout ``U1 + T_b1 U4``,
background offset t1).  ``hybrid_sweep_basis`` sizes one basis for a
sweep and makes each point's U4 expansion; ``assemble_hybrid`` is the
one-point front.  The impedance and scattering routes agree for lossless
scenes to the truncation accuracy.
"""

from __future__ import annotations

import math

import numpy as np

from . import swe
from .dipoles import (BlockImpedance, DipoleScene, _check_wavenumber, default_basis,
                      dyadic_green, transition)
from .dipoles import assemble_impedance  # noqa: F401 (traced by perfbench/child.py)
from .exceptions import GeometryError, ResolutionError
from .mie import _t_diagonal
from .mie import mie_tmatrix  # noqa: F401 (traced by perfbench/child.py)
from .modes import ModeSet, cm_impedance_substructure
from .swe import WaveBasis


#: Degrees past the basis in U4's truncation gauge (and quadrature grid).
QUAD_MARGIN = 8


def _checked_r_fit(scene: DipoleScene, r_fit: float | None) -> float:
    """``r_fit``, by default the geometric mean of the sphere radius and the nearest dipole
    distance, between the sphere and the nearest dipole."""
    if r_fit is None:
        r_fit = math.sqrt(scene.sphere.radius * scene.min_dipole_radius)
    if not scene.sphere.radius < r_fit < scene.min_dipole_radius:
        raise GeometryError(
            f"r_fit={r_fit:.4g} must lie between the sphere surface "
            f"({scene.sphere.radius:.4g}) and the nearest dipole "
            f"({scene.min_dipole_radius:.4g})"
        )
    return r_fit


def u4_expansion(scene: DipoleScene, k: float, wave_basis: WaveBasis,
                 r_fit: float | None = None, angular: swe.AngularFactors | None = None):
    """Closed-form U4 and its truncation gauge.

    By the addition theorem, the regular-wave coefficients of a unit
    dipole's field at points nearer the origin than the dipole are the
    outgoing waves at the dipole, so column (p, axis) of U4 is the
    outgoing wave table at dipole p along that axis (the sign of
    ``assemble_u4``).  The table runs ``QUAD_MARGIN`` degrees past
    ``wave_basis``; the waves outside the basis give each column's
    relative tail on the ``r_fit`` sphere, ``sqrt(sum_out |c|^2 N /
    sum_all |c|^2 N)`` with N the squared radial norms there
    (``swe.radial_norms``): the misfit a quadrature projection onto
    ``wave_basis`` measures.  ``angular`` (by default built here) are the
    angular factors at the dipoles in system order of a basis that
    ``basis(wave_basis.l_max + QUAD_MARGIN)`` leads.

    Returns (U4 data, (n_waves, 3 N) in system order; column residuals;
    r_fit).
    """
    n = scene.n_dipoles
    if n == 0:
        return np.zeros((wave_basis.size, 0), dtype=complex), np.zeros(0), r_fit
    _check_wavenumber(scene, k)
    r_fit = _checked_r_fit(scene, r_fit)
    ext = swe.basis(wave_basis.l_max + QUAD_MARGIN)
    pos = scene.positions[scene.system_order]
    if angular is None:
        angular = swe.angular_factors(ext, pos)
    coeffs = swe.wave_table(angular.leading(ext, pos), k, "outgoing").reshape(ext.size, 3 * n)
    # in C order, so the column sums below add the waves one after another
    power = np.multiply(np.abs(coeffs) ** 2, swe.radial_norms(ext, k * r_fit)[:, None], order="C")
    w = wave_basis.size  # wave_basis leads ext, so U4 is its first w rows
    return coeffs[:w].copy(), np.sqrt(power[w:].sum(axis=0) / power.sum(axis=0)), r_fit


def hybrid_sweep_basis(scene: DipoleScene, ks, residual_tol: float):
    """One wave basis for a sweep over the wavenumbers ``ks``, and each point's U4 expansion.

    Starts from ``default_basis`` at the highest wavenumber and raises
    ``l_max`` by at most ``QUAD_MARGIN`` degrees until the U4 truncation
    gauge (``u4_expansion``) is within ``residual_tol`` at every ``k``.
    Returns (basis, angular factors at the dipoles that serve every table of
    the sweep, ``QUAD_MARGIN`` degrees past the largest basis tried, and the
    ``u4_expansion`` at each k, ``sphere_fold``'s ``expansion``).  If no
    basis passes, the truncation rule's is returned with its expansions, and
    ``sphere_fold`` raises at the points that miss the tolerance.
    """
    start = default_basis(scene, max(ks))
    angular = swe.angular_factors(swe.basis(start.l_max + 2 * QUAD_MARGIN),
                                  scene.positions[scene.system_order])
    for l_max in range(start.l_max, start.l_max + QUAD_MARGIN + 1):
        wave_basis = swe.basis(l_max)
        expansions = []
        for k in ks:
            expansions.append(u4_expansion(scene, k, wave_basis, angular=angular))
            if expansions[-1][1].max(initial=0.0) > residual_tol:
                break
        else:
            return wave_basis, angular, expansions
    return start, angular, [u4_expansion(scene, k, start, angular=angular) for k in ks]


def assemble_u4(scene: DipoleScene, k: float, wave_basis: WaveBasis,
                r_fit: float | None = None, residual_tol: float = 1e-6):
    """Current-to-regular-wave coupling operator about the sphere centre.

    Column (p, axis) holds minus the regular-wave expansion coefficients
    of that dipole's field, sampled on a quadrature sphere of radius
    ``r_fit`` (sphere_radius < r_fit < nearest dipole) and projected with
    ``project_onto_regular``; the sign matches the outgoing readout
    convention ``f = -U1 I``.  A column whose projection misfit exceeds
    ``residual_tol`` raises.

    Returns (U4, (n_waves, 3 N) in scene order; column residuals; r_fit),
    as ``u4_expansion`` does.
    """
    n = scene.n_dipoles
    if n == 0:
        return np.zeros((wave_basis.size, 0), dtype=complex), np.zeros(0), r_fit
    r_fit = _checked_r_fit(scene, r_fit)

    l_max = wave_basis.l_max
    pts, w = swe.sphere_quadrature(l_max, radius=r_fit,
                                   polar_nodes=l_max + 1 + QUAD_MARGIN,
                                   azimuth_nodes=2 * (l_max + QUAD_MARGIN) + 1)
    # per-unit-current dipole fields at the grid, in incident-wave units
    g = dyadic_green(k, pts, scene.positions)        # (P, N, 3, 3)
    vals = (-1j / k) * g.transpose(0, 2, 1, 3).reshape(pts.shape[0], 3, 3 * n)
    table = swe.regular_wave_table(wave_basis, k, pts)
    coeffs, residuals = swe.project_onto_regular(pts, vals, w, k, wave_basis, table=table)
    if np.any(residuals > residual_tol):
        raise ResolutionError(
            f"U4 projection residual {residuals.max():.3e} exceeds {residual_tol:.1e}; "
            "increase the basis, the fit radius margin, or the clearance"
        )
    return -coeffs, residuals, r_fit


def sphere_fold(scene: DipoleScene, k: float, wave_basis: WaveBasis, expansion: tuple,
                residual_tol: float):
    """The sphere's ``fold`` for ``transition`` at one point, ``(U4, t1)``: U4 of ``expansion``
    (``u4_expansion``'s) and the sphere's Mie coefficients t1 on ``wave_basis``.  The U4 gate:
    a column whose truncation residual exceeds ``residual_tol`` raises ``ResolutionError``."""
    u4, residuals, _ = expansion
    if np.any(residuals > residual_tol):
        raise ResolutionError(f"U4 truncation residual {residuals.max():.3e} exceeds "
                              f"{residual_tol:.1e}; increase the basis or the clearance")
    return u4, _t_diagonal(scene.sphere, k, wave_basis)


def assemble_hybrid(scene: DipoleScene, k: float, wave_basis: WaveBasis | None = None,
                    residual_tol: float = 1e-6, expansion: tuple | None = None) -> BlockImpedance:
    """``transition`` of a scene with a sphere, folded in by ``sphere_fold``: its blocks,
    with Z and Z_bb factorised.

    ``wave_basis`` defaults to ``default_basis`` and ``expansion`` to
    ``u4_expansion``'s at the default fit radius; a U4 column above
    ``residual_tol`` raises ``ResolutionError``, a singular system
    ``SolveError``.
    """
    if scene.sphere is None:
        raise GeometryError("assemble_hybrid needs a scene with a sphere; use transition")
    wave_basis = default_basis(scene, k) if wave_basis is None else wave_basis
    expansion = expansion or u4_expansion(scene, k, wave_basis)
    return transition(scene, k, wave_basis,
                      fold=sphere_fold(scene, k, wave_basis, expansion, residual_tol))


def hybrid_impedance_modes(scene: DipoleScene, k: float, wave_basis: WaveBasis | None = None,
                           expansion: tuple | None = None) -> ModeSet:
    """``cm_impedance_substructure`` on the ``assemble_hybrid`` blocks, with the largest U4
    truncation residual of ``expansion`` (by default ``u4_expansion``'s) in its diagnostics."""
    wave_basis = default_basis(scene, k) if wave_basis is None else wave_basis
    expansion = expansion or u4_expansion(scene, k, wave_basis)
    ms = cm_impedance_substructure(assemble_hybrid(scene, k, wave_basis, expansion=expansion))
    ms.diagnostics["solver"] = "hybrid-" + ms.diagnostics["solver"]
    ms.diagnostics["u4_residual"] = float(np.max(expansion[1], initial=0.0))
    return ms
