"""Coupling of the dipole backend with a sphere described only by its T-matrix.

A dipole cloud (controllable and background regions) surrounds a sphere
centred at the origin whose scattering enters exclusively through its
diagonal transition matrix.  The coupling operator U4 maps dipole
currents to regular-wave coefficients about the sphere centre.  By the
addition theorem of the dyadic Green function those coefficients are, in
closed form, the outgoing waves evaluated at the dipoles (Chew, *Waves
and Fields in Inhomogeneous Media*, ch. 7), so ``assemble_hybrid`` takes
U4 from one outgoing-wave table at the dipole positions.  The same table,
carried ``quad_margin`` degrees past the basis, gauges the truncation:
each column reports the relative tail of its dipole field's expansion on
a fit sphere between the sphere surface and the nearest dipole.
``assemble_u4`` builds U4 the independent way, by quadrature projection
of sampled dipole fields on that sphere, and measures the same residual.

The sphere plus the background dipoles together form the background.
The hybrid is an assembly variant, not a second engine: folding the
sphere into the impedance matrix (``Z + U4^T T_b1 U4``, readout
``U1 + T_b1 U4``, background offset ``T_b1``) yields a ``BlockImpedance``
that the shared ``transition`` and ``cm_impedance_substructure`` solve
like any dipole scene.  The impedance and scattering routes agree for
lossless scenes to the truncation accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import swe
from .dipoles import (
    BlockImpedance,
    DipoleScene,
    TransitionSet,
    assemble_impedance,
    dyadic_green,
    transition,
)
from .exceptions import GeometryError, ResolutionError
from .mie import SphereSpec, mie_tmatrix
from .modes import ModeSet, cm_impedance_substructure, cm_scattering
from .network import OperatorMatrix
from .swe import WaveBasis


@dataclass(frozen=True)
class HybridScene:
    """Dipole scene around a T-matrix sphere at the global origin.

    ``_sweep_u4`` keeps the U4 expansions ``hybrid_sweep_basis`` made for
    ``assemble_hybrid``, by (k, l_max, r_fit, quad_margin).
    """

    mom_scene: DipoleScene
    sphere: SphereSpec
    _sweep_u4: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mom_scene.ground_plane or self.mom_scene.ports:
            raise GeometryError("hybrid scenes support neither ground planes nor ports")
        if self.clearance <= 0.0:
            raise GeometryError(
                f"all dipoles must lie strictly outside the sphere "
                f"(clearance {self.clearance:.4g} m)"
            )

    @property
    def min_dipole_radius(self) -> float:
        if self.mom_scene.n_dipoles == 0:
            return math.inf
        return float(np.min(np.linalg.norm(self.mom_scene.positions, axis=1)))

    @property
    def clearance(self) -> float:
        return self.min_dipole_radius - self.sphere.radius

    def default_r_fit(self) -> float:
        """Geometric mean of sphere radius and nearest dipole distance."""
        return math.sqrt(self.sphere.radius * self.min_dipole_radius)


#: Degrees past the basis in U4's truncation gauge (and quadrature grid).
QUAD_MARGIN = 8


def default_hybrid_basis(scene: HybridScene, k: float) -> WaveBasis:
    ka = k * max(scene.mom_scene.circumscribing_radius, scene.sphere.radius)
    return swe.basis(swe.truncation_order(ka))


def _checked_r_fit(scene: HybridScene, r_fit: float | None) -> float:
    """``r_fit``, by default ``scene.default_r_fit()``, between the sphere and the nearest dipole."""
    if r_fit is None:
        r_fit = scene.default_r_fit()
    if not scene.sphere.radius < r_fit < scene.min_dipole_radius:
        raise GeometryError(
            f"r_fit={r_fit:.4g} must lie between the sphere surface "
            f"({scene.sphere.radius:.4g}) and the nearest dipole "
            f"({scene.min_dipole_radius:.4g})"
        )
    return r_fit


def u4_expansion(scene: HybridScene, k: float, wave_basis: WaveBasis,
                 r_fit: float | None = None, quad_margin: int = QUAD_MARGIN):
    """Closed-form U4 and its truncation gauge.

    By the addition theorem, the regular-wave coefficients of a unit
    dipole's field at points nearer the origin than the dipole are the
    outgoing waves at the dipole, so column (p, axis) of U4 is the
    outgoing wave table at dipole p along that axis (the sign of
    ``assemble_u4``).  The table runs ``quad_margin`` degrees past
    ``wave_basis``; the waves outside the basis give each column's
    relative tail on the ``r_fit`` sphere, ``sqrt(sum_out |c|^2 N /
    sum_all |c|^2 N)`` with N the squared radial norms there
    (``swe.radial_norms``): the misfit a quadrature projection onto
    ``wave_basis`` measures.

    Returns (U4 data, (n_waves, 3 N) in scene order; column residuals;
    r_fit).
    """
    n = scene.mom_scene.n_dipoles
    if n == 0:
        return np.zeros((wave_basis.size, 0), dtype=complex), np.zeros(0), r_fit
    r_fit = _checked_r_fit(scene, r_fit)
    ext = swe.basis(wave_basis.l_max + quad_margin)
    coeffs = swe.outgoing_wave_table(ext, k, scene.mom_scene.positions).reshape(ext.size, 3 * n)
    power = np.abs(coeffs) ** 2 * swe.radial_norms(ext, k * r_fit)[:, None]
    # position of each (l, m, pol) of wave_basis in the full basis ext:
    # 2 (l^2 - 1) waves precede degree l, then m ascending, TE before TM
    l, m, tm = wave_basis.arrays()
    rows = 2 * (l * l - 1 + m + l) + tm
    tail = np.delete(power, rows, axis=0).sum(axis=0)
    return coeffs[rows], np.sqrt(tail / power.sum(axis=0)), r_fit


def hybrid_sweep_basis(scene: HybridScene, ks, residual_tol: float) -> WaveBasis:
    """One wave basis for a sweep over the wavenumbers ``ks``.

    Starts from the truncation rule at the highest wavenumber and raises
    ``l_max`` by at most ``QUAD_MARGIN`` degrees until the U4 truncation
    gauge (``u4_expansion``) is within ``residual_tol`` at every ``k``;
    the scene keeps that basis's expansions for ``assemble_hybrid``.
    If none is, the truncation rule's basis is returned and
    ``assemble_hybrid`` raises at the points that miss the tolerance.
    """
    start = default_hybrid_basis(scene, max(ks))
    for l_max in range(start.l_max, start.l_max + QUAD_MARGIN + 1):
        wave_basis = swe.basis(l_max)
        expansions = {}
        for k in ks:
            key = (k, l_max, None, QUAD_MARGIN)
            expansions[key] = u4_expansion(scene, k, wave_basis)
            if expansions[key][1].max(initial=0.0) > residual_tol:
                break
        else:
            scene._sweep_u4.update(expansions)
            return wave_basis
    return start


def assemble_u4(scene: HybridScene, k: float, wave_basis: WaveBasis,
                r_fit: float | None = None, quad_margin: int = QUAD_MARGIN,
                residual_tol: float = 1e-6) -> OperatorMatrix:
    """Current-to-regular-wave coupling operator about the sphere centre.

    Column (p, axis) holds minus the regular-wave expansion coefficients
    of that dipole's field, sampled on a quadrature sphere of radius
    ``r_fit`` (sphere_radius < r_fit < nearest dipole) and projected with
    ``project_onto_regular``; the sign matches the outgoing readout
    convention ``f = -U1 I``.  ``meta['column_residuals']`` reports the
    per-column projection misfit; exceeding ``residual_tol`` raises.
    """
    scn = scene.mom_scene
    n = scn.n_dipoles
    if n == 0:
        return OperatorMatrix("projection", np.zeros((wave_basis.size, 0), dtype=complex),
                              wave_basis, meta={"column_residuals": np.zeros(0)})
    r_fit = _checked_r_fit(scene, r_fit)

    l_max = wave_basis.l_max
    pts, w = swe.sphere_quadrature(l_max, radius=r_fit,
                                   polar_nodes=l_max + 1 + quad_margin,
                                   azimuth_nodes=2 * (l_max + quad_margin) + 1)
    # per-unit-current dipole fields at the grid, in incident-wave units
    g = dyadic_green(k, pts, scn.positions)        # (P, N, 3, 3)
    vals = (-1j / k) * g.transpose(0, 2, 1, 3).reshape(pts.shape[0], 3, 3 * n)
    table = swe.regular_wave_table(wave_basis, k, pts)
    coeffs, residuals = swe.project_onto_regular(pts, vals, w, k, wave_basis, table=table)
    if np.any(residuals > residual_tol):
        raise ResolutionError(
            f"U4 projection residual {residuals.max():.3e} exceeds {residual_tol:.1e}; "
            "increase the basis, the fit radius margin, or the clearance"
        )
    return OperatorMatrix("projection", -coeffs, wave_basis,
                          meta={"column_residuals": residuals, "r_fit": r_fit})


@dataclass
class HybridSystem:
    """Hybrid impedance blocks with the sphere folded in, and the coupling U4.

    ``blocks`` holds ``Z + U4^T T_b1 U4`` and the complex readout
    ``U1 + T_b1 U4`` (background unknowns first), with the sphere's
    ``T_b1`` as background transition offset; ``U4`` is in system order.
    """

    blocks: BlockImpedance
    U4: OperatorMatrix

    @property
    def basis(self) -> WaveBasis:
        return self.blocks.basis


def assemble_hybrid(scene: HybridScene, k: float,
                    wave_basis: WaveBasis | None = None,
                    r_fit: float | None = None,
                    quad_margin: int = QUAD_MARGIN,
                    residual_tol: float = 1e-6) -> HybridSystem:
    """Impedance system of the dipole cloud with the sphere folded in.

    U4 is the closed form of ``u4_expansion``: one outgoing-wave table at
    the dipoles, ``quad_margin`` degrees past ``wave_basis``.  Its
    ``meta['column_residuals']`` is the truncation gauge on the ``r_fit``
    sphere (default ``scene.default_r_fit()``), the same quantity the
    quadrature ``assemble_u4`` measures; a column above ``residual_tol``
    raises ``ResolutionError``, an ``r_fit`` outside the clearance
    ``GeometryError``.  An expansion ``hybrid_sweep_basis`` kept is used once.
    """
    if wave_basis is None:
        wave_basis = default_hybrid_basis(scene, k)
    u4, residuals, r_fit = scene._sweep_u4.pop((k, wave_basis.l_max, r_fit, quad_margin), None) \
        or u4_expansion(scene, k, wave_basis, r_fit=r_fit, quad_margin=quad_margin)
    if np.any(residuals > residual_tol):
        raise ResolutionError(
            f"U4 truncation residual {residuals.max():.3e} exceeds {residual_tol:.1e}; "
            "increase the basis or the clearance"
        )
    blocks = assemble_impedance(scene.mom_scene, k, wave_basis)
    tb1 = mie_tmatrix(scene.sphere, k, wave_basis).data
    u4_sys = u4[:, blocks.perm]
    hybrid = blocks.with_system(blocks.Z + u4_sys.T @ tb1 @ u4_sys,
                                blocks.U1 + tb1 @ u4_sys, T_b0=tb1)
    return HybridSystem(blocks=hybrid, U4=OperatorMatrix(
        "projection", u4_sys, wave_basis,
        meta={"column_residuals": residuals[blocks.perm], "r_fit": r_fit}))


def hybrid_transition(scene: HybridScene, k: float,
                      wave_basis: WaveBasis | None = None,
                      system: HybridSystem | None = None) -> TransitionSet:
    """Composite and background transition/scattering operators.

    The composite couples all dipoles with the sphere; the background
    keeps only the background dipoles plus the sphere.
    """
    if system is None:
        system = assemble_hybrid(scene, k, wave_basis)
    return transition(blocks=system.blocks)


def hybrid_scattering_modes(scene: HybridScene, k: float,
                            wave_basis: WaveBasis | None = None,
                            system: HybridSystem | None = None,
                            n_modes: int | None = None) -> ModeSet:
    """Substructure modes from the hybrid scattering operators.

    ``cm_scattering`` on the range of ``S - S_b``, which the controllable
    dipoles span, fed by the hybrid blocks' solves (the sphere's ``T_b1``
    enters as a matrix product).  The unitarity of S and S_b is checked
    on the dense matrices (``scattering_unitarity``).  Without
    ``n_modes`` it returns the r modes of that range, at most three per
    controllable dipole, not one per wave; a larger ``n_modes`` pads them
    with ``s = 1`` modes, as there.
    """
    return cm_scattering(hybrid_transition(scene, k, wave_basis, system=system),
                         k=k, n_modes=n_modes)


def hybrid_impedance_modes(scene: HybridScene, k: float,
                           wave_basis: WaveBasis | None = None,
                           system: HybridSystem | None = None) -> ModeSet:
    """Substructure modes from the sphere-augmented impedance matrix.

    ``cm_impedance_substructure`` on the hybrid blocks: the background
    dipoles are Schur-eliminated from the modified matrix and the real
    symmetric pencil of the compressed reactance against the compressed
    resistance is solved.  Adds the largest U4 truncation residual to
    the diagnostics.
    """
    if system is None:
        system = assemble_hybrid(scene, k, wave_basis)
    ms = cm_impedance_substructure(system.blocks, k=k)
    ms.diagnostics["solver"] = "hybrid-" + ms.diagnostics["solver"]
    ms.diagnostics["u4_residual"] = float(
        np.max(system.U4.meta["column_residuals"], initial=0.0))
    return ms
