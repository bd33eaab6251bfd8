"""Coupled-dipole volumetric MoM backend.

A scatterer is a cloud of point polarisable dipoles interacting through
the free-space dyadic Green function.  The diagonal of the impedance
matrix carries the exact radiative-reaction correction, so every
assembled scene is lossless by construction: ``Re Z = U1^T U1`` with a
real projection matrix U1 whose rows sample the regular spherical
waves at the dipole positions.  Consequently ``S = I + 2 T`` with
``T = -U1 Z^-1 U1^T`` is unitary to rounding.  ``assemble_impedance``
also assembles ground-plane scenes (by the image-reduced system), port
scenes (terminated, with one power-wave channel per port) and scenes with
a sphere, all into one ``BlockImpedance``, so every engine serves them all.

Impedances are expressed in free-space-impedance units; port reference
impedances given in Ohm are divided by eta_0 on entry.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg as la
from scipy.linalg import blas

from . import swe
from .exceptions import DomainError, GeometryError, ShapeError, SolveError
from .network import _hermitian_norm
from .swe import WaveBasis

if TYPE_CHECKING:  # mie imports modes, which imports this module
    from .mie import SphereSpec

#: free-space wave impedance, Ohm
ETA0 = 376.730313668

#: vector mirror for the z = 0 plane
_MIRROR = np.diag([1.0, 1.0, -1.0])

CONTROLLABLE = "controllable"
BACKGROUND = "background"

_AXES = {"x": 0, "y": 1, "z": 2, 0: 0, 1: 1, 2: 2}


@dataclass(frozen=True)
class Port:
    """Power-wave port in series with one dipole axis."""

    element: int
    axis: int
    z0: float

    def __post_init__(self):
        object.__setattr__(self, "axis", _AXES[self.axis])
        if self.z0 <= 0 or not math.isfinite(self.z0):
            raise DomainError(f"port reference impedance z0 must be positive, got {self.z0}")


def valid_polarizability(alpha: np.ndarray) -> np.ndarray:
    """Whether each 3x3 tensor of alpha (..., 3, 3) is what a polarisability must be: symmetric,
    to rounding, and positive definite with a finite inverse (its eigenvalues above 1 over the
    largest float); a boolean array of shape alpha.shape[:-2]."""
    return np.isclose(alpha, np.swapaxes(alpha, -1, -2), rtol=1e-12, atol=0.0).all(axis=(-2, -1)) \
        & (np.linalg.eigvalsh(alpha) > 1.0 / np.finfo(float).max).all(axis=-1)


@dataclass(frozen=True)
class DipoleScene:
    """Dipole cloud: positions (m), static polarisabilities (m^3), region labels.

    ``polarizability`` may be a scalar, per-dipole scalars, one 3x3
    tensor, or per-dipole 3x3 tensors; it is broadcast to (N, 3, 3)
    symmetric positive definite with finite inverses.  ``region`` defaults
    to all controllable.  With ``ground_plane`` set the plane z = 0 is a PEC
    mirror and all dipoles must sit strictly above it.  ``min_distance``
    is the shortest distance the Green function is evaluated at (dipole to
    dipole or image; infinite for one dipole in free space).  ``sphere`` is
    a sphere at the origin known only by its Mie T-matrix, strictly inside
    every dipole, in a scene without a ground plane (whose background would
    be the sphere and its image); ``assemble_impedance`` folds it in.
    """

    positions: np.ndarray
    polarizability: np.ndarray
    region: tuple[str, ...] = None
    ports: tuple[Port, ...] = ()
    ground_plane: bool = False
    sphere: SphereSpec | None = None
    min_distance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.size == 0:
            pos = pos.reshape(0, 3)
        else:
            pos = np.atleast_2d(pos)
            if pos.ndim != 2 or pos.shape[1] != 3:
                raise ShapeError(f"positions must be (N, 3), got {pos.shape}")
        n = pos.shape[0]
        min_distance = math.inf
        if n > 1:
            i, j = np.triu_indices(n, 1)
            min_distance = float(np.linalg.norm(pos[i] - pos[j], axis=-1).min())
            if min_distance <= 0.0:
                raise GeometryError("dipole positions must be pairwise distinct")
        object.__setattr__(self, "positions", pos)

        alpha = np.asarray(self.polarizability, dtype=float)
        if alpha.ndim == 0:
            alpha = np.tile(alpha * np.eye(3), (n, 1, 1))
        elif alpha.shape == (n,):
            alpha = alpha[:, None, None] * np.eye(3)[None]
        elif alpha.shape == (3, 3):
            alpha = np.tile(alpha, (n, 1, 1))
        elif alpha.shape != (n, 3, 3):
            raise ShapeError(f"polarizability shape {alpha.shape} not broadcastable to ({n}, 3, 3)")
        if not valid_polarizability(alpha).all():
            raise DomainError("polarizability tensors must be symmetric positive definite "
                              "with a finite inverse")
        object.__setattr__(self, "polarizability", alpha)

        region = self.region
        if region is None:
            region = (CONTROLLABLE,) * n
        region = tuple(region)
        if len(region) != n or any(r not in (CONTROLLABLE, BACKGROUND) for r in region):
            raise DomainError("region labels must be 'controllable'/'background', one per dipole")
        object.__setattr__(self, "region", region)

        ports = tuple(self.ports)
        for p in ports:
            if not 0 <= p.element < n:
                raise DomainError(f"port references dipole {p.element} outside the scene")
            if region[p.element] != CONTROLLABLE:
                raise DomainError("port elements must belong to the controllable region")
        object.__setattr__(self, "ports", ports)

        if self.ground_plane:
            if np.any(pos[:, 2] <= 0.0):
                raise GeometryError("with a ground plane all dipoles must have z > 0")
            if ports:
                raise GeometryError("ports are not supported together with a ground plane")
            min_distance = min(min_distance, 2.0 * float(pos[:, 2].min()))
        object.__setattr__(self, "min_distance", min_distance)

        if self.sphere is not None and self.ground_plane:
            raise GeometryError("a sphere cannot sit above a ground plane: its image joins it")
        if self.sphere is not None and self.min_dipole_radius <= self.sphere.radius:
            raise GeometryError(f"all dipoles must lie strictly outside the sphere (clearance "
                                f"{self.min_dipole_radius - self.sphere.radius:.4g} m)")

    @property
    def n_dipoles(self) -> int:
        return self.positions.shape[0]

    @property
    def is_controllable(self) -> np.ndarray:
        return np.array([r == CONTROLLABLE for r in self.region], dtype=bool)

    @property
    def system_order(self) -> np.ndarray:
        """Dipole indices in system order: the background's first, each region in scene order."""
        ctrl = self.is_controllable
        return np.concatenate([np.flatnonzero(~ctrl), np.flatnonzero(ctrl)])

    @property
    def circumscribing_radius(self) -> float:
        """Radius about the origin of the smallest sphere holding every dipole and the sphere."""
        radius = 0.0 if self.sphere is None else self.sphere.radius
        return float(np.max(np.linalg.norm(self.positions, axis=1), initial=radius))

    @property
    def min_dipole_radius(self) -> float:
        """Distance from the origin to the nearest dipole (infinite without dipoles)."""
        return float(np.min(np.linalg.norm(self.positions, axis=1), initial=math.inf))


def mirror_scene(scene: DipoleScene) -> DipoleScene:
    """Explicit free-space image scene for a ground-plane scene.

    Appends, for every dipole, its mirror image below z = 0 with the
    reflected polarisability tensor: the brute-force oracle of the
    image-reduced ground-plane assembly.
    """
    if not scene.ground_plane:
        raise GeometryError("mirror_scene expects a scene with the ground_plane flag")
    pos_img = scene.positions @ _MIRROR
    alpha_img = np.einsum("ij,njk,kl->nil", _MIRROR, scene.polarizability, _MIRROR)
    return DipoleScene(
        positions=np.vstack([scene.positions, pos_img]),
        polarizability=np.concatenate([scene.polarizability, alpha_img]),
        region=scene.region + scene.region,
        ports=(),
        ground_plane=False,
    )


def _green_terms(k: float, diff: np.ndarray):
    """``(sc, t1, t2, u)`` of ``G = sc (t1 I + t2 u u^T)`` at separation vectors diff (..., 3)."""
    x, y, z = np.moveaxis(diff, -1, 0)
    d = np.sqrt((x**2 + y**2) + z**2)  # np.linalg.norm's sum, in its order, without its copies
    if np.any(d == 0.0):
        raise GeometryError("dyadic Green function evaluated at coincident points")
    kr = k * d
    return (np.exp(-1j * kr) / (4.0 * np.pi * d), 1.0 - 1j / kr - 1.0 / kr**2,
            -1.0 + 3j / kr + 3.0 / kr**2, diff / d[..., None])


def _green_component(k: float, terms, a: int, b: int) -> np.ndarray:
    """Component (a, b) of ``(j/k) G`` from ``_green_terms``, bit for bit as in ``dyadic_green``."""
    sc, t1, t2, u = terms
    g = t2 * (u[..., a] * u[..., b])
    return (1j / k) * (sc * (t1 + g if a == b else g))


def dyadic_green(k: float, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Free-space dyadic Green function blocks between two point sets.

    Returns (N1, N2, 3, 3) complex with exp(-jkR)/(4 pi R) radial
    dependence (time convention exp(+j w t)).  Coincident points are not
    allowed.
    """
    a = np.atleast_2d(np.asarray(r1, dtype=float))
    b = np.atleast_2d(np.asarray(r2, dtype=float))
    sc, t1, t2, u = _green_terms(k, a[:, None, :] - b[None, :, :])
    uu = u[..., :, None] * u[..., None, :]
    return sc[..., None, None] * (t1[..., None, None] * np.eye(3) + t2[..., None, None] * uu)


@dataclass
class BlockImpedance:
    """System matrix and readout of one scene, background unknowns first.

    The scene and its background have the transition matrices
    ``T = diag(T_b0) - U1 Z^-1 U1^T`` and ``T_b = diag(T_b0) - U1_b Z_bb^-1
    U1_b^T``; every engine works on Z and U1, whatever the scene kind:

    - dipole scenes: U1 is real and ``T_b0`` is None (zero);
    - ground-plane scenes: the same, with Z and U1 image-reduced to the
      3N unknowns of the dipoles above the plane (``assemble_impedance``),
      so U1's rows of the parity-forbidden waves are exactly 0;
    - port scenes: Z holds each port's ``z0`` on its unknown's diagonal
      entry and U1 carries one ``sqrt(z0)`` row per port under the wave
      rows: the port channels are U1's rows past ``basis.size``;
    - scenes with a sphere (``assemble_impedance``'s ``fold``): Z holds the
      sphere coupling ``U4^T T_b1 U4``, U1 is the complex readout ``U1 +
      T_b1 U4`` and ``T_b0`` the sphere's Mie coefficients t1, the diagonal
      of ``T_b1``, 0 on any port channels.

    ``system`` (Z) and ``readout`` (U1) are kept read-only, in system
    order and in column order: the first ``n_b`` unknowns are the
    background's.  ``Z_bb``, ``Z_bc``, ``Z_cb``, ``Z_cc``, ``U1_b`` and
    ``U1_c`` are views of them, ``U1_b`` and ``U1_c`` contiguous; a caller
    that modifies Z or U1 takes its own ``.copy()``.  Z is complex
    symmetric, and lossless scenes satisfy ``Re Z = Re(U1^H U1)`` to
    rounding; ``radiation_defect[0]`` is the relative deviation
    (``factorization_residual``).  ``perm`` maps system rows to flat scene
    unknowns ``3 * dipole + axis`` of the assembled scene.
    ``solve`` and ``solve_bb`` apply ``Z^-1`` and ``Z_bb^-1`` from LU
    factors made (pivot-checked) on first use; ``factorize`` makes them
    at once, so a singular system raises there.

    ``T``, ``T_b``, ``S`` and ``S_b`` are the n x n transition and
    scattering matrices of the scene and its background over U1's rows, the
    waves of ``basis`` and any port channels (``T_b`` is ``diag(T_b0)``
    without background unknowns), built when first read and kept read-only:
    T and T_b are ``apply`` and ``apply_background`` of the identity, and
    each S is ``I + 2 T`` from its kept T, so reading S and T costs one
    solve.  An engine that works on the factors never forms them.  Above a
    ground plane their rows and columns of the parity-forbidden waves are
    those of the identity (S) and of zero (T), exactly.

    Eliminating the background gives the Schur complement ``Z_tilde = Z_cc
    - Z_cb W`` with ``W = Z_bb^-1 Z_bc`` and its readout ``U1_tilde = U1_c
    - U1_b W``; for lossless scenes ``Re Z_tilde = Re(U1_tilde^H
    U1_tilde)``.  The elimination is made once, when one of the two is
    first read; ``solve_tilde`` applies ``Z_tilde^-1``.

    The blocks are their own scattering pencil: ``apply``, ``apply_background``,
    ``apply_sb`` and ``diff`` map a (dim, p) block x to ``T x``, ``T_b x``, ``S_b
    x`` and ``(T - T_b) x = -U1_tilde Z_tilde^-1 U1_tilde^T x`` (eliminating the
    background cancels its offset) through the solves, forming no n x n operator.

    Every factor, operator and elimination is kept by this object only;
    copies made by ``dataclasses.replace`` start without them.
    """

    system: np.ndarray
    readout: np.ndarray
    n_b: int
    basis: WaveBasis
    perm: np.ndarray
    T_b0: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.system.flags.writeable = self.readout.flags.writeable = False

    n_c = property(lambda self: self.system.shape[0] - self.n_b)
    Z_bb = property(lambda self: self.system[:self.n_b, :self.n_b])
    Z_bc = property(lambda self: self.system[:self.n_b, self.n_b:])
    Z_cb = property(lambda self: self.system[self.n_b:, :self.n_b])
    Z_cc = property(lambda self: self.system[self.n_b:, self.n_b:])
    U1_b = property(lambda self: self.readout[:, :self.n_b])
    U1_c = property(lambda self: self.readout[:, self.n_b:])
    dim = property(lambda self: self.readout.shape[0])

    T = property(lambda self: self._operator("T", self.apply))
    T_b = property(lambda self: self._operator("T_b", self.apply_background))
    S = property(lambda self: self._operator("S", lambda eye: eye + 2.0 * self.T))
    S_b = property(lambda self: self._operator("S_b", lambda eye: eye + 2.0 * self.T_b))

    Z_tilde = property(lambda self: self._cached("elimination", self._eliminate)[0])
    U1_tilde = property(lambda self: self._cached("elimination", self._eliminate)[1])

    radiation_defect = property(lambda self: self._cached("defect", lambda: _radiation_defect(
        self.system, self.readout, self.n_b)), doc="``_radiation_defect`` of Z, U1 and n_b.")

    def _cached(self, key: str, build):
        """``build()``, computed on the first call for ``key`` and kept by this object."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``Z^-1 rhs``; raises ``SolveError`` if Z is numerically singular."""
        return self._lu("Z")(rhs)

    def solve_bb(self, rhs: np.ndarray) -> np.ndarray:
        """``Z_bb^-1 rhs``; raises ``SolveError`` if Z_bb is numerically singular."""
        return self._lu("Z_bb")(rhs)

    def solve_tilde(self, rhs: np.ndarray) -> np.ndarray:
        """``Z_tilde^-1 rhs``; raises ``SolveError`` if Z_tilde is numerically singular.

        Without background unknowns Z_tilde is Z, whose factors serve.
        """
        return self._lu("Z" if self.n_b == 0 else "Z_tilde")(rhs)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _t_apply(self.solve, self.readout, self.T_b0, x)

    def apply_background(self, x: np.ndarray) -> np.ndarray:
        return _t_apply(self.solve_bb, self.U1_b, self.T_b0, x)

    def apply_sb(self, x: np.ndarray) -> np.ndarray:
        return x + 2.0 * self.apply_background(x)

    def diff(self, x: np.ndarray) -> np.ndarray:
        u_tilde = self.U1_tilde
        return -u_tilde @ self.solve_tilde(u_tilde.T @ x)

    def factorize(self) -> None:
        """Factorise Z and Z_bb now, so a singular system raises here."""
        self._lu("Z")
        self._lu("Z_bb")

    def _lu(self, which: str):
        if which == "Z":
            return self._cached("lu Z", lambda: _solver(self.system, "system matrix"))
        if which == "Z_bb":
            return self._cached("lu Z_bb", lambda: _solver(self.Z_bb, "background block"))
        return self._cached("lu Z_tilde", lambda: _solver(self.Z_tilde, "compressed impedance"))

    def _operator(self, name: str, action) -> np.ndarray:
        """``action`` of the dim x dim identity, kept read-only under ``name``."""
        def build():
            op = action(np.eye(self.dim, dtype=complex))
            op.flags.writeable = False
            return op
        return self._cached(name, build)

    def _eliminate(self):
        """``(Z_tilde, U1_tilde)``: the Schur elimination of the background unknowns."""
        w = self.solve_bb(self.Z_bc)
        return self.Z_cc - self.Z_cb @ w, self.U1_c - _readout_product(self.U1_b, w)


def factorization_residual(z: np.ndarray, u: np.ndarray) -> float:
    """Relative deviation of Re z from Re(u^H u); zero for an empty system."""
    return _radiation_defect(z, u)[0]


def _radiation_defect(z: np.ndarray, u: np.ndarray, n_lead: int = 0):
    """``(||E||_F / ||Re z||_F, ||E||_F, ||E_ll||_F)`` of ``E = Re(u^H u) - Re z`` and its leading
    ``n_lead`` x ``n_lead`` block E_ll (zeros for an empty system).  z is complex symmetric, so E
    is formed in the upper triangle of one copy of Re z by ``dsyrk`` on scipy's BLAS, which
    reads a column-ordered real u as it is."""
    if z.size == 0:
        return 0.0, 0.0, 0.0
    diff = np.array(z.real, order="F")
    scale = max(float(np.linalg.norm(diff)), 1e-300)
    diff = blas.dsyrk(1.0, u.real, beta=-1.0, c=diff, trans=1, overwrite_c=1)
    if np.iscomplexobj(u):
        diff = blas.dsyrk(1.0, u.imag, beta=1.0, c=diff, trans=1, overwrite_c=1)
    defect = _hermitian_norm(diff)
    return defect / scale, defect, _hermitian_norm(diff[:n_lead, :n_lead]) if n_lead else 0.0


def default_basis(scene: DipoleScene, k: float) -> WaveBasis:
    """Truncation-rule basis at the circumscribing radius (mirror images share it)."""
    ka = k * scene.circumscribing_radius
    l_max = 1 if ka == 0.0 else swe.truncation_order(ka)
    return swe.basis(l_max)


#: i < j dipole pairs per Green evaluation in ``assemble_impedance``
_PAIR_CHUNK = 4096


def _check_wavenumber(scene: DipoleScene, k: float) -> None:
    """``DomainError``, and no floating-point warning, unless k > 0 is finite and so are
    the Green terms ``1/k^3`` and ``1/(k d)^2``, d the scene's ``min_distance``, and the
    bound ``1/(k^3 a)`` of the self terms ``alpha^-1/k^3``, a the smallest eigenvalue of
    any polarisability."""
    if k <= 0 or not math.isfinite(k):
        raise DomainError(f"wavenumber must be positive and finite, got {k!r}")
    smallest = np.linalg.eigvalsh(scene.polarizability).min(initial=math.inf)
    with np.errstate(all="ignore"):
        scales = 1.0 / (np.array([k, k * scene.min_distance, k]) ** [3, 2, 3] * [1, 1, smallest])
    if not np.isfinite(scales).all():
        raise DomainError(
            f"wavenumber k={float(k)!r} is too small: 1/k^3, 1/(k d)^2 or 1/(k^3 a) overflows "
            f"(d = {scene.min_distance:.4g} m, the closest dipole or image distance; "
            f"a = {smallest:.4g} m^3, the smallest polarizability eigenvalue)")


def assemble_impedance(scene: DipoleScene, k: float,
                       wave_basis: WaveBasis | None = None,
                       angular: swe.AngularFactors | None = None,
                       fold: tuple | None = None) -> BlockImpedance:
    """Assemble the block impedance system and wave readout of a scene.

    Off-diagonal 3x3 blocks are ``(j/k) G`` with the free-space dyadic
    Green function G; diagonal blocks carry the inverse static
    polarisability with the exact radiative correction ``I/(6 pi)`` that
    makes each dipole, and hence the scene, lossless.
    Z is complex symmetric: G is evaluated on the pairs i < j only, each
    component written at its two places in Z, which is in column order.

    Above a ground plane the image of a current I is ``-M I`` with ``M =
    diag(1, 1, -1)``, so the mirrored scene's 6N system (``mirror_scene``)
    reduces exactly to 3N unknowns by ``P = [I; -M] / sqrt(2)``: Z is ``P^T
    Z P = Z_oo - Z_oi M`` and U1 is ``U1 P``.  Each block of Z then also
    holds its image term ``-(j/k) G(r_i - M r_j) M``, whose transpose is
    the (j, i) one, so the self-images go on the diagonal and the pairs i <
    j are evaluated once.  A wave of parity s has ``-M v(M r) = s v(r)``,
    so U1 is ``sqrt(2)`` times the table at the dipoles on the
    parity-allowed waves and exactly 0 on the forbidden ones.  The
    unknowns are ``sqrt(2)`` times the currents of the dipoles above the
    plane.

    Each lumped power-wave port adds its reference impedance ``z0 / eta0``
    in series on its dipole axis's diagonal entry and one channel: a
    readout row ``sqrt(z0 / eta0)`` at that unknown, stacked under the wave
    rows, which keeps ``Re Z = U1^T U1`` exact and S unitary for these
    lossless scenes.  ``basis`` stays ``wave_basis``: the port channels are
    the readout rows past its size.  Port elements are controllable, so S_b
    acts as the identity on the port channels.

    A scene's ``sphere`` is folded in after the port loads by ``fold``, the
    point's ``(U4, t1)`` from ``hybrid``, both 0 on the port channels: Z
    gains ``U4^T T_b1 U4`` in place, U1 becomes ``U1 + T_b1 U4`` and
    ``T_b0`` t1.  A sphere without its fold, or a fold without a sphere,
    raises ``GeometryError``.  The under-resolution warning tests the
    returned blocks' ``radiation_defect``, for every scene kind: a lossless
    sphere has ``Re t1 = -|t1|^2``, so the fold leaves ``Re(U1^H U1) - Re Z``
    as it was, in exact arithmetic.

    U1 is ``wave_table``'s column-ordered view, from ``angular`` (by default
    built here): the angular factors of a basis ``wave_basis`` leads, at
    ``scene.positions[scene.system_order]``.
    A k whose Green terms overflow raises ``DomainError`` before any is made.
    """
    if (fold is None) != (scene.sphere is None):
        raise GeometryError("a sphere goes with its fold, which hybrid.assemble_hybrid makes")
    _check_wavenumber(scene, k)
    if wave_basis is None:
        wave_basis = default_basis(scene, k)

    order = scene.system_order
    pos = scene.positions[order]
    n = scene.n_dipoles
    z = np.empty((3 * n, 3 * n), dtype=complex, order="F")
    flat = z.T.reshape(-1)  # z.T is C-ordered: flat[3 n r + c] is Z[c, r]
    gi, gj = np.triu_indices(n, 1)
    for s in range(0, gi.size, _PAIR_CHUNK):
        i, j = gi[s:s + _PAIR_CHUNK], gj[s:s + _PAIR_CHUNK]
        ij, ji = 3 * (3 * n * i + j), 3 * (3 * n * j + i)
        direct = _green_terms(k, pos[i] - pos[j])
        image = _green_terms(k, pos[i] - pos[j] @ _MIRROR) if scene.ground_plane else None
        for a, b in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)) if image is None \
                else np.ndindex(3, 3):  # M breaks the symmetry of the image term
            g = _green_component(k, direct, a, b)
            if image is not None:  # minus (j/k) G(r_i - M r_j) M
                g = g - _MIRROR[b, b] * _green_component(k, image, a, b)
            flat[ij + (3 * n * a + b)] = flat[ji + (3 * n * b + a)] = g  # Z[3j+b, 3i+a] and back
            if image is None and a != b:
                flat[ij + (3 * n * b + a)] = flat[ji + (3 * n * a + b)] = g
    diag = np.eye(3) / (6.0 * np.pi) - 1j * np.linalg.inv(scene.polarizability[order]) / k**3
    if scene.ground_plane:  # minus (j/k) G(r_i - M r_i) M
        image = _green_terms(k, pos - pos @ _MIRROR)
        for a, b in np.ndindex(3, 3):
            diag[:, a, b] -= _MIRROR[b, b] * _green_component(k, image, a, b)
    # through z.T the diagonal blocks go in transposed: alpha^-1 need not be exactly symmetric
    z.T.reshape(n, 3, n, 3)[range(n), :, range(n)] = diag.transpose(0, 2, 1)
    if angular is None:
        angular = swe.angular_factors(wave_basis, pos)
    u = swe.wave_table(angular.leading(wave_basis, pos), k).reshape(wave_basis.size, 3 * n)
    if scene.ground_plane:
        u *= np.where(swe.mirror_parity(wave_basis) > 0, math.sqrt(2.0), 0.0)[:, None]
    perm = (3 * order[:, None] + np.arange(3)).ravel()
    ports = scene.ports
    if ports:
        rows = np.argsort(perm)[[3 * p.element + p.axis for p in ports]]
        z0 = np.array([p.z0 for p in ports]) / ETA0
        np.add.at(z, (rows, rows), z0)
        u = np.pad(u, ((0, len(ports)), (0, 0)))  # in u's column order
        u[wave_basis.size + np.arange(len(ports)), rows] = np.sqrt(z0)
    u4, t1 = fold or (None, None)
    if fold is not None:
        z += (u4.T * t1) @ u4
        t1 = np.pad(t1, (0, len(ports)))  # the port channels see no sphere
        u = np.add(u, t1[:, None] * np.pad(u4, ((0, len(ports)), (0, 0))), order="F")
    blocks = BlockImpedance(system=z, readout=u, perm=perm, T_b0=t1, basis=wave_basis,
                            n_b=3 * int(np.count_nonzero(~scene.is_controllable)))
    if blocks.radiation_defect[0] > 1e-6:
        warnings.warn(f"wave basis l_max={wave_basis.l_max} under-resolves the scene: "
                      f"radiation factorization residual {blocks.radiation_defect[0]:.2e}",
                      stacklevel=2)
    return blocks


def _solver(z: np.ndarray, what: str):
    """``rhs -> z^-1 rhs`` from the LU factors of z, after a pivot-ratio singularity check."""
    if z.shape[0] == 0:
        return lambda rhs: np.zeros((0,) + rhs.shape[1:], dtype=complex)
    try:
        lu, piv = la.lu_factor(z)
    except ValueError:  # lu_factor's finiteness check
        raise SolveError(f"{what} has inf or NaN entries") from None
    diag = np.abs(np.diag(lu))
    if diag.min() <= 1e-14 * diag.max():
        cond = np.linalg.cond(z)
        raise SolveError(f"{what}: matrix numerically singular (cond ~ {cond:.3e})")
    return lambda rhs: la.lu_solve((lu, piv), rhs)


def _readout_product(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``u @ x``; a real u times a complex x is one real GEMM on x's interleaved float view
    (numpy's mixed product would copy u to complex and run a complex GEMM), on scipy's BLAS
    as ``(flat^T u^T)^T``: flat and a C- or F-ordered u go in uncopied, the product comes out
    in C order."""
    if np.iscomplexobj(u) or not np.iscomplexobj(x) or x.size == 0:
        return u @ x
    flat = np.ascontiguousarray(x if x.ndim == 2 else x[:, None]).view(float)
    b, trans_b = (u, 1) if u.flags.f_contiguous and not u.flags.c_contiguous else (u.T, 0)
    return blas.dgemm(1.0, flat.T, b, trans_b=trans_b).T.view(complex).reshape(
        u.shape[:1] + x.shape[1:])


def _t_apply(solve, u: np.ndarray, t0: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """``(diag(t0) - u z^-1 u^T) x`` for the ``solve`` of z and an (n, p) block x, forming no
    n x n operator; ``t0 = None`` stands for zero."""
    offset = 0.0 if t0 is None else t0[:, None] * x
    return offset - _readout_product(u, solve(_readout_product(u.T, x)))


def transition(scene: DipoleScene, k: float, wave_basis: WaveBasis | None = None,
               angular: swe.AngularFactors | None = None,
               fold: tuple | None = None) -> BlockImpedance:
    """The blocks of any scene, with Z and Z_bb factorised: the one assembly route.

    ``angular`` and a sphere's ``fold`` are passed to ``assemble_impedance``.
    A singular system raises ``SolveError`` here; T, T_b, S and S_b are
    built when first read (see ``BlockImpedance``).
    """
    blocks = assemble_impedance(scene, k, wave_basis, angular, fold)
    blocks.factorize()
    return blocks
