"""Coupled-dipole volumetric MoM backend.

A scatterer is a cloud of point polarisable dipoles interacting through
the free-space dyadic Green function.  The diagonal of the impedance
matrix carries the exact radiative-reaction correction, so every
assembled scene is lossless by construction: ``Re Z = U1^T U1`` with a
real projection matrix U1 whose rows sample the regular spherical
waves at the dipole positions.  Consequently ``S = I + 2 T`` with
``T = -U1 Z^-1 U1^T`` is unitary to rounding.  Ports and the sphere
hybrid reuse the same ``BlockImpedance`` with an augmented readout and a
background transition offset, so every engine serves all scene kinds.

Impedances are expressed in free-space-impedance units; port reference
impedances given in Ohm are divided by eta_0 on entry.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as la
from scipy.linalg import blas

from . import swe
from .exceptions import DomainError, GeometryError, ShapeError, SolveError
from .network import CompositeBasis, OperatorMatrix, _hermitian_norm
from .swe import WaveBasis

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
            raise DomainError(f"port reference impedance must be positive, got {self.z0}")


@dataclass(frozen=True)
class DipoleScene:
    """Dipole cloud: positions (m), static polarisabilities (m^3), region labels.

    ``polarizability`` may be a scalar, per-dipole scalars, one 3x3
    tensor, or per-dipole 3x3 tensors; it is broadcast to (N, 3, 3)
    symmetric positive definite.  ``region`` defaults to all
    controllable.  With ``ground_plane`` set the plane z = 0 is a PEC
    mirror and all dipoles must sit strictly above it.
    """

    positions: np.ndarray
    polarizability: np.ndarray
    region: tuple[str, ...] = None
    ports: tuple[Port, ...] = ()
    ground_plane: bool = False

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.size == 0:
            pos = pos.reshape(0, 3)
        else:
            pos = np.atleast_2d(pos)
            if pos.ndim != 2 or pos.shape[1] != 3:
                raise ShapeError(f"positions must be (N, 3), got {pos.shape}")
        n = pos.shape[0]
        if n > 1:
            diff = pos[:, None, :] - pos[None, :, :]
            dist = np.linalg.norm(diff, axis=-1) + np.eye(n)
            if np.min(dist) <= 0.0:
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
        if not np.allclose(alpha, np.swapaxes(alpha, 1, 2), rtol=1e-12, atol=0.0):
            raise DomainError("polarizability tensors must be symmetric")
        if np.any(np.linalg.eigvalsh(alpha) <= 0.0):
            raise DomainError("polarizability tensors must be positive definite")
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

    @property
    def n_dipoles(self) -> int:
        return self.positions.shape[0]

    @property
    def is_controllable(self) -> np.ndarray:
        return np.array([r == CONTROLLABLE for r in self.region], dtype=bool)

    @property
    def circumscribing_radius(self) -> float:
        if self.n_dipoles == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.positions, axis=1)))


def mirror_scene(scene: DipoleScene) -> DipoleScene:
    """Explicit free-space image scene for a ground-plane scene.

    Appends, for every dipole, its mirror image below z = 0 with the
    reflected polarisability tensor.  Used internally by the assembly and
    as the brute-force oracle for the parity-filter path.
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


def _green_blocks(k: float, diff: np.ndarray) -> np.ndarray:
    """Dyadic Green blocks for an array of separation vectors (..., 3)."""
    d = np.linalg.norm(diff, axis=-1)
    if np.any(d == 0.0):
        raise GeometryError("dyadic Green function evaluated at coincident points")
    u = diff / d[..., None]
    kr = k * d
    sc = np.exp(-1j * kr) / (4.0 * np.pi * d)
    t1 = 1.0 - 1j / kr - 1.0 / kr**2
    t2 = -1.0 + 3j / kr + 3.0 / kr**2
    uu = u[..., :, None] * u[..., None, :]
    return sc[..., None, None] * (t1[..., None, None] * np.eye(3) + t2[..., None, None] * uu)


def dyadic_green(k: float, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Free-space dyadic Green function blocks between two point sets.

    Returns (N1, N2, 3, 3) complex with exp(-jkR)/(4 pi R) radial
    dependence (time convention exp(+j w t)).  Coincident points are not
    allowed.
    """
    a = np.atleast_2d(np.asarray(r1, dtype=float))
    b = np.atleast_2d(np.asarray(r2, dtype=float))
    return _green_blocks(k, a[:, None, :] - b[None, :, :])


@dataclass
class BlockImpedance:
    """System matrix and readout of one scene, background unknowns first.

    The scene and its background have the transition matrices
    ``T = T_b0 - U1 Z^-1 U1^T`` and ``T_b = T_b0 - U1_b Z_bb^-1 U1_b^T``;
    every engine works on Z and U1, whatever the scene kind:

    - dipole scenes: U1 is real and ``T_b0`` is None (zero);
    - port scenes: U1 carries one ``sqrt(z0)`` row per port under the
      wave rows, and ``basis`` is the matching ``CompositeBasis``;
    - sphere hybrids: Z holds the sphere coupling ``U4^T T_b1 U4``, U1 is
      the complex readout ``U1 + T_b1 U4`` and ``T_b0`` is the sphere's
      ``T_b1``, which the controllable region sees as background.

    ``system`` (Z) and ``readout`` (U1) are kept read-only, in system
    order: the first ``n_b`` unknowns are the background's.  ``Z_bb``,
    ``Z_bc``, ``Z_cb``, ``Z_cc``, ``U1_b`` and ``U1_c`` are views of them;
    ``Z`` and ``U1`` return copies the caller may modify.  Z is complex
    symmetric, and lossless scenes satisfy ``Re Z = Re(U1^H U1)`` to
    rounding.  ``perm`` maps system rows to flat scene unknowns ``3 *
    dipole + axis`` of the assembled (possibly image-augmented) scene.
    ``solve`` and ``solve_bb`` apply ``Z^-1`` and ``Z_bb^-1`` from LU
    factors made (pivot-checked) on first use and kept by this object
    only; ``cached`` keeps other per-point products (Schur elimination,
    transition operators) the same way.  Copies made by ``with_system``
    or ``dataclasses.replace`` start without them.
    """

    system: np.ndarray
    readout: np.ndarray
    n_b: int
    basis: WaveBasis | CompositeBasis
    scene: DipoleScene
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

    Z = property(lambda self: self.system.copy(), doc="Z, a new array the caller may modify.")
    U1 = property(lambda self: self.readout.copy(), doc="U1, a new array the caller may modify.")

    def with_system(self, z: np.ndarray, u: np.ndarray, **changes) -> "BlockImpedance":
        """Copy with the full system matrix and readout replaced, unknown order kept."""
        return replace(self, system=z, readout=u, **changes)

    def factorization_residual(self) -> float:
        """Relative deviation of Re Z from Re(U1^H U1) (basis-resolution gauge)."""
        return factorization_residual(self.system, self.readout)

    def cached(self, key: str, build):
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

    def factorize(self) -> None:
        """Factorise Z and Z_bb now, so a singular system raises here."""
        self._lu("Z")
        self._lu("Z_bb")

    def _lu(self, which: str):
        if which == "Z":
            return self.cached("lu Z", lambda: _solver(self.system, "system matrix"))
        return self.cached("lu Z_bb", lambda: _solver(self.Z_bb, "background block"))


def factorization_residual(z: np.ndarray, u: np.ndarray) -> float:
    """Relative deviation of Re z from Re(u^H u); zero for an empty system.

    z is complex symmetric, so ``u_r^T u_r + u_i^T u_i - Re z`` is formed in
    the upper triangle of one copy of Re z by ``dsyrk`` on scipy's BLAS.
    """
    if z.size == 0:
        return 0.0
    diff = np.array(z.real, order="F")
    scale = max(float(np.linalg.norm(diff)), 1e-300)
    diff = blas.dsyrk(1.0, u.real.T, beta=-1.0, c=diff, overwrite_c=1)
    if np.iscomplexobj(u):
        diff = blas.dsyrk(1.0, u.imag.T, beta=1.0, c=diff, overwrite_c=1)
    return _hermitian_norm(diff) / scale


def default_basis(scene: DipoleScene, k: float) -> WaveBasis:
    """Truncation-rule basis at the circumscribing radius (mirror images share it)."""
    ka = k * scene.circumscribing_radius
    l_max = 1 if ka == 0.0 else swe.truncation_order(ka)
    return swe.basis(l_max)


#: i < j dipole pairs per Green evaluation in ``assemble_impedance``
_PAIR_CHUNK = 4096


def assemble_impedance(scene: DipoleScene, k: float,
                       wave_basis: WaveBasis | None = None) -> BlockImpedance:
    """Assemble the block impedance system and real wave projection.

    Off-diagonal 3x3 blocks are ``(j/k) G`` with the free-space dyadic
    Green function G; diagonal blocks carry the inverse static
    polarisability with the exact radiative correction ``I/(6 pi)`` that
    makes each dipole, and hence the scene, lossless.  With the
    ground-plane flag set, image dipoles are appended internally.
    Z is complex symmetric: G is evaluated on the pairs i < j only, and
    each block is written with its transpose into the system-order Z.
    """
    if k <= 0 or not math.isfinite(k):
        raise DomainError(f"wavenumber must be positive and finite, got {k!r}")
    if scene.ground_plane:
        scene = mirror_scene(scene)
    if wave_basis is None:
        wave_basis = default_basis(scene, k)

    ctrl = scene.is_controllable
    order = np.concatenate([np.flatnonzero(~ctrl), np.flatnonzero(ctrl)])
    pos = scene.positions[order]
    n = scene.n_dipoles
    z = np.empty((3 * n, 3 * n), dtype=complex)
    zv = z.reshape(n, 3, n, 3).transpose(0, 2, 1, 3)  # zv[i, j]: block of dipoles i, j
    gi, gj = np.triu_indices(n, 1)
    for s in range(0, gi.size, _PAIR_CHUNK):
        i, j = gi[s:s + _PAIR_CHUNK], gj[s:s + _PAIR_CHUNK]
        g = (1j / k) * _green_blocks(k, pos[i] - pos[j])
        zv[i, j] = g
        zv[j, i] = g.transpose(0, 2, 1)
    zv[range(n), range(n)] = np.eye(3) / (6.0 * np.pi) \
        - 1j * np.linalg.inv(scene.polarizability[order]) / k**3
    u = swe.regular_wave_table(wave_basis, k, pos).reshape(wave_basis.size, 3 * n)
    blocks = BlockImpedance(system=z, readout=u, n_b=3 * int(np.count_nonzero(~ctrl)),
                            basis=wave_basis, scene=scene,
                            perm=(3 * order[:, None] + np.arange(3)).ravel())
    if n > 0:
        residual = blocks.factorization_residual()
        if residual > 1e-6:
            warnings.warn(
                f"wave basis l_max={wave_basis.l_max} under-resolves the scene: "
                f"radiation factorization residual {residual:.2e}",
                stacklevel=2,
            )
    return blocks


def assemble_projection(scene: DipoleScene, k: float,
                        wave_basis: WaveBasis | None = None) -> np.ndarray:
    """Real projection U1 (n_waves x 3N) alone, in scene (unpermuted) order."""
    if scene.ground_plane:
        scene = mirror_scene(scene)
    if wave_basis is None:
        wave_basis = default_basis(scene, k)
    tab = swe.regular_wave_table(wave_basis, k, scene.positions)
    return tab.reshape(wave_basis.size, 3 * scene.n_dipoles)


def _solver(z: np.ndarray, what: str):
    """``rhs -> z^-1 rhs`` from the LU factors of z, after a pivot-ratio singularity check."""
    if z.shape[0] == 0:
        return lambda rhs: np.zeros((0,) + rhs.shape[1:], dtype=complex)
    lu, piv = la.lu_factor(z)
    diag = np.abs(np.diag(lu))
    if diag.min() <= 1e-14 * diag.max():
        cond = np.linalg.cond(z)
        raise SolveError(f"{what}: matrix numerically singular (cond ~ {cond:.3e})")
    return lambda rhs: la.lu_solve((lu, piv), rhs)


@dataclass
class TransitionSet:
    """Transition/scattering operators of a scene and of its background.

    ``T``, ``T_b``, ``S`` and ``S_b`` are n x n ``OperatorMatrix`` objects
    built from ``blocks`` when a caller first reads them, and kept in
    ``blocks.cached``: an engine that works on the blocks' factors never
    forms them, and every transition set of the same blocks shares them.
    ``kept`` lists the rows of ``blocks.basis`` the operators are
    restricted to (None: all of them); restricted operators carry no basis.
    """

    blocks: BlockImpedance
    kept: np.ndarray | None = field(default=None, kw_only=True)

    T = property(lambda self: self._operator("T"))
    T_b = property(lambda self: self._operator("T_b"))
    S = property(lambda self: self._operator("S"))
    S_b = property(lambda self: self._operator("S_b"))

    def _operator(self, name: str) -> OperatorMatrix:
        full = self.blocks.cached(name, lambda: _full_operator(self.blocks, name))
        if self.kept is None:
            return full
        sub = np.ix_(self.kept, self.kept)
        return self.blocks.cached((name, self.kept.tobytes()),
                                  lambda: OperatorMatrix(full.kind, full.data[sub]))


def _readout_product(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``u @ x``; a real u times a complex x is one real GEMM on x's interleaved float view
    (numpy's mixed product would copy u to complex and run a complex GEMM), on scipy's BLAS
    as ``(flat^T u^T)^T``: C-ordered u and flat go in uncopied, the product comes out in C order."""
    if np.iscomplexobj(u) or not np.iscomplexobj(x) or x.size == 0:
        return u @ x
    flat = np.ascontiguousarray(x if x.ndim == 2 else x[:, None]).view(float)
    return blas.dgemm(1.0, flat.T, u.T).T.view(complex).reshape(u.shape[:1] + x.shape[1:])


def _t_of(solve, u: np.ndarray, t0: np.ndarray | None) -> np.ndarray:
    """``t0 - u z^-1 u^T`` for the ``solve`` of z, with ``t0 = None`` standing for zero."""
    t = -_readout_product(u, solve(u.T.astype(complex)))
    return t if t0 is None else t0 + t


def _full_operator(blocks: BlockImpedance, name: str) -> OperatorMatrix:
    """T, T_b, S or S_b over the whole basis; each S comes from its cached T."""
    if name.startswith("S"):
        t = blocks.cached("T" + name[1:], lambda: _full_operator(blocks, "T" + name[1:]))
        return OperatorMatrix("S", 2.0 * t.data + np.eye(blocks.basis.size), blocks.basis)
    if name == "T":
        return OperatorMatrix("T", _t_of(blocks.solve, blocks.readout, blocks.T_b0),
                              blocks.basis)
    return OperatorMatrix("T", _t_of(blocks.solve_bb, blocks.U1_b, blocks.T_b0), blocks.basis)


def transition(scene: DipoleScene | None = None, k: float | None = None,
               wave_basis: WaveBasis | None = None,
               blocks: BlockImpedance | None = None) -> TransitionSet:
    """T and S for the full scene, plus the background-only T_b and S_b.

    The background operators use only the background block of the
    impedance system (bordered / zero-padded in the full unknown set).
    An empty background yields T_b = T_b0 (zero for dipole scenes).
    Given ``blocks`` of any scene kind, ``scene`` and ``k`` are not used.

    Z and Z_bb are factorised here, so a singular system raises
    ``SolveError`` at once; the n x n operators themselves are built only
    when first read (see ``TransitionSet``).
    """
    if blocks is None:
        blocks = assemble_impedance(scene, k, wave_basis)
    blocks.factorize()
    return TransitionSet(blocks)


class GeneralizedScattering(TransitionSet):
    """Port-augmented operators over (spherical waves + port power waves)."""

    @property
    def basis(self) -> CompositeBasis:
        return self.blocks.basis

    @property
    def n_ports(self) -> int:
        return len(self.basis.extra_labels)


def generalized_scattering(scene: DipoleScene, k: float,
                           wave_basis: WaveBasis | None = None) -> GeneralizedScattering:
    """Scattering matrices with lumped power-wave ports appended.

    Each port adds its reference impedance in series on the port
    element's diagonal and one power-wave channel.  The augmented
    readout stacks sqrt(z0) port rows under U1, which keeps
    ``Re Z' = U^T U`` exact and hence the full matrix unitary for these
    lossless scenes.  Port elements are controllable, so the background
    S_b acts as the identity on the port channels.  With no ports this
    reduces to ``transition``.
    """
    blocks = assemble_impedance(scene, k, wave_basis)
    ports = blocks.scene.ports
    rows = np.argsort(blocks.perm)[[3 * p.element + p.axis for p in ports]]
    z0 = np.array([p.z0 for p in ports]) / ETA0
    z = blocks.Z  # a copy: the source blocks keep their system matrix
    np.add.at(z, (rows, rows), z0)
    u_port = np.zeros((len(ports), z.shape[0]))
    u_port[np.arange(len(ports)), rows] = np.sqrt(z0)
    basis = CompositeBasis(wave=blocks.basis,
                           extra_labels=tuple(f"port{i}" for i in range(len(ports))))
    ported = blocks.with_system(z, np.vstack([blocks.readout, u_port]), basis=basis)
    return GeneralizedScattering(**vars(transition(blocks=ported)))
