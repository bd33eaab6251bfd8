"""Dense characteristic-mode engines.

The scattering generalized eigenproblem ``S a = s S_b a`` and its
reformulations: products of transition matrices, the Schur-complement
impedance path with eigencurrent recovery, executable identity checks
(power balance, modified-transition-matrix equality), ground-plane
parity reduction, and frequency-sweep mode tracking.

For lossless scenes all paths produce the same eigenvalue multiset; the
test suite exercises these equivalences at tight tolerances.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from . import swe
from .dipoles import (
    BlockImpedance,
    DipoleScene,
    TransitionSet,
    _readout_product,
    _solver,
    factorization_residual,
    transition,
)
from .exceptions import ShapeError, SolveError
from .network import UNITARY_TOL, OperatorMatrix, _matrix, check_unitary, check_unitary_factored
from .swe import WaveBasis

#: relative eigenvalue gap below which modes count as one degenerate cluster
DEGENERACY_GAP = 1e-9

#: threshold of ||(S - S_b) a_n|| / ||S a_n|| flagging cancellation-sensitive modes
CANCELLATION_THRESHOLD = 1e-6


@dataclass
class ModeSet:
    """Eigenpairs of one characteristic-mode decomposition at one wavenumber.

    Columns of ``a`` (excitations) and ``f`` (scattered fields, ``f_n =
    S_b a_n``) are unit vectors, ordered by modal significance ``|t_n|``
    descending.  ``currents`` / ``currents_c`` hold eigencurrents when a
    decomposition produces them.  ``diagnostics`` carries residuals of
    the invariant checks performed while solving.
    """

    s: np.ndarray
    a: np.ndarray | None = None
    f: np.ndarray | None = None
    k: float | None = None
    frequency_hz: float | None = None
    basis: object | None = None
    currents: np.ndarray | None = None
    currents_c: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_modes(self) -> int:
        return self.s.shape[0]

    @property
    def t(self) -> np.ndarray:
        return (self.s - 1.0) / 2.0

    @property
    def modal_significance(self) -> np.ndarray:
        return np.abs(self.t)

    @property
    def lam(self) -> np.ndarray:
        """Classical eigenvalues; infinite where s = 1 exactly."""
        out = np.full(self.s.shape, complex(math.inf), dtype=complex)
        ok = self.s != 1.0
        out[ok] = 1j * (self.s[ok] + 1.0) / (self.s[ok] - 1.0)
        return out

    @property
    def circle_deviation(self) -> np.ndarray:
        """Per-mode distance of t from the lossless circle |t + 1/2| = 1/2."""
        return np.abs(np.abs(self.t + 0.5) - 0.5)

    def top(self, n: int) -> "ModeSet":
        """The n most significant modes."""
        sl = slice(0, n)
        return ModeSet(
            s=self.s[sl],
            a=None if self.a is None else self.a[:, sl],
            f=None if self.f is None else self.f[:, sl],
            k=self.k, frequency_hz=self.frequency_hz, basis=self.basis,
            currents=None if self.currents is None else self.currents[:, sl],
            currents_c=None if self.currents_c is None else self.currents_c[:, sl],
            diagnostics=dict(self.diagnostics),
        )


def _l_weights(basis_obj, dim: int) -> np.ndarray:
    """Degree of each basis entry for tie-breaking; extra channels count as 0."""
    ls = np.zeros(dim)
    wave = getattr(basis_obj, "wave", basis_obj)
    if isinstance(wave, WaveBasis) and wave.size <= dim:
        ls[:wave.size] = [i.l for i in wave.indices]
    return ls


def _mode_order(t: np.ndarray, vectors: np.ndarray | None, basis_obj) -> np.ndarray:
    """Sort by |t| descending; ties by ascending l-content centroid."""
    mag = np.abs(t)
    if vectors is None or basis_obj is None:
        return np.lexsort((np.arange(t.size), -mag))
    ls = _l_weights(basis_obj, vectors.shape[0])
    weight = np.abs(vectors) ** 2
    centroid = (ls[:, None] * weight).sum(axis=0) / np.maximum(weight.sum(axis=0), 1e-300)
    return np.lexsort((centroid, -mag))


def _schur_eig(op: np.ndarray):
    """Eigenpairs of a normal matrix from its complex Schur form.

    Returns (values, orthonormal vectors, off-diagonal norm of the Schur
    factor); values and vectors are None when that norm shows ``op`` is
    not normal.
    """
    tri, q = la.schur(op, output="complex")
    off = float(np.linalg.norm(np.triu(tri, 1)))
    if not off <= 1e-6 * max(np.linalg.norm(op), 1.0):
        return None, None, off
    return np.diag(tri).copy(), q, off


def _eig_orthonormal(*pencil: np.ndarray):
    """General eigenpairs with unit vectors, QR-orthonormalised inside degenerate clusters."""
    s, v = la.eig(*pencil)
    v = v / np.linalg.norm(v, axis=0)
    order = np.argsort(-np.abs(s), kind="stable")
    visited = np.zeros(s.size, dtype=bool)
    scale = max(np.abs(s).max(), 1.0)
    for i in order:
        if visited[i]:
            continue
        cluster = np.flatnonzero(np.abs(s - s[i]) <= DEGENERACY_GAP * scale)
        visited[cluster] = True
        if cluster.size > 1:
            q, _ = np.linalg.qr(v[:, cluster])
            v[:, cluster] = q
    return s, v


def _orthonormal_range(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical range of x.

    Column-pivoted QR with the standard rcond cut ``max(x.shape) * eps``
    relative to the largest pivot: pivoting makes every dropped column's
    remainder no larger than the first dropped pivot, so the basis misses
    at most ``sqrt(x.shape[1])`` times the cut of x.  (A thin SVD gives
    the same range at several times the cost.)
    """
    q, r, _ = la.qr(x, mode="economic", pivoting=True)
    pivots = np.abs(np.diag(r))
    cut = pivots[0] * max(x.shape) * np.finfo(float).eps if pivots.size else 0.0
    return q[:, :int(np.count_nonzero(pivots > cut))]


class _MatrixPencil:
    """``S`` and ``S_b`` given as n x n matrices: the dense oracle of ``cm_scattering``."""

    def __init__(self, S, S_b):
        self.s_mat = _matrix(S)
        self.dim = self.s_mat.shape[0]
        if self.s_mat.shape[0] != self.s_mat.shape[1]:
            raise ShapeError(f"S must be square, got {self.s_mat.shape}")
        self.sb_mat = np.eye(self.dim) if S_b is None else _matrix(S_b)
        if self.sb_mat.shape != self.s_mat.shape:
            raise ShapeError(f"dimension mismatch: S {self.s_mat.shape}, S_b {self.sb_mat.shape}")
        self.basis = S.basis if isinstance(S, OperatorMatrix) else None

    def matrices(self):
        return self.s_mat, self.sb_mat

    def apply_s(self, x):
        return self.s_mat @ x

    def apply_sb(self, x):
        return self.sb_mat @ x

    def schur(self):
        """All n eigenpairs from the Schur decomposition of the normal ``S_b^H S``."""
        return _schur_eig(self.sb_mat.conj().T @ self.s_mat)

    def unitarity(self) -> dict:
        return {"unitarity_S": check_unitary(self.s_mat).deviation,
                "unitarity_S_b": check_unitary(self.sb_mat).deviation,
                "unitarity_form": "dense"}


class _BlockPencil:
    """``S`` and ``S_b`` of a ``TransitionSet`` as actions of its blocks.

    ``S_b`` and ``S_b^H`` act through the Z_bb factors and ``T - T_b =
    -U1~ Z~^-1 U1~^T`` through the Schur complement, on the rows the set
    keeps, so no n x n matrix is formed unless the QZ fallback or a dense
    unitarity check reads ``ts.S`` and ``ts.S_b``.  Eliminating the
    background gives that form for every scene kind (the background
    offset ``T_b0`` cancels), so ``U1~`` on the kept rows spans the range
    of ``S - S_b``; the elimination reuses the Z_bb factors ``transition``
    left on the blocks.
    """

    def __init__(self, ts: TransitionSet):
        self.ts = ts
        self.u_b, self.t_b0 = _background_readout(ts)
        u_tilde = schur_system(ts.blocks).U1_tilde
        self.u_tilde = u_tilde if ts.kept is None else u_tilde[ts.kept]
        self.dim = self.u_tilde.shape[0]
        self.basis = ts.blocks.basis if ts.kept is None else None

    def matrices(self):
        return self.ts.S.data, self.ts.S_b.data

    def apply_s(self, x):
        return self.apply_sb(x) + 2.0 * self.diff(x)

    def apply_sb(self, x):
        return x + 2.0 * _background_apply(self.ts.blocks, self.u_b, self.t_b0, x)

    def diff(self, x):
        """``T - T_b = (S - S_b) / 2`` applied to x."""
        return -self.u_tilde @ _tilde_solve(self.ts.blocks)(self.u_tilde.T @ x)

    def schur(self):
        """Eigenpairs on ``V = range(S_b^H U1~)`` from the r x r ``M``; V's basis Q is kept."""
        sbh_u = self.u_tilde + 2.0 * _background_apply(self.ts.blocks, self.u_b, self.t_b0,
                                                       self.u_tilde, adjoint=True)
        self.q = _orthonormal_range(sbh_u)
        t_vals, z, off = _schur_eig(self.apply_sb(self.q).conj().T @ self.diff(self.q))
        if t_vals is None:
            return None, None, off
        return 1.0 + 2.0 * t_vals, self.q @ z, off

    def complement(self, n: int) -> np.ndarray:
        """``n`` orthonormal columns from the complement of V, where ``s = 1``."""
        rank = self.q.shape[1]
        return np.linalg.qr(self.q, mode="complete")[0][:, rank:rank + n]

    def unitarity(self) -> dict:
        return scattering_unitarity(self.ts)


def cm_scattering(S, S_b=None, k: float | None = None,
                  n_modes: int | None = None) -> ModeSet:
    """Characteristic modes from the generalized problem ``S a = s S_b a``.

    ``S`` is a ``TransitionSet`` (``S_b`` left out) or an n x n matrix.
    For unitary inputs the problem reduces to the normal matrix ``N =
    S_b^H S``, solved by a complex Schur decomposition, which gives
    orthonormal eigenvectors including degenerate clusters.  If ``S_b``
    fails its unitarity check (``network.UNITARY_TOL``), or the Schur
    factor shows the matrix decomposed is not normal, the solver falls
    back to a two-matrix QZ factorisation of the full pencil and flags
    the result (``diagnostics['solver'] == 'qz'``).

    A transition set is solved on the range of ``S - S_b`` only.  With
    the background eliminated, ``S - S_b = -2 U1~ Z~^-1 U1~^T``, so ``N -
    I = S_b^H (S - S_b)`` maps into ``V = range(S_b^H U1~)`` (at most
    ``3 N_c`` columns), the normal ``N`` leaves V invariant and is exactly
    the identity on its complement.  The engine takes an orthonormal
    basis Q of V (rank r after the rcond cut), decomposes the r x r
    matrix ``M = (S_b Q)^H (T - T_b) Q = -(S_b Q)^H U1~ Z~^-1 (U1~^T Q)``,
    whose eigenvalues are the t_n themselves, and returns ``a = Q z``;
    every other mode has ``s = 1``.  ``S_b``, ``S_b^H`` and ``T - T_b``
    act through the blocks' solves on the rows the set keeps, so this
    costs O(n (3N)^2 + (3N)^3) and forms no n x n matrix; the unitarity
    of S and S_b comes from ``scattering_unitarity`` (factored or dense).

    Matrices (``S_b`` defaults to the identity) are the dense oracle: all
    n modes from the n x n Schur decomposition of N, with ``check_unitary``
    on both.  ``diagnostics['rank']`` is the size of the eigenproblem
    solved (r on the range, n for the oracle and for QZ).

    ``n_modes`` keeps the ``n_modes`` most significant modes.  On the
    range, more modes than r are filled with ``s = 1`` exactly and an
    orthonormal basis of V's complement; without ``n_modes`` the range
    engine returns its r modes.  The residual, orthogonality and
    cancellation diagnostics are measured on the modes returned; the
    unitarity deviations of S and S_b on the full operators
    (``unitarity_form`` says how).
    """
    if isinstance(S, TransitionSet):
        if S_b is not None:
            raise ValueError("a TransitionSet carries its own S_b")
        pencil = _BlockPencil(S)
    else:
        pencil = _MatrixPencil(S, S_b)

    diag = {**pencil.unitarity(), "solver": "schur"}
    s_vals = None
    if diag["unitarity_S_b"] <= UNITARY_TOL:
        s_vals, a, diag["schur_offdiag"] = pencil.schur()
    if s_vals is None:
        if diag["unitarity_S_b"] > UNITARY_TOL:
            cause = (f"S_b failed the unitarity check (deviation "
                     f"{diag['unitarity_S_b']:.1e} > {UNITARY_TOL:.1e})")
        else:
            cause = (f"S_b^H S is not normal (Schur off-diagonal norm "
                     f"{diag['schur_offdiag']:.1e})")
        warnings.warn(f"{cause}; falling back to a QZ solve")
        diag["solver"] = "qz"
        s_vals, a = _eig_orthonormal(*pencil.matrices())
    diag["rank"] = s_vals.size

    t = (s_vals - 1.0) / 2.0
    order = _mode_order(t, a, pencil.basis)[:n_modes]
    s_vals, a = s_vals[order], a[:, order]
    n_pad = 0 if n_modes is None else min(n_modes, pencil.dim) - s_vals.size
    if n_pad > 0:
        s_vals = np.concatenate([s_vals, np.ones(n_pad, dtype=complex)])
        a = np.hstack([a, pencil.complement(n_pad)])

    f = pencil.apply_sb(a)
    s_a = pencil.apply_s(a)
    resid = np.linalg.norm(s_a - f * s_vals[None, :], axis=0)
    drive = np.linalg.norm(s_a, axis=0)
    diag["cancellation_flags"] = \
        np.linalg.norm(s_a - f, axis=0) < CANCELLATION_THRESHOLD * drive
    diag["eigen_residual"] = float(resid.max(initial=0.0))
    gram = a.conj().T @ a
    diag["orthogonality_a"] = float(np.abs(gram - np.eye(gram.shape[0])).max(initial=0.0))
    gram_f = f.conj().T @ f
    diag["orthogonality_f"] = float(np.abs(gram_f - np.eye(gram_f.shape[0])).max(initial=0.0))
    return ModeSet(s=s_vals, a=a, f=f, k=k, basis=pencil.basis, diagnostics=diag)


def cm_t_form(T, T_b, representation: str = "excitation",
              k: float | None = None) -> ModeSet:
    """Characteristic modes from composed transition operators.

    ``representation="excitation"`` decomposes ``2 T_b^H T + T_b^H + T``
    (eigenvectors are the excitations a_n); ``"scattered"`` decomposes
    ``2 T T_b^H + T_b^H + T`` (eigenvectors are the scattered fields
    f_n).  Both give the same eigenvalues t_n.
    """
    t_mat = _matrix(T)
    tb_mat = _matrix(T_b)
    basis_obj = T.basis if isinstance(T, OperatorMatrix) else None
    if t_mat.shape != tb_mat.shape or t_mat.shape[0] != t_mat.shape[1]:
        raise ShapeError(f"T {t_mat.shape} and T_b {tb_mat.shape} must be square and equal")
    tbh = tb_mat.conj().T
    if representation == "excitation":
        op = 2.0 * tbh @ t_mat + tbh + t_mat
    elif representation == "scattered":
        op = 2.0 * t_mat @ tbh + tbh + t_mat
    else:
        raise ValueError(f"representation must be 'excitation' or 'scattered', got {representation!r}")

    t_vals, vec, off = _schur_eig(op)
    solver = "schur"
    if t_vals is None:
        t_vals, vec = _eig_orthonormal(op)
        solver = "eig"

    sb = 2.0 * tb_mat + np.eye(t_mat.shape[0])
    if representation == "excitation":
        a = vec
        f = sb @ a
    else:
        f = vec
        a = sb.conj().T @ f
    s_vals = 1.0 + 2.0 * t_vals
    order = _mode_order(t_vals, a, basis_obj)
    diag = {"solver": solver, "representation": representation, "schur_offdiag": off}
    return ModeSet(s=s_vals[order], a=a[:, order], f=f[:, order], k=k,
                   basis=basis_obj, diagnostics=diag)


# ---------------------------------------------------------------------------
# Impedance (Schur complement) path
# ---------------------------------------------------------------------------

@dataclass
class SchurSystem:
    """Schur complement of the background block and its radiation factor.

    ``Z_tilde = Z_cc - Z_cb Z_bb^-1 Z_bc`` compresses the background
    into a numerical Green function for the controllable region; for
    lossless scenes its real part factors as ``U1_tilde^H U1_tilde``.
    """

    Z_tilde: np.ndarray
    U1_tilde: np.ndarray
    W: np.ndarray  # Z_bb^-1 Z_bc, reused for background current recovery

    @property
    def R_tilde(self) -> np.ndarray:
        return self.Z_tilde.real.copy()

    def factorization_residual(self) -> float:
        return factorization_residual(self.Z_tilde, self.U1_tilde)


def schur_system(blocks: BlockImpedance) -> SchurSystem:
    """Eliminate background unknowns from a block impedance system.

    Built once per blocks object and kept with its factors, so every
    engine and check of a frequency point shares one elimination.
    """
    def eliminate():
        w = blocks.solve_bb(blocks.Z_bc)
        return SchurSystem(Z_tilde=blocks.Z_cc - blocks.Z_cb @ w,
                           U1_tilde=blocks.U1_c - _readout_product(blocks.U1_b, w), W=w)

    return blocks.cached("schur_system", eliminate)


def _background_readout(ts: TransitionSet):
    """Background readout ``U1_b`` and offset ``T_b0`` on the rows ``ts`` keeps."""
    blocks = ts.blocks
    if ts.kept is None:
        return blocks.U1_b, blocks.T_b0
    t_b0 = None if blocks.T_b0 is None else blocks.T_b0[np.ix_(ts.kept, ts.kept)]
    return blocks.U1_b[ts.kept], t_b0


def _background_apply(blocks: BlockImpedance, u_b: np.ndarray, t_b0: np.ndarray | None,
                      vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Action of ``T_b = t_b0 - u_b Z_bb^-1 u_b^T`` (or of T_b^H) without forming it.

    Z_bb is complex symmetric (reciprocity), so ``Z_bb^-H y =
    conj(Z_bb^-1 conj(y))`` reuses the factors of Z_bb for the adjoint.
    """
    if adjoint:
        out = 0.0 if t_b0 is None else t_b0.conj().T @ vec
        return out - np.conj(_readout_product(
            u_b, blocks.solve_bb(_readout_product(u_b.T, np.conj(vec)))))
    out = 0.0 if t_b0 is None else t_b0 @ vec
    return out - _readout_product(u_b, blocks.solve_bb(_readout_product(u_b.T, vec)))


def _tilde_solve(blocks: BlockImpedance):
    """``rhs -> Z~^-1 rhs`` from LU factors kept by the blocks.

    Every Z~ solve of a blocks object (the range engine, ``tilde_tmatrix``,
    ``recover_currents``) uses these factors.  Without background unknowns
    Z~ is Z itself, whose factors are reused.
    """
    if blocks.n_b == 0:
        return blocks.solve
    return blocks.cached("lu Z_tilde", lambda: _solver(schur_system(blocks).Z_tilde,
                                                       "compressed impedance"))


def _factored_form_pays(blocks: BlockImpedance, u: np.ndarray) -> bool:
    """Whether S's factors ``I - 2 u Z^-1 u^T`` serve: a real readout of at most n/2 columns."""
    return blocks.T_b0 is None and 2 * u.shape[1] <= u.shape[0]


def scattering_unitarity(ts: TransitionSet) -> dict:
    """``check_unitary`` deviations of ``ts.S`` and ``ts.S_b``, and the form used.

    With no background offset (dipole, port and ground-plane blocks) the
    readout U1 is real and ``S = I - 2 U1 Z^-1 U1^T``, so where U1 has at
    most n/2 columns (n the operator dimension) the deviations come from
    the factors (``check_unitary_factored``, O(n (3N)^2 + (3N)^3)).
    Otherwise (hybrid blocks, or 3N > n/2 where the factored form costs
    more) ``check_unitary`` runs on the n x n matrices.
    ``unitarity_form`` is ``"factored"`` or ``"dense"``.
    """
    blocks = ts.blocks
    u = blocks.readout if ts.kept is None else blocks.readout[ts.kept]
    if _factored_form_pays(blocks, u):
        return {"unitarity_S": check_unitary_factored(u, blocks.solve).deviation,
                "unitarity_S_b": check_unitary_factored(u[:, :blocks.n_b],
                                                        blocks.solve_bb).deviation,
                "unitarity_form": "factored"}
    return {"unitarity_S": check_unitary(ts.S).deviation,
            "unitarity_S_b": check_unitary(ts.S_b).deviation,
            "unitarity_form": "dense"}


def _radiation_condition(r_t: np.ndarray) -> float:
    """Spread of the compressed radiation matrix's spectrum (conditioning gauge)."""
    if r_t.size == 0:
        return 1.0
    d = np.abs(la.eigvalsh(r_t))
    return float(d.max() / max(d.min(), 1e-300))


def cm_impedance_substructure(blocks: BlockImpedance, k: float | None = None) -> ModeSet:
    """Substructure modes from the real symmetric pencil ``X~ I = lam R~ I``.

    Solves the generalized symmetric eigenproblem of the Schur-complement
    reactance against the compressed radiation matrix, converts
    ``lam -> t = -1/(1 + j lam)``, and recovers scattered fields
    ``f_n = -U1_tilde I_cn`` (normalised to unit norm) and excitations
    ``a_n = S_b^H f_n``.  Serves dipole, port and hybrid blocks alike.

    Accuracy note: this formulation inherits the conditioning of the
    compressed radiation matrix, which is numerically rank deficient for
    dense subwavelength current grids; ``diagnostics['r_condition']``
    reports the spread and a warning is issued when cross-formulation
    agreement is expected to degrade.  The scattering-based engines are
    immune and remain the sharp reference in that regime.  Where R~ is
    indefinite or singular, so that some eigencurrents cannot be
    normalised, it raises ``SolveError``.
    """
    sys = schur_system(blocks)
    nc = blocks.n_c
    diag = {"schur_factorization_residual": sys.factorization_residual(),
            "solver": "eigh"}
    if nc == 0:
        return ModeSet(s=np.zeros(0, dtype=complex), a=None, f=None, k=k,
                       basis=blocks.basis, diagnostics=diag)

    r_t, x_t = sys.Z_tilde.real, sys.Z_tilde.imag
    r_t = 0.5 * (r_t + r_t.T)
    x_t = 0.5 * (x_t + x_t.T)
    diag["r_condition"] = _radiation_condition(r_t)
    if diag["r_condition"] > 1e12:
        warnings.warn(
            f"compressed radiation matrix spread {diag['r_condition']:.1e}; "
            "impedance-path eigenvalues may lose several digits (the "
            "scattering path is unaffected)")
    try:
        lam, i_c = la.eigh(x_t, r_t)
        lam = lam.astype(complex)
        i_c = i_c.astype(complex)
    except la.LinAlgError:
        diag["solver"] = "eig"
        diag["r_indefinite"] = True
        warnings.warn("compressed radiation matrix not positive definite; "
                      "general eigensolver used (lossy or under-resolved basis)")
        lam, i_c = la.eig(x_t, r_t)
        power = np.einsum("in,ij,jn->n", i_c.conj(), r_t, i_c)
        bad = ~(np.isfinite(lam) & np.isfinite(power) & (power.real > 0.0))
        if bad.any():
            raise SolveError(
                f"compressed radiation matrix is indefinite or singular: {bad.sum()} of "
                f"{nc} eigencurrents radiate no positive power, so the impedance "
                "formulation cannot normalise them; use a scattering solver "
                "(dense-scattering, t-form or hybrid-scattering)")
        i_c = i_c / np.sqrt(power)[None, :]

    t_vals = -1.0 / (1.0 + 1j * lam)
    f = -sys.U1_tilde @ i_c
    f = f / np.linalg.norm(f, axis=0)[None, :]
    a = f + 2.0 * _background_apply(blocks, blocks.U1_b, blocks.T_b0, f, adjoint=True)
    i_b = -sys.W @ i_c
    currents = np.vstack([i_b, i_c])

    order = _mode_order(t_vals, f, blocks.basis)
    s_vals = 1.0 + 2.0 * t_vals[order]
    diag["lambda"] = lam[order]
    return ModeSet(s=s_vals, a=a[:, order], f=f[:, order], k=k,
                   basis=blocks.basis,
                   currents=currents[:, order], currents_c=i_c[:, order],
                   diagnostics=diag)


def tilde_tmatrix(blocks: BlockImpedance) -> OperatorMatrix:
    """Modified transition matrix of the controllable region.

    ``T~ = -U1_tilde Z_tilde^-1 U1_tilde^H`` over the wave basis; its
    eigenvalues are the substructure t_n.  The result's ``meta`` reports
    the residual of the equality ``2 T T_b^H + T_b^H + T = T~`` assembled
    from the full and background transition matrices, an executable
    identity for lossless scenes.  T and T_b are those kept by the
    blocks, built here if no caller has read them yet.
    """
    sys = schur_system(blocks)
    ts = TransitionSet(blocks)
    t_tilde = -sys.U1_tilde @ _tilde_solve(blocks)(sys.U1_tilde.conj().T)
    t_full, t_bg = ts.T.data, ts.T_b.data
    composed = 2.0 * t_full @ t_bg.conj().T + t_bg.conj().T + t_full
    # without controllable dipoles T~ = 0, and the residual is measured against T
    scale = np.linalg.norm(t_tilde) or np.linalg.norm(t_full)
    residual = float(np.linalg.norm(composed - t_tilde) / max(scale, 1e-300))
    return OperatorMatrix("T", t_tilde, blocks.basis,
                          meta={"identity_residual": residual,
                                "factorization_residual": sys.factorization_residual()})


@dataclass
class CurrentRecovery:
    """Eigencurrents from the full solve and from the compressed cross-check.

    ``currents`` (3N x n, background unknowns first) comes from the full
    impedance solve: current induced on the composite minus the current
    the same excitation induces on the background alone.  ``currents_c``
    is its controllable block; ``currents_c_alt`` recomputes that block
    through the Schur-complement path from the scattered fields, and
    ``agreement`` is their relative difference per mode (NaN where
    skipped because t_n is too small).
    """

    currents: np.ndarray
    currents_c: np.ndarray
    currents_c_alt: np.ndarray
    agreement: np.ndarray
    skipped: np.ndarray


def recover_currents(modeset: ModeSet, blocks: BlockImpedance,
                     t_min: float = 1e-12) -> CurrentRecovery:
    """Characteristic currents from excitations, with the compressed cross-check.

    The primary formula solves the full system: ``I_n = Z^-1 U1^T a_n``
    minus the background-only response.  The cross-check evaluates
    ``I_cn = (1/t_n) Z~^-1 U1~^H f_rad,n`` with the radiated-field
    normalisation ``f_rad,n = t_n S_b a_n`` (the field actually radiated
    by I_n), which removes the normalisation ambiguity between the two
    routes; it is skipped where ``|t_n| <= t_min``.
    """
    if modeset.a is None:
        raise ShapeError("mode set carries no excitation vectors")
    a = modeset.a
    t = modeset.t
    nb = blocks.n_b

    currents = blocks.solve(_readout_product(blocks.readout.T, a))
    currents[:nb] -= blocks.solve_bb(_readout_product(blocks.U1_b.T, a))
    currents_c = currents[nb:, :]

    sys = schur_system(blocks)
    f_stored = modeset.f if modeset.f is not None else a
    skipped = np.abs(t) <= t_min
    f_rad = f_stored * t[None, :]
    alt = _tilde_solve(blocks)(sys.U1_tilde.conj().T @ f_rad)
    with np.errstate(invalid="ignore", divide="ignore"):
        alt = alt / t[None, :]
    alt[:, skipped] = np.nan
    agreement = np.linalg.norm(currents_c - alt, axis=0) \
        / np.maximum(np.linalg.norm(currents_c, axis=0), 1e-300)
    return CurrentRecovery(currents=currents, currents_c=currents_c,
                           currents_c_alt=alt, agreement=agreement, skipped=skipped)


def substructure_power_check(T, T_b, modeset: ModeSet) -> np.ndarray:
    """Per-mode residual of the scattered-power identity.

    For every mode the three expressions ``|(T - T_b) a_n|^2 / 2``,
    ``-Re(t_n) |a_n|^2 / 2`` and ``|t_n|^2 |a_n|^2 / 2`` must coincide
    for lossless operators; the returned residual is the largest
    pairwise difference.
    """
    if modeset.a is None:
        raise ShapeError("mode set carries no excitation vectors")
    t_mat = _matrix(T)
    tb_mat = _matrix(T_b)
    diff = (t_mat - tb_mat) @ modeset.a
    norm_a2 = np.linalg.norm(modeset.a, axis=0) ** 2
    e1 = 0.5 * np.linalg.norm(diff, axis=0) ** 2
    e2 = -0.5 * modeset.t.real * norm_a2
    e3 = 0.5 * np.abs(modeset.t) ** 2 * norm_a2
    stack = np.vstack([e1, e2, e3])
    return stack.max(axis=0) - stack.min(axis=0)


def parity_restricted(ts: TransitionSet) -> TransitionSet:
    """A ground-plane scene's operators on its parity-allowed waves only.

    The restricted operators carry no basis and, like those of ``ts``,
    are built only when read; ``swe.ground_plane_filter(ts.blocks.basis)``
    gives the kept indices.
    """
    return TransitionSet(ts.blocks, kept=swe.ground_plane_filter(ts.blocks.basis))


def parity_leakage(ts: TransitionSet) -> float:
    """Relative norm of S coupling parity-allowed to parity-forbidden waves.

    ``S[keep, drop] = -2 U1_keep Z^-1 U1_drop^T`` and, with the thin QR
    ``U1 = Q R`` (p columns in Q), ``||S||_F^2 = ||I - 2 R Z^-1 R^T||_F^2
    + n - p``; both come from the factors where ``scattering_unitarity``
    uses them, else from the dense S.
    """
    blocks = ts.blocks
    keep = swe.ground_plane_filter(blocks.basis)
    drop = np.setdiff1d(np.arange(blocks.basis.size), keep)
    u = blocks.readout
    if _factored_form_pays(blocks, u):
        r_keep, r_drop, r = (np.linalg.qr(x, mode="r") for x in (u[keep], u[drop], u))
        cross = 2.0 * r_keep @ blocks.solve(r_drop.T.astype(complex))
        s_c = np.eye(r.shape[0]) - 2.0 * r @ blocks.solve(r.T.astype(complex))
        norm_s = math.sqrt(np.linalg.norm(s_c) ** 2 + u.shape[0] - r.shape[0])
        return float(np.linalg.norm(cross) / norm_s)
    return float(np.linalg.norm(ts.S.data[np.ix_(keep, drop)]) / np.linalg.norm(ts.S.data))


def ground_plane_transition(scene: DipoleScene, k: float,
                            wave_basis: WaveBasis | None = None):
    """A ground-plane scene's parity-restricted transition set, and its ``parity_leakage``.

    Assembles the mirrored free-space scene and keeps its parity-allowed
    waves (``parity_restricted``); the leakage is that of the full
    mirrored scene.  Returns ``(restricted, {"parity_leakage": ...})``.
    """
    if not scene.ground_plane:
        raise ShapeError("ground_plane_transition expects a scene with the ground_plane flag")
    ts = transition(scene, k, wave_basis)
    return parity_restricted(ts), {"parity_leakage": parity_leakage(ts)}


def cm_ground_plane(scene: DipoleScene, k: float,
                    wave_basis: WaveBasis | None = None) -> ModeSet:
    """Substructure modes of a scene above an infinite PEC ground plane.

    Solves the scattering eigenproblem on the parity-restricted transition
    set of ``ground_plane_transition``, on the range of ``S - S_b``
    (``cm_scattering`` fed by the blocks).
    It returns the r modes of that range, at most three per controllable
    dipole of the mirrored scene, not one per kept wave: every other
    mode has ``s = 1``.  Mode vectors live on the kept indices;
    ``diagnostics['kept_indices']`` maps them back into the full basis.
    """
    restricted, leakage = ground_plane_transition(scene, k, wave_basis)
    ms = cm_scattering(restricted, k=k)
    ms.diagnostics["kept_indices"] = restricted.kept
    ms.diagnostics["parent_basis"] = restricted.blocks.basis
    ms.diagnostics.update(leakage)
    return ms


# ---------------------------------------------------------------------------
# Mode tracking across a frequency sweep
# ---------------------------------------------------------------------------

@dataclass
class Trace:
    """One tracked mode: (sweep point, mode index) memberships and t values."""

    trace_id: int
    points: list[int]
    modes: list[int]
    t: list[complex]


@dataclass
class SweepResult:
    """Tracked modal traces over an ascending frequency grid."""

    frequencies: np.ndarray
    modesets: list[ModeSet]
    traces: list[Trace]


def track_modes(modesets: list[ModeSet], n_track: int | None = None) -> SweepResult:
    """Associate modes across adjacent sweep points into traces.

    Greedy assignment maximising the excitation-vector correlation
    ``|a_m(f_i)^H a_n(f_i+1)|`` between neighbouring frequency samples;
    modes that find no partner start new traces.
    """
    if not modesets:
        return SweepResult(frequencies=np.zeros(0), modesets=[], traces=[])
    dims = {ms.a.shape[0] for ms in modesets if ms.a is not None}
    if len(dims) > 1:
        raise ShapeError(f"mode sets of mixed dimension in sweep: {sorted(dims)}")

    def n_kept(ms):
        return ms.n_modes if n_track is None else min(n_track, ms.n_modes)

    freqs = np.array([ms.frequency_hz if ms.frequency_hz is not None else (ms.k or 0.0)
                      for ms in modesets])
    traces: list[Trace] = []
    current: dict[int, Trace] = {}
    for m in range(n_kept(modesets[0])):
        tr = Trace(trace_id=len(traces), points=[0], modes=[m],
                   t=[complex(modesets[0].t[m])])
        traces.append(tr)
        current[m] = tr

    for i in range(len(modesets) - 1):
        prev, nxt = modesets[i], modesets[i + 1]
        np_prev, np_next = n_kept(prev), n_kept(nxt)
        succ: dict[int, Trace] = {}
        if prev.a is not None and nxt.a is not None and np_prev and np_next:
            overlap = np.abs(prev.a[:, :np_prev].conj().T @ nxt.a[:, :np_next])
            work = overlap.copy()
            for _ in range(min(np_prev, np_next)):
                r, c = np.unravel_index(np.argmax(work), work.shape)
                if work[r, c] <= 0.0:
                    break
                tr = current.get(r)
                if tr is not None:
                    tr.points.append(i + 1)
                    tr.modes.append(int(c))
                    tr.t.append(complex(nxt.t[c]))
                    succ[int(c)] = tr
                work[r, :] = -1.0
                work[:, c] = -1.0
        for m in range(np_next):
            if m not in succ:
                tr = Trace(trace_id=len(traces), points=[i + 1], modes=[m],
                           t=[complex(nxt.t[m])])
                traces.append(tr)
                succ[m] = tr
        current = succ
    return SweepResult(frequencies=freqs, modesets=list(modesets), traces=traces)
