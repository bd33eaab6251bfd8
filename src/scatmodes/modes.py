"""Dense characteristic-mode engines.

The scattering generalized eigenproblem ``S a = s S_b a`` on a
``BlockImpedance``, its own pencil, or on n x n matrices, and its
reformulations: products of transition matrices, the Schur-complement
impedance path with eigencurrent recovery, executable identity checks
(power balance, modified-transition-matrix equality, the parity leakage
of a mirrored ground-plane scene), and frequency-sweep mode tracking.
Every engine serves every scene kind through its ``BlockImpedance``; a
ground-plane scene's is image-reduced at assembly.

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
from .dipoles import BlockImpedance, _readout_product
from .exceptions import DomainError, ShapeError, SolveError
from .network import UNITARY_TOL, check_unitary, check_unitary_factored
from .swe import WaveBasis

#: relative eigenvalue gap below which modes count as one degenerate cluster
DEGENERACY_GAP = 1e-9

#: threshold of ||(S - S_b) a_n|| / ||S a_n|| flagging cancellation-sensitive modes
CANCELLATION_THRESHOLD = 1e-6


@dataclass
class ModeSet:
    """Eigenpairs of one characteristic-mode decomposition.

    Columns of ``a`` (excitations) and ``f`` (scattered fields, ``f_n =
    S_b a_n``) are unit vectors, ordered by modal significance ``|t_n|``
    descending; every engine returns both, for the modes it was asked for
    (its ``n_modes``).  ``diagnostics`` carries residuals of the invariant
    checks performed while solving; ``recover_currents`` gives the
    eigencurrents of a mode set on its blocks.
    """

    s: np.ndarray
    a: np.ndarray
    f: np.ndarray
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

    @property
    def orthogonality(self) -> float:
        """Largest entry of ``|a^H a - I|`` and ``|f^H f - I|``."""
        return float(max(np.abs(v.conj().T @ v - np.eye(v.shape[1])).max(initial=0.0)
                         for v in (self.a, self.f)))

    @property
    def cancellation(self) -> np.ndarray:
        """Per-mode ``|s - 1| < CANCELLATION_THRESHOLD |s|``, for an eigenpair ``||(S - S_b) a_n||
        < CANCELLATION_THRESHOLD ||S a_n||``: the scene's and background's fields nearly cancel."""
        return np.abs(self.s - 1.0) < CANCELLATION_THRESHOLD * np.abs(self.s)


def _mode_order(t: np.ndarray, vectors: np.ndarray, basis_obj: WaveBasis | None):
    """Sort by |t| descending; ties by ascending l-content centroid, entries past the basis
    (port channels) counting as degree 0."""
    mag = np.abs(t)
    if basis_obj is None:
        return np.lexsort((np.arange(t.size), -mag))
    ls = np.zeros(vectors.shape[0])
    if basis_obj.size <= ls.size:
        ls[:basis_obj.size] = basis_obj.l
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


def _eig_orthonormal(*pencil: np.ndarray, keep: int | None = None):
    """General eigenpairs with unit vectors, QR-orthonormalised inside degenerate clusters; with
    ``keep``, only those that can hold a ``keep`` pair of largest |s| (these come out the same)."""
    s, v = la.eig(*pencil)
    v = v / np.linalg.norm(v, axis=0)
    order = np.argsort(-np.abs(s), kind="stable")
    visited = np.zeros(s.size, dtype=bool)
    gap = DEGENERACY_GAP * max(np.abs(s).max(), 1.0)
    floor = abs(s[order[keep - 1]]) - 2.0 * gap if keep and keep < s.size else -np.inf
    # a cluster about s_i holds a kept s_j only if |s_i| >= |s_j| - gap > floor
    for i in order[:np.count_nonzero(np.abs(s) >= floor)]:
        if visited[i]:
            continue
        cluster = np.flatnonzero(np.abs(s - s[i]) <= gap)
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


@dataclass
class ScatterOracle:
    """The scattering pencil of any full-wave solver: its actions of T and T_b.

    ``apply`` and ``apply_background`` map a (dim, p) block of excitations to
    ``T x`` and ``T_b x`` (``S = I + 2 T``, ``S_b = I + 2 T_b``).  Both must be
    linear and complex symmetric (reciprocity, so ``S_b^H y = conj(S_b
    conj(y))``), which construction probes on random vectors of a fixed seed
    (to 1e-10 relative, else ``DomainError``).  The library's own
    ``BlockImpedance`` is a pencil of its own and needs no oracle.
    """

    apply: callable
    apply_background: callable
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("oracle dimension must be positive")
        rng = np.random.default_rng(0)
        xy = rng.standard_normal((self.dim, 2)) + 1j * rng.standard_normal((self.dim, 2))
        c1, c2 = 0.37 - 1.1j, -0.64 + 0.2j
        block = np.column_stack([xy, c1 * xy[:, 0] + c2 * xy[:, 1]])
        for op, name in ((self.apply, "apply"), (self.apply_background, "apply_background")):
            (x, y), (ax, ay, axy) = xy.T, op(block).T
            scale = max(np.linalg.norm(ax), np.linalg.norm(ay), 1.0)
            lin = np.linalg.norm(axy - c1 * ax - c2 * ay)
            if lin > 1e-10 * scale:
                raise DomainError(f"oracle {name} failed the linearity probe ({lin:.2e})")
            sym = abs(x @ ay - y @ ax)
            if sym > 1e-10 * scale:
                raise DomainError(f"oracle {name} is not complex symmetric ({sym:.2e}); "
                                  "the conjugation trick needs reciprocal operators")

    @classmethod
    def from_matrices(cls, T, T_b) -> "ScatterOracle":
        """Oracle backed by the dense n x n matrices T and T_b."""
        t = np.asarray(T)
        tb = np.asarray(T_b)
        if t.shape != tb.shape or t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ShapeError(f"operator shapes {t.shape} / {tb.shape} unusable")
        return cls(apply=lambda x: t @ x, apply_background=lambda x: tb @ x, dim=t.shape[0])


def _range_schur(blocks: BlockImpedance):
    """Eigenpairs of the blocks on ``V = range(S_b^H U1~)`` from the r x r ``M``: (s values,
    vectors, Schur off-diagonal norm, V's orthonormal basis Q), values and vectors None where
    ``M`` is not normal."""
    q = _orthonormal_range(np.conj(blocks.apply_sb(np.conj(blocks.U1_tilde))))
    t_vals, z, off = _schur_eig(blocks.apply_sb(q).conj().T @ blocks.diff(q))
    if t_vals is None:
        return None, None, off, q
    return 1.0 + 2.0 * t_vals, q @ z, off, q


def cm_scattering(S, S_b=None, n_modes: int | None = None) -> ModeSet:
    """Characteristic modes from the generalized problem ``S a = s S_b a``.

    ``S`` is a ``BlockImpedance`` (``S_b`` left out) or an n x n matrix.
    For unitary inputs the problem reduces to the normal matrix ``N = S_b^H
    S``, solved by a complex Schur decomposition, which gives orthonormal
    eigenvectors including degenerate clusters.  If ``S_b`` fails its
    unitarity check (``network.UNITARY_TOL``), or the Schur factor shows the
    matrix decomposed is not normal, the solver falls back to a two-matrix
    QZ factorisation of the full pencil (S and S_b as n x n matrices) and
    flags the result (``diagnostics['solver'] == 'qz'``).

    Blocks are solved on the range of ``S - S_b`` only.  With the
    background eliminated, ``S - S_b = -2 U1~ Z~^-1 U1~^T``, so ``N - I =
    S_b^H (S - S_b)`` maps into ``V = range(S_b^H U1~)`` (at most ``3 N_c``
    columns), the normal ``N`` leaves V invariant and is exactly the
    identity on its complement.  The engine takes an orthonormal basis Q of
    V (rank r after the rcond cut), decomposes the r x r matrix ``M = (S_b
    Q)^H (T - T_b) Q = -(S_b Q)^H U1~ Z~^-1 (U1~^T Q)``, whose eigenvalues
    are the t_n themselves, and returns ``a = Q z``; every other mode has
    ``s = 1``.  ``S_b``, ``S_b^H`` and ``T - T_b`` act through the blocks'
    solves (``apply_sb``, ``diff``), so this costs O(n (3N)^2 + (3N)^3) and
    forms no n x n matrix; the unitarity of S and S_b comes from
    ``scattering_unitarity`` (factored, bound or dense).

    Matrices (``S_b`` defaults to the identity) are the dense oracle: all
    n modes from the n x n Schur decomposition of N, with ``check_unitary``
    on both (``unitarity_form`` ``"dense"``); ties in the mode order go by
    index.  ``diagnostics['rank']`` is the size of the eigenproblem solved
    (r on the range, n for the oracle and for QZ).

    ``n_modes`` (at least 1) keeps the ``n_modes`` most significant modes.
    On the range, more modes than r are filled with ``s = 1`` exactly and
    an orthonormal basis of V's complement; without ``n_modes`` the range
    engine returns its r modes.  ``eigen_residual`` is measured on the
    modes returned, the unitarity deviations of S and S_b on the full
    operators (``unitarity_form`` says how).
    """
    if n_modes is not None and n_modes < 1:
        raise DomainError(f"n_modes must be at least 1, got {n_modes}")
    if isinstance(S, BlockImpedance):
        if S_b is not None:
            raise ValueError("a BlockImpedance carries its own S_b")
        basis, dim, apply_sb, diff = S.basis, S.dim, S.apply_sb, S.diff
        schur, pencil = (lambda: _range_schur(S)), (lambda: (S.S, S.S_b))
        diag = scattering_unitarity(S)
    else:
        s_mat = np.asarray(S)
        eye = np.eye(len(s_mat) if s_mat.ndim else 0)
        sb_mat = eye if S_b is None else np.asarray(S_b)
        if s_mat.shape != eye.shape or sb_mat.shape != eye.shape:
            raise ShapeError(f"S {s_mat.shape} and S_b {sb_mat.shape} must be square and equal")
        basis, dim = None, len(eye)
        apply_sb, diff = (lambda x: sb_mat @ x), (lambda x: 0.5 * ((s_mat - sb_mat) @ x))
        schur, pencil = (lambda: (*_schur_eig(sb_mat.conj().T @ s_mat), None)), \
            (lambda: (s_mat, sb_mat))
        diag = {"unitarity_S": check_unitary(s_mat), "unitarity_S_b": check_unitary(sb_mat),
                "unitarity_form": "dense"}

    diag["solver"], s_vals = "schur", None
    if diag["unitarity_S_b"] <= UNITARY_TOL:
        s_vals, a, diag["schur_offdiag"], q = schur()
    if s_vals is None:
        if diag["unitarity_S_b"] > UNITARY_TOL:
            cause = (f"S_b failed the unitarity check (deviation "
                     f"{diag['unitarity_S_b']:.1e} > {UNITARY_TOL:.1e})")
        else:
            cause = (f"S_b^H S is not normal (Schur off-diagonal norm "
                     f"{diag['schur_offdiag']:.1e})")
        warnings.warn(f"{cause}; falling back to a QZ solve")
        diag["solver"] = "qz"
        s_vals, a = _eig_orthonormal(*pencil())
    diag["rank"] = s_vals.size

    t = (s_vals - 1.0) / 2.0
    order = _mode_order(t, a, basis)[:n_modes]
    s_vals, a = s_vals[order], a[:, order]
    n_pad = 0 if n_modes is None else min(n_modes, dim) - s_vals.size
    if n_pad > 0:  # only the range engine returns fewer than n modes; pad from V's complement
        s_vals = np.concatenate([s_vals, np.ones(n_pad, dtype=complex)])
        a = np.hstack([a, _complement(q, n_pad)])

    f = apply_sb(a)
    resid = np.linalg.norm(f + 2.0 * diff(a) - f * s_vals[None, :], axis=0)
    diag["eigen_residual"] = float(resid.max(initial=0.0))
    return ModeSet(s=s_vals, a=a, f=f, diagnostics=diag)


def _complement(span: np.ndarray, count: int) -> np.ndarray:
    """``count`` orthonormal columns orthogonal to the columns of ``span`` (full column rank)."""
    return np.linalg.qr(span, mode="complete")[0][:, span.shape[1]:span.shape[1] + count]


def cm_t_form(T, T_b, representation: str = "excitation", basis=None,
              n_modes: int | None = None) -> ModeSet:
    """Characteristic modes from composed transition operators.

    ``representation="excitation"`` decomposes ``2 T_b^H T + T_b^H + T``
    (eigenvectors are the excitations a_n); ``"scattered"`` decomposes
    ``2 T T_b^H + T_b^H + T`` (eigenvectors are the scattered fields
    f_n).  Both give the same eigenvalues t_n, and ``f = S_b a`` (in the
    scattered representation to the unitarity of S_b).  ``basis``, the
    matrices' wave basis, breaks ties in the mode order.  ``n_modes`` (at
    least 1) keeps the ``n_modes`` most significant of the n modes; without
    it all n are returned.  ``diagnostics`` holds ``solver`` (``"schur"``,
    or ``"eig"`` where the operator is not normal) and ``schur_offdiag``.
    """
    if n_modes is not None and n_modes < 1:
        raise DomainError(f"n_modes must be at least 1, got {n_modes}")
    t_mat = np.asarray(T)
    tb_mat = np.asarray(T_b)
    if t_mat.shape != tb_mat.shape or t_mat.ndim != 2 or t_mat.shape[0] != t_mat.shape[1]:
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
    order = _mode_order(t_vals, a, basis)[:n_modes]
    return ModeSet(s=s_vals[order], a=a[:, order], f=f[:, order],
                   diagnostics={"solver": solver, "schur_offdiag": off})


# ---------------------------------------------------------------------------
# Impedance (Schur complement) path
# ---------------------------------------------------------------------------

def _unitarity_bound(u: np.ndarray, solve, defect: float) -> float:
    """``4 ||B||_2^2 defect / sqrt(n)``, B = z^-1 u^T, ||B||_2 probed by the 8 complex Gaussian
    columns (real and imaginary parts interleaved) of a fixed seed; see below."""
    probes = np.random.default_rng(0).standard_normal((u.shape[0], 16)).view(complex)
    norm_b = np.linalg.norm(solve(_readout_product(u.T, probes)), axis=0).max()
    return 4.0 * (10.0 * math.sqrt(2.0 / math.pi) * norm_b) ** 2 * defect / math.sqrt(u.shape[0])


def scattering_unitarity(blocks: BlockImpedance) -> dict:
    """Deviations of ``blocks.S`` and ``blocks.S_b`` from unitarity, and the form used.

    With no background offset (dipole, port and ground-plane blocks) U1 is
    real and ``S = I - 2 U1 Z^-1 U1^T``.  Where U1 has at most n/2 columns
    (n the operator dimension) the ``check_unitary`` deviations come from the
    factors (``check_unitary_factored``).  Where it has more, ``S^H S - I = 4
    B^H E B`` (``B = Z^-1 U1^T``, ``E = U1^T U1 - Re Z``) bounds them by ``4
    ||B||_2^2 ||E||_F / sqrt(n)``, S_b's by Z_bb, U1_b and E's leading block
    (``radiation_defect``), with ``||B||_2 <= 10 sqrt(2/pi) max_i ||B w_i||``
    over 8 complex Gaussian probes w_i, which fails with probability below 1e-8
    (Halko, Martinsson & Tropp, SIAM Review 53(2), 2011, eq. 4.3, for real
    probes; complex ones fail less often).  Bounds above ``UNITARY_TOL``, and
    hybrid blocks, get ``check_unitary`` on the n x n matrices instead, so
    every check decides as the dense one.  ``unitarity_form`` is
    ``"factored"``, ``"bound"`` or ``"dense"``.
    """
    u = blocks.readout
    if blocks.T_b0 is None and 2 * u.shape[1] <= u.shape[0]:
        return {"unitarity_S": check_unitary_factored(u, blocks.solve),
                "unitarity_S_b": check_unitary_factored(blocks.U1_b, blocks.solve_bb),
                "unitarity_form": "factored"}
    if blocks.T_b0 is None:
        _, defect, defect_bb = blocks.radiation_defect
        bound = {"unitarity_S": _unitarity_bound(u, blocks.solve, defect),
                 "unitarity_S_b": _unitarity_bound(blocks.U1_b, blocks.solve_bb, defect_bb)}
        if max(bound.values()) <= UNITARY_TOL:
            return {**bound, "unitarity_form": "bound"}
    return {"unitarity_S": check_unitary(blocks.S),
            "unitarity_S_b": check_unitary(blocks.S_b),
            "unitarity_form": "dense"}


def _radiation_condition(r_t: np.ndarray) -> float:
    """Spread of the compressed radiation matrix's spectrum (conditioning gauge)."""
    if r_t.size == 0:
        return 1.0
    d = np.abs(la.eigvalsh(r_t))
    return float(d.max() / max(d.min(), 1e-300))


def cm_impedance_substructure(blocks: BlockImpedance, n_modes: int | None = None) -> ModeSet:
    """Substructure modes from the real symmetric pencil ``X~ I = lam R~ I``.

    Solves the generalized symmetric eigenproblem of the Schur-complement
    reactance against the compressed radiation matrix, converts
    ``lam -> t = -1/(1 + j lam)``, and recovers scattered fields
    ``f_n = -U1_tilde I_cn`` (normalised to unit norm) and excitations
    ``a_n = S_b^H f_n``.  Serves dipole, ground-plane, port and hybrid
    blocks alike.

    ``n_modes`` (at least 1) keeps the ``n_modes`` most significant of the 3 N_c
    modes, or fills up to ``n_modes`` modes with ``s = 1``, as
    ``cm_scattering``'s range engine does: their a orthonormal and orthogonal
    to the engine's, ``f = S_b a``.  Without it all 3 N_c modes are returned;
    ``recover_currents`` gives their eigencurrents.

    Accuracy note: this formulation inherits the conditioning of the
    compressed radiation matrix, which is numerically rank deficient for
    dense subwavelength current grids; ``diagnostics['r_condition']``
    reports the spread and a warning is issued when cross-formulation
    agreement is expected to degrade.  The scattering-based engines are
    immune and remain the sharp reference in that regime.  Where R~ is
    indefinite or singular, so that some eigencurrents cannot be
    normalised, it raises ``SolveError``.

    ``diagnostics`` holds ``solver`` (``"eigh"``, or ``"eig"`` where R~ is
    not positive definite) and ``r_condition``; the eigenvalues lam are
    ``ModeSet.lam``.
    """
    if n_modes is not None and n_modes < 1:
        raise DomainError(f"n_modes must be at least 1, got {n_modes}")
    r_t, x_t = blocks.Z_tilde.real, blocks.Z_tilde.imag
    r_t = 0.5 * (r_t + r_t.T)
    x_t = 0.5 * (x_t + x_t.T)
    diag = {"solver": "eigh", "r_condition": _radiation_condition(r_t)}
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
        warnings.warn("compressed radiation matrix not positive definite; "
                      "general eigensolver used (lossy or under-resolved basis)")
        lam, i_c = la.eig(x_t, r_t)
        power = np.einsum("in,ij,jn->n", i_c.conj(), r_t, i_c)
        bad = ~(np.isfinite(lam) & np.isfinite(power) & (power.real > 0.0))
        if bad.any():
            raise SolveError(
                f"compressed radiation matrix is indefinite or singular: {bad.sum()} of "
                f"{blocks.n_c} eigencurrents radiate no positive power, so the impedance "
                "formulation cannot normalise them; use a scattering solver "
                "(dense-scattering, t-form or iterative)")
        i_c = i_c / np.sqrt(power)[None, :]

    t_vals = -1.0 / (1.0 + 1j * lam)
    f = -blocks.U1_tilde @ i_c
    f = f / np.linalg.norm(f, axis=0)[None, :]
    a = np.conj(blocks.apply_sb(np.conj(f)))

    order = _mode_order(t_vals, f, blocks.basis)[:n_modes]
    t_vals, a, f = t_vals[order], a[:, order], f[:, order]
    n_pad = 0 if n_modes is None else min(n_modes, blocks.dim) - t_vals.size
    if n_pad > 0:  # the s = 1 modes, from the complement of the engine's excitations
        a_pad = _complement(a, n_pad)
        t_vals = np.concatenate([t_vals, np.zeros(n_pad, dtype=complex)])
        a, f = np.hstack([a, a_pad]), np.hstack([f, blocks.apply_sb(a_pad)])
    return ModeSet(s=1.0 + 2.0 * t_vals, a=a, f=f, diagnostics=diag)


def tilde_tmatrix(blocks: BlockImpedance) -> tuple[np.ndarray, float]:
    """Modified transition matrix of the controllable region, and its identity residual.

    ``T~ = -U1_tilde Z_tilde^-1 U1_tilde^H`` over the wave basis; its
    eigenvalues are the substructure t_n.  The residual is that of the
    equality ``2 T T_b^H + T_b^H + T = T~`` assembled from the full and
    background transition matrices, an executable identity for lossless
    scenes.  T and T_b are those kept by the blocks, built here if no
    caller has read them yet.  Returns (T~, residual).
    """
    u_tilde = blocks.U1_tilde
    t_tilde = -u_tilde @ blocks.solve_tilde(u_tilde.conj().T)
    t_full, t_bg = blocks.T, blocks.T_b
    composed = 2.0 * t_full @ t_bg.conj().T + t_bg.conj().T + t_full
    # without controllable dipoles T~ = 0, and the residual is measured against T
    scale = np.linalg.norm(t_tilde) or np.linalg.norm(t_full)
    return t_tilde, float(np.linalg.norm(composed - t_tilde) / max(scale, 1e-300))


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
    a = modeset.a
    t = modeset.t
    nb = blocks.n_b

    currents = blocks.solve(_readout_product(blocks.readout.T, a))
    currents[:nb] -= blocks.solve_bb(_readout_product(blocks.U1_b.T, a))
    currents_c = currents[nb:, :]

    skipped = np.abs(t) <= t_min
    f_rad = modeset.f * t[None, :]
    alt = blocks.solve_tilde(blocks.U1_tilde.conj().T @ f_rad)
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
    diff = (np.asarray(T) - np.asarray(T_b)) @ modeset.a
    norm_a2 = np.linalg.norm(modeset.a, axis=0) ** 2
    e1 = 0.5 * np.linalg.norm(diff, axis=0) ** 2
    e2 = -0.5 * modeset.t.real * norm_a2
    e3 = 0.5 * np.abs(modeset.t) ** 2 * norm_a2
    stack = np.vstack([e1, e2, e3])
    return stack.max(axis=0) - stack.min(axis=0)


def parity_leakage(blocks: BlockImpedance) -> float:
    """Relative norm of S coupling parity-allowed to parity-forbidden waves.

    Zero to rounding for the mirrored scene of a ground-plane scene
    (``mirror_scene``): the test of the image symmetry that the reduced
    assembly takes as exact.
    """
    s = blocks.S
    keep = swe.ground_plane_filter(blocks.basis)
    drop = np.setdiff1d(np.arange(blocks.basis.size), keep)
    return float(np.linalg.norm(s[np.ix_(keep, drop)]) / np.linalg.norm(s))


# ---------------------------------------------------------------------------
# Mode tracking across a frequency sweep
# ---------------------------------------------------------------------------

def track_modes(modesets: list[ModeSet]) -> list[np.ndarray]:
    """Trace id of every mode of each set, associating modes across adjacent sweep points.

    Greedy assignment maximising the excitation-vector correlation
    ``|a_m(f_i)^H a_n(f_i+1)|`` between neighbouring frequency samples: a
    matched mode takes its partner's id, and modes that find no partner get
    new ids in mode order (an engine's ``n_modes`` tracks fewer).  Returns one
    integer array per set, the ids of its modes; the first set's are 0..n-1.
    """
    dims = {ms.a.shape[0] for ms in modesets}
    if len(dims) > 1:
        raise ShapeError(f"mode sets of mixed dimension in sweep: {sorted(dims)}")

    ids: list[np.ndarray] = []
    n_traces = 0
    for i, ms in enumerate(modesets):
        own = np.full(ms.n_modes, -1)
        if i:
            work = np.abs(modesets[i - 1].a.conj().T @ ms.a)
            for _ in range(min(work.shape)):
                r, c = np.unravel_index(np.argmax(work), work.shape)
                if work[r, c] <= 0.0:
                    break
                own[c] = ids[-1][r]
                work[r, :] = -1.0
                work[:, c] = -1.0
        new = np.flatnonzero(own < 0)
        own[new] = n_traces + np.arange(new.size)
        n_traces += new.size
        ids.append(own)
    return ids
