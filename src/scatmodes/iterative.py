"""Matrix-free estimation of dominant substructure modes.

The composed operators of the transition- and scattering-based
eigenproblems are applied through forward solver callbacks only: for
reciprocal (complex-symmetric) operators the Hermitian-transposed
factors reduce to forward applications plus elementwise conjugation,
``M^H x = conj(M conj(x))``.  A block Krylov space is grown one block of
responses per iteration, and eigenvalue estimates come from the small
projected problem (Rayleigh-Ritz), never from a full-size matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .dipoles import _t_apply
from .exceptions import DomainError, ShapeError
from .modes import ModeSet, _eig_orthonormal

T_FORM = "T-form"
S_FORM = "S-form"

#: columns the default starting block carries beyond ``n_modes``
OVERSAMPLING = 2


@dataclass
class ScatterOracle:
    """Forward-scattering callbacks for a scene and its background.

    ``apply`` and ``apply_background`` map a (dim, p) block of excitations
    to the responses of the full scene and of the background (T or S action
    according to ``kind``).  Both operators must be linear and complex
    symmetric (reciprocity); ``validate`` probes both properties.
    """

    apply: callable
    apply_background: callable
    dim: int
    kind: str = T_FORM

    def __post_init__(self):
        if self.kind not in (T_FORM, S_FORM):
            raise DomainError(f"kind must be {T_FORM!r} or {S_FORM!r}, got {self.kind!r}")
        if self.dim < 1:
            raise DomainError("oracle dimension must be positive")

    @classmethod
    def from_matrices(cls, T, T_b, kind: str = T_FORM) -> "ScatterOracle":
        """Oracle backed by dense matrices, in either form."""
        t = np.asarray(T)
        tb = np.asarray(T_b)
        if t.shape != tb.shape or t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ShapeError(f"operator shapes {t.shape} / {tb.shape} unusable")
        if kind == S_FORM:
            eye = np.eye(t.shape[0])
            s, sb = 2.0 * t + eye, 2.0 * tb + eye
            return cls(apply=lambda x: s @ x, apply_background=lambda x: sb @ x,
                       dim=t.shape[0], kind=S_FORM)
        return cls(apply=lambda x: t @ x, apply_background=lambda x: tb @ x,
                   dim=t.shape[0], kind=T_FORM)

    @classmethod
    def from_blocks(cls, blocks) -> "ScatterOracle":
        """T-form oracle on a ``BlockImpedance``'s factors, ``T x = T_b0 x - U1 Z^-1 U1^T x`` and
        T_b likewise through Z_bb, forming no n x n operator (the CLI's ``iterative``)."""
        u_b = np.ascontiguousarray(blocks.U1_b)
        return cls(apply=lambda x: _t_apply(blocks.solve, blocks.readout, blocks.T_b0, x),
                   apply_background=lambda x: _t_apply(blocks.solve_bb, u_b, blocks.T_b0, x),
                   dim=blocks.readout.shape[0])

    def validate(self, rng: np.random.Generator, tol: float = 1e-10) -> None:
        """Probe linearity and complex symmetry on one block of random vectors."""
        xy = rng.standard_normal((self.dim, 2)) + 1j * rng.standard_normal((self.dim, 2))
        c1, c2 = 0.37 - 1.1j, -0.64 + 0.2j
        block = np.column_stack([xy, c1 * xy[:, 0] + c2 * xy[:, 1]])
        for op, name in ((self.apply, "apply"), (self.apply_background, "apply_background")):
            (x, y), (ax, ay, axy) = xy.T, op(block).T
            scale = max(np.linalg.norm(ax), np.linalg.norm(ay), 1.0)
            lin = np.linalg.norm(axy - c1 * ax - c2 * ay)
            if lin > tol * scale:
                raise DomainError(f"oracle {name} failed the linearity probe ({lin:.2e})")
            sym = abs(x @ ay - y @ ax)
            if sym > tol * scale:
                raise DomainError(f"oracle {name} is not complex symmetric ({sym:.2e}); "
                                  "the conjugation trick needs reciprocal operators")


def composed_matvec(oracle: ScatterOracle, x: np.ndarray) -> np.ndarray:
    """The composed eigenproblem operator on a vector or (dim, p) block, by forward solves only.

    T-form: ``(2 T_b^H T + T_b^H + T) x = conj(T_b conj(x + 2 T x)) + T x``.
    S-form: ``S_b^H S x = conj(S_b conj(S x))``.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2) or x.shape[0] != oracle.dim:
        raise ShapeError(f"vector or block of {oracle.dim} rows expected, got {x.shape}")
    block = x.reshape(oracle.dim, -1)
    if oracle.kind == S_FORM:
        out = np.conj(oracle.apply_background(np.conj(oracle.apply(block))))
    else:
        tx = oracle.apply(block)
        out = np.conj(oracle.apply_background(np.conj(block + 2.0 * tx))) + tx
    return out.reshape(x.shape)


@dataclass
class IterationLog:
    residuals: list[float] = field(default_factory=list)
    converged: bool = False
    reason: str = ""
    basis: np.ndarray | None = None

    @property
    def n_iterations(self) -> int:
        return len(self.residuals)


def _extension(q: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning what ``block`` adds to the span of q's orthonormal columns:
    block Gram-Schmidt against q in two passes, then a column-pivoted QR that drops directions
    shorter than 1e-12 times the block's norm."""
    scale = np.linalg.norm(block)
    for _ in range(2):
        block = block - q @ (q.conj().T @ block)
    w, r, _ = la.qr(block, mode="economic", pivoting=True)
    return w[:, :int(np.count_nonzero(np.abs(np.diag(r)) > 1e-12 * scale))]


def iterate(oracle: ScatterOracle, n_modes: int = 5, max_iter: int = 60,
            tol_residual: float = 1e-8, seed: int | None = 42,
            start: np.ndarray | None = None,
            validate: bool = True) -> tuple[ModeSet, IterationLog]:
    """Estimate the dominant modes of the composed operator N by block Krylov-Rayleigh-Ritz.

    The starting block (``start``, dim x p of rank p >= ``n_modes``; by
    default ``n_modes + OVERSAMPLING`` complex Gaussian columns drawn from
    ``seed``) and each response of N to the newest block extend an
    orthonormal basis Q of the block Krylov space, so every mode of an
    eigenspace of multiplicity up to p is found.  The ``n_modes`` Ritz pairs
    of ``Q^H N Q`` of largest |t| are returned once each residual ``||N x -
    theta x||`` (x a unit vector) is at most ``tol_residual``: N is normal,
    so each Ritz value then lies that close to an eigenvalue (Bauer-Fike).
    The iteration also stops after ``max_iter`` applications of N, or where
    a response adds no direction to Q (``reason == "invariant"``).
    ``log.residuals`` holds the largest residual after each application.
    """
    if n_modes > oracle.dim:
        raise DomainError(f"n_modes={n_modes} exceeds oracle dimension {oracle.dim}")
    rng = np.random.default_rng(seed)
    if validate:
        oracle.validate(rng)
    if start is None:
        p = min(oracle.dim, n_modes + OVERSAMPLING)
        start = rng.standard_normal((oracle.dim, p)) + 1j * rng.standard_normal((oracle.dim, p))
    q = _extension(np.zeros((oracle.dim, 0), dtype=complex),
                   np.asarray(start, dtype=complex).reshape(oracle.dim, -1))
    if q.shape[1] < n_modes:
        raise DomainError(f"a start block of rank {q.shape[1]} cannot hold {n_modes} modes")

    f = block = composed_matvec(oracle, q)
    log = IterationLog(reason="max_iter")
    while True:
        theta, y = _eig_orthonormal(  # Rayleigh-Ritz; S-form ranks by |theta - 1|, not |theta|
            q.conj().T @ f, keep=n_modes if oracle.kind == T_FORM else None)
        t_ritz = theta if oracle.kind == T_FORM else (theta - 1.0) / 2.0
        order = np.argsort(-np.abs(t_ritz), kind="stable")[:n_modes]
        theta, y = theta[order], y[:, order]
        log.residuals.append(float(np.linalg.norm(f @ y - (q @ y) * theta, axis=0).max()))
        if log.residuals[-1] <= tol_residual:
            log.converged, log.reason = True, "residual"
            break
        if log.n_iterations == max_iter:
            break
        new = _extension(q, block)
        if new.shape[1] == 0:
            log.reason = "invariant"
            break
        block = composed_matvec(oracle, new)
        q, f = np.hstack([q, new]), np.hstack([f, block])

    log.basis = q
    return ModeSet(s=theta if oracle.kind == S_FORM else 1.0 + 2.0 * theta, a=q @ y, diagnostics={
        "solver": f"iterative-{oracle.kind}", "iterations": log.n_iterations,
        "converged": log.converged, "reason": log.reason}), log
