"""Matrix-free estimation of dominant substructure modes.

The composed operators of the transition- and scattering-based
eigenproblems are applied through forward solver callbacks only: for
reciprocal (complex-symmetric) operators the Hermitian-transposed
factors reduce to forward applications plus elementwise conjugation,
``M^H x = conj(M conj(x))``.  A Krylov subspace is grown one response
per iteration with modified Gram-Schmidt, and eigenvalue estimates come
from the small projected problem, never from a full-size matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, ShapeError
from .modes import ModeSet

T_FORM = "T-form"
S_FORM = "S-form"


@dataclass
class ScatterOracle:
    """Forward-scattering callbacks for a scene and its background.

    ``apply`` and ``apply_background`` map an excitation vector to the
    response of the full scene and of the background (T or S action
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
        """Oracle backed by dense matrices (testing and the CLI iterative path)."""
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

    def validate(self, rng: np.random.Generator, tol: float = 1e-10) -> None:
        """Probe linearity and complex symmetry on random vectors."""
        for op, name in ((self.apply, "apply"), (self.apply_background, "apply_background")):
            x = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
            y = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
            ax, ay = op(x), op(y)
            scale = max(np.linalg.norm(ax), np.linalg.norm(ay), 1.0)
            c1, c2 = 0.37 - 1.1j, -0.64 + 0.2j
            lin = np.linalg.norm(op(c1 * x + c2 * y) - c1 * ax - c2 * ay)
            if lin > tol * scale:
                raise DomainError(f"oracle {name} failed the linearity probe ({lin:.2e})")
            sym = abs(x @ ay - y @ ax)
            if sym > tol * scale:
                raise DomainError(
                    f"oracle {name} is not complex symmetric ({sym:.2e}); "
                    "the conjugation trick needs reciprocal operators"
                )


def composed_matvec(oracle: ScatterOracle, x: np.ndarray) -> np.ndarray:
    """Action of the composed eigenproblem operator using forward solves only.

    T-form: ``(2 T_b^H T + T_b^H + T) x = conj(T_b conj(x + 2 T x)) + T x``.
    S-form: ``S_b^H S x = conj(S_b conj(S x))``.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (oracle.dim,):
        raise ShapeError(f"vector of shape {(oracle.dim,)} expected, got {x.shape}")
    if oracle.kind == S_FORM:
        return np.conj(oracle.apply_background(np.conj(oracle.apply(x))))
    tx = oracle.apply(x)
    return np.conj(oracle.apply_background(np.conj(x + 2.0 * tx))) + tx


@dataclass
class IterationLog:
    residuals: list[float] = field(default_factory=list)
    eigenvalues: list[np.ndarray] = field(default_factory=list)
    converged: bool = False
    reason: str = ""
    basis: np.ndarray | None = None

    @property
    def n_iterations(self) -> int:
        return len(self.residuals)


def iterate(oracle: ScatterOracle, n_modes: int = 5, max_iter: int = 60,
            tol_residual: float = 1e-8, tol_eig: float = 1e-6,
            seed: int | None = 42, start: np.ndarray | None = None,
            validate: bool = True) -> tuple[ModeSet, IterationLog]:
    """Estimate the dominant modes of the composed operator.

    Grows an orthonormal excitation basis one solver response per
    iteration; Ritz values of the projected operator approximate the
    largest-|t| eigenvalues.  Stops when the subspace residual falls
    below ``tol_residual`` (relative to the first response), when the
    tracked eigenvalues stagnate within ``tol_eig`` over three
    consecutive iterations, or at ``max_iter``.
    """
    if n_modes > oracle.dim:
        raise DomainError(f"n_modes={n_modes} exceeds oracle dimension {oracle.dim}")
    rng = np.random.default_rng(seed)
    if validate:
        oracle.validate(rng)
    if start is None:
        start = rng.standard_normal(oracle.dim) + 1j * rng.standard_normal(oracle.dim)
    vec = np.asarray(start, dtype=complex)

    q_cols: list[np.ndarray] = []
    f_cols: list[np.ndarray] = []
    log = IterationLog()
    scale = None

    for m in range(max_iter):
        # modified Gram-Schmidt (two passes) then normalise
        for _ in range(2):
            for qc in q_cols:
                vec = vec - qc * (qc.conj() @ vec)
        norm = np.linalg.norm(vec)
        if scale is not None and norm <= max(tol_residual * scale, 1e-14):
            log.converged = True
            log.reason = "residual"
            break
        vec = vec / norm
        q_cols.append(vec)

        f = composed_matvec(oracle, vec)
        f_cols.append(f)
        if scale is None:
            scale = max(np.linalg.norm(f), 1e-300)

        q = np.stack(q_cols, axis=1)
        fm = np.stack(f_cols, axis=1)
        h = q.conj().T @ fm                      # projected operator, (m+1) x (m+1)
        theta, y = np.linalg.eig(h)
        t_ritz = theta if oracle.kind == T_FORM else (theta - 1.0) / 2.0
        top = t_ritz[np.argsort(-np.abs(t_ritz))][:n_modes]
        log.eigenvalues.append(top)

        vec = f - q @ (q.conj().T @ f)
        resid = float(np.linalg.norm(vec))
        log.residuals.append(resid)
        if resid <= tol_residual * scale:
            log.converged = True
            log.reason = "residual"
            break
        history = log.eigenvalues
        if len(history) >= 4 and len(history[-1]) >= n_modes:
            drift = 0.0
            for a, b in zip(history[-4:-1], history[-3:]):
                nn = min(len(a), len(b), n_modes)
                if nn < n_modes:
                    drift = math.inf
                    break
                drift = max(drift, float(np.max(
                    np.abs(a[:nn] - b[:nn]) / np.maximum(np.abs(b[:nn]), 1e-12))))
            if drift <= tol_eig:
                log.converged = True
                log.reason = "stagnation"
                break
    else:
        log.reason = "max_iter"

    # q, theta, y and t_ritz of the last iteration belong to the final basis
    log.basis = q
    order = np.argsort(-np.abs(t_ritz))[:n_modes]
    theta = theta[order]
    ritz = q @ y[:, order]
    ritz = ritz / np.linalg.norm(ritz, axis=0)

    s_vals = theta if oracle.kind == S_FORM else 1.0 + 2.0 * theta
    ms = ModeSet(s=s_vals, a=ritz, f=None, basis=None,
                 diagnostics={"solver": f"iterative-{oracle.kind}",
                              "iterations": log.n_iterations,
                              "converged": log.converged,
                              "reason": log.reason})
    return ms, log
