"""Matrix-free estimation of dominant substructure modes.

The composed operator ``2 T_b^H T + T_b^H + T`` of a ``BlockImpedance`` or
a ``ScatterOracle`` (re-exported here) is applied through their forward
actions only: for reciprocal (complex-symmetric) operators the
Hermitian-transposed factors reduce to forward applications plus
elementwise conjugation, ``M^H x = conj(M conj(x))``.  A block Krylov
space grows by one block of responses per iteration, and the modes, a
``ModeSet`` as from every engine, come from the small projected problem
(Rayleigh-Ritz), never from a full-size matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

from .dipoles import BlockImpedance
from .exceptions import DomainError, ShapeError
from .modes import ModeSet, ScatterOracle, _eig_orthonormal

#: columns the default starting block carries beyond ``n_modes``
OVERSAMPLING = 2
#: largest residual ``||N x - theta x||`` of a returned Ritz pair that counts as converged
TOL_RESIDUAL = 1e-8


def composed_matvec(oracle: ScatterOracle | BlockImpedance, x: np.ndarray) -> np.ndarray:
    """The composed operator on a vector or (dim, p) block, by forward solves only:
    ``(2 T_b^H T + T_b^H + T) x = conj(T_b conj(x + 2 T x)) + T x``."""
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2) or x.shape[0] != oracle.dim:
        raise ShapeError(f"vector or block of {oracle.dim} rows expected, got {x.shape}")
    block = x.reshape(oracle.dim, -1)
    tx = oracle.apply(block)
    out = np.conj(oracle.apply_background(np.conj(block + 2.0 * tx))) + tx
    return out.reshape(x.shape)


def _extension(q: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning what ``block`` adds to the span of q's orthonormal columns:
    block Gram-Schmidt against q in two passes, then a column-pivoted QR that drops directions
    shorter than 1e-12 times the block's norm."""
    scale = np.linalg.norm(block)
    for _ in range(2):
        block = block - q @ (q.conj().T @ block)
    w, r, _ = la.qr(block, mode="economic", pivoting=True)
    return w[:, :int(np.count_nonzero(np.abs(np.diag(r)) > 1e-12 * scale))]


def iterate(oracle: ScatterOracle | BlockImpedance, n_modes: int = 5, max_iter: int = 60,
            seed: int | None = 42, start: np.ndarray | None = None) -> ModeSet:
    """Estimate the dominant modes of the composed operator N by block Krylov-Rayleigh-Ritz.

    A ``ScatterOracle`` is first probed (``oracle.validate``); a ``BlockImpedance`` is trusted.
    The starting block (``start``, dim x p of rank p >= ``n_modes``; by default ``n_modes +
    OVERSAMPLING`` complex Gaussian columns drawn from ``seed``) and each response of N to the
    newest block extend an orthonormal basis Q of the block Krylov space, so every mode of an
    eigenspace of multiplicity up to p is found.  The ``n_modes`` Ritz pairs of ``Q^H N Q`` of
    largest |t| are returned once each residual ``||N x - theta x||`` (x a unit vector) is at
    most ``TOL_RESIDUAL``: N is normal, so each Ritz value then lies that close to an
    eigenvalue (Bauer-Fike).  The iteration also stops after ``max_iter`` applications of N,
    or where a response adds no direction to Q (``reason == "invariant"``).  The diagnostics
    hold ``iterations``, ``converged``, ``reason``, ``residuals`` (the largest after each
    application) and ``krylov_basis`` (Q).  ``n_modes`` outside 1..``oracle.dim`` raises
    ``DomainError``.
    """
    if not 1 <= n_modes <= oracle.dim:
        raise DomainError(f"n_modes={n_modes} is outside 1..{oracle.dim}, the oracle dimension")
    rng = np.random.default_rng(seed)
    if isinstance(oracle, ScatterOracle):
        oracle.validate(rng)
    if start is None:
        p = min(oracle.dim, n_modes + OVERSAMPLING)
        start = rng.standard_normal((oracle.dim, p)) + 1j * rng.standard_normal((oracle.dim, p))
    q = _extension(np.zeros((oracle.dim, 0), dtype=complex),
                   np.asarray(start, dtype=complex).reshape(oracle.dim, -1))
    if q.shape[1] < n_modes:
        raise DomainError(f"a start block of rank {q.shape[1]} cannot hold {n_modes} modes")

    f = block = composed_matvec(oracle, q)
    residuals, reason = [], "max_iter"
    while True:
        theta, y = _eig_orthonormal(q.conj().T @ f, keep=n_modes)  # Rayleigh-Ritz
        order = np.argsort(-np.abs(theta), kind="stable")[:n_modes]
        theta, y = theta[order], y[:, order]
        residuals.append(float(np.linalg.norm(f @ y - (q @ y) * theta, axis=0).max()))
        if residuals[-1] <= TOL_RESIDUAL:
            reason = "residual"
            break
        if len(residuals) == max_iter:
            break
        new = _extension(q, block)
        if new.shape[1] == 0:
            reason = "invariant"
            break
        block = composed_matvec(oracle, new)
        q, f = np.hstack([q, new]), np.hstack([f, block])

    return ModeSet(s=1.0 + 2.0 * theta, a=q @ y, diagnostics={
        "solver": "iterative", "iterations": len(residuals), "converged": reason == "residual",
        "reason": reason, "residuals": residuals, "krylov_basis": q})
