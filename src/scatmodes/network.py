"""Operator algebra shared by all backends.

Passivity/unitarity checks (dense, and factored for
``S = I - 2 U Z^-1 U^T`` with a thin real readout U), whose Gram matrices
are computed in one triangle on scipy's BLAS.  The eigenvalue maps between
s, t and the classical lambda are ``ModeSet.t`` and ``ModeSet.lam``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import blas, lapack

from .exceptions import ShapeError

#: library default tolerances
UNITARY_TOL = 1e-8


def _square(op) -> np.ndarray:
    m = np.asarray(op)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"square matrix required, got shape {m.shape}")
    return m


def _gram(a: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """``alpha a^H a`` in its upper triangle, by one ``zherk``/``dsyrk`` on scipy's BLAS.

    A C-ordered a goes in uncopied as ``a.T``: the lower triangle of ``a^T
    conj(a) = conj(a^H a)``, transposed, is the upper triangle of ``a^H a``.
    """
    if a.size == 0:
        return np.zeros((a.shape[1],) * 2, dtype=a.dtype)
    rank_k = blas.zherk if np.iscomplexobj(a) else blas.dsyrk
    if a.flags.c_contiguous:
        return rank_k(alpha, a.T, lower=1).T
    return rank_k(alpha, a, trans=2)


def _hermitian_norm(g: np.ndarray) -> float:
    """Frobenius norm of the Hermitian matrix held in g's upper triangle.

    ``sqrt(2 ||triu g||^2 - ||diag g||^2)``, ``||triu g||`` from ``zlantr``/``dlantr``.
    Subtract any reference from g first: a small difference is lost in the norms of its terms.
    """
    lantr = lapack.zlantr if np.iscomplexobj(g) else lapack.dlantr
    tri = lantr("F", g.T, uplo="L") if g.flags.c_contiguous else lantr("F", g, uplo="U")
    diag = np.linalg.norm(np.diagonal(g))
    return math.sqrt(2.0 * tri * tri - diag * diag)


def _scaled(norm: float, dim: int) -> float:
    return norm / math.sqrt(max(dim, 1))


def check_unitary(M) -> float:
    """Frobenius deviation of M^H M from the identity, scaled by sqrt(dim)."""
    m = _square(M)
    return _scaled(_hermitian_norm(_gram(m) - np.eye(m.shape[0])), m.shape[0])


def check_unitary_factored(u: np.ndarray, solve) -> float:
    """``check_unitary`` of ``S = I - 2 u z^-1 u^T`` from its factors.

    ``u`` is a real readout (n x m) and ``solve`` applies ``z^-1``.  With
    the thin QR ``u = Q R`` and ``A = z^-1``, ``S^H S - I = Q (R B R^T)
    Q^T`` where ``B = -2 (A + A^H) + 4 A^H R^T R A``, so the Frobenius
    norm is that of the small matrix ``R B R^T = 4 C^H C - 2 (C + C^H)``
    with ``C = R A R^T``.  It costs O(n m^2 + m^3) and forms no n x n
    matrix; the deviation is scaled by sqrt(n), as in ``check_unitary``.
    """
    r = np.linalg.qr(u, mode="r")
    c = r @ solve(r.T.astype(complex))
    return _scaled(_hermitian_norm(_gram(c, 4.0) - 2.0 * (c + c.conj().T)), u.shape[0])


def check_t_power(T) -> float:
    """Deviation of T^H T from -Re(T) (losslessness of a transition matrix).

    Of ``T^H T + Re T``, the Hermitian ``T^H T + sym(Re T)`` and the real
    antisymmetric ``asym(Re T)`` (zero for a reciprocal T) are orthogonal.
    """
    t = _square(T)
    r = t.real
    norm = math.hypot(_hermitian_norm(_gram(t) + 0.5 * (r + r.T)), 0.5 * np.linalg.norm(r - r.T))
    return _scaled(norm, t.shape[0])
