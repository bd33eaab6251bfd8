"""Operator algebra shared by all backends.

S <-> T conversion and passivity/unitarity checks (dense, and factored for
``S = I - 2 U Z^-1 U^T`` with a thin real readout U), whose Gram matrices
are computed in one triangle on scipy's BLAS.  The eigenvalue maps between
s, t and the classical lambda are ``ModeSet.t`` and ``ModeSet.lam``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .exceptions import ShapeError
from .swe import WaveBasis

#: library default tolerances
UNITARY_TOL = 1e-8


@dataclass(frozen=True)
class CompositeBasis:
    """Spherical-wave basis augmented with labelled extra channels (ports)."""

    wave: WaveBasis
    extra_labels: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return self.wave.size + len(self.extra_labels)


@dataclass
class OperatorMatrix:
    """Dense operator tagged with its kind and the basis it acts on.

    kind is one of ``"S"``, ``"T"``, ``"Z"``, ``"projection"``.  Square for
    S/T/Z kinds; projections may be rectangular.
    """

    kind: str
    data: np.ndarray
    basis: WaveBasis | CompositeBasis | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.kind not in ("S", "T", "Z", "projection"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind != "projection" and (
            self.data.ndim != 2 or self.data.shape[0] != self.data.shape[1]
        ):
            raise ShapeError(f"{self.kind} operator must be square, got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("operator entries must be finite")
        if self.basis is not None and self.data.shape[-1] != self.basis.size \
                and self.data.shape[0] != self.basis.size:
            raise ShapeError("operator dimensions inconsistent with basis size")

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def _matrix(op) -> np.ndarray:
    """Accept either an OperatorMatrix or a bare ndarray."""
    if isinstance(op, OperatorMatrix):
        return op.data
    return np.asarray(op)


def _square(op) -> np.ndarray:
    m = _matrix(op)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"square matrix required, got shape {m.shape}")
    return m


def s_from_t(T) -> OperatorMatrix:
    """S = 2 T + I."""
    t = _square(T)
    s = 2.0 * t + np.eye(t.shape[0])
    basis = T.basis if isinstance(T, OperatorMatrix) else None
    return OperatorMatrix(kind="S", data=s, basis=basis)


def t_from_s(S) -> OperatorMatrix:
    """T = (S - I) / 2."""
    s = _square(S)
    t = (s - np.eye(s.shape[0])) / 2.0
    basis = S.basis if isinstance(S, OperatorMatrix) else None
    return OperatorMatrix(kind="T", data=t, basis=basis)


@dataclass(frozen=True)
class CheckReport:
    deviation: float
    passed: bool
    tol: float


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


def _report(norm: float, dim: int, tol: float) -> CheckReport:
    dev = norm / math.sqrt(max(dim, 1))
    return CheckReport(deviation=dev, passed=dev <= tol, tol=tol)


def check_unitary(M, tol: float = UNITARY_TOL) -> CheckReport:
    """Frobenius deviation of M^H M from the identity, scaled by sqrt(dim)."""
    m = _square(M)
    return _report(_hermitian_norm(_gram(m) - np.eye(m.shape[0])), m.shape[0], tol)


def check_unitary_factored(u: np.ndarray, solve, tol: float = UNITARY_TOL) -> CheckReport:
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
    return _report(_hermitian_norm(_gram(c, 4.0) - 2.0 * (c + c.conj().T)), u.shape[0], tol)


def check_t_power(T, tol: float = UNITARY_TOL) -> CheckReport:
    """Deviation of T^H T from -Re(T) (losslessness of a transition matrix).

    Of ``T^H T + Re T``, the Hermitian ``T^H T + sym(Re T)`` and the real
    antisymmetric ``asym(Re T)`` (zero for a reciprocal T) are orthogonal.
    """
    t = _square(T)
    r = t.real
    norm = math.hypot(_hermitian_norm(_gram(t) + 0.5 * (r + r.T)), 0.5 * np.linalg.norm(r - r.T))
    return _report(norm, t.shape[0], tol)
