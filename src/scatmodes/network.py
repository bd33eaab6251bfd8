"""Operator algebra shared by all backends.

S <-> T conversion, passivity/unitarity checks (dense, and factored for
``S = I - 2 U Z^-1 U^T`` with a thin real readout U), and embedding of a
small operator into a larger basis (identity elsewhere).  The eigenvalue maps
between s, t and the classical lambda are ``ModeSet.t`` and ``ModeSet.lam``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import MappingError, ShapeError
from .swe import WaveBasis

#: library default tolerances
UNITARY_TOL = 1e-8
SPECTRAL_TOL = 1e-6


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


def check_unitary(M, tol: float = UNITARY_TOL) -> CheckReport:
    """Frobenius deviation of M^H M from the identity, scaled by sqrt(dim)."""
    m = _square(M)
    dim = m.shape[0]
    dev = np.linalg.norm(m.conj().T @ m - np.eye(dim)) / math.sqrt(dim)
    return CheckReport(deviation=float(dev), passed=bool(dev <= tol), tol=tol)


def check_unitary_factored(u: np.ndarray, solve, tol: float = UNITARY_TOL) -> CheckReport:
    """``check_unitary`` of ``S = I - 2 u z^-1 u^T`` from its factors.

    ``u`` is a real readout (n x m) and ``solve`` applies ``z^-1``.  With
    the thin QR ``u = Q R`` and ``A = z^-1``, ``S^H S - I = Q (R B R^T)
    Q^T`` where ``B = -2 (A + A^H) + 4 A^H R^T R A``, so the Frobenius
    norm is that of the small matrix ``R B R^T = 4 C^H C - 2 (C + C^H)``
    with ``C = R A R^T``.  It costs O(n m^2 + m^3) and forms no n x n
    matrix; the deviation is scaled by sqrt(n), as in ``check_unitary``.
    """
    n, m = u.shape
    dev = 0.0
    if m:
        r = np.linalg.qr(u, mode="r")
        c = r @ solve(r.T.astype(complex))
        dev = np.linalg.norm(4.0 * c.conj().T @ c - 2.0 * (c + c.conj().T)) / math.sqrt(n)
    return CheckReport(deviation=float(dev), passed=bool(dev <= tol), tol=tol)


def check_t_power(T, tol: float = UNITARY_TOL) -> CheckReport:
    """Deviation of T^H T from -Re(T) (losslessness of a transition matrix)."""
    t = _square(T)
    dim = t.shape[0]
    dev = np.linalg.norm(t.conj().T @ t + t.real) / math.sqrt(dim)
    return CheckReport(deviation=float(dev), passed=bool(dev <= tol), tol=tol)


def embed_identity(M: OperatorMatrix, target_basis: WaveBasis,
                   index_map: dict[int, int] | None = None) -> OperatorMatrix:
    """Embed M into a larger basis, acting as the identity elsewhere.

    By default the map matches wave indices between M's basis and the
    target basis; an explicit injective ``index_map`` (position in M ->
    position in target) overrides it.
    """
    m = _square(M)
    n_target = target_basis.size
    if index_map is None:
        if M.basis is None:
            raise MappingError("embed_identity needs M.basis or an explicit index_map")
        try:
            index_map = {i: target_basis.position(idx)
                         for i, idx in enumerate(M.basis.indices)}
        except KeyError as err:
            raise MappingError(f"wave index {err.args[0]} absent from the target basis")
    if len(set(index_map.values())) != len(index_map):
        raise MappingError("index map is not injective")
    if len(index_map) != m.shape[0]:
        raise MappingError("index map must cover every row of M")
    if any(j < 0 or j >= n_target for j in index_map.values()):
        raise MappingError("index map exceeds the target basis")

    kind = M.kind
    out = np.eye(n_target, dtype=complex) if kind == "S" \
        else np.zeros((n_target, n_target), dtype=complex)
    if kind not in ("S", "T"):
        raise MappingError("identity embedding is defined for S and T operators")
    pos = np.array([index_map[i] for i in range(m.shape[0])])
    out[np.ix_(pos, pos)] = m
    return OperatorMatrix(kind=kind, data=out, basis=target_basis)
