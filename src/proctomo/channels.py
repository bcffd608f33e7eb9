"""Quantum channels as Kraus sets and Choi matrices.

Conventions used throughout the package:

* The Choi matrix of a channel C acting on C^d is the d^2 x d^2 state
  obtained by sending one half of a maximally entangled pair through C.
  The tensor order is fixed as system (channel output) (x) ancilla, i.e.
  the first factor of every d^2-dimensional operator is the system.
* Flattened indices follow ``np.kron``: index (s, a) -> s * d + a.
* A Choi matrix is physical iff it is PSD and its system partial trace
  equals 1/d times the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

HERMITICITY_TOL = 1e-12   # max ||A - A^dag||_inf of a validated Hermitian input
RANK_CUT = 1e-9           # eigenvalues above this count towards the numerical rank

Metric = Literal["frobenius", "trace", "operator"]

__all__ = [
    "DensityMatrix",
    "KrausSet",
    "ChoiMatrix",
    "ChannelSpec",
    "maximally_entangled_state",
    "choi_from_kraus",
    "apply_via_choi",
    "apply_kraus",
    "partial_trace",
    "distance",
    "fidelity",
    "make_channel",
    "qft_unitary",
    "haar_unitary",
    "pauli_string",
    "kraus_rank",
    "choi_rank",
]


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def _check_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    dev = np.abs(a - a.conj().T).max()
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {tol:.1e})")


@dataclass(frozen=True)
class DensityMatrix:
    """A positive, trace-one operator on C^dim."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        _check_hermitian(m)
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise ValueError(f"trace must be 1, got {np.trace(m)!r}")
        lam_min = np.linalg.eigvalsh(_hermitize(m)).min()
        if lam_min < -1e-10:
            raise ValueError(f"negative eigenvalue {lam_min:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class KrausSet:
    """A trace-preserving set of Kraus operators on C^dim."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise ValueError("empty Kraus set")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ValueError("Kraus operators must share one square shape")
        object.__setattr__(self, "operators", ops)
        acc = sum(k.conj().T @ k for k in ops)
        if np.abs(acc - np.eye(d)).max() > 1e-10:
            raise ValueError("Kraus set is not trace preserving")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


@dataclass(frozen=True)
class ChoiMatrix:
    """d^2 x d^2 Hermitian trace-one matrix, tensor order system (x) ancilla."""

    matrix: np.ndarray
    physical: bool = True

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        d2 = m.shape[0]
        d = round(d2 ** 0.5)
        if m.ndim != 2 or m.shape != (d2, d2) or d * d != d2:
            raise ValueError("Choi matrix must be square with perfect-square size")
        _check_hermitian(m)
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise ValueError(f"Choi trace must be 1, got {np.trace(m)!r}")
        if self.physical:
            lam_min = np.linalg.eigvalsh(_hermitize(m)).min()
            if lam_min < -1e-10:
                raise ValueError(f"Choi not PSD: lambda_min = {lam_min:.3e}")
            dev = np.abs(partial_trace(m, "system") - np.eye(d) / d).max()
            if dev > 1e-9:
                raise ValueError(f"Tr_s(Choi) != 1/d (deviation {dev:.3e})")

    @property
    def dim(self) -> int:
        """System dimension d (the matrix acts on C^(d^2))."""
        return round(self.matrix.shape[0] ** 0.5)


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative description of a ground-truth channel.

    kind:
      * ``identity``
      * ``unitary`` -- requires ``unitary``
      * ``noisy_qft`` -- QFT followed by a z measurement of the first qubit
        with probability ``measure_prob``; requires dim a power of two
      * ``mixed_unitary`` -- uniform mixture of ``rank`` orthogonal unitaries
        W S_i with S_i Hilbert-Schmidt-orthogonal unitary strings
    """

    kind: Literal["identity", "unitary", "noisy_qft", "mixed_unitary"]
    dim: int
    unitary: Optional[np.ndarray] = None
    measure_prob: float = 0.0
    rank: int = 1

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.kind == "noisy_qft":
            if not (0.0 <= self.measure_prob <= 1.0):
                raise ValueError("measure_prob must lie in [0, 1]")
            if self.dim & (self.dim - 1):
                raise ValueError("noisy_qft requires a power-of-two dimension")
        if self.kind == "mixed_unitary" and not (1 <= self.rank <= self.dim**2):
            raise ValueError(f"rank must lie in [1, d^2], got {self.rank}")
        if self.kind == "unitary" and self.unitary is None:
            raise ValueError("kind 'unitary' requires a unitary matrix")

    def label(self) -> str:
        if self.kind == "noisy_qft":
            return f"noisy_qft(q={self.measure_prob:g})"
        if self.kind == "mixed_unitary":
            return f"mixed_unitary(r={self.rank})"
        return self.kind


def maximally_entangled_state(d: int) -> DensityMatrix:
    """Rank-one projector onto (1/sqrt(d)) sum_q |q> (x) |q>."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    omega = np.zeros(d * d, dtype=complex)
    omega[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return DensityMatrix(np.outer(omega, omega.conj()))


def choi_from_kraus(kraus: KrausSet) -> ChoiMatrix:
    """Choi matrix (C (x) I)(Omega) of the channel with the given Kraus set.

    (K (x) 1)|omega> has components K[p, q]/sqrt(d) at index (p, q), i.e. the
    row-major flattening of K, so the Choi matrix is the Gram accumulation of
    the vectorized Kraus operators divided by d.
    """
    d = kraus.dim
    vecs = np.stack([k.reshape(-1) for k in kraus.operators]) / np.sqrt(d)
    phi = vecs.T @ vecs.conj()  # sum_i |v_i><v_i| with v_i as the i-th row
    return ChoiMatrix(_hermitize(phi))


def apply_kraus(kraus: KrausSet, rho: DensityMatrix) -> DensityMatrix:
    """Direct channel action sum_i K_i rho K_i^dag."""
    if kraus.dim != rho.dim:
        raise ValueError("dimension mismatch")
    out = sum(k @ rho.matrix @ k.conj().T for k in kraus.operators)
    return DensityMatrix(_hermitize(out))


def apply_via_choi(choi: ChoiMatrix, rho: DensityMatrix) -> DensityMatrix:
    """Channel action through the Choi matrix: C(rho) = d Tr_a(Phi (1 (x) rho^T))."""
    d = choi.dim
    if rho.dim != d:
        raise ValueError("dimension mismatch")
    prod = choi.matrix @ np.kron(np.eye(d), rho.matrix.T)
    out = d * partial_trace(prod, "ancilla")
    return DensityMatrix(_hermitize(out))


def partial_trace(mat: np.ndarray, which: Literal["system", "ancilla"]) -> np.ndarray:
    """Partial trace of a matrix on C^d (x) C^d over one factor, d inferred.

    ``which='system'`` contracts the first factor, ``'ancilla'`` the second.
    """
    mat = np.asarray(mat)
    n = mat.shape[0]
    if mat.ndim != 2 or mat.shape[1] != n:
        raise ValueError("partial_trace expects a square matrix")
    d = round(n ** 0.5)
    if d * d != n:
        raise ValueError(f"dimension {n} is not a perfect square")
    t = mat.reshape(d, d, d, d)
    if which == "system":
        return np.einsum("iaib->ab", t)
    if which == "ancilla":
        return np.einsum("iaja->ij", t)
    raise ValueError(f"unknown factor {which!r}")


def distance(a: np.ndarray, b: np.ndarray, metric: Metric = "frobenius") -> float:
    """Distance between Hermitian matrices: Frobenius, trace, or operator norm."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    diff = _hermitize(a - b)
    if metric == "frobenius":
        return float(np.linalg.norm(diff, "fro"))
    lam = np.linalg.eigvalsh(diff)
    if metric == "trace":
        return float(np.abs(lam).sum())
    if metric == "operator":
        return float(np.abs(lam).max())
    raise ValueError(f"unknown metric {metric!r}")


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """State fidelity F(a, b) = (Tr sqrt(sqrt(a) b sqrt(a)))^2 for PSD a, b."""
    lam, v = np.linalg.eigh(_hermitize(np.asarray(a)))
    sq = (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T
    inner = sq @ np.asarray(b) @ sq
    mu = np.linalg.eigvalsh(_hermitize(inner))
    return float(np.sqrt(np.clip(mu, 0.0, None)).sum() ** 2)


def qft_unitary(d: int) -> np.ndarray:
    """Discrete Fourier transform unitary U[j, l] = exp(2 pi i j l / d)/sqrt(d)."""
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


def haar_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-random d x d unitary: QR of a complex Ginibre matrix, phase-fixed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. 'IXZ' on three qubits."""
    out = np.array([[1.0 + 0j]])
    for ch in label:
        out = np.kron(out, _PAULI_1Q[ch])
    return out


def _orthogonal_unitary_strings(d: int, r: int) -> list[np.ndarray]:
    """First r Hilbert-Schmidt-orthogonal unitary strings on C^d.

    Power-of-two d: Pauli strings in lexicographic order over {I,X,Y,Z}^k.
    Other d: clock-and-shift Weyl unitaries X^a Z^b in lexicographic (a, b)
    order, which are Hilbert-Schmidt orthogonal in any dimension.
    """
    if d & (d - 1) == 0:
        k = d.bit_length() - 1
        labels = []
        for idx in range(r):
            digits = []
            for _ in range(k):
                digits.append("IXYZ"[idx % 4])
                idx //= 4
            labels.append("".join(reversed(digits)))
        return [pauli_string(lab) for lab in labels]
    shift = np.eye(d, dtype=complex)[:, list(range(1, d)) + [0]]  # X|q> = |q-1 mod d>
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(d))
    ops = []
    for idx in range(r):
        a, b = divmod(idx, d)
        ops.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return ops


def make_channel(spec: ChannelSpec) -> KrausSet:
    """Ground-truth Kraus set for a channel specification."""
    d = spec.dim
    if spec.kind == "identity":
        return KrausSet((np.eye(d),))
    if spec.kind == "unitary":
        u = np.asarray(spec.unitary, dtype=complex)
        if u.shape != (d, d):
            raise ValueError("unitary has wrong shape")
        return KrausSet((u,))
    if spec.kind == "noisy_qft":
        q = spec.measure_prob
        u = qft_unitary(d)
        p0 = np.kron(np.diag([1.0, 0.0]).astype(complex), np.eye(d // 2))
        p1 = np.kron(np.diag([0.0, 1.0]).astype(complex), np.eye(d // 2))
        ops = [np.sqrt(1 - q) * u, np.sqrt(q) * (p0 @ u), np.sqrt(q) * (p1 @ u)]
        return KrausSet(tuple(op for op in ops if np.abs(op).max() > 0))
    if spec.kind == "mixed_unitary":
        w = np.eye(d) if spec.unitary is None else np.asarray(spec.unitary, dtype=complex)
        strings = _orthogonal_unitary_strings(d, spec.rank)
        return KrausSet(tuple(w @ s / np.sqrt(spec.rank) for s in strings))
    raise ValueError(f"unknown channel kind {spec.kind!r}")


def kraus_rank(kraus: KrausSet) -> int:
    """Dimension of the span of the vectorized Kraus operators (Gram
    eigenvalues above ``RANK_CUT``)."""
    vecs = np.stack([k.reshape(-1) for k in kraus.operators])
    gram = vecs @ vecs.conj().T
    lam = np.linalg.eigvalsh(_hermitize(gram))
    return int((lam > RANK_CUT).sum())


def choi_rank(choi: ChoiMatrix) -> int:
    """Numerical rank of the Choi matrix (eigenvalues above ``RANK_CUT``)."""
    lam = np.linalg.eigvalsh(_hermitize(choi.matrix))
    return int((lam > RANK_CUT).sum())
