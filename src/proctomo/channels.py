"""Quantum channels as Kraus sets and Choi matrices.

Conventions used throughout the package:

* The Choi matrix of a channel C acting on C^d is the d^2 x d^2 state
  obtained by sending one half of a maximally entangled pair through C.
  The tensor order is fixed as system (channel output) (x) ancilla, i.e.
  the first factor of every d^2-dimensional operator is the system.
* Flattened indices follow ``np.kron``: index (s, a) -> s * d + a.
* A Choi matrix is a density matrix on C^d (x) C^d whose system partial
  trace is 1/d times the identity (the channel is trace preserving).
  ``ChoiMatrix`` is a ``DensityMatrix`` plus that test.

The Kraus stack is vectorized in one place, ``kraus_factor``: the n x r W
with Choi matrix W W^dag, whose r x r W^dag b W gives ``fidelity`` and whose
W^dag W gives ``kraus_rank``.  ``distance`` returns all three error norms.

Each physical-set rule is one function here (``system_dim``, ``qubit_count``,
``tp_deviation``, ``_check_hermitian``, ``_check_trace_one``; the last two
refuse a nan or inf entry first, and ``_check_hermitian`` anything but a
square 2-D array before that) with its tolerance named in the table below:
validated states use the strict tolerances, raw least-squares estimates the
looser ``RAW_*`` pair.

Each scalar input rule of the package is one checker here, with one message
form: ``_check_int`` and ``_check_real`` ("{name} must be an integer >= 1, got
0", "... a finite number in (0, 1), got nan"), and ``_check_choice``
("unknown {name} 'x'; choose from a, b").
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

HERMITICITY_TOL = 1e-12      # max ||A - A^dag||_inf of a validated Hermitian input
TRACE_TOL = 1e-12            # max |Tr A - 1| of a validated state
PSD_TOL = 1e-10              # least eigenvalue of a validated state is >= -this
TP_TOL = 1e-9                # max ||Tr_s Phi - 1/d||_inf of a trace-preserving Choi matrix
KRAUS_TP_TOL = 1e-10         # max ||sum K^dag K - 1||_inf of a Kraus set, so also
                             # max ||U^dag U - 1||_inf of a ChannelSpec's unitary
RAW_HERMITICITY_TOL = 1e-10  # max ||A - A^dag||_inf of a raw estimate or a projection input
                             # (proj_cp, proj_cp1_thresholded, project_to_cptp)
RAW_TRACE_TOL = 1e-8         # max |Tr A - 1| of a raw estimate or first-stage input
RANK_CUT = 1e-9              # eigenvalues above this count towards the numerical rank
SPECTRUM_PSD_TOL = 1e-9      # least entry of a confidence_region spectrum is >= -this
SPECTRUM_TRACE_TOL = 1e-6    # max |sum - 1| of a confidence_region spectrum

__all__ = [
    "DensityMatrix",
    "KrausSet",
    "ChoiMatrix",
    "ChannelSpec",
    "kraus_factor",
    "choi_from_kraus",
    "partial_trace",
    "system_dim",
    "qubit_count",
    "tp_deviation",
    "distance",
    "fidelity",
    "make_channel",
    "qft_unitary",
    "haar_unitary",
    "pauli_string",
    "numerical_rank",
    "kraus_rank",
]


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def _check_finite(a: np.ndarray, name: str = "matrix") -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")


def _check_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    _check_finite(a)
    dev = np.abs(a - a.conj().T).max()
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {tol:.1e})")


def _check_trace_one(a: np.ndarray, tol: float = TRACE_TOL) -> None:
    _check_finite(a)
    tr = np.trace(a).real
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace must be 1, got {tr!r} (tolerance {tol:.1e})")


def _check_range(name: str, value, what: str, typed: bool, low, high, strict: bool):
    """Refuse value unless typed and in [low, high], or in (low, high) if
    strict; a bound left at None is not checked."""
    below = operator.lt if strict else operator.le
    if not (typed and (low is None or below(low, value))
            and (high is None or below(value, high))):
        if high is not None:
            what += f" in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}"
        elif low is not None:
            what += f" {'>' if strict else '>='} {low}"
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _check_int(name: str, value, low: Optional[int] = None, high: Optional[int] = None):
    """Refuse anything but a plain int (so bool too) in [low, high]."""
    _check_range(name, value, "an integer", type(value) is int, low, high, False)


def _check_real(name: str, value, low=None, high=None, strict: bool = False):
    """Refuse anything but an int, numpy's too, or a finite float (so bools,
    numeric strings, nan and inf too) in [low, high], or (low, high) if strict."""
    typed = (isinstance(value, float) and bool(np.isfinite(value))
             or isinstance(value, (int, np.integer)) and not isinstance(value, bool))
    _check_range(name, value, "a finite number", typed, low, high, strict)


def _check_choice(name: str, value, choices):
    """Refuse anything but a str among choices (so a list or array too)."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {name} {value!r}; choose from {', '.join(choices)}")


def system_dim(n: int) -> int:
    """d for an operator on C^d (x) C^d of size n = d^2."""
    d = round(n ** 0.5)
    if d * d != n:
        raise ValueError(f"dimension {n} is not a perfect square")
    return d


def qubit_count(d: int) -> int:
    """k for a dimension d = 2^k."""
    k = d.bit_length() - 1
    if 2**k != d:
        raise ValueError(f"expected a power-of-two dimension, got {d}")
    return k


def tp_deviation(m: np.ndarray) -> float:
    """max |Tr_s(m) - 1/d|: how far m is from the trace-preserving plane."""
    d = system_dim(m.shape[0])
    return float(np.abs(partial_trace(m) - np.eye(d) / d).max())


@dataclass(frozen=True)
class DensityMatrix:
    """A positive, trace-one operator, held as an n x n ``matrix``."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        _check_hermitian(m)
        _check_trace_one(m)
        lam_min = np.linalg.eigvalsh(m).min()
        if lam_min < -PSD_TOL:
            raise ValueError(f"negative eigenvalue {lam_min:.3e}")


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
            _check_finite(k)
        object.__setattr__(self, "operators", ops)
        acc = sum(k.conj().T @ k for k in ops)
        if np.abs(acc - np.eye(d)).max() > KRAUS_TP_TOL:
            raise ValueError("Kraus set is not trace preserving")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


class ChoiMatrix(DensityMatrix):
    """Density matrix on C^d (x) C^d, tensor order system (x) ancilla, with
    Tr_s = 1/d: the Choi matrix of a channel."""

    def __post_init__(self):
        super().__post_init__()
        dev = tp_deviation(self.matrix)
        if dev > TP_TOL:
            raise ValueError(f"Tr_s(Choi) != 1/d (deviation {dev:.3e})")

    @property
    def dim(self) -> int:
        """System dimension d (the matrix acts on C^(d^2))."""
        return system_dim(self.matrix.shape[0])


# the optional ChannelSpec fields each kind reads, with the value of a missing one
_SPEC_FIELDS = {"identity": {}, "unitary": {"unitary": None},
                "noisy_qft": {"measure_prob": 0.0},
                "mixed_unitary": {"unitary": None, "rank": 1}}


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative description of a ground-truth channel.

    kind:
      * ``identity``
      * ``unitary`` -- requires ``unitary``
      * ``noisy_qft`` -- QFT followed by a z measurement of the first qubit
        with probability ``measure_prob`` (0 if not given); requires dim a
        power of two
      * ``mixed_unitary`` -- uniform mixture of ``rank`` (1 if not given)
        orthogonal unitaries W S_i with S_i Hilbert-Schmidt-orthogonal
        unitary strings, W = ``unitary`` or the identity

    Construction refuses any other kind; any of ``unitary``, ``measure_prob``
    and ``rank`` given to a kind that does not read it, by name, before its
    value is checked; a ``measure_prob`` outside [0, 1], a ``rank`` outside
    [1, dim^2] and a ``unitary`` that is not a dim x dim unitary to
    ``KRAUS_TP_TOL``.  A field left at None is not given; one the kind reads
    is then set to its default.
    """

    kind: Literal["identity", "unitary", "noisy_qft", "mixed_unitary"]
    dim: int
    unitary: Optional[np.ndarray] = None
    measure_prob: Optional[float] = None
    rank: Optional[int] = None

    def __post_init__(self):
        _check_choice("kind", self.kind, _SPEC_FIELDS)
        _check_int("dim", self.dim, low=2)
        reads = _SPEC_FIELDS[self.kind]
        for name in ("unitary", "measure_prob", "rank"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, reads.get(name))
            elif name not in reads:
                raise ValueError(f"kind {self.kind!r} takes no {name}")
        if self.kind == "noisy_qft":
            _check_real("measure_prob", self.measure_prob, 0, 1)
            qubit_count(self.dim)
        if self.kind == "mixed_unitary":
            _check_int("rank", self.rank, 1, self.dim**2)
        if self.kind == "unitary" and self.unitary is None:
            raise ValueError("kind 'unitary' requires a unitary matrix")
        if self.unitary is None:
            return
        if np.shape(self.unitary) != (self.dim, self.dim):
            raise ValueError(f"unitary must be {self.dim} x {self.dim}, "
                             f"got shape {np.shape(self.unitary)}")
        u = np.asarray(self.unitary, dtype=complex)
        dev = np.abs(u.conj().T @ u - np.eye(self.dim)).max()
        if not dev <= KRAUS_TP_TOL:  # nan too
            raise ValueError(f"unitary is not unitary (max |U^dag U - 1| {dev:.3e} "
                             f"> {KRAUS_TP_TOL:.1e})")

    def label(self) -> str:
        if self.kind == "noisy_qft":
            return f"noisy_qft(q={self.measure_prob:g})"
        if self.kind == "mixed_unitary":
            return f"mixed_unitary(r={self.rank})"
        return self.kind


def kraus_factor(kraus: KrausSet) -> np.ndarray:
    """The n x r factor W of the Choi matrix W W^dag: column i is
    (K_i (x) 1)|omega> = vec(K_i)/sqrt(d), vec the row-major flattening."""
    d = kraus.dim
    return (np.stack([k.reshape(-1) for k in kraus.operators]) / np.sqrt(d)).T


def choi_from_kraus(kraus: KrausSet) -> ChoiMatrix:
    """Choi matrix (C (x) I)(Omega) = W W^dag of the channel with the given
    Kraus set, W its ``kraus_factor``."""
    w = kraus_factor(kraus)
    return ChoiMatrix(_hermitize(w @ w.conj().T))


def partial_trace(mat: np.ndarray) -> np.ndarray:
    """Tr_s: the partial trace of a matrix on C^d (x) C^d over its first
    (system) factor, d inferred; a d x d matrix on the ancilla."""
    mat = np.asarray(mat)
    n = mat.shape[0]
    if mat.ndim != 2 or mat.shape[1] != n:
        raise ValueError("partial_trace expects a square matrix")
    d = system_dim(n)
    return np.einsum("iaib->ab", mat.reshape(d, d, d, d))


def distance(a: np.ndarray, b: np.ndarray) -> dict:
    """Trace, Frobenius and operator norm of the Hermitian part of a - b,
    keyed by those names; the trace and operator norm share one ``eigvalsh``."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    diff = _hermitize(a - b)
    lam = np.abs(np.linalg.eigvalsh(diff))
    return {"trace": float(lam.sum()),
            "frobenius": float(np.linalg.norm(diff, "fro")),
            "operator": float(lam.max())}


def fidelity(w: np.ndarray, b: np.ndarray) -> float:
    """F(a, b) = (Tr sqrt(sqrt(a) b sqrt(a)))^2 for PSD a = W W^dag, W n x r,
    and PSD b: the nonzero eigenvalues mu of sqrt(a) b sqrt(a) are those of
    the r x r W^dag b W, so F = (sum sqrt(max(mu, 0)))^2."""
    w = np.asarray(w)
    b = np.asarray(b)
    if w.ndim != 2 or b.shape != (w.shape[0],) * 2:
        raise ValueError(f"fidelity needs an n x r factor and an n x n matrix, "
                         f"got shapes {w.shape} and {b.shape}")
    mu = np.linalg.eigvalsh(_hermitize(w.conj().T @ b @ w))
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
        return KrausSet((np.asarray(spec.unitary, dtype=complex),))
    if spec.kind == "noisy_qft":
        q = spec.measure_prob
        u = qft_unitary(d)
        p0 = np.kron(np.diag([1.0, 0.0]).astype(complex), np.eye(d // 2))
        p1 = np.kron(np.diag([0.0, 1.0]).astype(complex), np.eye(d // 2))
        ops = [np.sqrt(1 - q) * u, np.sqrt(q) * (p0 @ u), np.sqrt(q) * (p1 @ u)]
        return KrausSet(tuple(op for op in ops if np.abs(op).max() > 0))
    w = np.eye(d) if spec.unitary is None else np.asarray(spec.unitary, dtype=complex)
    strings = _orthogonal_unitary_strings(d, spec.rank)
    return KrausSet(tuple(w @ s / np.sqrt(spec.rank) for s in strings))


def numerical_rank(eigenvalues: np.ndarray) -> int:
    """Number of eigenvalues above ``RANK_CUT``."""
    return int((eigenvalues > RANK_CUT).sum())


def kraus_rank(kraus: KrausSet) -> int:
    """Dimension of the span of the vectorized Kraus operators: eigenvalues of
    W^dag W (the nonzero ones of the Choi matrix W W^dag) above ``RANK_CUT``."""
    w = kraus_factor(kraus)
    return numerical_rank(np.linalg.eigvalsh(_hermitize(w.conj().T @ w)))
