"""Closed-form least-squares Choi estimators for the four scenarios.

``ls_estimate(table)`` is the one entry point: it takes any ``FrequencyTable``
(sampled, exact or lab data) and runs the estimator of the table's scenario.
Each estimator is linear in the frequencies and unbiased: feeding exact Born
probabilities reproduces the true Choi matrix.  The Pauli scenarios are
assembled by folding frequency tensors against the single-qubit operators
3|o,s><o,s| - 1 one qubit at a time, so no d^4 x (outcome count) design
matrix is ever materialized.  The fold runs in 36 chunks read straight from
the real table (scenario 2 through a transposed view), so its transients are
about a third of a table's worth of float64 and no complex copy of the whole
table is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (RAW_HERMITICITY_TOL, RAW_TRACE_TOL, _check_hermitian,
                       _check_trace_one, _hermitize)
from .designs import mub_family, pauli_operator_stack
from .simulate import FrequencyTable, _mub_rows

__all__ = [
    "LsEstimate",
    "pauli_assemble",
    "ls_estimate",
]


@dataclass(frozen=True)
class LsEstimate:
    """Least-squares estimate of a Choi matrix (Hermitian, unit trace)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        _check_hermitian(m, RAW_HERMITICITY_TOL)
        _check_trace_one(m, RAW_TRACE_TOL)


def pauli_assemble(freqs: np.ndarray, n: int) -> np.ndarray:
    """sum_{s,o} f[s,o] (x)_i (3 |o_i,s_i><o_i,s_i| - 1) over n qubits.

    ``freqs`` is real and reshapes to [s_0..s_{n-1}, o_0..o_{n-1}]: a
    (3^n, 2^n) table, or a strided view such as the transposed scenario-2
    table; it is never copied whole.  The contraction folds one qubit per
    step for an O(n 6^n) total cost.

    The work runs in 36 chunks, one per value of the last two folded indices
    (u_{n-2}, u_{n-1}), u_i = (s_i, o_i).  Each chunk is sliced from the real
    table, interleaved to per-qubit axes, cast to complex and folded over
    u_0..u_{n-3}; for each u_{n-1} the six 4^(n-2) partial results are
    stacked and folded over u_{n-2}, and the six 4^(n-1) results of that
    are stacked and folded over u_{n-1}.  The transients are a few
    hundredths of a table each, and the per-element arithmetic is that of
    the fold on the whole tensor, so the result is bitwise equal to it.
    """
    f = np.reshape(freqs, (3,) * n + (2,) * n)
    t = _assemble_fold(f, (), pauli_operator_stack())  # axes r_0, c_0, r_1, c_1, ...
    rows = list(range(0, 2 * n, 2))
    cols = list(range(1, 2 * n, 2))
    return np.ascontiguousarray(t.transpose(rows + cols)).reshape(2**n, 2**n)


def _assemble_fold(f: np.ndarray, last: tuple, ops: np.ndarray) -> np.ndarray:
    """Fold the chunks of f whose u_{n-m}..u_{n-1} are the m values in
    ``last``; returns axes u_{n-m}..u_{n-1} (one value each), r_0, c_0, ..."""
    n = f.ndim // 2
    # a chunk with one row left would reach BLAS as a vector product, whose
    # rounding differs, so the first two qubits are never chunked
    split = max(0, min(2, n - 2))
    if len(last) < split:
        t = np.concatenate([_assemble_fold(f, (u,) + last, ops) for u in range(6)])
        return np.tensordot(t, ops, axes=([0], [0]))
    free = (slice(None),) * (n - split)
    s = tuple(slice(u // 2, u // 2 + 1) for u in last)
    o = tuple(slice(u % 2, u % 2 + 1) for u in last)
    perm = [ax for i in range(n) for ax in (i, n + i)]
    t = f[free + s + free + o].transpose(perm).astype(complex, order="C")
    t = t.reshape((6,) * (n - split) + (1,) * split)
    for _ in range(n - split):
        t = np.tensordot(t, ops, axes=([0], [0]))
    return t


def _ls_scenario1(table: FrequencyTable) -> LsEstimate:
    """Ancilla-assisted Pauli estimator:
    (1/3^2k) sum f^s_o (x)_i (3 |o_i,s_i><o_i,s_i| - 1)."""
    k = table.k
    mat = pauli_assemble(table.values, 2 * k) / 3 ** (2 * k)
    return LsEstimate(_hermitize(mat))


def _ls_scenario2(table: FrequencyTable) -> LsEstimate:
    """Direct Pauli estimator:
    (1/(3^2k d)) sum f^ab_qp M^b_p (x) M^a_q with M = 3|.><.| - 1.

    The frequency array is [a, b, q, p]; the measurement labels (b, p) sit on
    the system factor and the input labels (a, q) on the ancilla factor, as
    fixed by the probability map p^ab_qp = d Tr(Phi P^b_p (x) P^a_q).
    """
    k = table.k
    d = 2**k
    joint = table.values.transpose(1, 0, 3, 2)  # [b, a, p, q], a strided view
    mat = pauli_assemble(joint, 2 * k) / (3 ** (2 * k) * d)
    return LsEstimate(_hermitize(mat))


def _ls_scenario3(table: FrequencyTable) -> LsEstimate:
    """Ancilla-assisted MUB estimator: (d^2+1) sum_i f_i |v_i><v_i| - 1.

    The sum runs one basis B_a at a time, as (B_a^T * f_a) @ conj(B_a),
    each basis built from the family's phase tables, so its transients are a
    few D x D blocks and the (D+1) x D x D stack is never held.
    """
    d = table.dim
    fam = mub_family(d * d)
    n = fam.dim
    mat = np.zeros((n, n), dtype=complex)
    for a, f in enumerate(table.values.reshape(n + 1, n)):
        basis = fam.basis(a)
        mat += (basis.T * f) @ basis.conj()
    mat *= d * d + 1
    mat -= np.eye(d * d)
    return LsEstimate(_hermitize(mat))


def _ls_scenario4(table: FrequencyTable) -> LsEstimate:
    """Direct MUB estimator (inputs (|v_k><v_k|)^T, MUB measurements v_l):

    (d+1)/d sum f^k_l P_l (x) P_k
      - (1/d) sum f^k_l (P_l (x) 1 + 1 (x) P_k) + 1 (x) 1,

    with P_l = |v_l><v_l| on the system factor and P_k = |v_k><v_k| on the
    ancilla factor: C(rho) = d Tr_a(Phi (1 (x) rho^T)), so the input
    (|v_k><v_k|)^T pairs with P_k there, not with its own projector.

    With P = conj(``_mub_rows(d)``), whose row v is |v><v| flattened, the
    first sum is P^T (f^T P) realigned from (s, s', a, a') to (s, a, s', a'),
    and the marginal sums are colsum(f) P and rowsum(f) P.
    """
    d = table.dim
    projs = _mub_rows(d).conj()
    f = table.values  # [input k, outcome l]
    term1 = (projs.T @ (f.T @ projs)).reshape((d,) * 4)
    term1 = term1.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    p_tot = (f.sum(axis=0) @ projs).reshape(d, d)
    q_tot = (f.sum(axis=1) @ projs).reshape(d, d)
    eye = np.eye(d)
    mat = ((d + 1) / d * term1
           - (np.kron(p_tot, eye) + np.kron(eye, q_tot)) / d
           + np.eye(d * d))
    return LsEstimate(_hermitize(mat))


def ls_estimate(table: FrequencyTable) -> LsEstimate:
    """Least-squares estimate from a frequency table: the closed-form
    estimator of the table's scenario, which the table checked to be 1..4."""
    if not isinstance(table, FrequencyTable):
        raise TypeError(f"estimator needs a FrequencyTable, got {type(table).__name__}")
    estimators = (_ls_scenario1, _ls_scenario2, _ls_scenario3, _ls_scenario4)
    return estimators[table.scenario - 1](table)
