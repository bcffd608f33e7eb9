"""Closed-form least-squares Choi estimators for the four scenarios.

Each estimator is linear in the frequencies and unbiased: feeding exact Born
probabilities reproduces the true Choi matrix.  The Pauli scenarios are
assembled by folding frequency tensors against the single-qubit operators
3|o,s><o,s| - 1 one qubit at a time, so no d^4 x (outcome count) design
matrix is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .designs import mub_family, pauli_operator_stack
from .simulate import FrequencyTable

__all__ = [
    "LsEstimate",
    "pauli_assemble",
    "ls_scenario1",
    "ls_scenario2",
    "ls_scenario3",
    "ls_scenario4",
    "ls_estimate",
]


@dataclass(frozen=True)
class LsEstimate:
    """Least-squares estimate of a Choi matrix (Hermitian, unit trace)."""

    matrix: np.ndarray
    scenario: int
    n_shots: int
    nu: float
    seed: Optional[int] = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if np.abs(m - m.conj().T).max() > 1e-10:
            raise ValueError("estimate is not Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"estimate trace {tr} deviates from 1")

    @property
    def dim(self) -> int:
        return round(self.matrix.shape[0] ** 0.5)


def pauli_assemble(freqs: np.ndarray, n: int) -> np.ndarray:
    """sum_{s,o} f[s,o] (x)_i (3 |o_i,s_i><o_i,s_i| - 1) over n qubits.

    ``freqs`` has shape (3^n, 2^n); the contraction folds one qubit per step
    for an O(n 6^n) total cost.
    """
    ops = pauli_operator_stack()
    t = np.asarray(freqs, dtype=complex).reshape((3,) * n + (2,) * n)
    # interleave to per-qubit axes u_i = (s_i, o_i), then merge to size 6
    perm = [ax for i in range(n) for ax in (i, n + i)]
    t = t.transpose(perm).reshape((6,) * n)
    for _ in range(n):
        t = np.tensordot(t, ops, axes=([0], [0]))
    # axes are now r_0, c_0, r_1, c_1, ...
    rows = list(range(0, 2 * n, 2))
    cols = list(range(1, 2 * n, 2))
    return np.ascontiguousarray(t.transpose(rows + cols)).reshape(2**n, 2**n)


def _check(table: FrequencyTable, scenario: int) -> None:
    if table.scenario != scenario:
        raise ValueError(f"table is for scenario {table.scenario}, not {scenario}")


def _wrap(matrix: np.ndarray, table: FrequencyTable) -> LsEstimate:
    matrix = 0.5 * (matrix + matrix.conj().T)
    return LsEstimate(matrix=matrix, scenario=table.scenario,
                      n_shots=table.total_shots, nu=table.nu, seed=table.seed)


def ls_scenario1(table: FrequencyTable) -> LsEstimate:
    """Ancilla-assisted Pauli estimator:
    (1/3^2k) sum f^s_o (x)_i (3 |o_i,s_i><o_i,s_i| - 1)."""
    _check(table, 1)
    k = table.k
    if table.values.shape != (3 ** (2 * k), 4**k):
        raise ValueError("table shape does not match k")
    mat = pauli_assemble(table.values, 2 * k) / 3 ** (2 * k)
    return _wrap(mat, table)


def ls_scenario2(table: FrequencyTable) -> LsEstimate:
    """Direct Pauli estimator:
    (1/(3^2k d)) sum f^ab_qp M^b_p (x) M^a_q with M = 3|.><.| - 1.

    The frequency array is [a, b, q, p]; the measurement labels (b, p) sit on
    the system factor and the input labels (a, q) on the ancilla factor, as
    fixed by the probability map p^ab_qp = d Tr(Phi P^b_p (x) P^a_q).
    """
    _check(table, 2)
    k = table.k
    d = 2**k
    if table.values.shape != (3**k, 3**k, 2**k, 2**k):
        raise ValueError("table shape does not match k")
    joint = table.values.transpose(1, 0, 3, 2).reshape(3 ** (2 * k), 4**k)
    mat = pauli_assemble(joint, 2 * k) / (3 ** (2 * k) * d)
    return _wrap(mat, table)


def ls_scenario3(table: FrequencyTable) -> LsEstimate:
    """Ancilla-assisted MUB estimator: (d^2+1) sum_i f_i |v_i><v_i| - 1."""
    _check(table, 3)
    d = table.dim
    vecs = mub_family(d * d).vectors()
    if table.values.shape != (vecs.shape[0],):
        raise ValueError("table shape does not match d")
    mat = (d * d + 1) * (vecs.T * table.values) @ vecs.conj() - np.eye(d * d)
    return _wrap(mat, table)


def ls_scenario4(table: FrequencyTable) -> LsEstimate:
    """Direct MUB estimator (transposed MUB inputs w_k, MUB measurements v_l):

    (d+1)/d sum f^k_l P_l (x) Q_k
      - (1/d) sum f^k_l (P_l (x) 1 + 1 (x) Q_k) + 1 (x) 1,

    with P_l = |v_l><v_l| on the system factor and Q_k = |w_k><w_k| on the
    ancilla factor.
    """
    _check(table, 4)
    d = table.dim
    vecs = mub_family(d).vectors()
    m = vecs.shape[0]
    if table.values.shape != (m, m):
        raise ValueError("table shape does not match d")
    f = table.values  # [input k, outcome l]
    projs = np.einsum("ki,kj->kij", vecs, vecs.conj())
    # sum_l f^k_l P_l for each input k, then tensor against Q_k
    a_stack = np.einsum("kl,lij->kij", f, projs)
    term1 = np.einsum("kab,kcd->acbd", a_stack, projs).reshape(d * d, d * d)
    p_tot = np.einsum("l,lij->ij", f.sum(axis=0), projs)
    q_tot = np.einsum("k,kij->ij", f.sum(axis=1), projs)
    eye = np.eye(d)
    mat = ((d + 1) / d * term1
           - (np.kron(p_tot, eye) + np.kron(eye, q_tot)) / d
           + np.eye(d * d))
    return _wrap(mat, table)


def ls_estimate(table: FrequencyTable) -> LsEstimate:
    """Dispatch to the closed-form estimator for the table's scenario."""
    if table.scenario == 1:
        return ls_scenario1(table)
    if table.scenario == 2:
        return ls_scenario2(table)
    if table.scenario == 3:
        return ls_scenario3(table)
    if table.scenario == 4:
        return ls_scenario4(table)
    raise ValueError(f"unknown scenario {table.scenario}")
