"""Closed-form least-squares Choi estimators for the four scenarios.

``ls_estimate(table)`` is the one entry point: it takes any ``FrequencyTable``
(sampled, exact or lab data) and runs the estimator of the table's scenario.
Each estimator is linear in the frequencies and unbiased: feeding exact Born
probabilities reproduces the true Choi matrix.  The Pauli scenarios fold the
table against the single-qubit operators 3|o,s><o,s| - 1 (``_pauli_fold``),
so no d^4 x (outcome count) design matrix is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (RAW_HERMITICITY_TOL, RAW_TRACE_TOL, _check_hermitian,
                       _check_trace_one, _hermitize)
from .designs import mub_family, pauli_operator_stack
from .simulate import FrequencyTable, _mub_rows, _pauli_fold, _pauli_view

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
    """sum_{s,o} f[s,o] (x)_i (3 |o_i,s_i><o_i,s_i| - 1) over n qubits:
    ``_pauli_fold`` in its shrinking direction.  ``freqs`` is real and
    reshapes to [s_0..s_{n-1}, o_0..o_{n-1}]: a (3^n, 2^n) table, or a
    strided view such as ``_pauli_view`` of a scenario-2 table."""
    f = np.reshape(freqs, (3,) * n + (2,) * n)
    return _pauli_fold(f, pauli_operator_stack().reshape(3, 2, 2, 2)).reshape(2**n, 2**n)


def _ls_pauli(table: FrequencyTable) -> LsEstimate:
    """Pauli estimators, scenario 1 ancilla-assisted and 2 direct:
    (1/3^2k) sum f^s_o (x)_i (3 |o_i,s_i><o_i,s_i| - 1) over the joint labels
    (s, o) of the 2k Choi qubits that ``_pauli_view`` reads, divided by d in
    scenario 2, whose table holds d times the Born probabilities."""
    k = table.k
    scale = 3 ** (2 * k) * (table.dim if table.scenario == 2 else 1)
    mat = pauli_assemble(_pauli_view(table.values, table.scenario, k), 2 * k) / scale
    return LsEstimate(_hermitize(mat))


def _ls_scenario3(table: FrequencyTable) -> LsEstimate:
    """Ancilla-assisted MUB estimator: (d^2+1) sum_i f_i |v_i><v_i| - 1, run
    one basis B_a at a time as (B_a^T * f_a) @ conj(B_a), as the Born table
    is (``simulate`` module docstring: the stack is never held)."""
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
    estimators = (_ls_pauli, _ls_pauli, _ls_scenario3, _ls_scenario4)
    return estimators[table.scenario - 1](table)
