"""Closed-form least-squares Choi estimators for the four scenarios.

``ls_estimate(table)`` is the one entry point: it takes any ``FrequencyTable``
(sampled, exact or lab data) and runs the estimator of the table's scenario.
Each estimator is linear in the frequencies and unbiased: feeding exact Born
probabilities reproduces the true Choi matrix.  Each is the adjoint of the
scenario's Born map, from ``simulate``, the one module that states the
measurement operators, plus the affine correction written here; no
d^4 x (outcome count) design matrix is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (RAW_HERMITICITY_TOL, RAW_TRACE_TOL, _check_hermitian,
                       _check_trace_one, _hermitize)
from .simulate import (_LS_OPS, FrequencyTable, _mub_direct_adjoint,
                       _mub_outcome_adjoint, _pauli_fold, _pauli_view)

__all__ = [
    "LsEstimate",
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


def _ls_pauli(table: FrequencyTable) -> np.ndarray:
    """Scenarios 1 and 2: (1/3^2k) sum f^s_o (x)_i (3 |o_i,s_i><o_i,s_i| - 1)
    over the joint labels (s, o) of the 2k Choi qubits that ``_pauli_view``
    reads, divided by d in scenario 2, whose table holds d times the Born
    probabilities: the adjoint with each qubit's factor P mixed to 3P - 1."""
    k = table.k
    scale = 3 ** (2 * k) * (table.dim if table.scenario == 2 else 1)
    mat = _pauli_fold(_pauli_view(table.values, table.scenario, k), _LS_OPS)
    return mat.reshape(4**k, 4**k) / scale


def _ls_scenario3(table: FrequencyTable) -> np.ndarray:
    """Ancilla-assisted MUB: (d^2+1) sum_v f_v |v><v| - 1."""
    d = table.dim
    mat = _mub_outcome_adjoint(table.values, d)
    mat *= d * d + 1
    return mat - np.eye(d * d)


def _ls_scenario4(table: FrequencyTable) -> np.ndarray:
    """Direct MUB, inputs (|v_k><v_k|)^T and outcomes v_l, with P_v = |v><v|:
    (d+1)/d sum f^k_l P_l (x) P_k - (1/d) sum f^k_l (P_l (x) 1 + 1 (x) P_k) + 1,
    P_k on the ancilla since C(rho) = d Tr_a(Phi (1 (x) rho^T)).  As
    sum_v P_v = (d+1) 1, the marginal terms are the first sum over the table
    (colsum_l + rowsum_k) / (d+1): one adjoint of a mixed table, plus 1."""
    d = table.dim
    f = table.values  # [input k, outcome l]
    marginals = f.sum(axis=0) + f.sum(axis=1)[:, None]
    return _mub_direct_adjoint(((d + 1) * f - marginals / (d + 1)) / d, d) + np.eye(d * d)


def ls_estimate(table: FrequencyTable) -> LsEstimate:
    """Least-squares estimate from a frequency table: the closed-form
    estimator of the table's scenario, which the table checked to be 1..4."""
    if not isinstance(table, FrequencyTable):
        raise TypeError(f"estimator needs a FrequencyTable, got {type(table).__name__}")
    estimators = (_ls_pauli, _ls_pauli, _ls_scenario3, _ls_scenario4)
    return LsEstimate(_hermitize(estimators[table.scenario - 1](table)))
