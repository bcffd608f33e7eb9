"""Numeric evaluators for the concentration bounds and confidence regions.

All bounds are exact formula evaluations with natural logarithms; none are
asymptotic.  Probabilities above one are reported as one (the bound is then
vacuous but still valid).  Domains follow the statements: the accuracy
parameters epsilon / tau / delta^2 live in (0, 1) resp. [0, 1]; outside them
the evaluators raise instead of extrapolating.

The scenario factor g halves are:  scenarios 1-2: 3^(-2k); scenario 3:
2^(-2k)/2; scenario 4: 2^(-2k)/4, with d = 2^k the system dimension (k may
be fractional for non-qubit dimensions in the MUB scenarios).  The direct
projection factor is f = g / 2^(2k).  k is a real number in [1, 64]
(``_K_MAX``): ``g_factor``, so ``f_factor``, every evaluator and
``ErrorBudget`` at construction, refuses any other k by name.  Up to 64
every evaluator is finite; far above it 2^(2k) overflows and g and f
underflow to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .channels import (SPECTRUM_PSD_TOL, SPECTRUM_TRACE_TOL, _check_choice, _check_int,
                       _check_real)

_K_MAX = 64  # largest qubit count k the evaluators accept

__all__ = [
    "ErrorBudget",
    "ConfidenceRegion",
    "g_factor",
    "f_factor",
    "pls_failure_prob",
    "ls_failure_prob",
    "sample_complexity",
    "confidence_region",
    "direct_projection_bound",
]


def g_factor(scenario: int, k: float) -> float:
    """Measurement-scenario factor entering every concentration exponent."""
    _check_int("scenario", scenario, 1, 4)
    _check_real("k", k, 1, _K_MAX)
    if scenario in (1, 2):
        return 3.0 ** (-2 * k)
    return (0.5 if scenario == 3 else 0.25) * 2.0 ** (-2 * k)


def f_factor(scenario: int, k: float) -> float:
    """Direct-projection factor: g(k) with one extra 2^(-2k)."""
    return g_factor(scenario, k) * 2.0 ** (-2 * k)


@dataclass(frozen=True)
class ErrorBudget:
    """Inputs of the bound evaluators.

    k is the qubit count, d = 2^k, and k outside [1, 64] is refused in every
    scenario; for MUB scenarios with non-qubit d pass k = log2(d).  epsilon
    is the accuracy, eta the failure probability and rank the rank hypothesis.
    """

    scenario: int
    k: float
    n_shots: int
    rank: int = 1
    eta: float = 0.05
    epsilon: float = 0.1

    def __post_init__(self):
        _check_int("n_shots", self.n_shots, low=0)
        _check_int("rank", self.rank, low=1)
        _check_real("eta", self.eta, 0, 1, strict=True)
        _check_real("epsilon", self.epsilon)
        g_factor(self.scenario, self.k)  # refuses a bad scenario or k

    @property
    def g(self) -> float:
        return g_factor(self.scenario, self.k)

    @property
    def f(self) -> float:
        return f_factor(self.scenario, self.k)


def _capped(p: float) -> float:
    return min(p, 1.0)


def pls_failure_prob(budget: ErrorBudget, norm: Literal["frobenius", "trace"]) -> float:
    """Probability bound on the projected estimator missing by >= epsilon.

    frobenius: Pr[||est - Phi||_2 >= eps] <= 2^2k exp(-(3 N eps^2/8) g/(8r))
    trace:     Pr[||est - Phi||_1 >= eps] <= 2^2k exp(-(3 N eps^2/32) g/(8r^2))
    """
    eps = budget.epsilon
    _check_real("epsilon", eps, 0, 1, strict=True)
    _check_choice("norm", norm, ("frobenius", "trace"))
    d2 = 2.0 ** (2 * budget.k)
    n, r, g = budget.n_shots, budget.rank, budget.g
    if norm == "frobenius":
        expo = (3 * n * eps**2 / 8) * g / (8 * r)
    else:
        expo = (3 * n * eps**2 / 32) * g / (8 * r**2)
    return _capped(d2 * math.exp(-expo))


def ls_failure_prob(budget: ErrorBudget, norm: Literal["operator", "frobenius"]) -> float:
    """Probability bound for the raw least-squares estimator.

    operator:  Pr[||est - Phi||_inf >= tau]   <= d^2 exp(-(3 N tau^2/8) g)
    frobenius: Pr[||est - Phi||_2^2 >= del^2] <= d^2 exp(-(3 N del^2/8) g/d^2)

    budget.epsilon plays the role of tau resp. delta; the Frobenius variant
    is the operator one with tau^2 -> delta^2/d^2 and exposes the d^2 gap to
    the projected estimator.
    """
    eps = budget.epsilon
    _check_real("epsilon", eps, 0, 1)
    _check_choice("norm", norm, ("operator", "frobenius"))
    d2 = 2.0 ** (2 * budget.k)
    n, g = budget.n_shots, budget.g
    if norm == "operator":
        expo = (3 * n * eps**2 / 8) * g
    else:
        expo = (3 * n * eps**2 / 8) * g / d2
    return _capped(d2 * math.exp(-expo))


def sample_complexity(budget: ErrorBudget) -> int:
    """Shots needed for Pr[||est - Phi||_2 >= eps] <= eta:
    N >= (32 r / g) (8 / (3 eps^2)) ln(2^2k / eta)."""
    eps, eta = budget.epsilon, budget.eta
    _check_real("epsilon", eps, 0, 1, strict=True)
    d2 = 2.0 ** (2 * budget.k)
    n = (32 * budget.rank / budget.g) * (8 / (3 * eps**2)) * math.log(d2 / eta)
    return math.ceil(n)


@dataclass(frozen=True)
class ConfidenceRegion:
    """Simultaneous confidence radii with the rank hypothesis that minimizes
    the Frobenius radius (chosen_r, chosen_delta); the trace radius is
    minimized over ranks independently, which the simultaneous validity of
    the underlying bounds permits."""

    frobenius_radius: float
    trace_radius: float
    chosen_r: int
    chosen_delta: float


def _delta_of_rank(spectrum: np.ndarray, r: int) -> float:
    """Certified almost-rank slack: keep the top r eigenvalues, renormalize
    to unit trace; the operator distance is max of the first dropped
    eigenvalue and the renormalization shift of the largest one."""
    top = spectrum[:r]
    s = float(top.sum())
    tail = float(spectrum[r]) if r < len(spectrum) else 0.0
    shift = float(spectrum[0]) * (1.0 - s) / s
    return max(tail, shift)


def confidence_region(spectrum: Sequence[float], budget: ErrorBudget) -> ConfidenceRegion:
    """Confidence radii from the spectrum of the trace-one PSD first-stage
    estimate: for each rank r a certified delta(r) is computed and

        frobenius^2 = 2 r (delta + 2 t)^2,
        trace       = r ((4 sqrt2 + 2) delta + (4 + 8 sqrt2) t),

    with t = sqrt(8 ln(2^2k/eta) / (3 N g)); the minimum over r is returned
    (all ranks hold simultaneously with probability 1 - eta)."""
    _check_int("n_shots", budget.n_shots, low=1)
    spec = np.sort(np.asarray(spectrum, dtype=float))[::-1]
    if spec.size == 0:
        raise ValueError("empty spectrum")
    if (not np.isfinite(spec).all() or spec[-1] < -SPECTRUM_PSD_TOL
            or abs(spec.sum() - 1.0) > SPECTRUM_TRACE_TOL):
        raise ValueError("spectrum must come from a finite trace-one PSD matrix")
    spec = np.clip(spec, 0.0, None)
    t = math.sqrt(8 * math.log(2.0 ** (2 * budget.k) / budget.eta)
                  / (3 * budget.n_shots * budget.g))
    best_frob = None
    best_trace = math.inf
    for r in range(1, len(spec) + 1):
        delta = _delta_of_rank(spec, r)
        frob = math.sqrt(2 * r) * (delta + 2 * t)
        trace = r * ((4 * math.sqrt(2) + 2) * delta + (4 + 8 * math.sqrt(2)) * t)
        best_trace = min(best_trace, trace)
        if best_frob is None or frob < best_frob[0]:
            best_frob = (frob, r, delta)
    frob, r, delta = best_frob
    return ConfidenceRegion(frobenius_radius=frob, trace_radius=best_trace,
                            chosen_r=r, chosen_delta=delta)


def direct_projection_bound(budget: ErrorBudget) -> tuple[float, int]:
    """Failure probability and sample complexity when the raw estimate is
    projected straight onto the physical set:

        Pr[||est - Phi||_2^2 >= eps] <= d^2 exp(-(3 N eps / 8) f(k)),
        N >= (1/f) (8 / (3 eps)) ln(d^2 / eta).

    The two-step bound is the stricter one iff r < d^2/32, so for one- and
    two-qubit channels this direct bound is the tighter of the pair."""
    eps, eta = budget.epsilon, budget.eta
    _check_real("epsilon", eps, 0, 1, strict=True)
    d2 = 2.0 ** (2 * budget.k)
    f = budget.f
    prob = _capped(d2 * math.exp(-(3 * budget.n_shots * eps / 8) * f))
    n = math.ceil((1 / f) * (8 / (3 * eps)) * math.log(d2 / eta))
    return prob, n
