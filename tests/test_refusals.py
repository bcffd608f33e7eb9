"""Refusals of bad input at the public entry points, one row per refusal.

Each row is (call, parameter, bad value, exception type, message fragment).
Refusals pinned elsewhere (``SamplingPlan``, ``ErrorBudget``'s fields, the
table layout, nan matrices, a bad ``threshold``) stay in their own modules;
the one scenario rule is pinned here over every call that takes a scenario.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proctomo import simulate
from proctomo.bounds import ErrorBudget, f_factor, g_factor
from proctomo.channels import (RAW_HERMITICITY_TOL, ChannelSpec, ChoiMatrix, KrausSet,
                               fidelity)
from proctomo.designs import mub_family
from proctomo.estimators import ls_estimate
from proctomo.harness import ExperimentConfig
from proctomo.projections import METHODS, proj_cp1_thresholded, project_to_cptp
from proctomo.simulate import (FrequencyTable, SamplingPlan, exact_table,
                               probability_array, sample, setting_count)


def _table(**fields):
    kwargs = dict(scenario=1, dim=2, values=np.full((9, 4), 0.25))
    return FrequencyTable(**{**kwargs, **fields})


_OFF_HERMITIAN = np.triu(np.ones((4, 4), dtype=complex)) / 4  # trace one
_NOT_HERMITIAN = "matrix is not Hermitian (deviation 2.500e-01 > 1.0e-10)"

ROWS = [
    ("FrequencyTable", lambda v: _table(scenario=v), "scenario", True, ValueError,
     "scenario must be 1..4, got True"),
    ("FrequencyTable", lambda v: _table(scenario=v), "scenario", 1.0, ValueError,
     "scenario must be 1..4, got 1.0"),
    ("FrequencyTable", lambda v: _table(dim=v), "dim", 2.0, ValueError,
     "dim must be an integer >= 2, got 2.0"),
    ("FrequencyTable", lambda v: _table(scenario=3, dim=v, values=np.zeros(2)), "dim",
     1, ValueError, "dim must be an integer >= 2, got 1"),
    # d = 6 has no MUB family: the table refuses it, not only the estimator
    ("FrequencyTable-s3", lambda v: _table(scenario=3, dim=v, values=np.zeros(1332)),
     "dim", 6, NotImplementedError, "MUB family for dimension 36 not implemented"),
    ("FrequencyTable-s4", lambda v: _table(scenario=4, dim=v, values=np.zeros((42, 42))),
     "dim", 6, NotImplementedError, "MUB family for dimension 6 not implemented"),
    # a table is real and finite, refused by name before any estimator runs
    ("FrequencyTable", lambda v: _table(values=v), "values", np.full((9, 4), 0.25 + 0j),
     ValueError, "values must be real, got complex128"),
    ("FrequencyTable", lambda v: _table(values=v), "values", [[0.25 + 0j] * 4] * 9,
     ValueError, "values must be real, got complex128"),
    ("FrequencyTable", lambda v: _table(values=v), "values", np.full((9, 4), np.nan),
     ValueError, "values must be finite, got min nan and max nan"),
    ("FrequencyTable", lambda v: _table(values=v), "values",
     np.where(np.eye(9, 4) > 0, np.inf, 0.25), ValueError,
     "values must be finite, got min 0.25 and max inf"),
    ("ChannelSpec", lambda v: ChannelSpec(v, 2), "kind", "bogus", ValueError,
     "unknown channel kind 'bogus'"),
    ("ChannelSpec-unitary", lambda v: ChannelSpec("unitary", 2, unitary=v), "unitary",
     np.eye(3), ValueError, "unitary must be 2 x 2, got shape (3, 3)"),
    ("ChannelSpec-mixed_unitary", lambda v: ChannelSpec("mixed_unitary", 2, unitary=v),
     "unitary", np.eye(3), ValueError, "unitary must be 2 x 2, got shape (3, 3)"),
    # a unitary is refused unless it is one, and on a kind that does not read it
    ("ChannelSpec-unitary-scaled", lambda v: ChannelSpec("unitary", 2, unitary=v),
     "unitary", 2 * np.eye(2), ValueError,
     "unitary is not unitary (max |U^dag U - 1| 3.000e+00 > 1.0e-10)"),
    ("ChannelSpec-mixed_unitary-scaled",
     lambda v: ChannelSpec("mixed_unitary", 2, unitary=v), "unitary", 2 * np.eye(2),
     ValueError, "unitary is not unitary (max |U^dag U - 1| 3.000e+00 > 1.0e-10)"),
    ("ChannelSpec-identity", lambda v: ChannelSpec("identity", 2, unitary=v), "unitary",
     5 * np.eye(2), ValueError, "kind 'identity' takes no unitary"),
    ("ChannelSpec-noisy_qft", lambda v: ChannelSpec("noisy_qft", 2, unitary=v),
     "unitary", 5 * np.eye(2), ValueError, "kind 'noisy_qft' takes no unitary"),
    # so is a measure_prob or a rank, on every kind that does not read it
    ("ChannelSpec-identity", lambda v: ChannelSpec("identity", 2, rank=v), "rank", -5,
     ValueError, "kind 'identity' takes no rank"),
    ("ChannelSpec-identity", lambda v: ChannelSpec("identity", 2, measure_prob=v),
     "measure_prob", 0.7, ValueError, "kind 'identity' takes no measure_prob"),
    ("ChannelSpec-unitary", lambda v: ChannelSpec("unitary", 2, unitary=np.eye(2), rank=v),
     "rank", 4, ValueError, "kind 'unitary' takes no rank"),
    ("ChannelSpec-unitary",
     lambda v: ChannelSpec("unitary", 2, unitary=np.eye(2), measure_prob=v),
     "measure_prob", 0.5, ValueError, "kind 'unitary' takes no measure_prob"),
    ("ChannelSpec-noisy_qft", lambda v: ChannelSpec("noisy_qft", 2, rank=v), "rank", 2,
     ValueError, "kind 'noisy_qft' takes no rank"),
    ("ChannelSpec-mixed_unitary", lambda v: ChannelSpec("mixed_unitary", 2, measure_prob=v),
     "measure_prob", 0.9, ValueError, "kind 'mixed_unitary' takes no measure_prob"),
    ("proj_cp1_thresholded", proj_cp1_thresholded, "x", _OFF_HERMITIAN, ValueError,
     _NOT_HERMITIAN),
    ("project_to_cptp", project_to_cptp, "phi0", _OFF_HERMITIAN, ValueError,
     _NOT_HERMITIAN),
    ("KrausSet", lambda v: KrausSet((v,)), "operators", np.full((2, 2), np.nan),
     ValueError, "matrix has non-finite entries"),
    ("mub_family", mub_family, "dim", 2.0, ValueError, "dim must be an integer, got 2.0"),
    ("mub_family", mub_family, "dim", True, ValueError, "dim must be an integer, got True"),
    ("ls_estimate", ls_estimate, "table", None, TypeError,
     "estimator needs a FrequencyTable, got NoneType"),
    ("fidelity", lambda v: fidelity(v, np.eye(4) / 4), "w", np.ones((3, 1)), ValueError,
     "got shapes (3, 1) and (4, 4)"),
    ("ErrorBudget", lambda v: ErrorBudget(scenario=1, k=1, n_shots=100, delta=v), "delta",
     0.05, TypeError, "unexpected keyword argument 'delta'"),
] + [
    # the MUB bounds need d >= 2 too, that is k = log2 d >= 1
    (name, call, "k", k, ValueError, "k must be >= 1")
    for scenario in (3, 4) for k in (0.5, -1.0)
    for name, call in (
        (f"g_factor-s{scenario}", lambda v, s=scenario: g_factor(s, v)),
        (f"ErrorBudget-s{scenario}",
         lambda v, s=scenario: ErrorBudget(scenario=s, k=v, n_shots=1000)))
] + [
    # k is a real number at the bound evaluators too, not only in ErrorBudget
    (name, call, "k", k, ValueError, f"k must be a number, got {k!r}")
    for k in (True, "2")
    for name, call in (("g_factor", lambda v: g_factor(1, v)),
                       ("f_factor", lambda v: f_factor(1, v)))
]


@pytest.mark.parametrize(
    "call,value,exc,fragment",
    [pytest.param(call, value, exc, fragment, id=f"{name}-{param}-{value!r:.20}")
     for name, call, param, value, exc, fragment in ROWS])
def test_refused_by_name(call, value, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)):
        call(value)


_DEPOLARIZING = ChoiMatrix(np.eye(4) / 4)

SCENARIO_CALLS = {
    "ExperimentConfig": lambda s: ExperimentConfig(
        experiment="single_run", scenario=s, k=1, n_shots=900,
        channel={"kind": "noisy_qft", "measure_prob": 0.25}),
    "ErrorBudget": lambda s: ErrorBudget(scenario=s, k=1, n_shots=100),
    "FrequencyTable": lambda s: FrequencyTable(s, 2, np.full((9, 4), 0.25)),
    "setting_count": lambda s: setting_count(s, 2),
    "probability_array": lambda s: probability_array(_DEPOLARIZING, s),
    "sample": lambda s: sample(_DEPOLARIZING, s, SamplingPlan("random", 900, 0)),
    "exact_table": lambda s: exact_table(_DEPOLARIZING, s),
    "g_factor": lambda s: g_factor(s, 1),
}


@pytest.mark.parametrize("value", [True, 1.0, 0, 5])
@pytest.mark.parametrize("name", sorted(SCENARIO_CALLS))
def test_one_scenario_rule(name, value, monkeypatch):
    """Every call that takes a scenario refuses anything but the ints 1..4
    with one message, and the sampling calls do so before any Born work."""
    def born(*args):
        raise AssertionError("the Born kernel ran before the scenario check")
    monkeypatch.setattr(simulate, "_pauli_fold", born)
    message = f"scenario must be 1..4, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        SCENARIO_CALLS[name](value)


def _hermitian_trace_one(rng):
    """I/4 plus a trace-free Hermitian part of operator norm 1/2: exactly
    Hermitian, trace one to rounding, spectrum in [-1/4, 3/4]."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (g + g.conj().T)
    h -= np.trace(h).real / 4 * np.eye(4)
    return np.eye(4) / 4 + 0.5 * h / np.abs(np.linalg.eigvalsh(h)).max()


def _anti_hermitian(rng, size):
    """Anti-Hermitian matrix whose largest entry has modulus ``size``, so the
    Hermiticity check reads a deviation of 2 size."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    k = 0.5 * (g - g.conj().T)
    return size * k / np.abs(k).max()


@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-9.5, -1.0))
@settings(max_examples=20, deadline=None)
def test_off_hermitian_projection_input_refused(seed, exponent):
    rng = np.random.default_rng(seed)
    size = 10.0 ** exponent
    assert 2 * size > RAW_HERMITICITY_TOL
    x = _hermitian_trace_one(rng) + _anti_hermitian(rng, size)
    with pytest.raises(ValueError, match="not Hermitian"):
        proj_cp1_thresholded(x)
    for method in METHODS:
        with pytest.raises(ValueError, match="not Hermitian"):
            project_to_cptp(x, method)


@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-16.0, -12.0))
@settings(max_examples=20, deadline=None)
def test_near_hermitian_projection_input_accepted(seed, exponent):
    rng = np.random.default_rng(seed)
    x = _hermitian_trace_one(rng) + _anti_hermitian(rng, 10.0 ** exponent)
    proj_cp1_thresholded(x)
    for method in METHODS:
        choi, _ = project_to_cptp(x, method)
        assert isinstance(choi, ChoiMatrix)
