"""Refusals of bad input at the public entry points, one row per refusal.

Each row is (call, parameter, bad value, exception type, message fragment).
Refusals pinned elsewhere (``SamplingPlan``, ``ErrorBudget``'s fields, the
table layout, nan matrices, a bad ``threshold``) stay in their own modules.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proctomo.bounds import ErrorBudget
from proctomo.channels import RAW_HERMITICITY_TOL, ChoiMatrix, KrausSet, fidelity
from proctomo.designs import mub_family
from proctomo.estimators import (ls_estimate, ls_scenario1, ls_scenario2, ls_scenario3,
                                 ls_scenario4)
from proctomo.projections import (METHODS, pls_pipeline, proj_cp1_thresholded,
                                  project_to_cptp)
from proctomo.simulate import FrequencyTable


def _table(**fields):
    kwargs = dict(scenario=1, dim=2, values=np.full((9, 4), 0.25), nu=1.0,
                  total_shots=9, scheme="fixed")
    return FrequencyTable(**{**kwargs, **fields})


_OFF_HERMITIAN = np.triu(np.ones((4, 4), dtype=complex)) / 4  # trace one
_NOT_HERMITIAN = "matrix is not Hermitian (deviation 2.500e-01 > 1.0e-10)"

ROWS = [
    ("FrequencyTable", lambda v: _table(scenario=v), "scenario", True, ValueError,
     "scenario must be an integer, got True"),
    ("FrequencyTable", lambda v: _table(scenario=v), "scenario", 1.0, ValueError,
     "scenario must be an integer, got 1.0"),
    ("FrequencyTable", lambda v: _table(dim=v), "dim", 2.0, ValueError,
     "dim must be an integer >= 2, got 2.0"),
    ("FrequencyTable", lambda v: _table(scenario=3, dim=v, values=np.zeros(2)), "dim",
     1, ValueError, "dim must be an integer >= 2, got 1"),
    ("FrequencyTable", lambda v: _table(total_shots=v), "total_shots", -9, ValueError,
     "total_shots must be an integer >= 0, got -9"),
    ("FrequencyTable", lambda v: _table(total_shots=v), "total_shots", 9.0, ValueError,
     "total_shots must be an integer >= 0, got 9.0"),
    ("FrequencyTable", lambda v: _table(seed=v), "seed", 1.5, ValueError,
     "seed must be None or a nonnegative integer, got 1.5"),
    ("FrequencyTable", lambda v: _table(seed=v), "seed", -1, ValueError,
     "seed must be None or a nonnegative integer, got -1"),
    ("FrequencyTable", lambda v: _table(scheme=v), "scheme", "bogus", ValueError,
     "unknown scheme 'bogus'"),
    ("FrequencyTable", lambda v: _table(nu=v), "nu", -3.0, ValueError,
     "nu must be positive, got -3.0"),
    ("FrequencyTable", lambda v: _table(nu=v), "nu", 0, ValueError,
     "nu must be positive, got 0"),
    ("FrequencyTable", lambda v: _table(nu=v), "nu", math.nan, ValueError,
     "nu must be finite, got nan"),
    ("FrequencyTable", lambda v: _table(nu=v), "nu", math.inf, ValueError,
     "nu must be finite, got inf"),
    ("FrequencyTable", lambda v: _table(nu=v), "nu", "1", ValueError,
     "nu must be a number, got '1'"),
    ("FrequencyTable", lambda v: _table(nu=v, scheme="exact"), "nu", 1.0, ValueError,
     "nu must be nan for an exact table, got 1.0"),
    ("proj_cp1_thresholded", proj_cp1_thresholded, "x", _OFF_HERMITIAN, ValueError,
     _NOT_HERMITIAN),
    ("project_to_cptp", project_to_cptp, "phi0", _OFF_HERMITIAN, ValueError,
     _NOT_HERMITIAN),
    ("pls_pipeline", pls_pipeline, "estimate", _OFF_HERMITIAN, ValueError,
     _NOT_HERMITIAN),
    ("KrausSet", lambda v: KrausSet((v,)), "operators", np.full((2, 2), np.nan),
     ValueError, "matrix has non-finite entries"),
    ("mub_family", mub_family, "dim", 2.0, ValueError, "dim must be an integer, got 2.0"),
    ("mub_family", mub_family, "dim", True, ValueError, "dim must be an integer, got True"),
    *[(f.__name__, f, "table", None, TypeError,
       "estimator needs a FrequencyTable, got NoneType")
      for f in (ls_estimate, ls_scenario1, ls_scenario2, ls_scenario3, ls_scenario4)],
    ("fidelity", lambda v: fidelity(v, np.eye(4) / 4), "w", np.ones((3, 1)), ValueError,
     "got shapes (3, 1) and (4, 4)"),
    ("ErrorBudget", lambda v: ErrorBudget(scenario=1, k=1, n_shots=100, delta=v), "delta",
     0.05, TypeError, "unexpected keyword argument 'delta'"),
]


@pytest.mark.parametrize(
    "call,value,exc,fragment",
    [pytest.param(call, value, exc, fragment, id=f"{name}-{param}-{value!r:.20}")
     for name, call, param, value, exc, fragment in ROWS])
def test_refused_by_name(call, value, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)):
        call(value)


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
