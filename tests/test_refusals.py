"""Refusals of bad input at the public entry points.

``KINDS`` has one row per entry-point parameter with a scalar rule: the
entry point, the call, the parameter, its kind (int, real or choice) and
its domain.  Each kind has one shared list of bad values (``bad_values``)
and one message form (``refusal``), so no row states a message of its own;
``test_bounds``, ``test_channels``, ``test_projections`` and
``test_simulate`` build their kind messages with ``refusal`` too.
``ROWS`` holds the refusals that are no kind's rule (matrices, tables,
fields a kind does not read, record keys), one fragment each, and
``test_one_scenario_rule`` runs the scenario rule over every call that
takes a scenario.  Cross-field rules (k and d disagree, a fixed scheme's
divisibility, a field an experiment does not read) and spectrum and
MUB-table properties stay in their modules' tests, as do the
single-parameter asserts there that a ``KINDS`` row repeats, kept so that
their test ids stay stable.
"""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from proctomo import simulate
from proctomo.bounds import (_K_MAX, ErrorBudget, confidence_region,
                             direct_projection_bound, f_factor, g_factor, ls_failure_prob,
                             pls_failure_prob, sample_complexity)
from proctomo.channels import (RAW_HERMITICITY_TOL, ChannelSpec, ChoiMatrix, KrausSet,
                               fidelity)
from proctomo.designs import mub_family
from proctomo.estimators import ls_estimate
from proctomo.harness import EXPERIMENTS, ExperimentConfig, load_config
from proctomo.projections import (METHODS, ProjectionConfig, proj_cp,
                                  proj_cp1_thresholded, project_to_cptp)
from proctomo.simulate import (FrequencyTable, SamplingPlan, exact_table,
                               probability_array, sample, setting_count)
from proctomo.verification import SUITES, run_suite

INT, REAL, CHOICE = "int", "real", "choice"


def bad_values(kind, domain, typed=False):
    """The kind's shared bad values for a domain: int (low, high), real (low,
    high, strict) or choice (the choices).  Values of the wrong type come
    first, then each bound minus or plus one (int), each bound itself (open
    real) or one step past it (closed real).  ``typed`` leaves out the wrong
    types, for a value that an earlier constructor checks."""
    if kind == CHOICE:
        return ["bogus", ["x"], None, np.array([domain[0]])]
    low, high, *strict = domain
    if kind == INT:
        wrong, past = [1.5, True, "2"], lambda bound, way: bound + way
    elif strict and strict[0]:
        wrong, past = [True, np.True_, "2", math.nan, math.inf], lambda bound, way: bound
    else:
        wrong = [True, np.True_, "2", math.nan, math.inf]
        past = lambda bound, way: math.nextafter(bound, way * math.inf)  # noqa: E731
    outside = [past(b, way) for b, way in ((low, -1), (high, 1)) if b is not None]
    return ([] if typed else wrong) + outside


def refusal(param, kind, domain, value) -> str:
    """The one message a kind's rule gives for a bad value."""
    if kind == CHOICE:
        return f"unknown {param} {value!r}; choose from {', '.join(domain)}"
    low, high, *strict = domain
    what = "an integer" if kind == INT else "a finite number"
    strict = bool(strict and strict[0])
    if high is not None:
        what += f" in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}"
    elif low is not None:
        what += f" {'>' if strict else '>='} {low}"
    return f"{param} must be {what}, got {value!r}"


def _budget(**fields):
    return ErrorBudget(**{"scenario": 1, "k": 1, "n_shots": 100, **fields})


def _table(**fields):
    kwargs = dict(scenario=1, dim=2, values=np.full((9, 4), 0.25))
    return FrequencyTable(**{**kwargs, **fields})


def _plan(**fields):
    return SamplingPlan(**{"scheme": "random", "n_shots": 900, "seed": 0, **fields})


_CONFIG = dict(experiment="single_run", scenario=1, k=1, n_shots=900,
               channel={"kind": "noisy_qft", "measure_prob": 0.25})


def _config(**fields):
    return ExperimentConfig(**{**_CONFIG, **fields})


def _load_config(key):
    """load_config of a file that holds ``_CONFIG`` plus ``key: 1``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump({**_CONFIG, key: 1}))
        return load_config(path)


_K = (1, _K_MAX, False)
_UNIT_OPEN = (0, 1, True)
_CHANNEL_KINDS = ("identity", "qft", "random_unitary", "noisy_qft", "mixed_unitary")
_EYE4 = np.eye(4) / 4

TYPED = "typed"  # in place of extra values: ErrorBudget checked the type before

# (entry point, call on the value, parameter, kind, domain, extra bad values)
KINDS = [
    ("ErrorBudget", lambda v: _budget(n_shots=v), "n_shots", INT, (0, None), (100.0,)),
    ("ErrorBudget", lambda v: _budget(rank=v), "rank", INT, (1, None), (2.5, False)),
    ("ErrorBudget", lambda v: _budget(k=v), "k", REAL, _K, ()),
    ("ErrorBudget", lambda v: _budget(eta=v), "eta", REAL, _UNIT_OPEN, ()),
    ("ErrorBudget", lambda v: _budget(epsilon=v), "epsilon", REAL, (None, None), ("0.1",)),
    ("g_factor", lambda v: g_factor(1, v), "k", REAL, _K, ()),
    ("f_factor", lambda v: f_factor(1, v), "k", REAL, _K, ()),
    # the MUB bounds need d >= 2 too, that is k = log2 d >= 1
    *[row for s in (3, 4) for row in (
        (f"g_factor-s{s}", lambda v, s=s: g_factor(s, v), "k", REAL, _K, (0.5, -1.0)),
        (f"ErrorBudget-s{s}", lambda v, s=s: ErrorBudget(scenario=s, k=v, n_shots=1000),
         "k", REAL, _K, (0.5, -1.0)))],
    ("pls_failure_prob", lambda v: pls_failure_prob(_budget(epsilon=v), "trace"),
     "epsilon", REAL, _UNIT_OPEN, TYPED),
    ("sample_complexity", lambda v: sample_complexity(_budget(epsilon=v)),
     "epsilon", REAL, _UNIT_OPEN, TYPED),
    ("direct_projection_bound", lambda v: direct_projection_bound(_budget(epsilon=v)),
     "epsilon", REAL, _UNIT_OPEN, TYPED),
    ("ls_failure_prob", lambda v: ls_failure_prob(_budget(epsilon=v), "operator"),
     "epsilon", REAL, (0, 1, False), TYPED),
    ("confidence_region", lambda v: confidence_region([1.0, 0.0], _budget(n_shots=v)),
     "n_shots", INT, (1, None), TYPED),
    ("pls_failure_prob", lambda v: pls_failure_prob(_budget(), v), "norm", CHOICE,
     ("frobenius", "trace"), ()),
    ("ls_failure_prob", lambda v: ls_failure_prob(_budget(), v), "norm", CHOICE,
     ("operator", "frobenius"), ()),
    ("ChannelSpec", lambda v: ChannelSpec(v, 2), "kind", CHOICE,
     ("identity", "unitary", "noisy_qft", "mixed_unitary"), ()),
    ("ChannelSpec", lambda v: ChannelSpec("identity", v), "dim", INT, (2, None), ()),
    ("ChannelSpec-noisy_qft", lambda v: ChannelSpec("noisy_qft", 2, measure_prob=v),
     "measure_prob", REAL, (0, 1, False), ()),
    ("ChannelSpec-mixed_unitary", lambda v: ChannelSpec("mixed_unitary", 2, rank=v),
     "rank", INT, (1, 4), ()),
    ("FrequencyTable", lambda v: _table(scenario=v), "scenario", INT, (1, 4), (1.0,)),
    ("FrequencyTable", lambda v: _table(dim=v), "dim", INT, (2, None), (2.0,)),
    ("mub_family", mub_family, "dim", INT, (None, None), (2.0,)),
    ("SamplingPlan", lambda v: _plan(scheme=v), "scheme", CHOICE, ("fixed", "random"), ()),
    ("SamplingPlan", lambda v: _plan(n_shots=v), "n_shots", INT, (1, None), ()),
    ("SamplingPlan", lambda v: _plan(seed=v), "seed", INT, (0, None), ()),
    ("ProjectionConfig", lambda v: ProjectionConfig(epsilon=v), "epsilon", REAL,
     (0, None, True), ()),
    ("ProjectionConfig", lambda v: ProjectionConfig(max_outer_iterations=v),
     "max_outer_iterations", INT, (1, None), ()),
    ("proj_cp1_thresholded", lambda v: proj_cp1_thresholded(_EYE4, v), "threshold", REAL,
     (0, None), ()),
    ("project_to_cptp", lambda v: project_to_cptp(_EYE4, v), "method", CHOICE, METHODS, ()),
    ("run_suite", run_suite, "suite", CHOICE, tuple(SUITES), ()),
    ("ExperimentConfig", lambda v: _config(experiment=v), "experiment", CHOICE,
     EXPERIMENTS, ()),
    ("ExperimentConfig", lambda v: _config(method=v), "method", CHOICE, METHODS, ()),
    ("ExperimentConfig", lambda v: _config(experiment="algo_comparison", methods=["AP", v]),
     "methods[1]", CHOICE, METHODS, ()),
    ("ExperimentConfig", lambda v: _config(scheme=v), "scheme", CHOICE, ("fixed", "random"),
     ()),
    ("ExperimentConfig", lambda v: _config(channel={"kind": v}), "channel kind", CHOICE,
     _CHANNEL_KINDS, ()),
    ("ExperimentConfig", lambda v: _config(channel={"kind": "mixed_unitary", "base": v}),
     "mixed_unitary base", CHOICE, ("identity", "qft", "random"), ()),
    ("ExperimentConfig", lambda v: _config(k=v), "k", INT, (1, None), ()),
    ("ExperimentConfig", lambda v: _config(k=None, scenario=4, d=v), "d", INT, (2, None),
     ()),
    ("ExperimentConfig", lambda v: _config(n_shots=v), "n_shots", INT, (None, None), ()),
    ("ExperimentConfig", lambda v: _config(repetitions=v), "repetitions", INT, (1, None),
     ()),
    ("ExperimentConfig", lambda v: _config(seed=v), "seed", INT, (0, None), ()),
    ("ExperimentConfig", lambda v: _config(threads=v), "threads", INT, (1, None), ()),
    ("ExperimentConfig", lambda v: _config(experiment="sample_size_sweep", n_shots=None,
                                           n_shots_list=[900, v]),
     "n_shots_list[1]", INT, (1, None), (-5,)),
    ("ExperimentConfig", lambda v: _config(experiment="rank_sweep", ranks=[v],
                                           channel={"kind": "mixed_unitary"}),
     "ranks[0]", INT, (1, None), ()),
    ("ExperimentConfig", lambda v: _config(experiment="dimension_sweep", k=None,
                                           k_list=[v]),
     "k_list[0]", INT, (1, None), ()),
    ("ExperimentConfig", lambda v: _config(experiment="dimension_sweep", k=None,
                                           scenario=4, d_list=[2, v]),
     "d_list[1]", INT, (2, None), ()),
    ("ExperimentConfig-channel",
     lambda v: _config(channel={"kind": "mixed_unitary", "base": "qft", "rank": v}),
     "rank", INT, (1, 4), ()),
    ("ExperimentConfig-channel",
     lambda v: _config(channel={"kind": "noisy_qft", "measure_prob": v}),
     "measure_prob", REAL, (0, 1, False), ()),
    ("ExperimentConfig-projection", lambda v: _config(projection={"epsilon": v}),
     "epsilon", REAL, (0, None, True), ()),
    ("ExperimentConfig-projection",
     lambda v: _config(projection={"max_outer_iterations": v}),
     "max_outer_iterations", INT, (1, None), ()),
]


_OFF_HERMITIAN = np.triu(np.ones((4, 4), dtype=complex)) / 4  # trace one
_NOT_HERMITIAN = "matrix is not Hermitian (deviation 2.500e-01 > 1.0e-10)"

# (entry point, call on the value, parameter, bad value, exception, fragment)
ROWS = [
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
    # so is a measure_prob or a rank, on every kind that does not read it,
    # before its value is checked
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
    ("ChannelSpec-mixed_unitary", lambda v: ChannelSpec("mixed_unitary", 2, measure_prob=v),
     "measure_prob", "0.3", ValueError, "kind 'mixed_unitary' takes no measure_prob"),
    ("proj_cp1_thresholded", proj_cp1_thresholded, "x", _OFF_HERMITIAN, ValueError,
     _NOT_HERMITIAN),
    ("project_to_cptp", project_to_cptp, "phi0", _OFF_HERMITIAN, ValueError,
     _NOT_HERMITIAN),
    # a matrix input is square and 2-D, by one rule, before any arithmetic
    ("proj_cp", proj_cp, "x", np.eye(4, 2), ValueError, "matrix must be square"),
    ("proj_cp1_thresholded", proj_cp1_thresholded, "x", np.eye(4, 2), ValueError,
     "matrix must be square"),
    ("proj_cp1_thresholded", proj_cp1_thresholded, "x", np.ones((2, 2, 2)) / 4,
     ValueError, "matrix must be square"),
    ("project_to_cptp", project_to_cptp, "phi0", np.eye(4, 2), ValueError,
     "matrix must be square"),
    ("KrausSet", lambda v: KrausSet((v,)), "operators", np.full((2, 2), np.nan),
     ValueError, "matrix has non-finite entries"),
    ("ls_estimate", ls_estimate, "table", None, TypeError,
     "estimator needs a FrequencyTable, got NoneType"),
    ("fidelity", lambda v: fidelity(v, np.eye(4) / 4), "w", np.ones((3, 1)), ValueError,
     "got shapes (3, 1) and (4, 4)"),
    ("ErrorBudget", lambda v: ErrorBudget(scenario=1, k=1, n_shots=100, delta=v), "delta",
     0.05, TypeError, "unexpected keyword argument 'delta'"),
    # a rank above d^2 is refused once the sweep point's d is known
    ("ExperimentConfig", lambda v: _config(experiment="rank_sweep", ranks=[1, v],
                                           channel={"kind": "mixed_unitary"}),
     "ranks[1]", 17, ValueError, "ranks[1] must be an integer in [1, 4], got 17"),
    # a config record takes its own keys only, in a file as in ``projection``
    ("load_config", _load_config, "key", "repetitons", ValueError,
     "config file takes no key 'repetitons'"),
    ("ExperimentConfig", lambda v: _config(projection={v: 1e-6}), "projection", "eps",
     ValueError, "projection takes no key 'eps'"),
]


def _params():
    for name, call, param, kind, domain, extra in KINDS:
        typed = extra is TYPED
        values = bad_values(kind, domain, typed) + ([] if typed else list(extra))
        for value in values:
            pattern = f"^{re.escape(refusal(param, kind, domain, value))}$"
            yield name, call, param, value, ValueError, pattern
    for name, call, param, value, exc, fragment in ROWS:
        yield name, call, param, value, exc, re.escape(fragment)


@pytest.mark.parametrize(
    "call,value,exc,pattern",
    [pytest.param(call, value, exc, pattern, id=f"{name}-{param}-{value!r:.20}")
     for name, call, param, value, exc, pattern in _params()])
def test_refused_by_name(call, value, exc, pattern):
    with pytest.raises(exc, match=pattern):
        call(value)


_DEPOLARIZING = ChoiMatrix(np.eye(4) / 4)

SCENARIO_CALLS = {
    "ExperimentConfig": lambda s: _config(scenario=s),
    "ErrorBudget": lambda s: ErrorBudget(scenario=s, k=1, n_shots=100),
    "FrequencyTable": lambda s: FrequencyTable(s, 2, np.full((9, 4), 0.25)),
    "setting_count": lambda s: setting_count(s, 2),
    "probability_array": lambda s: probability_array(_DEPOLARIZING, s),
    "sample": lambda s: sample(_DEPOLARIZING, s, SamplingPlan("random", 900, 0)),
    "exact_table": lambda s: exact_table(_DEPOLARIZING, s),
    "g_factor": lambda s: g_factor(s, 1),
}


@pytest.mark.parametrize("value", bad_values(INT, (1, 4)) + [1.0])
@pytest.mark.parametrize("name", sorted(SCENARIO_CALLS))
def test_one_scenario_rule(name, value, monkeypatch):
    """Every call that takes a scenario refuses anything but the ints 1..4
    with one message, and the sampling calls do so before any Born work."""
    def born(*args):
        raise AssertionError("the Born kernel ran before the scenario check")
    monkeypatch.setattr(simulate, "_pauli_fold", born)
    message = refusal("scenario", INT, (1, 4), value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SCENARIO_CALLS[name](value)


def test_numpy_integer_is_a_number():
    """A real parameter takes numpy's integers as it takes its floats."""
    assert g_factor(1, np.int64(2)) == g_factor(1, np.float64(2.0)) == pytest.approx(1 / 81)


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
