"""Acceptance gate: every deliverable criterion, one test per check.

Each test runs the corresponding verification suite at its stated tolerance
and prints a single PASS/FAIL line with the measured values (visible with
``pytest -s`` or on failure).  The same checks back ``proctomo verify``.
"""

from proctomo import verification
from proctomo.verification import run_suite


def _assert_check(name):
    (result,) = run_suite(name)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_exact_data_identifiability():
    res = _assert_check("identifiability")
    assert res.details["worst_frobenius"] <= 1e-9


def test_criterion_02_two_design_identity():
    res = _assert_check("two-design")
    assert res.details["worst_defect"] <= 1e-10


def test_criterion_03_projection_oracles():
    res = _assert_check("projection-oracles")
    for key in ("worst_tp", "worst_cp", "worst_cp1"):
        assert res.details[key] <= 1e-6


def test_criterion_04_contraction_properties():
    res = _assert_check("projection-properties")
    assert res.details["runs"] == 200
    assert res.details["p2_violations"] == 0
    assert res.details["p3_violations"] == 0


def test_criterion_05_sample_size_scaling():
    res = _assert_check("scaling")
    assert -0.6 <= res.details["slope"] <= -0.4


def test_criterion_06_low_rank_gain():
    res = _assert_check("lowrank-gain")
    assert res.details["median_pls"] <= res.details["allowed"]


def test_criterion_07_rank_monotonicity():
    res = _assert_check("rank-monotonicity")
    medians = res.details["medians"]
    assert all(b >= a for a, b in zip(medians, medians[1:]))
    assert all(r <= 2.2 for r in res.details["ratios"])


def test_criterion_08_hip_superiority():
    res = _assert_check("hip-superiority")
    assert res.details["hip_lambda"] >= -1e-7
    assert res.details["hip_calls"] < res.details["ap_calls"]
    assert res.details["hip_calls"] < res.details["dykstra_calls"]
    assert res.details["ap_lambda"] < -1e-7
    assert res.details["dykstra_lambda"] < -1e-7


def test_criterion_09_cross_method_agreement():
    res = _assert_check("cross-method")
    assert res.details["worst_pairwise"] <= 1e-4
    assert res.details["worst_dual_grad"] <= 1e-8


def test_cross_method_decomposes_cp1_once_per_seed(monkeypatch):
    """The three methods share each seed's first-stage iterate: ten seeds make
    ten first-stage and thirty second-stage calls."""
    calls = {"proj_cp1_thresholded": 0, "project_to_cptp": 0}
    for name in calls:
        def spy(*args, _name=name, _original=getattr(verification, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(verification, name, spy)
    assert verification.check_cross_method().passed
    assert calls == {"proj_cp1_thresholded": 10, "project_to_cptp": 30}


def test_criterion_10_bound_validity():
    res = _assert_check("bound-validity")
    assert res.details["bounds_respected"]
    for scenario in (1, 2, 3, 4):
        assert res.details[f"coverage_s{scenario}"] >= 0.885


def test_criterion_11_determinism():
    res = _assert_check("determinism")
    assert res.details["errors_csv_identical"]
    assert res.details["lambda_trace_identical"]
    assert res.details["verify_identical"]
