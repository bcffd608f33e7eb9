import math
import re

import numpy as np
import pytest

from proctomo.bounds import (_K_MAX, ErrorBudget, confidence_region,
                             direct_projection_bound, f_factor, g_factor,
                             ls_failure_prob, pls_failure_prob, sample_complexity)

from test_refusals import INT, REAL, refusal


class TestFactors:
    def test_known_values(self):
        assert g_factor(1, 1) == pytest.approx(1 / 9)
        assert g_factor(2, 1) == pytest.approx(1 / 9)
        assert g_factor(3, 1) == pytest.approx(1 / 8)
        assert g_factor(4, 1) == pytest.approx(1 / 16)
        assert f_factor(4, 1) == pytest.approx(1 / 64)

    def test_f_is_g_scaled(self):
        for scenario in (1, 2, 3, 4):
            for k in (1, 2, 3):
                assert f_factor(scenario, k) == pytest.approx(
                    g_factor(scenario, k) / 4**k)


class TestPlsFailureProb:
    def test_frozen_example(self):
        budget = ErrorBudget(scenario=3, k=1, n_shots=10**5, rank=1, epsilon=0.1)
        got = pls_failure_prob(budget, "frobenius")
        assert got == pytest.approx(4 * math.exp(-375 / 64), rel=1e-12)
        assert got == pytest.approx(1.14e-2, rel=0.01)
        trace = pls_failure_prob(budget, "trace")
        assert trace == pytest.approx(4 * math.exp(-375 / 256), rel=1e-12)

    def test_zero_shots_vacuous(self):
        budget = ErrorBudget(scenario=1, k=1, n_shots=0, epsilon=0.5)
        assert pls_failure_prob(budget, "frobenius") == 1.0

    def test_doubling_rank_halves_frobenius_exponent(self):
        b1 = ErrorBudget(scenario=1, k=2, n_shots=10**6, rank=1, epsilon=0.2)
        b2 = ErrorBudget(scenario=1, k=2, n_shots=10**6, rank=2, epsilon=0.2)
        e1 = -math.log(pls_failure_prob(b1, "frobenius") / 16)
        e2 = -math.log(pls_failure_prob(b2, "frobenius") / 16)
        assert e2 == pytest.approx(e1 / 2, rel=1e-12)

    def test_monotone_in_shots(self):
        probs = [pls_failure_prob(
            ErrorBudget(scenario=2, k=1, n_shots=n, epsilon=0.3), "trace")
            for n in (10**3, 10**4, 10**5)]
        assert probs == sorted(probs, reverse=True)

    def test_domain_error(self):
        budget = ErrorBudget(scenario=1, k=1, n_shots=100, epsilon=1.5)
        with pytest.raises(ValueError):
            pls_failure_prob(budget, "frobenius")


class TestLsFailureProb:
    def test_frozen_example(self):
        budget = ErrorBudget(scenario=1, k=1, n_shots=10**4, epsilon=0.1)
        got = ls_failure_prob(budget, "operator")
        assert got == pytest.approx(4 * math.exp(-(3e4 * 0.01 / 8) / 9), rel=1e-12)
        assert got == pytest.approx(0.0621, abs=2e-4)

    def test_frobenius_is_rescaled_operator(self):
        delta = 0.3
        b_frob = ErrorBudget(scenario=2, k=2, n_shots=10**6, epsilon=delta)
        b_op = ErrorBudget(scenario=2, k=2, n_shots=10**6, epsilon=delta / 4)
        # at 10^6 shots neither bound is capped at one (16 exp(-26) each)
        frob = ls_failure_prob(b_frob, "frobenius")
        assert frob == pytest.approx(ls_failure_prob(b_op, "operator"), rel=1e-12)
        assert frob < 1e-9

    def test_monotone_in_threshold(self):
        lo = ls_failure_prob(ErrorBudget(scenario=1, k=1, n_shots=10**4,
                                         epsilon=1.0), "operator")
        hi = ls_failure_prob(ErrorBudget(scenario=1, k=1, n_shots=10**4,
                                         epsilon=0.5), "operator")
        assert lo <= hi


class TestSampleComplexity:
    def test_frozen_example(self):
        budget = ErrorBudget(scenario=3, k=1, n_shots=0, rank=1,
                             epsilon=0.1, eta=0.01)
        expected = math.ceil(256 * (800 / 3) * math.log(400))
        got = sample_complexity(budget)
        assert got == expected
        assert abs(got - 409018) <= 1

    def test_halving_epsilon_quadruples(self):
        base = ErrorBudget(scenario=1, k=2, n_shots=0, rank=2,
                           epsilon=0.2, eta=0.05)
        small = ErrorBudget(scenario=1, k=2, n_shots=0, rank=2,
                            epsilon=0.1, eta=0.05)
        assert abs(sample_complexity(small) - 4 * sample_complexity(base)) <= 4

    def test_scenario_ratio(self):
        # Pauli versus MUB complexity ratio is (3/2)^2k / 2
        for k in (1, 2, 3):
            b1 = ErrorBudget(scenario=1, k=k, n_shots=0, epsilon=0.1, eta=0.01)
            b3 = ErrorBudget(scenario=3, k=k, n_shots=0, epsilon=0.1, eta=0.01)
            ratio = g_factor(3, k) / g_factor(1, k)
            assert ratio == pytest.approx((3 / 2) ** (2 * k) / 2, rel=1e-12)
            got = sample_complexity(b1) / sample_complexity(b3)
            assert got == pytest.approx(ratio, rel=1e-4)

    def test_inverse_consistency(self):
        # at N = sample_complexity(eps, eta) the failure bound is <= eta
        for scenario in (1, 2, 3, 4):
            budget = ErrorBudget(scenario=scenario, k=1, n_shots=0, rank=2,
                                 epsilon=0.25, eta=0.02)
            n = sample_complexity(budget)
            at_n = ErrorBudget(scenario=scenario, k=1, n_shots=n, rank=2,
                               epsilon=0.25, eta=0.02)
            assert pls_failure_prob(at_n, "frobenius") <= 0.02 * (1 + 1e-9)


def _scan_oracle(spectrum, budget):
    """Brute-force minimization over every rank hypothesis."""
    spec = np.sort(np.asarray(spectrum))[::-1]
    t = math.sqrt(8 * math.log(4**budget.k / budget.eta)
                  / (3 * budget.n_shots * budget.g))
    frobs, traces = [], []
    for r in range(1, len(spec) + 1):
        tail = spec[r] if r < len(spec) else 0.0
        shift = spec[0] * (1 - spec[:r].sum()) / spec[:r].sum()
        delta = max(tail, shift)
        frobs.append((math.sqrt(2 * r) * (delta + 2 * t), r, delta))
        traces.append(r * ((4 * math.sqrt(2) + 2) * delta
                           + (4 + 8 * math.sqrt(2)) * t))
    return min(frobs), min(traces)


class TestConfidenceRegion:
    def test_pure_spectrum(self):
        budget = ErrorBudget(scenario=1, k=1, n_shots=10**6, eta=0.05)
        region = confidence_region([1.0, 0.0, 0.0, 0.0], budget)
        assert region.chosen_r == 1
        assert region.chosen_delta == 0.0

    def test_large_sample_limit(self):
        budget = ErrorBudget(scenario=3, k=1, n_shots=10**18, eta=0.05)
        spectrum = [0.55, 0.35, 0.06, 0.04]
        region = confidence_region(spectrum, budget)
        spec = np.array(spectrum)
        limits = []
        for r in (1, 2, 3, 4):
            tail = spec[r] if r < 4 else 0.0
            shift = spec[0] * (1 - spec[:r].sum()) / spec[:r].sum()
            limits.append(math.sqrt(2 * r) * max(tail, shift))
        assert region.frobenius_radius == pytest.approx(min(limits), abs=1e-6)

    def test_matches_exhaustive_scan(self):
        # the second case picks r = 1, where the renormalization shift (0.2)
        # exceeds the first dropped eigenvalue (0.1)
        for spectrum, budget in (
                ([0.55, 0.35, 0.06, 0.04], ErrorBudget(scenario=3, k=1, n_shots=10**6)),
                ([0.8, 0.1, 0.1, 0.0], ErrorBudget(scenario=1, k=1, n_shots=1000))):
            region = confidence_region(spectrum, budget)
            (frob, r, delta), trace = _scan_oracle(spectrum, budget)
            assert region.frobenius_radius == pytest.approx(frob, rel=1e-12)
            assert region.trace_radius == pytest.approx(trace, rel=1e-12)
            assert region.chosen_r == r
            assert region.chosen_delta == pytest.approx(delta, rel=1e-12)
        assert (r, delta) == (1, pytest.approx(0.2))

    def test_rejects_empty_spectrum(self):
        with pytest.raises(ValueError):
            confidence_region([], ErrorBudget(scenario=1, k=1, n_shots=100))

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="n_shots"):
            confidence_region([1, 0, 0, 0], ErrorBudget(scenario=1, k=1, n_shots=0))

    @pytest.mark.parametrize("spectrum", [
        [math.nan, 0.5, 0.5], [math.inf, 0.5, 0.5], [1.0, 0.0, -math.inf],
        [math.inf, -math.inf, 1.0]])
    def test_rejects_non_finite_spectrum(self, spectrum):
        with pytest.raises(ValueError, match="finite trace-one PSD"):
            confidence_region(spectrum, ErrorBudget(scenario=1, k=1, n_shots=100))

    def test_spectrum_tolerances(self):
        # twice the PSD (1e-9) and trace (1e-6) tolerances are refused, half taken
        budget = ErrorBudget(scenario=1, k=1, n_shots=100)
        for spectrum in ([1.0 + 2e-9, -2e-9], [1.0 + 2e-6, 0.0]):
            with pytest.raises(ValueError, match="finite trace-one PSD"):
                confidence_region(spectrum, budget)
        for spectrum in ([1.0 + 5e-10, -5e-10], [1.0 + 5e-7, 0.0]):
            confidence_region(spectrum, budget)


class TestBudgetInputs:
    @pytest.mark.parametrize("field,value", [
        pytest.param("scenario", True, id="scenario-True-scenario must be 1..4"),
        pytest.param("scenario", 5, id="scenario-5-scenario must be 1..4"),
    ])
    def test_bad_input_refused_by_name(self, field, value):
        message = refusal(field, INT, (1, 4), value)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ErrorBudget(**{"scenario": 1, "k": 1, "n_shots": 100, field: value})

    def test_fractional_k_and_large_counts_accepted(self):
        budget = ErrorBudget(scenario=4, k=math.log2(3), n_shots=10**18, rank=2)
        assert budget.g == pytest.approx(0.25 / 9)


class TestDirectProjection:
    def test_crossover_matches_two_step_at_d2_over_32(self):
        # r = d^2/32 at k = 3: sampling requirements coincide once the
        # accuracies describe the same event (squared versus plain norm)
        eps = 0.2
        for scenario in (1, 2, 3, 4):
            two_step = sample_complexity(ErrorBudget(
                scenario=scenario, k=3, n_shots=0, rank=2, epsilon=eps, eta=0.05))
            _, direct = direct_projection_bound(ErrorBudget(
                scenario=scenario, k=3, n_shots=0, epsilon=eps**2, eta=0.05))
            assert abs(two_step - direct) <= 1

    def test_direct_tighter_for_single_qubits(self):
        # at k = 1, d^2/32 = 0.5 < 1, so direct projection needs fewer shots
        eps = 0.2
        two_step = sample_complexity(ErrorBudget(
            scenario=1, k=1, n_shots=0, rank=1, epsilon=eps, eta=0.05))
        _, direct = direct_projection_bound(ErrorBudget(
            scenario=1, k=1, n_shots=0, epsilon=eps**2, eta=0.05))
        assert direct < two_step

    def test_failure_probability_formula(self):
        budget = ErrorBudget(scenario=3, k=1, n_shots=10**5, epsilon=0.04)
        prob, _ = direct_projection_bound(budget)
        expected = 4 * math.exp(-(3 * 10**5 * 0.04 / 8) * (1 / 32))
        assert prob == pytest.approx(expected, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            direct_projection_bound(ErrorBudget(scenario=1, k=1, n_shots=10,
                                                epsilon=2.0))


class TestQubitCountDomain:
    @pytest.mark.parametrize("scenario", [1, 2, 3, 4])
    def test_every_evaluator_finite_at_the_maximum(self, scenario):
        budget = ErrorBudget(scenario=scenario, k=_K_MAX, n_shots=10**6)
        region = confidence_region([1.0, 0.0], budget)
        values = [budget.g, budget.f, sample_complexity(budget),
                  *direct_projection_bound(budget), region.frobenius_radius,
                  region.trace_radius]
        values += [pls_failure_prob(budget, norm) for norm in ("frobenius", "trace")]
        values += [ls_failure_prob(budget, norm) for norm in ("operator", "frobenius")]
        assert all(math.isfinite(v) and v > 0 for v in values)

    @pytest.mark.parametrize("scenario", [1, 2, 3, 4])
    def test_one_step_above_refused_by_name(self, scenario):
        message = re.escape(refusal("k", REAL, (1, _K_MAX), _K_MAX + 1))
        with pytest.raises(ValueError, match=message):
            g_factor(scenario, _K_MAX + 1)
        with pytest.raises(ValueError, match=message):
            ErrorBudget(scenario=scenario, k=_K_MAX + 1, n_shots=10**6)
