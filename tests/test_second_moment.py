"""The spread of sampling plus LS against its closed form.

LS is linear in the multinomial frequencies, so E ||Phi_hat - Phi||_F^2 has a
closed form (``oracles.ls_second_moment``).  Bitwise pins against
``oracles.sample`` cannot certify a sampling stream, since the oracle draws
from the same stream; this test checks the draws' distribution instead: a
wrong shot count, a wrong normalization, draws correlated across settings
or a kernel that breaks unbiasedness moves the mean squared error.

Draws correlated across settings can leave the mean squared error of
scenario 2 within the bound, so ``test_settings_draw_independently`` checks
their independence directly, on a channel whose Born rows are all equal.

The seeds (0..R-1), repetition counts, shot budgets and the bound |z| <= 4
are fixed here, before any run; z is the Monte Carlo mean's deviation from
its expected value in units of its standard error.
"""

import numpy as np
import pytest

from proctomo.channels import ChannelSpec, ChoiMatrix, choi_from_kraus, make_channel
from proctomo.estimators import ls_estimate
from proctomo.simulate import SamplingPlan, probability_array, sample, setting_count

import oracles
from conftest import noisy_qft

Z_BOUND = 4.0
# d -> (repetitions, shots); the shot counts divide every scenario's settings
CASES = {2: (2000, 900), 4: (500, 3240)}


@pytest.mark.parametrize("scenario,d", [(1, 2), (1, 4), (2, 2), (2, 4), (3, 2),
                                        (3, 4), (4, 2), (4, 3), (4, 4)])
def test_cell_operators_reproduce_truth(scenario, d):
    truth = choi_from_kraus(make_channel(ChannelSpec("mixed_unitary", d, rank=2)))
    ops, const = oracles.ls_cell_operators(scenario, d)
    probs = probability_array(truth, scenario).reshape(-1)
    assert np.abs(np.tensordot(probs, ops, axes=1) + const - truth.matrix).max() < 1e-12


@pytest.mark.parametrize("d", [2, 4])
def test_random_scheme_matches_scalar_forms(d):
    # scenario 1: (25^k - |Phi|^2) / N; scenario 3: ((D+1)^2 - |Phi|^2 - D - 2) / N
    truth = noisy_qft(d)
    n_shots = CASES[d][1]
    plan = SamplingPlan("random", n_shots, seed=0)
    norm2 = np.linalg.norm(truth.matrix) ** 2
    k, dim = d.bit_length() - 1, d * d
    assert oracles.ls_second_moment(truth, 1, plan) == pytest.approx(
        (25**k - norm2) / n_shots, rel=1e-10)
    assert oracles.ls_second_moment(truth, 3, plan) == pytest.approx(
        ((dim + 1) ** 2 - norm2 - dim - 2) / n_shots, rel=1e-10)


@pytest.mark.parametrize("scheme", ["fixed", "random"])
@pytest.mark.parametrize("scenario", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 4])
def test_mean_squared_error_matches_closed_form(d, scenario, scheme):
    truth = noisy_qft(d)
    reps, n_shots = CASES[d]
    expected = oracles.ls_second_moment(truth, scenario, SamplingPlan(scheme, n_shots, 0))
    errs = np.empty(reps)
    for seed in range(reps):
        table = sample(truth, scenario, SamplingPlan(scheme, n_shots, seed))
        errs[seed] = np.linalg.norm(ls_estimate(table).matrix - truth.matrix) ** 2
    z = (errs.mean() - expected) / (errs.std(ddof=1) / np.sqrt(reps))
    assert abs(z) <= Z_BOUND, (errs.mean(), expected, z)


@pytest.mark.parametrize("scenario,d", [(1, 2), (2, 2), (2, 4), (4, 2), (4, 3)])
def test_settings_draw_independently(scenario, d):
    # The completely depolarizing channel gives every setting the uniform
    # row, so under the fixed scheme the count X_s of setting s's first half
    # of outcomes is Binomial(nu, 1/2), independent across settings.  With
    # Z_s = (X_s - nu/2) / sqrt(nu/4), U = sum_{s<t} Z_s Z_t has mean 0 and
    # variance S(S-1)/2 over S settings; draws shared or correlated across
    # settings make E U > 0.
    reps, nu = 200, 10
    truth = ChoiMatrix(np.eye(d * d) / (d * d))
    n_settings = setting_count(scenario, d)
    u = np.empty(reps)
    for seed in range(reps):
        table = sample(truth, scenario, SamplingPlan("fixed", nu * n_settings, seed))
        counts = np.rint(table.values.reshape(n_settings, -1) * nu)
        x = counts[:, :counts.shape[1] // 2].sum(axis=1)
        z = (x - nu / 2) / np.sqrt(nu / 4)
        u[seed] = (z.sum() ** 2 - (z**2).sum()) / 2
    z = u.mean() / np.sqrt(n_settings * (n_settings - 1) / 2 / reps)
    assert abs(z) <= Z_BOUND, z
