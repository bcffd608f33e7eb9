import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from proctomo.channels import (ChannelSpec, KrausSet, choi_from_kraus, make_channel,
                               qubit_count)
from proctomo.designs import mub_family
from proctomo.estimators import ls_estimate
from proctomo.simulate import (_BORN_OPS, _LS_OPS, FrequencyTable, SamplingPlan, _born,
                               _mub_direct_adjoint, _mub_outcome_adjoint, _pauli_fold,
                               _pauli_view, _table_shape, exact_table, sample,
                               setting_count)

import oracles
from oracles import all_settings, pauli_projector
from conftest import (pauli_channels, pauli_plans, random_hermitian, random_kraus_ops,
                      random_unitary, transient_peak)


def _channels(d, rng):
    specs = [ChannelSpec("identity", d),
             ChannelSpec("unitary", d, unitary=random_unitary(d, rng)),
             ChannelSpec("mixed_unitary", d, unitary=random_unitary(d, rng), rank=2)]
    if d & (d - 1) == 0:
        specs.append(ChannelSpec("noisy_qft", d, measure_prob=0.25))
    return specs


class TestIdentifiability:
    """Exact probabilities reproduce the Choi matrix for every scenario."""

    @pytest.mark.parametrize("scenario,dims", [(1, (2, 4)), (2, (2, 4)),
                                               (3, (2, 4)), (4, (2, 3, 16, 32))])
    def test_exact_recovery(self, scenario, dims, rng):
        for d in dims:
            specs = _channels(d, rng)
            if d == 32:  # one channel keeps this case to about a second
                specs = [s for s in specs if s.kind == "mixed_unitary"]
            for spec in specs:
                truth = choi_from_kraus(make_channel(spec))
                est = ls_estimate(exact_table(truth, scenario))
                err = np.linalg.norm(est.matrix - truth.matrix, "fro")
                assert err < 1e-9, f"{spec.kind} d={d}: {err:.2e}"

    @pytest.mark.parametrize("scenario", [1, 2, 3, 4])
    def test_lab_data_as_nested_lists(self, scenario):
        """A table built from plain lists, as measured data may arrive, gives
        the estimate of the same values as an array."""
        spec = ChannelSpec("noisy_qft", 2, measure_prob=0.25)
        table = exact_table(choi_from_kraus(make_channel(spec)), scenario)
        lab = FrequencyTable(scenario, 2, table.values.tolist())
        assert np.array_equal(ls_estimate(lab).matrix, ls_estimate(table).matrix)


class TestScenario1:
    def test_uniform_frequencies_give_maximally_mixed(self):
        table = FrequencyTable(scenario=1, dim=2, values=np.full((9, 4), 0.25))
        est = ls_estimate(table)
        assert_allclose(est.matrix, np.eye(4) / 4, atol=1e-12)

    def test_trace_exactly_one(self, rng):
        values = rng.dirichlet(np.ones(4), size=9)
        table = FrequencyTable(scenario=1, dim=2, values=values)
        est = ls_estimate(table)
        assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_assemble_against_projector_loop(self, rng):
        freqs = rng.random((9, 4))
        fast = _pauli_fold(freqs.reshape(3, 3, 2, 2), _LS_OPS).reshape(4, 4)
        slow = np.zeros((4, 4), dtype=complex)
        for s_idx, setting in enumerate(all_settings(2)):
            for o_idx, bits in enumerate(itertools.product((0, 1), repeat=2)):
                factor = np.array([[1.0 + 0j]])
                for axis, bit in zip(setting, bits):
                    proj = pauli_projector((axis,), (bit,))
                    factor = np.kron(factor, 3 * proj - np.eye(2))
                slow += freqs[s_idx, o_idx] * factor
        assert_allclose(fast, slow, atol=1e-12)


class TestScenario2:
    def test_exact_nontrivial_channel_k2(self, rng):
        truth = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 4, measure_prob=0.25)))
        est = ls_estimate(exact_table(truth, 2))
        assert np.linalg.norm(est.matrix - truth.matrix, "fro") < 1e-10

    def test_degenerate_table_structure(self):
        # all outcome mass on p = q for a = b = z
        values = np.zeros((3, 3, 2, 2))
        values[:, :, 0, 0] = 1.0
        values[:, :, 1, 1] = 1.0
        table = FrequencyTable(scenario=2, dim=2, values=values)
        est = ls_estimate(table)
        assert np.abs(est.matrix - est.matrix.conj().T).max() < 1e-12
        assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-10)


class TestScenario3:
    def test_uniform_frequencies(self):
        table = FrequencyTable(scenario=3, dim=2, values=np.full(20, 1 / 20))
        est = ls_estimate(table)
        assert_allclose(est.matrix, np.eye(4) / 4, atol=1e-12)

    def test_single_outcome_spike(self):
        values = np.zeros(20)
        values[7] = 1.0
        table = FrequencyTable(scenario=3, dim=2, values=values)
        est = ls_estimate(table)
        vec = mub_family(4).vectors()[7]
        expected = 5 * np.outer(vec, vec.conj()) - np.eye(4)
        assert_allclose(est.matrix, expected, atol=1e-12)
        assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(est.matrix).min() == pytest.approx(-1.0, abs=1e-10)


class TestScenario3Assembly:
    """The per-basis scenario-3 sum agrees with the whole-stack form kept in
    ``oracles`` up to rounding, and holds only a few D x D blocks.

    Rounding is relative to the scale of the sum (d^2+1) sum_i f_i |v_i><v_i|,
    whose diagonal is near 1 before the identity is subtracted."""

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_matches_whole_stack(self, d, rng):
        for choi in pauli_channels(d.bit_length() - 1, rng):
            for table in (exact_table(choi, 3),
                          sample(choi, 3, SamplingPlan("random", 10**5, seed=5))):
                new = ls_estimate(table).matrix
                old = oracles.ls_scenario3_matrix(table)
                scale = np.abs(old + np.eye(d * d)).max()
                assert np.abs(new - old).max() <= 1e-14 * scale

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_matches_stack_loop(self, d, rng):
        for choi in pauli_channels(d.bit_length() - 1, rng):
            for table in (exact_table(choi, 3),
                          sample(choi, 3, SamplingPlan("random", 10**5, seed=5))):
                assert np.array_equal(ls_estimate(table).matrix,
                                      oracles.ls_scenario3_by_basis(table))

    def test_peak_memory_d8(self):
        choi = pauli_channels(3, np.random.default_rng(0))[0]
        table = sample(choi, 3, SamplingPlan("random", 10**6, seed=3))
        family_bytes = 65 * 64**2 * 16  # the (D+1) x D x D stack
        _, peak = transient_peak(ls_estimate, table)
        assert peak < family_bytes / 4


class TestScenario4:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8])
    def test_matches_einsum(self, d, rng):
        """The BLAS form P^T f P agrees with the ``einsum`` chains kept in
        ``oracles`` up to rounding."""
        for n_ops in (1, 2, d * d):
            choi = choi_from_kraus(KrausSet(tuple(random_kraus_ops(d, n_ops, rng))))
            for table in (exact_table(choi, 4),
                          sample(choi, 4, SamplingPlan("random", 10**5, seed=5))):
                new = ls_estimate(table).matrix
                old = oracles.ls_scenario4_matrix(table)
                assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()

    def test_depolarizing_d3(self):
        truth = choi_from_kraus(make_channel(ChannelSpec("mixed_unitary", 3, rank=9)))
        est = ls_estimate(exact_table(truth, 4))
        assert_allclose(est.matrix, np.eye(9) / 9, atol=1e-10)

    def test_trace_identity(self, rng):
        values = rng.dirichlet(np.ones(6), size=6)  # rows sum to one
        table = FrequencyTable(scenario=4, dim=2, values=values)
        est = ls_estimate(table)
        assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-8)


class TestLinearity:
    @given(alpha=st.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_affine_mixture(self, alpha):
        rng = np.random.default_rng(7)
        va = rng.dirichlet(np.ones(4), size=9)
        vb = rng.dirichlet(np.ones(4), size=9)
        make = lambda v: FrequencyTable(scenario=1, dim=2, values=v)
        mixed = ls_estimate(make(alpha * va + (1 - alpha) * vb)).matrix
        combo = (alpha * ls_estimate(make(va)).matrix
                 + (1 - alpha) * ls_estimate(make(vb)).matrix)
        assert_allclose(mixed, combo, atol=1e-12)


class TestLeastSquares:
    """``ls_estimate`` solves each scenario's least-squares problem: the
    residual f - Born(LS(f)) is orthogonal to the range of the Born map, for
    a random table f whose per-setting rows sum to one (in scenario 3 the
    whole table).  A transpose or a dropped ``conj`` in either kernel breaks
    it at any d, including d = 2 in scenario 4."""

    @pytest.mark.parametrize("scenario,d", [(1, 2), (1, 4), (2, 2), (2, 4), (3, 2),
                                            (3, 4), (4, 2), (4, 3), (4, 4)])
    def test_residual_orthogonal_to_born_range(self, scenario, d, rng):
        f = rng.random(_table_shape(scenario, d))
        rows = f.reshape(setting_count(scenario, d), -1)
        rows /= rows.sum(axis=1, keepdims=True)
        est = ls_estimate(FrequencyTable(scenario, d, f))
        residual = f - _born(est.matrix, scenario, d)
        for _ in range(3):
            born_y = _born(random_hermitian(d * d, rng), scenario, d)
            bound = 1e-12 * np.linalg.norm(born_y) * np.linalg.norm(f)
            assert abs(np.sum(residual * born_y)) <= bound


def _adjoint(f, scenario, d):
    """A*(f), the adjoint of ``_born``: the kernels of ``simulate`` times the
    scale ``_born`` puts on the forward direction; the Pauli A* folds
    conj(``_BORN_OPS``)^T."""
    if scenario == 3:
        return _mub_outcome_adjoint(f, d) / (d * d + 1)
    if scenario == 4:
        return _mub_direct_adjoint(f, d) * d / (d + 1)
    ops = _BORN_OPS.conj().transpose(2, 3, 0, 1)
    mat = _pauli_fold(_pauli_view(f, scenario, qubit_count(d)), ops).reshape(d * d, d * d)
    return mat * (d if scenario == 2 else 1)


class TestAdjoint:
    """Each scenario's Born map and the adjoint the estimator is built on
    state one set of operators: <Born(X), f> = Re Tr(X A*(f)) for a random
    Hermitian X and a random real table f.  A transpose or a dropped ``conj``
    on either side moves it by 0.1% or more, far above the 1e-13 bound."""

    @pytest.mark.parametrize("scenario,d", [(1, 2), (1, 4), (2, 2), (2, 4), (3, 2),
                                            (3, 4), (4, 2), (4, 3), (4, 4), (4, 5)])
    def test_born_adjoint_identity(self, scenario, d, rng):
        for _ in range(3):
            x = random_hermitian(d * d, rng)
            f = rng.random(_table_shape(scenario, d))
            born = np.sum(_born(x, scenario, d) * f)
            adjoint = np.trace(x @ _adjoint(f, scenario, d)).real
            assert abs(born - adjoint) <= 1e-13 * abs(born)


class TestStatisticalUnbiasedness:
    def test_mean_over_seeds_matches_truth(self):
        truth = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 2, measure_prob=0.25)))
        n_seeds, n_shots = 500, 10**4
        acc = np.zeros((4, 4), dtype=complex)
        acc2 = np.zeros((4, 4))
        for seed in range(n_seeds):
            est = ls_estimate(sample(truth, 1, SamplingPlan("random", n_shots, seed)))
            acc += est.matrix
            acc2 += np.abs(est.matrix) ** 2
        mean = acc / n_seeds
        # entrywise Monte Carlo standard error
        var = acc2 / n_seeds - np.abs(mean) ** 2
        stderr = np.sqrt(np.clip(var, 0, None) / n_seeds)
        dev = np.abs(mean - truth.matrix)
        assert np.all(dev <= 3 * stderr + 1e-12)


class TestChunkedAssembly:
    """The chunked Pauli assembly gives the same bits as the whole-array fold
    kept in ``oracles``; n <= 2 takes the unchunked arrangement."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_assemble_bitwise(self, n, rng):
        freqs = rng.random((3**n, 2**n))
        fold = _pauli_fold(freqs.reshape((3,) * n + (2,) * n), _LS_OPS)
        assert np.array_equal(fold.reshape(2**n, 2**n),
                              oracles.pauli_assemble(freqs, n))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("scenario", [1, 2])
    def test_sampled_estimates_bitwise(self, k, scenario, rng):
        for choi in pauli_channels(k, rng):
            for plan in pauli_plans(scenario, k):
                table = sample(choi, scenario, plan)
                assert np.array_equal(ls_estimate(table).matrix,
                                      oracles.ls_matrix(table)), plan.scheme

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_peak_memory_k4(self, scenario):
        choi = pauli_channels(4, np.random.default_rng(0))[0]
        table = sample(choi, scenario, SamplingPlan("random", 10**6, seed=3))
        est, peak = transient_peak(ls_estimate, table)
        assert peak <= 0.37 * table.values.nbytes  # measured 0.32 tables
        assert np.array_equal(est.matrix, oracles.ls_matrix(table))
