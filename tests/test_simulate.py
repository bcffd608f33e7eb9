import itertools
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from proctomo import simulate
from proctomo.channels import (PSD_TOL, ChannelSpec, ChoiMatrix, DensityMatrix,
                               KrausSet, choi_from_kraus, make_channel)
from proctomo.designs import mub_family
from proctomo.simulate import (_BORN_OPS, FrequencyTable, SamplingPlan, _born,
                               _pauli_fold, exact_table, probability_array, sample,
                               setting_count)

import oracles
from oracles import (all_settings, apply_kraus, born_probabilities,
                     maximally_entangled_state, pauli_projector, setting_index)
from conftest import (pauli_channels, pauli_plans, random_density,
                      random_kraus_ops, transient_peak)
from test_refusals import INT, refusal


@pytest.fixture(scope="module")
def omega2():
    return ChoiMatrix(maximally_entangled_state(2).matrix)


@pytest.fixture(scope="module")
def noisy2():
    return choi_from_kraus(make_channel(ChannelSpec("noisy_qft", 2, measure_prob=0.25)))


class TestBornProbabilities:
    def test_scenario1_entangled_correlations(self, omega2):
        idx = setting_index(("z", "z"))
        p = born_probabilities(omega2, 1, idx)
        assert_allclose(p, [0.5, 0.0, 0.0, 0.5], atol=1e-12)

    def test_scenario3_depolarized(self):
        choi = ChoiMatrix(np.eye(4) / 4)
        p = born_probabilities(choi, 3)
        assert_allclose(p, np.full(20, 1 / 20), atol=1e-12)

    def test_scenario2_identity_z_input(self, omega2):
        # input |0><0| (a=z, q=0), measure z: outcome 0 is certain
        idx = (setting_index(("z",)) * 3 + setting_index(("z",))) * 2 + 0
        p = born_probabilities(omega2, 2, idx)
        assert_allclose(p, [1.0, 0.0], atol=1e-12)

    def test_joint_kernel_against_projector_loop(self, rng):
        kraus = random_kraus_ops(4, 2, rng)
        choi = choi_from_kraus(KrausSet(tuple(kraus)))
        fast = _born(choi.matrix, 1, 4)
        for s_idx, setting in enumerate(all_settings(4)):
            if s_idx % 17:  # spot-check a deterministic subset
                continue
            for o_idx, bits in enumerate(itertools.product((0, 1), repeat=4)):
                proj = pauli_projector(setting, bits)
                expected = np.trace(choi.matrix @ proj).real
                assert fast[s_idx, o_idx] == pytest.approx(expected, abs=1e-12)

    def test_rows_normalized(self, noisy2):
        for scenario in (1, 2, 3, 4):
            values = probability_array(noisy2, scenario)
            sums = values.sum(axis=-1)
            assert_allclose(sums, np.ones_like(sums), atol=1e-10)
        # a scenario-4 setting is one input: its row of the table
        row = born_probabilities(noisy2, 4, 5)
        assert row.shape == (6,)
        assert_allclose(row, probability_array(noisy2, 4)[5], atol=0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_scenario2_input_convention(self, k, rng):
        # row (a, b, q), outcome p: Tr(P^b_p C((P^a_q)^T))
        kraus = KrausSet(tuple(random_kraus_ops(2**k, 2, rng)))
        table = probability_array(choi_from_kraus(kraus), 2)
        labels = list(itertools.product((0, 1), repeat=k))
        for a, sa in enumerate(all_settings(k)):
            for q, bits_q in enumerate(labels):
                rho = DensityMatrix(pauli_projector(sa, bits_q).T.copy())
                out = apply_kraus(kraus, rho).matrix
                for b, sb in enumerate(all_settings(k)):
                    expected = [np.trace(pauli_projector(sb, bits_p) @ out).real
                                for bits_p in labels]
                    assert_allclose(table[a, b, q], expected, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_scenario4_input_convention(self, d, rng):
        # row k, outcome l: <v_l| C((|v_k><v_k|)^T) |v_l> / (d+1)
        kraus = KrausSet(tuple(random_kraus_ops(d, 2, rng)))
        table = probability_array(choi_from_kraus(kraus), 4)
        vecs = mub_family(d).vectors()
        for k, v in enumerate(vecs):
            rho = DensityMatrix(np.outer(v, v.conj()).T.copy())
            out = apply_kraus(kraus, rho).matrix
            expected = np.einsum("li,ij,lj->l", vecs.conj(), out, vecs).real
            assert_allclose(table[k], expected / (d + 1), atol=1e-12)

    def test_unphysical_choi_rejected(self):
        with pytest.raises(ValueError):
            ChoiMatrix(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


def _barely_negative_choi(d, seed):
    """The identity channel's Choi matrix plus a trace-preserving Hermitian
    perturbation scaled to lambda_min = -PSD_TOL / 2, which ``ChoiMatrix``
    accepts.  Phi's kernel K is degenerate, so lambda_min(Phi + t H) is
    t lambda_min(K^dag H K) to first order in the tiny t."""
    phi = choi_from_kraus(make_channel(ChannelSpec("identity", d))).matrix
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d * d,) * 2) + 1j * rng.standard_normal((d * d,) * 2)
    h = oracles.proj_tp_linear(0.5 * (g + g.conj().T))
    lam, vecs = np.linalg.eigh(phi)
    kernel = vecs[:, lam < 0.5]
    mu = np.linalg.eigvalsh(kernel.conj().T @ h @ kernel).min()
    choi = ChoiMatrix(phi - 0.5 * PSD_TOL / mu * h)
    assert -PSD_TOL < np.linalg.eigvalsh(choi.matrix).min() < -0.4 * PSD_TOL
    return choi


class TestClampFloor:
    """A Born probability is at least c lambda_min with c <= d, so a Choi
    matrix that passes ``ChoiMatrix`` (lambda_min >= -PSD_TOL) is sampled,
    and only a probability below -d PSD_TOL is refused."""

    @pytest.mark.parametrize("scenario,d", [(1, 2), (1, 4), (2, 2), (2, 4),
                                            (3, 2), (4, 2), (4, 4)])
    def test_barely_negative_choi_sampled(self, scenario, d):
        for seed in range(3):
            choi = _barely_negative_choi(d, seed)
            table = sample(choi, scenario, SamplingPlan("random", 10**4, seed))
            assert table.values.min() >= 0.0
            assert np.isfinite(table.values).all()

    @pytest.mark.parametrize("d", [2, 4])
    def test_floor_is_d_psd_tol(self, d):
        def row(p_min):
            return np.array([[p_min, 0.5 - p_min, 0.5]])
        clamped = simulate._clamp_rows(row(-0.5 * d * PSD_TOL), d)
        assert clamped.min() == 0.0
        assert clamped.sum() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError, match="too negative"):
            simulate._clamp_rows(row(-3 * d * PSD_TOL), d)


class TestSampling:
    def test_fixed_cycle_exact_counts(self, noisy2):
        plan = SamplingPlan("fixed", 9 * 50, seed=3)
        table = sample(noisy2, 1, plan)
        nu = plan.shots_per_setting(9)
        assert nu == 50
        assert_allclose(table.values.sum(axis=1), np.ones(9), atol=1e-12)
        counts = table.values * nu
        assert_allclose(counts, np.round(counts), atol=1e-9)

    def test_fixed_needs_divisible_shots(self, noisy2):
        with pytest.raises(ValueError, match="divisible"):
            sample(noisy2, 1, SamplingPlan("fixed", 100, seed=0))

    def test_shots_per_setting(self):
        assert SamplingPlan("random", 100, seed=0).shots_per_setting(9) == 100 / 9
        assert SamplingPlan("fixed", 450, seed=0).shots_per_setting(9) == 50.0
        with pytest.raises(ValueError, match="divisible by 9 settings"):
            SamplingPlan("fixed", 100, seed=0).shots_per_setting(9)

    @pytest.mark.parametrize("scheme,n_shots,seed,name", [
        ("random", 1000.5, 1, "n_shots"),
        ("random", True, 1, "n_shots"),
        ("fixed", 900.0, 1, "n_shots"),
        ("random", "900", 1, "n_shots"),
        ("random", 0, 1, "n_shots"),
        ("random", 1000, 1.7, "seed"),
        ("random", 1000, True, "seed"),
        ("random", 1000, -1, "seed"),
    ])
    def test_plan_refuses_what_it_would_truncate_or_alias(self, scheme, n_shots,
                                                          seed, name):
        low, value = (1, n_shots) if name == "n_shots" else (0, seed)
        message = refusal(name, INT, (low, None), value)
        with pytest.raises(ValueError, match=re.escape(message)):
            SamplingPlan(scheme, n_shots, seed)

    def test_wide_seeds_keep_their_bits(self, noisy2):
        # every nonnegative seed goes to SeedSequence whole: 2**64 is not 0
        tables = [sample(noisy2, 1, SamplingPlan("random", 10**4, seed)).values
                  for seed in (0, 2**64, 2**64 - 1)]
        assert not np.array_equal(tables[0], tables[1])
        assert not np.array_equal(tables[1], tables[2])

    def test_impossible_outcome_never_sampled(self, omega2):
        table = sample(omega2, 1, SamplingPlan("random", 10**5, seed=8))
        idx = setting_index(("z", "z"))
        assert table.values[idx, 1] == 0.0  # outcome 01 has probability zero
        assert table.values[idx, 2] == 0.0

    def test_random_scheme_total_mass(self, noisy2):
        n = 12345
        plan = SamplingPlan("random", n, seed=5)
        table = sample(noisy2, 4, plan)
        nu = plan.shots_per_setting(6)  # n / 6
        assert table.values.sum() * nu == pytest.approx(n, abs=1e-6)

    def test_determinism(self, noisy2):
        a = sample(noisy2, 2, SamplingPlan("random", 10**4, seed=21))
        b = sample(noisy2, 2, SamplingPlan("random", 10**4, seed=21))
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_table(self, noisy2):
        a = sample(noisy2, 2, SamplingPlan("random", 10**4, seed=21))
        b = sample(noisy2, 2, SamplingPlan("random", 10**4, seed=22))
        assert not np.array_equal(a.values, b.values)

    def test_unbiasedness_fixed_scheme(self, noisy2):
        nu = 100
        acc = np.zeros((9, 4))
        n_seeds = 200
        for seed in range(n_seeds):
            acc += sample(noisy2, 1, SamplingPlan("fixed", 9 * nu, seed)).values
        mean = acc / n_seeds
        probs = probability_array(noisy2, 1)
        assert np.abs(mean - probs).max() <= 5 / np.sqrt(n_seeds * nu)

    @pytest.mark.parametrize("scenario", [1, 2, 3, 4])
    def test_setting_counts(self, scenario):
        expected = {1: 9, 2: 18, 3: 1, 4: 6}[scenario]
        assert setting_count(scenario, 2) == expected


class TestTableLayout:
    @pytest.mark.parametrize("scenario,shape,bad", [
        (1, (9, 4), (9, 3)),
        (1, (9, 4), (36,)),
        (2, (3, 3, 2, 2), (9, 2, 2)),
        (2, (3, 3, 2, 2), (3, 3, 2, 3)),
        (3, (20,), (4, 5)),
        (3, (20,), (21,)),
        (4, (6, 6), (36,)),
        (4, (6, 6), (6, 5)),
    ])
    def test_wrong_shape_refused_at_construction(self, scenario, shape, bad):
        def table(values):
            return FrequencyTable(scenario=scenario, dim=2, values=values)
        assert table(np.zeros(shape)).values.shape == shape
        msg = f"scenario {scenario} at d = 2 needs a {shape} table, got {bad}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            table(np.zeros(bad))

    def test_pauli_layout_needs_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            FrequencyTable(scenario=1, dim=3, values=np.zeros((9, 4)))

    @pytest.mark.parametrize("scenario", [0, 5])
    def test_unknown_scenario_refused(self, scenario):
        message = re.escape(refusal("scenario", INT, (1, 4), scenario))
        with pytest.raises(ValueError, match=message):
            FrequencyTable(scenario=scenario, dim=2, values=np.zeros(20))


class TestExactTable:
    def test_matches_probability_array(self, noisy2):
        table = exact_table(noisy2, 3)
        assert (table.scenario, table.dim) == (3, 2)
        assert_allclose(table.values, probability_array(noisy2, 3), atol=0)


class TestChunkedPauliKernels:
    """The chunked Born kernel and the in-place sampling path give the same
    bits as the whole-array forms kept in ``oracles``."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_joint_kernel_bitwise(self, n, rng):
        phi = random_density(2**n, rng)
        joint = _pauli_fold(phi.reshape((2,) * (2 * n)), _BORN_OPS,
                            np.empty((3,) * n + (2,) * n))
        assert np.array_equal(joint.reshape(3**n, 2**n),
                              oracles.pauli_joint_probabilities(phi, n))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("scenario", [1, 2])
    def test_tables_bitwise(self, k, scenario, rng):
        for choi in pauli_channels(k, rng):
            assert np.array_equal(probability_array(choi, scenario),
                                  oracles.probability_array(choi, scenario))
            for plan in pauli_plans(scenario, k):
                new = sample(choi, scenario, plan)
                old = oracles.sample(choi, scenario, plan)
                assert new.values.shape == old.values.shape
                assert np.array_equal(new.values, old.values), plan.scheme

    @pytest.mark.parametrize("scenario", [1, 2])
    def test_sample_peak_memory_k4(self, scenario):
        choi = pauli_channels(4, np.random.default_rng(0))[0]
        for plan in (SamplingPlan("random", 10**6, seed=3),
                     SamplingPlan("fixed", 2 * setting_count(scenario, 16), seed=3)):
            table, peak = transient_peak(sample, choi, scenario, plan)
            # measured 1.24 tables in all four cases
            assert peak <= 1.45 * table.values.nbytes, plan.scheme


def _rel_dev(new, old):
    return np.abs(new - old).max() / np.abs(old).max()


class TestMubKernels:
    """The per-basis MUB Born kernels agree with the whole-stack ``einsum``
    forms kept in ``oracles`` up to rounding."""

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_scenario3_matches_einsum(self, d, rng):
        for choi in pauli_channels(d.bit_length() - 1, rng):
            new = simulate._mub_outcome_probabilities(choi.matrix, d)
            old = oracles.mub_outcome_probabilities(choi.matrix, d)
            assert new.shape == old.shape
            assert _rel_dev(new, old) <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8])
    def test_scenario4_matches_einsum(self, d, rng):
        for n_ops in (1, 2, d * d):
            choi = choi_from_kraus(KrausSet(tuple(random_kraus_ops(d, n_ops, rng))))
            new = simulate._mub_direct_probabilities(choi.matrix, d)
            old = oracles.mub_direct_probabilities(choi.matrix, d)
            assert new.shape == old.shape
            assert _rel_dev(new, old) <= 1e-14

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_scenario3_matches_stack_loop(self, d, rng):
        for choi in pauli_channels(d.bit_length() - 1, rng):
            new = simulate._mub_outcome_probabilities(choi.matrix, d)
            old = oracles.mub_outcome_probabilities_by_basis(choi.matrix, d)
            assert np.array_equal(new, old)

    def test_scenario3_peak_memory_d8(self):
        choi = pauli_channels(3, np.random.default_rng(0))[0]
        family_bytes = 65 * 64**2 * 16  # the (D+1) x D x D stack
        _, peak = transient_peak(probability_array, choi, 3)
        assert peak < family_bytes / 4
