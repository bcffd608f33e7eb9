import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import sqrtm

from proctomo.channels import (ChannelSpec, ChoiMatrix, DensityMatrix,
                               KrausSet, choi_from_kraus, distance, fidelity,
                               kraus_factor, kraus_rank, make_channel,
                               numerical_rank, partial_trace, qft_unitary)
from proctomo.estimators import LsEstimate

from oracles import apply_kraus, apply_via_choi, maximally_entangled_state, tr_ancilla
from conftest import random_density, random_hermitian, random_kraus_ops, random_unitary
from test_refusals import INT, REAL, refusal


class TestMaximallyEntangled:
    def test_d2_explicit(self):
        omega = maximally_entangled_state(2).matrix
        vec = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert_allclose(omega, np.outer(vec, vec), atol=1e-15)

    def test_marginals_maximally_mixed(self):
        for d in (2, 3, 5):
            omega = maximally_entangled_state(d).matrix
            assert_allclose(partial_trace(omega), np.eye(d) / d, atol=1e-12)
            assert_allclose(tr_ancilla(omega), np.eye(d) / d, atol=1e-12)

    def test_purity(self):
        omega = maximally_entangled_state(3).matrix
        assert np.trace(omega @ omega).real == pytest.approx(1.0, abs=1e-12)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            maximally_entangled_state(1)


class TestChoiFromKraus:
    def test_identity_channel_gives_omega(self):
        choi = choi_from_kraus(KrausSet((np.eye(3),)))
        assert_allclose(choi.matrix, maximally_entangled_state(3).matrix, atol=1e-14)

    def test_depolarizing_pauli_kraus(self):
        # half-strength Pauli mixture averages to the maximally mixed state
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        choi = choi_from_kraus(KrausSet(tuple(p / 2 for p in paulis)))
        assert_allclose(choi.matrix, np.eye(4) / 4, atol=1e-14)

    def test_noisy_qft_rank_two(self):
        kraus = make_channel(ChannelSpec("noisy_qft", 2, measure_prob=0.25))
        # Gram-matrix rank of the vectorized Kraus operators
        vecs = np.stack([k.reshape(-1) for k in kraus.operators])
        gram_rank = np.linalg.matrix_rank(vecs @ vecs.conj().T, tol=1e-9)
        assert gram_rank == 2
        assert numerical_rank(np.linalg.eigvalsh(choi_from_kraus(kraus).matrix)) == 2

    def test_non_tp_rejected(self):
        with pytest.raises(ValueError):
            KrausSet((0.5 * np.eye(2),))


class TestApplyViaChoi:
    def test_identity(self, rng):
        omega = choi_from_kraus(KrausSet((np.eye(2),)))
        rho = DensityMatrix(random_density(2, rng))
        assert_allclose(apply_via_choi(omega, rho).matrix, rho.matrix, atol=1e-12)

    def test_completely_depolarizing(self, rng):
        choi = ChoiMatrix(np.eye(4) / 4)
        rho = DensityMatrix(random_density(2, rng))
        assert_allclose(apply_via_choi(choi, rho).matrix, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 4])
    def test_agrees_with_kraus_application(self, d, rng):
        for _ in range(50):
            kraus = KrausSet(tuple(random_kraus_ops(d, 3, rng)))
            rho = DensityMatrix(random_density(d, rng))
            via_choi = apply_via_choi(choi_from_kraus(kraus), rho)
            direct = apply_kraus(kraus, rho)
            assert np.abs(via_choi.matrix - direct.matrix).max() < 1e-10

    def test_choi_matrix_as_input_state(self):
        # a Choi matrix is a state on C^(d^2); its dim is d, not d^2
        omega = choi_from_kraus(KrausSet((np.eye(2),)))
        identity4 = KrausSet((np.eye(4),))
        assert_allclose(apply_via_choi(choi_from_kraus(identity4), omega).matrix,
                        omega.matrix, atol=1e-12)
        assert_allclose(apply_kraus(identity4, omega).matrix, omega.matrix,
                        atol=1e-12)
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_kraus(KrausSet((np.eye(2),)), omega)


class TestPartialTrace:
    def test_omega_marginal(self):
        omega = maximally_entangled_state(4).matrix
        assert_allclose(partial_trace(omega), np.eye(4) / 4, atol=1e-12)

    def test_product_rule(self, rng):
        a = random_hermitian(3, rng)
        b = random_hermitian(3, rng)
        assert_allclose(partial_trace(np.kron(a, b)), np.trace(a) * b, atol=1e-12)

    def test_diagonal_example(self):
        mat = np.diag([0.75, 0.25, -0.25, 0.25]).astype(complex)
        assert_allclose(partial_trace(mat), np.diag([0.5, 0.5]), atol=1e-15)

    def test_index_summation_oracle(self, rng):
        d = 3
        m = random_hermitian(d * d, rng)
        expected = np.zeros((d, d), dtype=complex)
        for a in range(d):
            for b in range(d):
                expected[a, b] = sum(m[s * d + a, s * d + b] for s in range(d))
        assert_allclose(partial_trace(m), expected, atol=1e-13)

    def test_trace_preserved(self, rng):
        m = random_hermitian(4, rng)
        assert np.trace(partial_trace(m)) == pytest.approx(
            np.trace(m).real, abs=1e-12)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6))


class TestDistance:
    def test_zero_for_equal(self, rng):
        a = random_hermitian(4, rng)
        assert distance(a, a) == pytest.approx(
            {"trace": 0.0, "frobenius": 0.0, "operator": 0.0}, abs=1e-14)

    def test_orthogonal_pure_choi_states(self):
        # orthogonal unitaries give Choi matrices at the maximal trace distance
        u1 = choi_from_kraus(KrausSet((np.eye(2),))).matrix
        u2 = choi_from_kraus(KrausSet((np.diag([1.0, -1.0]),))).matrix
        assert distance(u1, u2) == pytest.approx(
            {"trace": 2.0, "frobenius": np.sqrt(2), "operator": 1.0}, abs=1e-12)

    def test_two_by_two_diagonal(self):
        a, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert distance(a, b) == pytest.approx(
            {"trace": 2.0, "frobenius": np.sqrt(2), "operator": 1.0})

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_norm_ordering(self, seed):
        rng = np.random.default_rng(seed)
        diff = random_hermitian(4, rng)
        norms = distance(diff, 0 * diff)
        assert list(norms) == ["trace", "frobenius", "operator"]
        op, fro, tr = norms["operator"], norms["frobenius"], norms["trace"]
        assert op <= fro + 1e-12
        assert fro <= tr + 1e-12
        assert tr <= 16 * op + 1e-12


class TestMakeChannel:
    def test_rank_one_mixed_unitary_is_projector(self, rng):
        w = random_unitary(4, rng)
        choi = choi_from_kraus(make_channel(
            ChannelSpec("mixed_unitary", 4, unitary=w, rank=1)))
        lam = np.linalg.eigvalsh(choi.matrix)
        assert_allclose(sorted(lam)[-1], 1.0, atol=1e-10)
        assert numerical_rank(np.linalg.eigvalsh(choi.matrix)) == 1

    def test_mixed_unitary_flat_spectrum(self):
        choi = choi_from_kraus(make_channel(ChannelSpec("mixed_unitary", 4, rank=4)))
        lam = np.sort(np.linalg.eigvalsh(choi.matrix))[::-1]
        assert_allclose(lam[:4], 0.25, atol=1e-12)
        assert_allclose(lam[4:], 0.0, atol=1e-12)

    def test_noiseless_qft_matches_unitary(self):
        noiseless = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 4, measure_prob=0.0)))
        pure = choi_from_kraus(make_channel(
            ChannelSpec("unitary", 4, unitary=qft_unitary(4))))
        assert_allclose(noiseless.matrix, pure.matrix, atol=1e-13)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            ChannelSpec("mixed_unitary", 2, rank=5)

    @pytest.mark.parametrize("kwargs,message", [
        ({"rank": True}, refusal("rank", INT, (1, 4), True)),
        ({"rank": 1.5}, refusal("rank", INT, (1, 4), 1.5)),
        ({"dim": 2.0}, refusal("dim", INT, (2, None), 2.0)),
        ({"dim": 1}, refusal("dim", INT, (2, None), 1)),
        ({"kind": "noisy_qft", "measure_prob": "0.3"},
         refusal("measure_prob", REAL, (0, 1), "0.3")),
        ({"kind": "noisy_qft", "measure_prob": [0.25]},
         refusal("measure_prob", REAL, (0, 1), [0.25])),
    ])
    def test_spec_refuses_bad_values_by_name(self, kwargs, message):
        kwargs = {"kind": "mixed_unitary", "dim": 2, **kwargs}
        with pytest.raises(ValueError, match=re.escape(message)):
            ChannelSpec(**kwargs)

    def test_missing_fields_read_as_their_defaults(self):
        # None is "not given": a noisy QFT reads q = 0 and a mixed unitary r = 1
        for kind, field, label in (("noisy_qft", "measure_prob", "noisy_qft(q=0)"),
                                   ("mixed_unitary", "rank", "mixed_unitary(r=1)")):
            spec = ChannelSpec(kind, 2, **{field: None})
            assert spec == ChannelSpec(kind, 2)
            assert spec.label() == label

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_constructions_are_physical(self, d):
        specs = [ChannelSpec("identity", d),
                 ChannelSpec("noisy_qft", d, measure_prob=0.25),
                 ChannelSpec("mixed_unitary", d, rank=min(4, d * d))]
        for spec in specs:
            kraus = make_channel(spec)
            choi = choi_from_kraus(kraus)  # validates PSD/trace/partial trace
            assert kraus_rank(kraus) == numerical_rank(np.linalg.eigvalsh(choi.matrix))

    def test_odd_prime_mixed_unitary(self):
        # Weyl strings keep the flat spectrum in non-qubit dimensions
        choi = choi_from_kraus(make_channel(ChannelSpec("mixed_unitary", 3, rank=9)))
        assert_allclose(choi.matrix, np.eye(9) / 9, atol=1e-12)


def test_fidelity_of_identical_states(rng):
    rho = random_density(4, rng)
    assert fidelity(np.linalg.cholesky(rho), rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_orthogonal_pure_states():
    w = np.array([[1.0], [0.0]])
    assert fidelity(w, np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_of_rank_one_truth_is_overlap(rng):
    # the d = 16 QFT Choi matrix is |psi><psi|, psi its one factor column, so
    # F(truth, b) = <psi|b|psi> exactly, with no round-off eigenvalues of the
    # 256 x 256 sqrt(a) b sqrt(a) to add up
    kraus = make_channel(ChannelSpec("unitary", 16, unitary=qft_unitary(16)))
    w = kraus_factor(kraus)
    assert w.shape == (256, 1)
    psi = w[:, 0]
    b = 0.9 * np.outer(psi, psi.conj()) + 0.1 * random_density(256, rng)
    assert fidelity(w, b) == pytest.approx((psi.conj() @ b @ psi).real, abs=1e-14)


@pytest.mark.parametrize("n", [4, 16])
def test_fidelity_matches_square_root_form(n, rng):
    # full-rank pairs with the Cholesky factor of a (r = n), against
    # (Tr sqrt(sqrt(a) b sqrt(a)))^2 through scipy's matrix square root
    for _ in range(5):
        a, b = random_density(n, rng), random_density(n, rng)
        sa = sqrtm(a)
        expected = np.trace(sqrtm(sa @ b @ sa)).real ** 2
        assert fidelity(np.linalg.cholesky(a), b) == pytest.approx(expected, abs=1e-9)


def test_kraus_factor_gives_choi_and_rank():
    kraus = make_channel(ChannelSpec("noisy_qft", 4, measure_prob=0.25))
    w = kraus_factor(kraus)
    assert w.shape == (16, 3)
    assert_allclose(w @ w.conj().T, choi_from_kraus(kraus).matrix, atol=1e-15)
    # p0 U + p1 U = U: three Kraus operators spanning two dimensions
    assert kraus_rank(kraus) == 2


# --------------------------------------------------------------------------
# One case per rule of the physical set, just outside and just inside its
# tolerance.  Each perturbation of the d = 2 Choi matrix 1/4 breaks one rule
# and keeps the others well inside theirs.
# --------------------------------------------------------------------------


def _off_diagonal(x):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] += x  # |A - A^dag| = x
    return m


def _trace_shift(x):
    m = np.eye(4, dtype=complex) / 4
    m[0, 0] += x  # Tr = 1 + x, Tr_s off by x
    return m


def _negative_eigenvalue(x):
    # Bell-diagonal: every Bell projector has Tr_s = 1/2, so Tr_s = 1/2 exactly
    bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)
    return (bell.T * np.array([1 + x, 0, 0, -x])) @ bell


def _tp_shift(x):
    # 1 (x) Z is traceless with Tr_s = 2 Z
    return np.eye(4) / 4 + x / 2 * np.kron(np.eye(2), np.diag([1.0, -1.0]))


class TestPhysicalRules:
    @pytest.mark.parametrize("cls", [DensityMatrix, ChoiMatrix])
    @pytest.mark.parametrize("make,outside,inside,match", [
        pytest.param(_off_diagonal, 1e-11, 5e-13, "not Hermitian", id="hermiticity"),
        pytest.param(_trace_shift, 1e-11, 5e-13, "trace must be 1", id="trace"),
        pytest.param(_negative_eigenvalue, 1e-9, 5e-11, "negative eigenvalue", id="psd"),
    ])
    def test_state_rule(self, cls, make, outside, inside, match):
        with pytest.raises(ValueError, match=match):
            cls(make(outside))
        cls(make(inside))

    @pytest.mark.parametrize("cls", [DensityMatrix, ChoiMatrix, LsEstimate])
    @pytest.mark.parametrize("entry,value", [
        (None, np.nan), ((0, 0), np.inf), ((0, 1), np.nan), ((2, 1), -np.inf)])
    def test_non_finite_refused_before_decomposition(self, cls, entry, value,
                                                     monkeypatch):
        def no_eig(*args, **kwargs):
            raise AssertionError("decomposed a non-finite matrix")
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eig)
        m = np.eye(4, dtype=complex) / 4
        if entry is None:
            m[:] = value
        else:
            m[entry] = value
        with pytest.raises(ValueError, match="non-finite"):
            cls(m)

    @pytest.mark.parametrize("cls", [DensityMatrix, ChoiMatrix])
    def test_non_square(self, cls):
        with pytest.raises(ValueError, match="square"):
            cls(np.full((4, 2), 0.25))

    def test_size_not_a_square(self):
        DensityMatrix(np.eye(6) / 6)
        with pytest.raises(ValueError, match="not a perfect square"):
            ChoiMatrix(np.eye(6) / 6)

    def test_trace_preserving(self):
        with pytest.raises(ValueError, match="Tr_s"):
            ChoiMatrix(_tp_shift(1e-8))
        ChoiMatrix(_tp_shift(5e-10))
        DensityMatrix(_tp_shift(1e-8))  # a state need not be a channel

    @pytest.mark.parametrize("make,outside,inside,match", [
        (_off_diagonal, 1e-9, 5e-11, "not Hermitian"),
        (_trace_shift, 1e-7, 5e-9, "trace must be 1"),
    ], ids=["hermiticity", "trace"])
    def test_raw_estimate_rule(self, make, outside, inside, match):
        def estimate(m):
            return LsEstimate(m)
        with pytest.raises(ValueError, match=match):
            estimate(make(outside))
        estimate(make(inside))
