import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular

from proctomo.channels import (ChannelSpec, ChoiMatrix, choi_from_kraus,
                               make_channel, maximally_entangled_state,
                               partial_trace)
from proctomo.estimators import ls_estimate
from proctomo.projections import (DUAL_GRAD_TOL, HalfSpace, ProjectionConfig,
                                  _make_halfspace, _waterfill, cp1_threshold,
                                  depolarizing_finalize, hip_inner, pls_pipeline,
                                  proj_cp, proj_cp1_thresholded, proj_tp,
                                  proj_tp_linear, project_to_cptp)
from proctomo.simulate import SamplingPlan, sample

from conftest import random_density, random_hermitian


def _random_tp(n, rng):
    return proj_tp(random_hermitian(n, rng))


def _random_cptp(d, rng):
    from conftest import random_kraus_ops
    from proctomo.channels import KrausSet
    return choi_from_kraus(KrausSet(tuple(random_kraus_ops(d, 2, rng)))).matrix


class TestProjTp:
    def test_fixed_point(self):
        omega = maximally_entangled_state(2).matrix
        assert_allclose(proj_tp(omega), omega, atol=1e-14)

    def test_hand_evaluated_example(self):
        x = np.zeros((4, 4), dtype=complex)
        x[0, 0] = 1.0  # |00><00|
        assert_allclose(proj_tp(x), np.diag([0.75, 0.25, -0.25, 0.25]), atol=1e-14)
        assert_allclose(partial_trace(proj_tp(x), "system"), np.eye(2) / 2, atol=1e-14)

    def test_idempotent(self, rng):
        x = random_hermitian(4, rng)
        assert_allclose(proj_tp(proj_tp(x)), proj_tp(x), atol=1e-13)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_nonexpansive_and_pythagorean(self, seed):
        rng = np.random.default_rng(seed)
        x = random_hermitian(4, rng)
        y = _random_tp(4, rng)
        px = proj_tp(x)
        assert np.linalg.norm(px - y, "fro") <= np.linalg.norm(x - y, "fro") + 1e-12
        lhs = np.linalg.norm(x - y, "fro") ** 2
        rhs = (np.linalg.norm(px - y, "fro") ** 2
               + np.linalg.norm(x - px, "fro") ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_linear_part_annihilates_partial_trace(self, rng):
        x = random_hermitian(9, rng)
        assert np.abs(partial_trace(proj_tp_linear(x), "system")).max() < 1e-12


class TestProjCp:
    def test_psd_fixed_point(self, rng):
        rho = random_density(4, rng)
        assert_allclose(proj_cp(rho), rho, atol=1e-13)

    def test_diagonal_clipping(self):
        x = np.diag([0.9, 0.4, -0.3]).astype(complex)
        assert_allclose(proj_cp(x), np.diag([0.9, 0.4, 0.0]), atol=1e-14)

    def test_rejects_non_hermitian(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(ValueError):
            proj_cp(g)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_nonexpansive_toward_cone(self, seed):
        rng = np.random.default_rng(seed)
        x = random_hermitian(4, rng)
        y = random_density(4, rng)  # a point of the cone
        assert (np.linalg.norm(proj_cp(x) - y, "fro")
                <= np.linalg.norm(x - y, "fro") + 1e-12)


def _waterfill_bisection(values, total=1.0):
    """Independent oracle: find the shift by bisection."""
    lo, hi = 0.0, float(np.max(values))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(values - mid, 0.0, None).sum() > total:
            lo = mid
        else:
            hi = mid
    return np.clip(values - 0.5 * (lo + hi), 0.0, None)


class TestWaterfill:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_against_bisection_oracle(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.random(8) * 2
        if values.sum() < 1:
            values = values + 1
        got = _waterfill(values, 1.0)
        assert got.sum() == pytest.approx(1.0, abs=1e-9)
        assert_allclose(got, _waterfill_bisection(values), atol=1e-8)


class TestProjCp1Thresholded:
    def test_spec_walkthrough(self):
        # eigenvalues (-0.5, 0.3, 1.2), tau = 0.5: threshold -> (0, 0, 1.7),
        # water fill with x0 = 0.7 -> (0, 0, 1)
        x = np.diag([-0.5, 0.3, 1.2]).astype(complex)
        out = proj_cp1_thresholded(x, 0.5)
        assert_allclose(out, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_density_matrix_fixed_at_zero_threshold(self, rng):
        rho = random_density(4, rng)
        assert_allclose(proj_cp1_thresholded(rho, 0.0), rho, atol=1e-12)

    def test_refill_branch_trace_exact(self):
        # thresholded mass 0.85 < 1: the next eigenvalue receives the residue
        x = np.diag([-0.1, 0.3, 0.35, 0.45]).astype(complex)
        out = proj_cp1_thresholded(x, 0.4)
        assert_allclose(np.diag(out).real, [0.0, 0.0, 0.15, 0.85], atol=1e-12)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_default_threshold_bookkeeping(self, rng):
        truth = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 4, measure_prob=0.25)))
        est = ls_estimate(sample(truth, 1, SamplingPlan("random", 10**4, seed=1)))
        lam = np.linalg.eigvalsh(est.matrix)
        tau = -lam.min()
        out = proj_cp1_thresholded(est.matrix, tau)
        mu = np.linalg.eigvalsh(out)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert mu.min() > -1e-12
        assert (mu > 1e-9).sum() <= (lam > tau).sum() + 1

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            proj_cp1_thresholded(np.eye(3, dtype=complex), 0.1)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            proj_cp1_thresholded(np.eye(3, dtype=complex) / 3, -0.1)


class TestCp1Threshold:
    def test_zero_for_a_density_matrix(self, rng):
        tau = cp1_threshold(random_density(4, rng))
        assert tau == 0.0 and isinstance(tau, float)

    def test_flipped_least_eigenvalue_of_an_estimate(self):
        truth = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 4, measure_prob=0.25)))
        est = ls_estimate(sample(truth, 1, SamplingPlan("random", 10**4, seed=1)))
        lam_min = np.linalg.eigvalsh(est.matrix).min()
        assert lam_min < 0
        assert cp1_threshold(est.matrix) == -lam_min


def _solve_gram_oracle(gram, rhs, drop_tol=1e-12):
    """Solve gram @ c = rhs by order-preserving Cholesky with skips.

    Indices whose Schur-complement pivot falls below ``drop_tol`` are dropped
    (coefficient zero) and reported.
    """
    n = gram.shape[0]
    kept = []
    low = np.zeros((n, n))
    for i in range(n):
        m = len(kept)
        if m:
            y = solve_triangular(low[:m, :m], gram[kept, i], lower=True)
        else:
            y = np.zeros(0)
        pivot = gram[i, i] - y @ y
        if pivot <= drop_tol:
            continue
        low[m, :m] = y
        low[m, m] = math.sqrt(pivot)
        kept.append(i)
    m = len(kept)
    coeff = np.zeros(n)
    if m:
        y = solve_triangular(low[:m, :m], rhs[kept], lower=True)
        coeff[kept] = solve_triangular(low[:m, :m].T, y, lower=False)
    return coeff, kept


def _hip_inner_oracle(halfspaces, phi):
    """Reference hip_inner: rebuild and re-solve the whole trial Gram system
    for every candidate, dropping any dependent row, not only the newest."""
    accepted = []
    coeffs = np.zeros(0)
    for cand in halfspaces:
        trial = accepted + [cand]
        gram = np.array([[np.vdot(a.tp_normal, b.tp_normal).real for b in trial]
                         for a in trial])
        rhs = np.array([h.offset - np.vdot(h.normal, phi).real for h in trial])
        c, kept = _solve_gram_oracle(gram, rhs)
        if len(trial) - 1 not in kept:
            continue
        if np.all(c[kept] >= -1e-12):
            accepted = [trial[i] for i in kept]
            coeffs = c[kept]
    phi_new = phi.copy()
    for c, h in zip(coeffs, accepted):
        phi_new += c * h.tp_normal
    return accepted, phi_new


def _unit(a):
    return a / np.linalg.norm(a, "fro")


def _halfspace_window(n, kinds, rng):
    """A plane iterate and one half-space per entry of ``kinds``.

    'violated' and 'satisfied' draw a fresh random normal cutting off resp.
    keeping phi, 'touching' one whose boundary passes within 1e-13 of phi
    (coefficients in the -1e-12 tolerance band).  'duplicate', 'parallel'
    and 'near' reuse an earlier normal exactly, negated, or perturbed by a
    relative 1e-9..1e-2, with a fresh offset; 'weak' is the nearly parallel,
    barely violated partner that forces a negative joint coefficient.
    """
    phi = _random_tp(n, rng)
    normals = []
    out = []
    for kind in kinds:
        if not normals or kind in ("violated", "satisfied", "touching"):
            a = _unit(random_hermitian(n, rng))
        elif kind == "duplicate":
            a = normals[rng.integers(len(normals))]
        elif kind == "parallel":
            a = -normals[rng.integers(len(normals))]
        else:  # near, weak
            scale = 10.0 ** rng.uniform(-9, -2) if kind == "near" else 0.05
            base = normals[rng.integers(len(normals))]
            a = _unit(base + scale * random_hermitian(n, rng))
        value = float(np.vdot(a, phi).real)
        gap = {"satisfied": -rng.uniform(0.01, 1.0),
               "touching": -rng.uniform(0.0, 1e-13),
               "weak": rng.uniform(0.0, 0.05)}.get(kind, rng.uniform(0.0, 1.0))
        normals.append(a)
        out.append(HalfSpace(normal=a, offset=value + gap))
    return phi, out


class TestHipInner:
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([4, 16]),
           kinds=st.lists(st.sampled_from(["violated", "satisfied", "touching",
                                           "duplicate", "parallel", "near",
                                           "weak"]),
                          min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_rebuild_oracle(self, seed, n, kinds):
        phi, window = _halfspace_window(n, kinds, np.random.default_rng(seed))
        got_active, got = hip_inner(window, phi)
        want_active, want = _hip_inner_oracle(window, phi)
        assert len(got_active) == len(want_active)
        assert all(a is b for a, b in zip(got_active, want_active))
        assert np.array_equal(got, want)

    def test_duplicate_normal_is_skipped(self, rng):
        phi = _random_tp(4, rng)
        a = _unit(random_hermitian(4, rng))
        value = float(np.vdot(a, phi).real)
        w1 = HalfSpace(normal=a, offset=value + 0.5)
        w2 = HalfSpace(normal=a.copy(), offset=value + 0.7)
        active, new = hip_inner([w1, w2], phi)
        assert active == [w1]
        assert np.array_equal(new, _hip_inner_oracle([w1, w2], phi)[1])

    def test_oracle_agrees_on_halfspaces_from_a_projection_run(self, rng):
        # the windows HIPswitch actually builds: PSD-cone cuts at k=2
        truth = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 4, measure_prob=0.25)))
        est = ls_estimate(sample(truth, 1, SamplingPlan("random", 10**4, seed=3)))
        phi = proj_tp(proj_cp1_thresholded(est.matrix, cp1_threshold(est.matrix)))
        window = []
        for _ in range(40):
            w = _make_halfspace(phi, proj_cp(phi))
            if w is None:
                break
            window = [w] + window[:29]
            want_active, want = _hip_inner_oracle(window, phi)
            window, phi = hip_inner(window, phi)
            assert len(window) == len(want_active)
            assert all(a is b for a, b in zip(window, want_active))
            assert np.array_equal(phi, want)

    def test_single_violated_halfspace(self, rng):
        phi = _random_tp(4, rng)
        a = random_hermitian(4, rng)
        a /= np.linalg.norm(a, "fro")
        w = HalfSpace(normal=a, offset=float(np.vdot(a, phi).real) + 0.5)
        active, new = hip_inner([w], phi)
        assert len(active) == 1
        # equals the single-hyperplane projection within the plane
        ta = w.tp_normal
        expected = phi + (w.offset - np.vdot(a, phi).real) / np.vdot(ta, ta).real * ta
        assert_allclose(new, expected, atol=1e-10)
        assert np.vdot(a, new).real == pytest.approx(w.offset, abs=1e-9)

    def test_satisfied_halfspaces_ignored(self, rng):
        phi = _random_tp(4, rng)
        halfspaces = []
        for _ in range(3):
            a = random_hermitian(4, rng)
            a /= np.linalg.norm(a, "fro")
            halfspaces.append(HalfSpace(normal=a,
                                        offset=float(np.vdot(a, phi).real) - 1.0))
        active, new = hip_inner(halfspaces, phi)
        assert active == []
        assert_allclose(new, phi, atol=0)

    def test_negative_coefficient_excluded(self, rng):
        phi = _random_tp(4, rng)
        a1 = random_hermitian(4, rng)
        a1 /= np.linalg.norm(a1, "fro")
        # nearly parallel second normal with a much weaker offset: joint
        # hyperplane projection would pull it negative
        a2 = a1 + 0.05 * random_hermitian(4, rng)
        a2 /= np.linalg.norm(a2, "fro")
        w1 = HalfSpace(normal=a1, offset=float(np.vdot(a1, phi).real) + 1.0)
        w2 = HalfSpace(normal=a2, offset=float(np.vdot(a2, phi).real) + 0.05)
        gram = np.array([[np.vdot(w.tp_normal, v.tp_normal).real for v in (w1, w2)]
                         for w in (w1, w2)])
        rhs = np.array([1.0, 0.05])
        coeffs = np.linalg.solve(gram, rhs)
        assert coeffs.min() < 0, "construction should force a negative coefficient"
        active, new = hip_inner([w1, w2], phi)
        assert len(active) == 1
        for w in (w1, w2):
            assert np.vdot(w.normal, new).real >= w.offset - 1e-9
        assert np.abs(partial_trace(new - phi, "system")).max() < 1e-12

    def test_normal_must_be_unit(self, rng):
        with pytest.raises(ValueError):
            HalfSpace(normal=2 * np.eye(4, dtype=complex), offset=0.0)


class TestProjectToCptp:
    def test_physical_input_unchanged(self, rng):
        phi = _random_cptp(2, rng)
        for method in ("HIPswitch", "AP", "Dykstra", "dual"):
            choi, report = project_to_cptp(phi, method)
            if method != "dual":
                assert report.iterations == 0
            assert report.mixing_p == 0.0
            assert np.abs(choi.matrix - phi).max() < 1e-7

    @pytest.mark.parametrize("method", ["AP", "Dykstra", "oneHIP", "pureHIP",
                                        "HIPswitch", "dual"])
    def test_output_is_physical(self, method, rng):
        truth = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 2, measure_prob=0.25)))
        est = ls_estimate(sample(truth, 1, SamplingPlan("random", 2000, seed=4)))
        choi, report = pls_pipeline(est, method=method)
        ChoiMatrix(choi.matrix)  # validates PSD / trace / partial trace
        assert report.final_lambda_min >= -ProjectionConfig().epsilon

    def test_iterate_distances_monotone(self, rng):
        truth = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 4, measure_prob=0.25)))
        est = ls_estimate(sample(truth, 1, SamplingPlan("random", 10**4, seed=2)))
        cp1 = proj_cp1_thresholded(est.matrix, cp1_threshold(est.matrix))
        dists = []
        project_to_cptp(cp1, "HIPswitch", ProjectionConfig(),
                        iterate_hook=lambda p: dists.append(
                            np.linalg.norm(p - truth.matrix, "fro")))
        seq = [np.linalg.norm(cp1 - truth.matrix, "fro")] + dists
        assert all(b <= a + 1e-10 for a, b in zip(seq, seq[1:]))

    def test_dual_is_exact_projection(self, rng):
        truth = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 2, measure_prob=0.25)))
        est = ls_estimate(sample(truth, 1, SamplingPlan("random", 3000, seed=6)))
        phi0 = proj_cp1_thresholded(est.matrix, cp1_threshold(est.matrix))
        choi, report = project_to_cptp(phi0, "dual")
        assert report.dual_grad_norm <= DUAL_GRAD_TOL
        base = np.linalg.norm(choi.matrix - phi0, "fro")
        for seed in range(20):
            y = _random_cptp(2, np.random.default_rng(seed))
            assert base <= np.linalg.norm(y - phi0, "fro") + 1e-6

    def test_dykstra_matches_dual(self, rng):
        truth = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 2, measure_prob=0.25)))
        est = ls_estimate(sample(truth, 1, SamplingPlan("random", 3000, seed=9)))
        phi0 = proj_cp1_thresholded(est.matrix, cp1_threshold(est.matrix))
        tight = ProjectionConfig(epsilon=1e-11, max_outer_iterations=100000)
        dyk, _ = project_to_cptp(phi0, "Dykstra", tight)
        dua, _ = project_to_cptp(phi0, "dual", tight)
        assert np.linalg.norm(dyk.matrix - dua.matrix, "fro") < 1e-6

    def test_nonconverged_flag(self, rng):
        truth = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 4, measure_prob=0.25)))
        est = ls_estimate(sample(truth, 1, SamplingPlan("random", 10**4, seed=3)))
        cp1 = proj_cp1_thresholded(est.matrix, cp1_threshold(est.matrix))
        short = ProjectionConfig(max_outer_iterations=2)
        _, report = project_to_cptp(cp1, "AP", short)
        assert not report.converged

    @pytest.mark.parametrize("method", ["AP", "Dykstra", "HIPswitch"])
    def test_nonconverged_exit(self, method, caplog):
        truth = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 4, measure_prob=0.25)))
        est = ls_estimate(sample(truth, 1, SamplingPlan("random", 10**4, seed=3)))
        cp1 = proj_cp1_thresholded(est.matrix, cp1_threshold(est.matrix))
        short = ProjectionConfig(max_outer_iterations=2)
        with caplog.at_level(logging.WARNING, logger="proctomo.projections"):
            _, report = project_to_cptp(cp1, method, short)
        assert not report.converged
        assert report.final_lambda_min == max(report.lambda_min_trace)
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1
        assert method in warnings[0].getMessage()

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            project_to_cptp(np.eye(4) / 4, "simplex")


class TestDepolarizingFinalize:
    def test_psd_input_untouched(self, rng):
        phi = _random_cptp(2, rng)
        out, p = depolarizing_finalize(phi)
        assert p == 0.0
        assert_allclose(out.matrix, phi, atol=1e-14)

    def test_mixing_weight_formula(self):
        # TP matrix (d = 4, so the Choi acts on 16 dims) with lambda_min -1e-7
        bump = np.zeros((16, 16), dtype=complex)
        bump[0, 0] = 1.0
        bump[1, 1] = -1.0
        direction = proj_tp_linear(bump)  # diagonal, keeps Tr_s fixed
        lam_dir = np.linalg.eigvalsh(direction).min()
        scale = (1 / 16 + 1e-7) / (-lam_dir)
        phi = np.eye(16) / 16 + scale * direction
        assert np.linalg.eigvalsh(phi).min() == pytest.approx(-1e-7, rel=1e-9)
        out, p = depolarizing_finalize(phi)
        expected = 16e-7 / (1 + 16e-7)
        assert p == pytest.approx(expected, rel=1e-6)
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-12
        assert_allclose(partial_trace(out.matrix, "system"), np.eye(4) / 4,
                        atol=1e-12)

    def test_refuses_far_from_cone(self):
        # TP matrix with lambda_min = -0.2, well past the refusal threshold
        bump = np.zeros((4, 4), dtype=complex)
        bump[0, 0] = 1.0
        bump[1, 1] = -1.0
        direction = proj_tp_linear(bump)
        scale = (0.25 + 0.2) / (-np.linalg.eigvalsh(direction).min())
        phi = np.eye(4) / 4 + scale * direction
        assert np.linalg.eigvalsh(phi).min() == pytest.approx(-0.2, rel=1e-9)
        with pytest.raises(ValueError, match="not converged"):
            depolarizing_finalize(phi)

    def test_rejects_non_tp(self, rng):
        with pytest.raises(ValueError, match="trace preserving"):
            depolarizing_finalize(random_density(4, rng))


class TestPipeline:
    def test_physical_estimate_is_identity(self, rng):
        truth = choi_from_kraus(make_channel(ChannelSpec("identity", 2)))
        from proctomo.simulate import exact_table
        est = ls_estimate(exact_table(truth, 1))
        choi, report = pls_pipeline(est)
        assert np.abs(choi.matrix - truth.matrix).max() < 1e-9
        assert report.mixing_p == 0.0

    def test_report_records_both_stages(self, rng):
        truth = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 2, measure_prob=0.25)))
        est = ls_estimate(sample(truth, 1, SamplingPlan("random", 2000, seed=12)))
        _, report = pls_pipeline(est)
        assert report.threshold == cp1_threshold(est.matrix)
        assert report.cp1_rank >= 1
        assert report.cp1_spectrum.shape == (4,)

    def test_direct_variant(self, rng):
        truth = choi_from_kraus(make_channel(
            ChannelSpec("noisy_qft", 2, measure_prob=0.25)))
        est = ls_estimate(sample(truth, 1, SamplingPlan("random", 2000, seed=12)))
        choi, report = pls_pipeline(est, method="Dykstra", direct=True)
        ChoiMatrix(choi.matrix)
        assert report.threshold is None
