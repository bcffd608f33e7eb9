import logging
import math
import re
import textwrap

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular

from proctomo.channels import (ChannelSpec, ChoiMatrix, choi_from_kraus,
                               haar_unitary, make_channel, partial_trace)
from proctomo import projections
from proctomo.estimators import ls_estimate
from proctomo.harness import ExperimentConfig, _rep_seed
from proctomo.projections import (DUAL_GRAD_TOL, MAX_HALFSPACES, HalfSpace,
                                  ProjectionConfig, _forward_solve,
                                  _make_halfspace, _waterfill,
                                  depolarizing_finalize, hip_inner, proj_cp,
                                  proj_cp1_thresholded, proj_tp, project_to_cptp)
from proctomo.simulate import SamplingPlan, sample

import oracles
from oracles import maximally_entangled_state
from conftest import (cp1_iterate, noisy_qft, random_density, random_hermitian,
                      random_unitary, raw_estimate, run_python, transient_peak)
from test_refusals import REAL, refusal


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
        assert_allclose(partial_trace(proj_tp(x)), np.eye(2) / 2, atol=1e-14)

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

    @pytest.mark.parametrize("d", range(2, 17))
    def test_matches_kron_form_bitwise(self, d, rng):
        for x in (random_hermitian(d * d, rng), random_hermitian(d * d, rng).real.T):
            assert np.array_equal(proj_tp(x), oracles.proj_tp(x))


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
        got = _waterfill(values)
        assert got.sum() == pytest.approx(1.0, abs=1e-9)
        assert_allclose(got, _waterfill_bisection(values), atol=1e-8)


class TestProjCp1Thresholded:
    def test_spec_walkthrough(self):
        # eigenvalues (-0.5, 0.3, 1.2), tau = 0.5: threshold -> (0, 0, 1.7),
        # water fill with x0 = 0.7 -> (0, 0, 1)
        x = np.diag([-0.5, 0.3, 1.2]).astype(complex)
        out, _ = proj_cp1_thresholded(x, 0.5)
        assert_allclose(out, np.diag([0.0, 0.0, 1.0]), atol=1e-12)
        # tau = 0.2 raises (0.3, 0.6) to a mass of 1.3, water filled at 0.15
        x = np.diag([-0.05, 0.15, 0.3, 0.6]).astype(complex)
        out, _ = proj_cp1_thresholded(x, 0.2)
        assert_allclose(out, np.diag([0.0, 0.0, 0.35, 0.65]), atol=1e-12)

    def test_density_matrix_fixed_at_zero_threshold(self, rng):
        rho = random_density(4, rng)
        assert_allclose(proj_cp1_thresholded(rho, 0.0)[0], rho, atol=1e-12)

    def test_refill_branch_trace_exact(self):
        # thresholded mass 0.85 < 1: the next eigenvalue receives the residue
        x = np.diag([-0.1, 0.3, 0.35, 0.45]).astype(complex)
        out, _ = proj_cp1_thresholded(x, 0.4)
        assert_allclose(np.diag(out).real, [0.0, 0.0, 0.15, 0.85], atol=1e-12)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_default_threshold_bookkeeping(self):
        est = raw_estimate(4, 10**4, seed=1)
        lam = np.linalg.eigvalsh(est)
        tau = -lam.min()
        out, _ = proj_cp1_thresholded(est, tau)
        mu = np.linalg.eigvalsh(out)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert mu.min() > -1e-12
        assert (mu > 1e-9).sum() <= (lam > tau).sum() + 1

    @given(n=st.sampled_from([4, 16]), rank=st.integers(1, 16),
           seed=st.integers(0, 10**6), flat=st.booleans())
    @example(n=4, rank=1, seed=19, flat=False)
    @example(n=4, rank=2, seed=1, flat=False)
    @example(n=4, rank=3, seed=2, flat=False)
    @example(n=4, rank=2, seed=6, flat=True)
    @settings(max_examples=200, deadline=None)
    def test_rank_deficient_density_at_default_threshold(self, n, rank, seed, flat):
        # a state is PSD only up to rounding, so tau is ~1e-17 and the
        # thresholded mass can fall a few ulps short of one; flat spectra
        # are the degenerate ones
        rank = min(rank, n)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        if flat:
            q, _ = np.linalg.qr(g)
            rho = q @ q.conj().T / rank
        else:
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
        out, spectrum = proj_cp1_thresholded(rho)
        assert abs(np.trace(out).real - 1.0) < 1e-9
        assert np.linalg.eigvalsh(out).min() >= -1e-12
        assert spectrum.min() >= 0.0

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            proj_cp1_thresholded(np.eye(3, dtype=complex), 0.1)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            proj_cp1_thresholded(np.eye(3, dtype=complex) / 3, -0.1)

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf, True])
    def test_rejects_bad_threshold_by_name(self, tau):
        message = refusal("threshold", REAL, (0, None), tau)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            proj_cp1_thresholded(np.eye(4, dtype=complex) / 4, tau)

    def test_rejects_non_finite_input(self):
        x = np.eye(4, dtype=complex) / 4
        x[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            proj_cp1_thresholded(x)


class TestCp1Threshold:
    """With no tau given, proj_cp1_thresholded takes the first-stage
    tau = max(0, -lambda_min) from its own decomposition."""

    @pytest.fixture(scope="class")
    def estimate(self):
        return raw_estimate(4, 10**4, seed=1)

    def test_zero_for_a_density_matrix(self, rng):
        rho = random_density(4, rng)
        out, spectrum = proj_cp1_thresholded(rho)
        ref, ref_spectrum = proj_cp1_thresholded(rho, 0.0)
        assert np.array_equal(out, ref) and np.array_equal(spectrum, ref_spectrum)

    def test_flipped_least_eigenvalue_of_an_estimate(self, estimate):
        lam_min = np.linalg.eigh(0.5 * (estimate + estimate.conj().T))[0][0]
        assert lam_min < 0
        out, spectrum = proj_cp1_thresholded(estimate)
        ref, ref_spectrum = proj_cp1_thresholded(estimate, max(0.0, -lam_min))
        assert np.array_equal(out, ref) and np.array_equal(spectrum, ref_spectrum)

    def test_spectrum_is_that_of_the_output(self, estimate, rng):
        # an estimate, a state, then water filling and refilling at default tau
        for x in (estimate, random_density(4, rng),
                  np.diag([-0.1, 0.3, 0.35, 0.45]).astype(complex),
                  np.diag([-0.3, 0.3, 0.3, 0.3, 0.4]).astype(complex)):
            out, spectrum = proj_cp1_thresholded(x)
            assert np.all(np.diff(spectrum) <= 0)
            assert spectrum.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.abs(spectrum - np.linalg.eigvalsh(out)[::-1]).max() <= 1e-12


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
    for every candidate, dropping any dependent row, not only the newest.

    The Gram entries are <P a, P b> = <a, b> - <Tr_s a, Tr_s b> / d, P the
    projection onto the partial-trace plane's directions (checked against
    dense projections in ``TestHipInner``).  The solves are scipy's
    ``solve_triangular``.  Bitwise equality with ``hip_inner``'s numpy
    solves rests on numpy and scipy bundling OpenBLAS builds that share the
    ``ddot`` and ``trsm`` kernels.  Each half-space is a cut through the
    origin, so the right-hand side is -<N, phi>; the step's partial trace is
    sum_i c_i Tr_s(N_i), from this oracle's own ``partial_trace`` calls.
    """
    d = round(phi.shape[0] ** 0.5)
    traces = {id(h): partial_trace(h.normal) for h in halfspaces}

    def inner(a, b):
        return (np.vdot(a.normal, b.normal).real
                - np.vdot(traces[id(a)], traces[id(b)]).real / d)

    accepted = []
    coeffs = np.zeros(0)
    for cand in halfspaces:
        trial = accepted + [cand]
        gram = np.array([[inner(a, b) for b in trial] for a in trial])
        rhs = np.array([-np.vdot(h.normal, phi).real for h in trial])
        c, kept = _solve_gram_oracle(gram, rhs)
        if len(trial) - 1 not in kept:
            continue
        if np.all(c[kept] >= -1e-12):
            accepted = [trial[i] for i in kept]
            coeffs = c[kept]
    step = np.zeros_like(phi)
    tr_step = np.zeros((d, d), dtype=complex)
    for c, h in zip(coeffs, accepted):
        step += c * h.normal
        tr_step += c * traces[id(h)]
    return accepted, phi + (step - np.kron(np.eye(d), tr_step) / d)


def _unit(a):
    return a / np.linalg.norm(a, "fro")


def _cut(a, phi, value):
    """HalfSpace {X : <N, X> >= 0}, N = a + s 1 normalized, s chosen so that
    <N, phi> = value / |a + s 1|: value's sign, its size up to that norm.  A
    plane point has trace one and P 1 = 0, so s moves the cut to that value
    without turning its in-plane part P a."""
    return HalfSpace(normal=_unit(a + (value - np.vdot(a, phi).real) * np.eye(len(a))))


def _halfspace_window(n, kinds, rng):
    """A plane iterate and one cut through the origin per entry of ``kinds``.

    Each kind is set by the sign and size of <N, phi> (see ``_cut``).
    'violated' and 'satisfied' draw a fresh random normal cutting off resp.
    keeping phi, 'touching' one whose boundary passes 1e-14..1e-9 from phi
    (coefficients on both sides of the -1e-12 tolerance band).  'duplicate' and
    'parallel' reuse an earlier normal exactly or negated; 'near' perturbs
    one by a relative 1e-9..1e-2 and moves it to a fresh value; 'weak' is
    the nearly parallel, barely violated partner that forces a negative
    joint coefficient.
    """
    phi = _random_tp(n, rng)
    out = []
    for kind in kinds:
        if out and kind in ("duplicate", "parallel"):
            sign = 1 if kind == "duplicate" else -1
            out.append(HalfSpace(normal=sign * out[rng.integers(len(out))].normal))
            continue
        if not out or kind in ("violated", "satisfied", "touching"):
            a = random_hermitian(n, rng)
        else:  # near, weak
            scale = 10.0 ** rng.uniform(-9, -2) if kind == "near" else 0.05
            base = out[rng.integers(len(out))].normal
            a = base + scale * random_hermitian(n, rng)
        value = {"satisfied": rng.uniform(0.01, 1.0),
                 "touching": 10.0 ** rng.uniform(-14, -9),
                 "weak": -rng.uniform(0.0, 0.05)}.get(kind, -rng.uniform(0.0, 1.0))
        out.append(_cut(a, phi, value))
    return phi, out


@st.composite
def _cholesky_and_rhs(draw):
    """Lower Cholesky factor of a random Gram matrix with rows scaled over
    1e-8..1e2, and a right-hand side of entries over the same range."""
    m = draw(st.integers(1, MAX_HALFSPACES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vecs = rng.standard_normal((m, m + int(rng.integers(0, 40))))
    vecs *= 10.0 ** rng.uniform(-4, 1, size=(m, 1))   # Gram rows 1e-8..1e2
    low = np.ascontiguousarray(np.linalg.cholesky(vecs @ vecs.T))
    rhs = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-8, 2, size=m)
    return low, rhs


class TestTriangularSolves:
    """hip_inner's numpy solves reproduce scipy's solve_triangular bit for bit."""

    @given(_cholesky_and_rhs())
    @settings(max_examples=300, deadline=None)
    def test_forward_solve_matches_scipy(self, case):
        low, rhs = case
        assert np.array_equal(_forward_solve(low, rhs),
                              solve_triangular(low, rhs, lower=True))

    @given(_cholesky_and_rhs())
    @settings(max_examples=300, deadline=None)
    def test_back_solve_matches_scipy(self, case):
        low, rhs = case
        assert np.array_equal(np.linalg.solve(low.T, rhs),
                              solve_triangular(low.T, rhs, lower=False))


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
        w1 = _cut(random_hermitian(4, rng), phi, -0.5)
        w2 = HalfSpace(normal=w1.normal.copy())
        active, new = hip_inner([w1, w2], phi)
        assert active == [w1]
        assert np.array_equal(new, _hip_inner_oracle([w1, w2], phi)[1])

    def test_oracle_agrees_on_halfspaces_from_a_projection_run(self, rng):
        # the windows HIPswitch actually builds: PSD-cone cuts at k=2
        phi = proj_tp(cp1_iterate(4, 10**4, seed=3))
        window = []
        for _ in range(40):
            lam, v = np.linalg.eigh(phi)
            if lam[0] >= 0:
                break
            window = [_make_halfspace(lam, v)] + window[:29]
            want_active, want = _hip_inner_oracle(window, phi)
            window, phi = hip_inner(window, phi)
            assert len(window) == len(want_active)
            assert all(a is b for a, b in zip(window, want_active))
            assert np.array_equal(phi, want)

    def test_single_violated_halfspace(self, rng):
        phi = _random_tp(4, rng)
        w = _cut(random_hermitian(4, rng), phi, -0.5)
        assert np.vdot(w.normal, phi).real < 0
        active, new = hip_inner([w], phi)
        assert len(active) == 1
        # equals the single-hyperplane projection within the plane
        ta = oracles.proj_tp_linear(w.normal)
        expected = phi - np.vdot(w.normal, phi).real / np.vdot(ta, ta).real * ta
        assert_allclose(new, expected, atol=1e-10)
        assert np.vdot(w.normal, new).real == pytest.approx(0.0, abs=1e-9)

    def test_satisfied_halfspaces_ignored(self, rng):
        phi = _random_tp(4, rng)
        halfspaces = [_cut(random_hermitian(4, rng), phi, 1.0) for _ in range(3)]
        active, new = hip_inner(halfspaces, phi)
        assert active == []
        assert_allclose(new, phi, atol=0)

    def test_negative_coefficient_excluded(self, rng):
        phi = _random_tp(4, rng)
        a1 = random_hermitian(4, rng)
        # nearly parallel second cut, violated far less: joint hyperplane
        # projection would pull it negative
        w1 = _cut(a1, phi, -1.0)
        w2 = _cut(a1 + 0.05 * random_hermitian(4, rng), phi, -0.05)
        proj = [oracles.proj_tp_linear(w.normal) for w in (w1, w2)]
        gram = np.array([[np.vdot(a, b).real for b in proj] for a in proj])
        rhs = np.array([-np.vdot(w.normal, phi).real for w in (w1, w2)])
        coeffs = np.linalg.solve(gram, rhs)
        assert coeffs.min() < 0, "construction should force a negative coefficient"
        active, new = hip_inner([w1, w2], phi)
        assert len(active) == 1
        for w in (w1, w2):
            assert np.vdot(w.normal, new).real >= -1e-9
        assert np.abs(partial_trace(new - phi)).max() < 1e-12

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_gram_identity_matches_dense_projection(self, n, rng):
        # <P a, P b> = <a, b> - <Tr_s a, Tr_s b> / d, P the linear part of proj_tp
        d = round(n**0.5)
        p_lin = oracles.proj_tp_linear
        for _ in range(5):
            a, b = (HalfSpace(normal=_unit(random_hermitian(n, rng))) for _ in range(2))
            for x, y in ((a, b), (a, a), (b, a)):
                dense = np.vdot(p_lin(x.normal), p_lin(y.normal)).real
                assert abs(projections._tp_inner(x, y, d) - dense) <= 1e-14
            assert np.array_equal(a.tr_normal, partial_trace(a.normal))

    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([4, 16]),
           depth=st.floats(0.0, 14.0))
    @settings(max_examples=200, deadline=None)
    def test_halfspace_is_a_cut_through_the_origin(self, seed, n, depth):
        # phi's least eigenvalue is -10^-depth; <N, phi_cp> is 0 and <N, phi>
        # is -|Lambda-| up to rounding, at most 1.4e-16 and 4.0e-16 of |phi|
        # over 10,000 such draws; N is PSD, so no PSD point is cut off
        rng = np.random.default_rng(seed)
        phi = random_hermitian(n, rng)
        phi -= (np.linalg.eigvalsh(phi)[0] + 10.0 ** -depth) * np.eye(n)
        lam, v = np.linalg.eigh(phi)
        assume(lam[0] < 0)
        normal = _make_halfspace(lam, v).normal
        scale = np.linalg.norm(phi, "fro")
        assert abs(np.vdot(normal, proj_cp(phi))) <= 1e-15 * scale
        assert abs(np.vdot(normal, phi).real + np.linalg.norm(lam[lam < 0])) <= 1e-14 * scale
        for _ in range(5):
            assert np.vdot(normal, random_density(n, rng)).real >= 0

    def test_normal_must_be_unit(self, rng):
        # nan fails every comparison, so a nan normal is refused as non-finite
        for normal, message in ((2 * np.eye(4, dtype=complex), "unit Frobenius norm"),
                                (np.full((4, 4), np.nan), "non-finite")):
            with pytest.raises(ValueError, match=message):
                HalfSpace(normal=normal)


ALTERNATING = ["AP", "Dykstra", "oneHIP", "pureHIP", "HIPswitch"]


class TestProjectToCptp:
    def test_physical_input_unchanged(self, rng):
        phi = _random_cptp(2, rng)
        for method in ("HIPswitch", "AP", "Dykstra", "dual"):
            choi, report = project_to_cptp(phi, method)
            assert report.iterations == 0
            assert report.mixing_p == 0.0
            assert np.abs(choi.matrix - phi).max() < 1e-7

    @pytest.mark.parametrize("method", ["AP", "Dykstra", "oneHIP", "pureHIP",
                                        "HIPswitch", "dual"])
    def test_output_is_physical(self, method):
        choi, report = project_to_cptp(cp1_iterate(2, 2000, seed=4), method)
        ChoiMatrix(choi.matrix)  # validates PSD / trace / partial trace
        assert report.final_lambda_min >= -ProjectionConfig().epsilon

    def test_iterate_distances_monotone(self):
        truth = noisy_qft(4)
        cp1 = cp1_iterate(4, 10**4, seed=2)
        dists = []
        project_to_cptp(cp1, "HIPswitch", ProjectionConfig(),
                        iterate_hook=lambda p: dists.append(
                            np.linalg.norm(p - truth.matrix, "fro")))
        seq = [np.linalg.norm(cp1 - truth.matrix, "fro")] + dists
        assert all(b <= a + 1e-10 for a, b in zip(seq, seq[1:]))

    def test_dual_is_exact_projection(self):
        phi0 = cp1_iterate(2, 3000, seed=6)
        choi, report = project_to_cptp(phi0, "dual")
        assert report.dual_grad_norm <= DUAL_GRAD_TOL
        base = np.linalg.norm(choi.matrix - phi0, "fro")
        for seed in range(20):
            y = _random_cptp(2, np.random.default_rng(seed))
            assert base <= np.linalg.norm(y - phi0, "fro") + 1e-6

    @pytest.mark.parametrize("method", ALTERNATING)
    def test_nonconverged_exit(self, method, caplog):
        cp1 = cp1_iterate(4, 10**4, seed=3)
        short = ProjectionConfig(max_outer_iterations=2)
        with caplog.at_level(logging.WARNING, logger="proctomo.projections"):
            _, report = project_to_cptp(cp1, method, short)
        assert not report.converged and report.iterations == 2
        assert report.final_lambda_min == max(row[0] for row in report.trace)
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1
        assert method in warnings[0].getMessage()

    @pytest.mark.parametrize("method", ALTERNATING)
    def test_converged_exit_bookkeeping(self, method):
        cp1 = cp1_iterate(4, 10**4, seed=2)
        hooked = []
        hook = hooked.append if method != "Dykstra" else None
        _, report = project_to_cptp(cp1, method, iterate_hook=hook)
        assert report.converged and report.iterations >= 1
        lam, _, calls = report.trace[-1]
        assert calls == report.proj_cp_calls
        assert lam == report.final_lambda_min >= -ProjectionConfig().epsilon
        # AP/HIP check the plane iterate before each step and once after the
        # last; Dykstra checks only after each step
        checked = report.iterations + (method != "Dykstra")
        assert len(report.trace) == checked
        assert len(hooked) == (checked if hook else 0)

    @pytest.mark.parametrize("method", ["Dykstra", "dual"])
    def test_hook_refused_without_superset_iterates(self, method):
        hooked = []
        with pytest.raises(ValueError, match="iterate_hook"):
            project_to_cptp(_random_tp(4, np.random.default_rng(0)), method,
                            iterate_hook=hooked.append)
        assert not hooked

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            project_to_cptp(np.eye(4) / 4, "simplex")

    def test_nested_list_input_is_the_array_input(self, rng):
        """The three stage calls read a nested list as ``np.asarray`` does."""
        x = random_density(4, rng)
        for call in (proj_cp, lambda m: proj_cp1_thresholded(m)[0],
                     lambda m: project_to_cptp(m)[0].matrix):
            assert np.array_equal(call(x.tolist()), call(x))


def _dual_input(kind, n, seed):
    """Hermitian trace-one matrix on C^n (n = 4 or 16) of the given kind."""
    rng = np.random.default_rng(seed)
    d = round(n ** 0.5)
    if kind == "rank-1":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    if kind == "two-level":  # levels a and 2/n - a, each n/2 times
        a = rng.uniform(0.0, 4.0) / n
        u = random_unitary(n, rng)
        return (u * np.repeat([a, 2.0 / n - a], n // 2)) @ u.conj().T
    if kind == "far":
        h = random_hermitian(n, rng, scale=5.0)
        return h + (1.0 - np.trace(h).real) / n * np.eye(n)
    if kind == "physical":
        return _random_cptp(d, rng)
    return raw_estimate(d, int(rng.integers(50, 1000)), seed)  # raw low-N LS


DUAL_KINDS = ["rank-1", "two-level", "far", "physical", "raw-ls"]


class TestDualNewton:
    @given(kind=st.sampled_from(DUAL_KINDS), n=st.sampled_from([4, 16]),
           seed=st.integers(0, 2**32 - 1))
    @example(kind="rank-1", n=16, seed=613)  # stalls if only Armijo may accept
    @settings(max_examples=120, deadline=None)
    def test_exact_physical_and_cheap(self, kind, n, seed):
        phi0 = _dual_input(kind, n, seed)
        assert np.trace(phi0).real == pytest.approx(1.0, abs=1e-12)
        choi, report = project_to_cptp(phi0, "dual")
        ChoiMatrix(choi.matrix)
        assert report.converged
        assert report.dual_grad_norm <= DUAL_GRAD_TOL
        assert report.proj_cp_calls <= 30

    @pytest.mark.parametrize("kind,n,seed", [("rank-1", 16, 613), ("far", 4, 1),
                                             ("two-level", 16, 2),
                                             ("raw-ls", 16, 3)])
    def test_matches_tight_dykstra(self, kind, n, seed):
        phi0 = _dual_input(kind, n, seed)
        tight = ProjectionConfig(epsilon=1e-11, max_outer_iterations=100000)
        dyk, _ = project_to_cptp(phi0, "Dykstra", tight)
        dua, _ = project_to_cptp(phi0, "dual")
        assert np.linalg.norm(dyk.matrix - dua.matrix, "fro") < 1e-6

    @pytest.mark.parametrize("kind,n,seed", [("raw-ls", 4, 6), ("rank-1", 16, 613),
                                             ("far", 16, 0)])
    def test_each_decomposition_counted_and_new(self, kind, n, seed, monkeypatch):
        inputs = []
        eigh = np.linalg.eigh

        def spy(x):
            inputs.append(x.copy())
            return eigh(x)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        _, report = project_to_cptp(_dual_input(kind, n, seed), "dual")
        assert report.iterations >= 1
        assert len(inputs) == report.proj_cp_calls
        assert not any(np.array_equal(a, b) for a, b in zip(inputs, inputs[1:]))

    def test_newton_work_pinned(self, monkeypatch):
        """The dual's work, pinned: its Newton steps and decompositions on two
        rank-1 inputs, where no line search backtracks; and CG's Jacobian
        products per Newton step on a k = 2 CP1 iterate, where each state
        makes one decomposition and one partial trace (``np.tensordot``)
        and each product one partial trace.  A dual objective with Tr(y)/d^2
        adds a line-search trial on the first input; a gradient tolerance of
        1e-7 stops the second a step early; a CG regularizer of
        min(1e-1, |grad|) adds a product at the fourth step."""
        for seed in (0, 4):
            _, report = project_to_cptp(_dual_input("rank-1", 4, seed), "dual")
            assert (report.iterations, report.proj_cp_calls) == (5, 6)
        cp1 = cp1_iterate(4, 10**4, seed=1)
        events = []
        for owner, name, mark in ((np.linalg, "eigh", "|"), (np, "tensordot", "p")):
            def spy(*args, _mark=mark, _original=getattr(owner, name), **kwargs):
                events.append(_mark)
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        _, report = project_to_cptp(cp1, "dual")
        assert report.iterations == 6
        products = [len(run) - 1 for run in "".join(events).split("|")[1:]]
        assert products == [2, 2, 3, 3, 5, 8, 0]

    def test_run_path_loads_no_scipy(self, tmp_path):
        code = textwrap.dedent(f"""
            import sys
            import proctomo, proctomo.cli
            from proctomo import projections
            from proctomo.channels import ChannelSpec, choi_from_kraus, make_channel
            from proctomo.estimators import ls_estimate
            from proctomo.harness import ExperimentConfig, run
            from proctomo.simulate import SamplingPlan, sample

            calls = []
            inner = projections.hip_inner
            projections.hip_inner = lambda w, phi: (calls.append(1), inner(w, phi))[1]
            cfg = ExperimentConfig(experiment="single_run", scenario=1, k=2,
                                   channel={{"kind": "noisy_qft"}}, n_shots=1000,
                                   method="HIPswitch", seed=3)
            run(cfg, {str(tmp_path)!r})
            truth = choi_from_kraus(make_channel(ChannelSpec("noisy_qft", 4)))
            est = ls_estimate(sample(truth, 1, SamplingPlan("random", 1000, seed=1)))
            projections.project_to_cptp(
                projections.proj_cp1_thresholded(est.matrix)[0], "dual")
            assert calls, "HIPswitch never reached hip_inner"
            print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """)
        out = run_python("-c", code, check=True)
        assert out.stdout.strip() == "[]"


def _tp_with_lambda_min(n, lam):
    """1/n plus a step along the trace-free, Tr_s-free projection of
    |0><0| - |1><1|, scaled to least eigenvalue lam."""
    bump = np.zeros((n, n), dtype=complex)
    bump[0, 0] = 1.0
    bump[1, 1] = -1.0
    direction = oracles.proj_tp_linear(bump)  # diagonal, keeps Tr_s fixed
    return np.eye(n) / n + (1 / n - lam) / (-np.linalg.eigvalsh(direction).min()) * direction


class TestDepolarizingFinalize:
    def test_psd_input_untouched(self, rng):
        phi = _random_cptp(2, rng)
        out, p = depolarizing_finalize(phi, np.linalg.eigvalsh(phi).min())
        assert p == 0.0
        assert_allclose(out.matrix, phi, atol=1e-14)
        # negativity down to -1e-14 is the eigensolver's rounding: no mixing
        assert depolarizing_finalize(phi, -5e-15)[1] == 0.0

    def test_mixing_weight_formula(self):
        # TP matrix (d = 4, so the Choi acts on 16 dims) with lambda_min -1e-7
        phi = _tp_with_lambda_min(16, -1e-7)
        lam_min = np.linalg.eigvalsh(phi).min()
        assert lam_min == pytest.approx(-1e-7, rel=1e-9)
        out, p = depolarizing_finalize(phi, lam_min)
        expected = 16e-7 / (1 + 16e-7)
        assert p == pytest.approx(expected, rel=1e-6)
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-12
        assert_allclose(partial_trace(out.matrix), np.eye(4) / 4,
                        atol=1e-12)

    def test_refuses_far_from_cone(self):
        # TP matrix with lambda_min = -0.2, well past the refusal threshold
        phi = _tp_with_lambda_min(4, -0.2)
        lam_min = np.linalg.eigvalsh(phi).min()
        assert lam_min == pytest.approx(-0.2, rel=1e-9)
        with pytest.raises(ValueError, match="not converged"):
            depolarizing_finalize(phi, lam_min)

    def test_rejects_non_tp(self, rng):
        with pytest.raises(ValueError, match="trace preserving"):
            rho = random_density(4, rng)
            depolarizing_finalize(rho, np.linalg.eigvalsh(rho).min())


class TestPipeline:
    def test_physical_estimate_is_identity(self, rng):
        truth = choi_from_kraus(make_channel(ChannelSpec("identity", 2)))
        from proctomo.simulate import exact_table
        est = ls_estimate(exact_table(truth, 1))
        choi, report = project_to_cptp(proj_cp1_thresholded(est.matrix)[0])
        assert np.abs(choi.matrix - truth.matrix).max() < 1e-9
        assert report.mixing_p == 0.0

    @pytest.mark.parametrize("scenario", [1, 2, 3, 4])
    def test_exact_qubit_data_recovers_the_truth(self, scenario):
        # exact LS estimates of low-rank channels are PSD only up to rounding
        from proctomo.simulate import exact_table
        for seed in range(10):
            for kind, fields in (("unitary", {}), ("mixed_unitary", {"rank": 2})):
                spec = ChannelSpec(kind, 2, unitary=haar_unitary(2, seed), **fields)
                truth = choi_from_kraus(make_channel(spec))
                est = ls_estimate(exact_table(truth, scenario))
                choi, _ = project_to_cptp(proj_cp1_thresholded(est.matrix)[0])
                assert np.abs(choi.matrix - truth.matrix).max() < 1e-9, (kind, seed)

    def test_direct_variant(self):
        choi, _ = project_to_cptp(raw_estimate(2, 2000, seed=12), "Dykstra")
        ChoiMatrix(choi.matrix)


class TestCountBudget:
    """Decomposition counts repeat exactly at a fixed seed; pin them so a
    count regression fails here rather than only in the benchmark.  Every
    numpy eigendecomposition of one run of the two stages is counted, so a
    second decomposition of a stage-boundary matrix fails here too."""

    @pytest.fixture(scope="class")
    def estimate(self):
        return raw_estimate(8, 10**5, seed=1)

    @pytest.fixture
    def linalg_calls(self, monkeypatch):
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            def spy(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        return calls

    def test_hipswitch(self, estimate, monkeypatch, linalg_calls):
        calls = []
        inner = projections.hip_inner

        def spy(window, phi):
            calls.append(1)
            return inner(window, phi)

        monkeypatch.setattr(projections, "hip_inner", spy)
        cp1, _ = proj_cp1_thresholded(estimate)
        _, report = project_to_cptp(cp1, "HIPswitch")
        assert report.converged
        assert report.proj_cp_calls == 33
        assert len(calls) == 27
        # CP1 + 33 projections + the accepted iterate; ChoiMatrix validation
        assert linalg_calls == {"eigh": 35, "eigvalsh": 1}

    def test_dual(self, estimate, linalg_calls):
        cp1, _ = proj_cp1_thresholded(estimate)
        _, report = project_to_cptp(cp1, "dual")
        assert report.converged
        assert report.proj_cp_calls == 7
        # CP1 + 7 Newton decompositions; final plane iterate, ChoiMatrix
        assert linalg_calls == {"eigh": 8, "eigvalsh": 2}


def _scaling_instance(point: int, rep: int) -> np.ndarray:
    """The CP1 iterate of one repetition of the ``scaling`` check's sweep
    (scenario 1, k = 3, ``qft``, seed 2026), as the harness draws it."""
    cfg = ExperimentConfig(experiment="sample_size_sweep", scenario=1, k=3,
                           channel={"kind": "qft"},
                           n_shots_list=[30_000, 100_000, 300_000, 1_000_000],
                           repetitions=10, seed=2026)
    truth = choi_from_kraus(make_channel(cfg.points[point].spec))
    plan = SamplingPlan("random", cfg.points[point].n_shots, _rep_seed(cfg, point, rep))
    return proj_cp1_thresholded(ls_estimate(sample(truth, 1, plan)).matrix)[0]


@pytest.mark.parametrize("method", projections.METHODS)
def test_iterates_are_hermitian_by_construction(method, monkeypatch):
    """No matrix decomposed in the second stage needs a Hermitian copy: each
    one handed to ``eigh`` or ``eigvalsh``, or to ``_hermitize`` at full
    size, is Hermitian to 1e-14 of its largest entry.  On these low-rank
    instances, half-space normals built as (phi_cp - phi) / |phi_cp - phi|
    amplified the iterate's rounding-level anti-Hermitian part, to 5.7e-9
    and 3.1e-8 of the largest entry in HIPswitch's iterates, and a dual
    multiplier fed an unsymmetrized gradient reached 1.8e-14."""
    worst = []

    def spy(fn, full_size_only=False):
        def call(x, *args, **kwargs):
            if not full_size_only or x.shape == (64, 64):
                worst.append(np.abs(x - x.conj().T).max() / np.abs(x).max())
            return fn(x, *args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
    monkeypatch.setattr(projections, "_hermitize",
                        spy(projections._hermitize, full_size_only=True))
    cfg = ProjectionConfig(max_outer_iterations=100)
    for point, rep in ((1, 2), (3, 1)):
        project_to_cptp(_scaling_instance(point, rep), method, cfg)
    assert max(worst) <= 1e-14


@pytest.mark.parametrize("method", ["oneHIP", "pureHIP"])
@pytest.mark.parametrize("d", [4, 8])
def test_tiny_epsilon_converges(method, d):
    """At epsilon = 1e-15 every HIP step still builds its half-space: a norm
    floor of 1e-14 on the normal left oneHIP (d = 4, 8) and pureHIP (d = 8)
    with no half-space at lambda_min near -1e-14, never moving, until the
    2,000-iteration cap.  Measured: 42, 16, 265 and 54 decompositions."""
    cfg = ProjectionConfig(epsilon=1e-15)
    _, report = project_to_cptp(cp1_iterate(d, 10**5, seed=1), method, cfg)
    assert report.converged
    assert report.final_lambda_min >= -1e-15
    assert report.iterations <= 500


def test_hipswitch_peak_memory_k4():
    # each half-space holds one 256 x 256 normal and its 16 x 16 Tr_s; the
    # run's transients, measured at 11.2 such matrices, are pinned here
    phi = cp1_iterate(16, 10**6, seed=3)
    (_, report), peak = transient_peak(project_to_cptp, phi, "HIPswitch")
    assert report.converged
    assert peak <= 13.9 * phi.nbytes
