"""Projection of least-squares Choi estimates onto physical channels.

The physical set is the intersection of the PSD cone with the affine
partial-trace plane Tr_s(Phi) = 1/d.  Closed forms exist for the two pieces:

* ``proj_tp``  : X + (1/d) 1 (x) (1/d - Tr_s X), the Frobenius projection
  onto the partial-trace plane;
* ``proj_cp``  : eigenvalue clipping at zero, the Frobenius projection onto
  the PSD cone;
* ``proj_cp1_thresholded`` : eigenvalue thresholding at tau followed by a
  trace-one correction (water filling, or top-down refilling when the
  thresholded mass falls short of one); by default tau is the first-stage
  max(0, -lambda_min) of a raw estimate, taken from the same decomposition,
  and the corrected spectrum is returned with the matrix.

``project_to_cptp`` combines them iteratively: plain alternating projections
(AP), Dykstra's algorithm, the hyperplane-intersection family (oneHIP,
pureHIP, HIPswitch), or semismooth Newton on the dual of the projection
problem, which returns the exact projection in a handful of steps.  Every
iterate of the AP/HIP family is a Frobenius projection onto a convex superset
of the physical set, so the distance to any physical point never increases.
The alternating methods only yield plane iterates; one driver stops them at
-epsilon or at the cap, and every method ends in one depolarizing mixing step
that cancels the residual negative eigenvalue and keeps the partial trace.

Eigendecomposition dominates the run time.  The iterates are Hermitian by
construction and go to ``numpy.linalg.eigh`` with no Hermitian copy; tau, the
first-stage spectrum, each HIP half-space and the final lambda_min are read
off decompositions a stage already made and passed on.  A HIP half-space
supports the PSD cone, a cone, so it is a cut {X : <N, X> >= 0} through 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .channels import (RAW_HERMITICITY_TOL, RAW_TRACE_TOL, TP_TOL, ChoiMatrix,
                       _check_choice, _check_finite, _check_hermitian, _check_int,
                       _check_real, _check_trace_one, _hermitize, partial_trace,
                       system_dim, tp_deviation)

logger = logging.getLogger(__name__)

METHODS = ("AP", "Dykstra", "oneHIP", "pureHIP", "HIPswitch", "dual")

__all__ = [
    "METHODS",
    "ProjectionConfig",
    "ProjectionReport",
    "HalfSpace",
    "proj_tp",
    "proj_cp",
    "proj_cp1_thresholded",
    "hip_inner",
    "project_to_cptp",
    "depolarizing_finalize",
]


AP_STEPS = 6             # AP steps per HIPswitch cycle
HIP_STEPS = 30           # HIP steps per HIPswitch cycle
MAX_HALFSPACES = 30      # HIP memory window, oldest evicted
DUAL_GRAD_TOL = 1e-8     # dual method stops once |grad| <= this
DUAL_MAX_ITER = 200      # dual method: cap on Newton steps
HIP_PIVOT_CUT = 1e-12    # hip_inner: a candidate with a smaller pivot is dependent
HIP_COEFF_CUT = 1e-12    # hip_inner: coefficients down to -this count as nonnegative


@dataclass(frozen=True)
class ProjectionConfig:
    """Stopping rule of the iterative projection methods.

    ``dual`` ignores both fields: it stops once its gradient norm is at most
    ``DUAL_GRAD_TOL``, or after ``DUAL_MAX_ITER`` Newton steps.  An epsilon
    below the eigensolver's rounding of lambda_min may never be met: the run
    goes to the cap and reports ``converged=False`` (epsilon = 1e-17 caps AP
    and oneHIP at k = 3).
    """

    epsilon: float = 1e-7            # stop once lambda_min >= -epsilon
    max_outer_iterations: int = 2000

    def __post_init__(self):
        _check_real("epsilon", self.epsilon, low=0, strict=True)
        _check_int("max_outer_iterations", self.max_outer_iterations, low=1)


@dataclass
class ProjectionReport:
    """Trace of one ``project_to_cptp`` run, built and completed there.

    It covers that stage only: the first stage, ``proj_cp1_thresholded``,
    returns its spectrum with its matrix and keeps no report.  ``trace``
    holds one (lambda_min, mode, cumulative proj_cp_calls) row per checked
    iterate.  ``final_lambda_min`` is the least eigenvalue of the iterate
    handed to depolarizing mixing (after a cap, the best one seen);
    ``mixing_p`` solves (1-p) lambda_min + p/d^2 = 0 for that value.
    ``proj_cp_calls`` counts eigendecompositions that produced a PSD
    projection (the check-only decomposition of the accepted iterate is free
    bookkeeping).  For ``dual``, ``iterations`` counts Newton steps and
    ``proj_cp_calls`` every decomposition, line-search trials included.
    """

    iterations: int = 0
    proj_cp_calls: int = 0
    trace: list = field(default_factory=list)
    mixing_p: float = 0.0
    final_lambda_min: float = 0.0
    converged: bool = True
    dual_grad_norm: Optional[float] = None


@dataclass(frozen=True)
class HalfSpace:
    """Supporting half-space {X : <normal, X> >= 0} of the PSD cone: the
    cone's supporting hyperplanes all pass through the origin.

    ``tr_normal`` is the d x d partial trace Tr_s(normal); with it the Gram
    system of the hyperplane projection and the step's partial trace need
    no projected copy of the normal (see ``hip_inner``).  A non-finite or
    non-unit normal is refused.
    """

    normal: np.ndarray
    tr_normal: np.ndarray = field(init=False)

    def __post_init__(self):
        _check_finite(self.normal, "half-space normal")
        if abs(np.linalg.norm(self.normal, "fro") - 1.0) > 1e-12:
            raise ValueError("half-space normal must have unit Frobenius norm")
        object.__setattr__(self, "tr_normal", partial_trace(self.normal))


def _plus_eye_kron(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """x + 1 (x) c as a new array, added through a reshape view of x."""
    d = c.shape[0]
    out = x.astype(np.result_type(x, c), order="C")
    diag = np.arange(d)
    out.reshape(d, d, d, d)[diag, :, diag, :] += c
    return out


def proj_tp(x: np.ndarray) -> np.ndarray:
    """Frobenius projection onto {X : Tr_s(X) = 1/d}."""
    d = system_dim(x.shape[0])
    return _plus_eye_kron(x, (np.eye(d) / d - partial_trace(x)) / d)


def proj_cp(x: np.ndarray) -> np.ndarray:
    """Frobenius projection onto the PSD cone (clip negative eigenvalues);
    takes x as ``np.asarray(x, dtype=complex)`` reads it."""
    x = np.asarray(x, dtype=complex)
    _check_hermitian(x, RAW_HERMITICITY_TOL)
    return _psd_from_eigh(*np.linalg.eigh(x))


def _psd_from_eigh(lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V+ Lambda+ V+^dag, from the columns of the positive eigenvalues only."""
    k0 = int(np.searchsorted(lam, 0.0, side="right"))
    return (v[:, k0:] * lam[k0:]) @ v[:, k0:].conj().T


def _waterfill(values: np.ndarray) -> np.ndarray:
    """max(values - x0, 0) with x0 >= 0 chosen so the result sums to one."""
    u = np.sort(values)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(u) + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.clip(values - theta, 0.0, None)


def proj_cp1_thresholded(x: np.ndarray, tau: Optional[float] = None):
    """Thresholded projection of a trace-one Hermitian matrix onto the states.

    Eigenvalues at or below tau are zeroed, the rest are raised by tau; the
    spectrum is then corrected to unit trace.  If the thresholded mass is at
    least one, water filling removes the excess.  Otherwise eigenvalues are
    re-enabled from the top down at lambda + tau until the running total
    reaches one, the last one receiving the residual mass, so the trace is
    exactly one.  The walk stops early at the first lambda + tau <= 0, which
    only rounding reaches: an input that is PSD up to rounding has tau near
    1e-17 and a thresholded mass a few ulps short of one.  The trace is then
    one to rounding; either way it is asserted to within 1e-9.

    With tau = None (the first stage of PLS) tau = max(0, -lambda_min(x)),
    the least eigenvalue taken from the same decomposition.  With tau = 0
    (and trace-one input) this is the exact Frobenius projection onto the
    trace-one PSD set.

    Returns (matrix, spectrum): the spectrum is the corrected eigenvalues in
    descending order, which is the spectrum of the returned matrix.  Like
    ``proj_cp``, it takes x as ``np.asarray(x, dtype=complex)`` reads it,
    refuses x farther than ``RAW_HERMITICITY_TOL`` from Hermitian, and any
    tau that is not a finite nonnegative number.
    """
    x = np.asarray(x, dtype=complex)
    _check_hermitian(x, RAW_HERMITICITY_TOL)
    if tau is not None:
        _check_real("threshold", tau, low=0)
    _check_trace_one(x, RAW_TRACE_TOL)
    lam, v = np.linalg.eigh(x)
    if tau is None:
        tau = max(0.0, -float(lam[0]))
    mu = np.where(lam > tau, lam + tau, 0.0)
    if mu.sum() >= 1.0:
        mu = _waterfill(mu)
    else:
        mu = np.zeros_like(lam)
        running = 0.0
        for idx in range(len(lam) - 1, -1, -1):
            contrib = lam[idx] + tau
            if contrib <= 0.0:
                break
            if running + contrib < 1.0:
                mu[idx] = contrib
                running += contrib
            else:
                mu[idx] = 1.0 - running
                running = 1.0
                break
    out = (v * mu) @ v.conj().T
    assert abs(mu.sum() - 1.0) < 1e-9
    return _hermitize(out), mu[::-1]


# --------------------------------------------------------------------------
# Hyperplane intersection machinery
# --------------------------------------------------------------------------


def _make_halfspace(lam: np.ndarray, v: np.ndarray) -> HalfSpace:
    """The cut {X : <N, X> >= 0} through the origin that supports the PSD
    cone at phi_cp = proj_cp(phi), read off phi's decomposition (lam, v);
    the driver steps only from lambda_min < -epsilon < 0, so lam has a
    negative eigenvalue.  N = -V- Lambda- V-^dag / |Lambda-|
    is the unit direction of phi_cp - phi, built from the negative columns
    alone, so it is Hermitian; it lives on phi's negative eigenspace and
    phi_cp on the rest, so <N, phi_cp> = 0 and <N, phi> = -|Lambda-|."""
    k0 = int(np.searchsorted(lam, 0.0))
    nrm = float(np.linalg.norm(lam[:k0]))
    return HalfSpace(normal=(v[:, :k0] * (-lam[:k0] / nrm)) @ v[:, :k0].conj().T)


def _forward_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve low @ y = b by row-oriented substitution (low lower triangular)."""
    y = np.empty(len(b))
    for i in range(len(b)):
        y[i] = (b[i] - low[i, :i] @ y[:i]) / low[i, i]
    return y


def _tp_inner(a: HalfSpace, b: HalfSpace, d: int) -> float:
    """<P a, P b> of two normals, P x = x - 1 (x) Tr_s(x) / d the projection
    onto the partial-trace plane's directions {X : Tr_s(X) = 0}: P is
    self-adjoint and idempotent, so this is <a, b> - <Tr_s a, Tr_s b> / d."""
    return (np.vdot(a.normal, b.normal).real
            - np.vdot(a.tr_normal, b.tr_normal).real / d)


def hip_inner(halfspaces: Sequence[HalfSpace], phi: np.ndarray):
    """Greedy selection of half-spaces {X : <N, X> >= 0} whose joint
    hyperplane projection is also the half-space projection, then the
    projection itself.

    Candidates are scanned in recency order; one is kept when the Gram system
    of the tentative set has all coefficients nonnegative (the KKT condition
    equating hyperplane- and half-space-intersection projections).  The Gram
    matrix holds the inner products of the normals' projections P onto the
    partial-trace plane, read as <P a, P b> = <a, b> - <Tr_s a, Tr_s b> / d,
    so no projected normal is stored.  Its lower Cholesky factor L grows by
    one row per candidate; a candidate whose pivot is at most
    ``HIP_PIVOT_CUT`` depends on the accepted normals and is skipped; the
    right-hand side is -<N, phi>.  Returns the accepted list and the
    projection of phi onto the plane cut by those half-spaces,
    phi + P(sum_i c_i N_i), whose partial trace is sum_i c_i ``tr_normal``_i.

    The accepted set hinges on signs near -``HIP_COEFF_CUT``, so both solves
    round exactly as LAPACK's triangular solves (the tests' reference).  L^-1
    is a row-oriented substitution, one BLAS dot product per row, the path
    LAPACK takes for a C-ordered factor; the trial's L^-1 rhs extends the
    accepted one by its last row.  L^-T is ``np.linalg.solve``: LU of an
    upper-triangular matrix with a positive diagonal swaps no rows and has
    zero multipliers, so it reduces to the BLAS triangular back solve.
    """
    d = system_dim(phi.shape[0])
    accepted: list[HalfSpace] = []
    low = np.zeros((0, 0))
    z = np.zeros(0)
    coeffs = np.zeros(0)
    for cand in halfspaces:
        m = len(accepted)
        cross = np.array([_tp_inner(a, cand, d) for a in accepted])
        y = _forward_solve(low, cross)
        pivot = _tp_inner(cand, cand, d) - y @ y
        if pivot <= HIP_PIVOT_CUT:
            logger.debug("dropping degenerate half-space candidate")
            continue
        trial_low = np.zeros((m + 1, m + 1))
        trial_low[:m, :m] = low
        trial_low[m, :m] = y
        trial_low[m, m] = math.sqrt(pivot)
        rhs = -np.vdot(cand.normal, phi).real
        trial_z = np.append(z, (rhs - y @ z) / trial_low[m, m])
        c = np.linalg.solve(trial_low.T, trial_z)
        if np.all(c >= -HIP_COEFF_CUT):
            accepted.append(cand)
            low, z, coeffs = trial_low, trial_z, c
    step = np.zeros_like(phi)
    tr_step = np.zeros((d, d), dtype=complex)
    for c, h in zip(coeffs, accepted):
        step += c * h.normal
        tr_step += c * h.tr_normal
    return accepted, phi + _plus_eye_kron(step, -tr_step / d)


# --------------------------------------------------------------------------
# Outer loops
# --------------------------------------------------------------------------


def depolarizing_finalize(phi: np.ndarray, lam_min: float) -> tuple[ChoiMatrix, float]:
    """Mix with the maximally mixed state to cancel the residual negativity.

    ``lam_min`` is phi's least eigenvalue, known to the caller.  p solves
    (1-p) lambda_min + p/d^2 = 0, so the output is exactly PSD while Tr_s is
    untouched.  Inputs with lambda_min < -0.1 are refused: the projection has
    not converged and mixing would wash out the estimate.  Negativity below
    the round-off floor of the eigensolver counts as zero.
    """
    d2 = phi.shape[0]
    dev = tp_deviation(phi)
    if dev > TP_TOL:
        raise ValueError(f"input is not trace preserving (deviation {dev:.3e})")
    if lam_min < -0.1:
        raise ValueError(f"lambda_min = {lam_min:.3e}; projection has not converged")
    if lam_min >= -1e-14:
        return ChoiMatrix(_hermitize(phi)), 0.0
    a = -lam_min * d2
    p = a / (1.0 + a)
    mixed = (1.0 - p) * phi + (p / d2) * np.eye(d2)
    return ChoiMatrix(_hermitize(mixed)), float(p)


def project_to_cptp(phi0: np.ndarray, method: str = "HIPswitch",
                    cfg: Optional[ProjectionConfig] = None, iterate_hook=None):
    """Iteratively move a Hermitian trace-one matrix into the physical set.

    AP, Dykstra and the HIP family alternate between the PSD cone and the
    partial-trace plane under ``_run_iterates``; the dual method runs
    semismooth Newton on the dual of the Euclidean projection problem over
    the plane multiplier until the dual gradient is at most
    ``DUAL_GRAD_TOL``.  Here the one report is completed: a run that stopped
    short is logged once, and depolarizing finalization makes it physical.

    ``iterate_hook``, if given, is called with every plane iterate of the
    AP/HIP family (each one is a projection onto a convex superset of the
    physical set, so distances to physical points are nonincreasing along
    the hooked sequence); Dykstra's iterates are not, and dual has none, so
    a hook with either raises ``ValueError``.  Like ``proj_cp``, it takes
    phi0 as ``np.asarray`` reads it and refuses phi0 farther than
    ``RAW_HERMITICITY_TOL`` from Hermitian.
    """
    phi0 = np.asarray(phi0, dtype=complex)
    _check_hermitian(phi0, RAW_HERMITICITY_TOL)
    cfg = cfg or ProjectionConfig()
    _check_choice("method", method, METHODS)
    if iterate_hook is not None and method in ("Dykstra", "dual"):
        raise ValueError(f"iterate_hook needs an AP/HIP method, not {method}")
    report = ProjectionReport()
    phi, lam_min, converged = (_dual_project(phi0, report) if method == "dual" else
                               _run_iterates(phi0, method, cfg, report, iterate_hook))
    report.final_lambda_min = lam_min
    report.converged = converged
    if not converged:
        logger.warning("%s did not converge in %d iterations (lambda_min %.3e)",
                       method, report.iterations, lam_min)
    choi, report.mixing_p = depolarizing_finalize(phi, lam_min)
    return choi, report


def _run_iterates(phi0: np.ndarray, method: str, cfg: ProjectionConfig,
                  report: ProjectionReport, iterate_hook=None):
    """Stop an alternating method; returns (phi, lambda_min, converged).

    A physical input stops at once with a "start" row.  Each (lambda_min,
    plane iterate, mode) the method yields gets a trace row; the run stops
    at the first lambda_min >= -epsilon, or after max_outer_iterations
    steps with the iterate of largest lambda_min.
    """
    if tp_deviation(phi0) <= TP_TOL:
        lam0 = float(np.linalg.eigvalsh(phi0).min())
        if lam0 >= -cfg.epsilon:
            report.trace.append((lam0, "start", 0))
            return phi0, lam0, True
    best = (-np.inf, None)
    for lam_min, phi, mode in (_dykstra(phi0, report) if method == "Dykstra"
                               else _hip_family(phi0, method, report)):
        if iterate_hook is not None:
            iterate_hook(phi)
        report.trace.append((lam_min, mode, report.proj_cp_calls))
        if lam_min > best[0]:
            best = (lam_min, phi)
        if lam_min >= -cfg.epsilon:
            return phi, lam_min, True
        if report.iterations >= cfg.max_outer_iterations:
            return best[1], best[0], False


def _hip_family(phi0: np.ndarray, method: str, report: ProjectionReport):
    """AP, oneHIP, pureHIP and HIPswitch share one loop skeleton; yields
    (lambda_min, plane iterate, mode) for each iterate before stepping on."""
    phi = proj_tp(phi0)
    w_active: list[HalfSpace] = []
    mode = "AP" if method in ("AP", "HIPswitch") else "HIP"
    steps_in_mode = 0
    while True:
        lam, v = np.linalg.eigh(phi)
        yield float(lam[0]), phi, mode
        report.iterations += 1
        report.proj_cp_calls += 1
        if mode == "AP":
            phi = proj_tp(_psd_from_eigh(lam, v))
            steps_in_mode += 1
            if method == "HIPswitch" and steps_in_mode >= AP_STEPS:
                mode, steps_in_mode = "HIP", 0
                w_active = []
        else:
            kept = [] if method == "oneHIP" else w_active[:MAX_HALFSPACES - 1]
            w_active, phi = hip_inner([_make_halfspace(lam, v)] + kept, phi)
            steps_in_mode += 1
            if method == "HIPswitch" and steps_in_mode >= HIP_STEPS:
                mode, steps_in_mode = "AP", 0


def _dykstra(phi0: np.ndarray, report: ProjectionReport):
    """Dykstra's algorithm with the correction term on the cone only (the
    partial-trace plane is affine and needs none); converges to the exact
    Frobenius projection of phi0.  Yields each plane iterate, lambda_min from
    a check-only eigvalsh."""
    x = phi0
    corr = np.zeros_like(phi0)
    while True:
        y = _psd_from_eigh(*np.linalg.eigh(x + corr))
        report.proj_cp_calls += 1
        report.iterations += 1
        corr = x + corr - y
        x = proj_tp(y)
        yield float(np.linalg.eigvalsh(x).min()), x, "Dykstra"


def _dual_project(phi0: np.ndarray, report: ProjectionReport):
    """Exact Euclidean projection onto the physical set: semismooth Newton on
    the dual (Malick, SIMAX 2004; Qi & Sun, SIMAX 2006).

    The multiplier y of the plane constraint minimizes theta(y) =
    |X(y)|^2 / 2 - Tr(y) / d with X(y) = proj_cp(phi0 + 1 (x) y); the gradient
    is Tr_s X(y) - 1/d.  Each step solves (V + mu) dy = -grad by conjugate
    gradients, V the generalized Jacobian at the current eigendecomposition,
    then backtracks until theta or, below its round-off, |grad| decreases.
    Returns (plane iterate, lambda_min, converged) like ``_run_iterates``.
    """
    d = system_dim(phi0.shape[0])
    n = d * d

    def tr_s(a, b):  # Tr_s(a b^dagger) for n x m factors a, b
        return np.tensordot(a.reshape(d, d, -1), b.conj().reshape(d, d, -1),
                            axes=([0, 2], [0, 2]))

    def state(y):
        lam, q = np.linalg.eigh(_plus_eye_kron(phi0, y))
        report.proj_cp_calls += 1
        lp = np.clip(lam, 0.0, None)
        # an exactly Hermitian gradient keeps y and each CG step Hermitian
        return (lam, q, 0.5 * lp @ lp - np.trace(y).real / d,
                _hermitize(tr_s(q * lp, q)) - np.eye(d) / d)

    y = np.zeros((d, d), dtype=complex)
    lam, q, val, grad = state(y)
    while ((gnorm := np.linalg.norm(grad)) > DUAL_GRAD_TOL
           and report.iterations < DUAL_MAX_ITER):
        report.iterations += 1
        # V h = Tr_s(Q (Omega o Q^dag (1 (x) h) Q) Q^dag), Omega the divided
        # differences of lambda+: only its rows over the positive eigenvalues
        # are nonzero, so take those, positive block halved, plus the adjoint
        k0 = int(np.searchsorted(lam, 0.0, side="right"))
        q_p = q[:, k0:]
        wts = np.hstack([(lam[k0:] / (lam[k0:] - lam[:k0, None])).T,
                         np.full((n - k0, n - k0), 0.5)])

        def jac_vec(h):
            m = (h @ q_p.reshape(d, d, -1)).reshape(n, -1).conj().T @ q
            t = tr_s(q_p @ (wts * m), q)
            return min(1e-2, gnorm) * h + t + t.conj().T

        step, res, direc = np.zeros_like(y), -grad, -grad
        rr = np.vdot(res, res).real
        for _ in range(n):
            if math.sqrt(rr) <= min(0.1, math.sqrt(gnorm)) * gnorm:
                break
            v = jac_vec(direc)
            a = rr / np.vdot(direc, v).real
            step, res = step + a * direc, res - a * v
            rr, rr_old = np.vdot(res, res).real, rr
            direc = res + (rr / rr_old) * direc

        alpha, slope = 1.0, np.vdot(grad, step).real
        for _ in range(40):
            trial = state(y + alpha * step)
            if (trial[2] <= val + 1e-4 * alpha * slope
                    or np.linalg.norm(trial[3]) <= (1 - 1e-4 * alpha) * gnorm):
                break
            alpha /= 2
        else:
            break  # no acceptable step: leave unconverged
        y = y + alpha * step
        lam, q, val, grad = trial
    report.dual_grad_norm = float(gnorm)

    phi_tp = proj_tp(_psd_from_eigh(lam, q))
    lam_min = float(np.linalg.eigvalsh(phi_tp).min())
    report.trace.append((lam_min, "dual", report.proj_cp_calls))
    return phi_tp, lam_min, report.dual_grad_norm <= DUAL_GRAD_TOL
