"""Projection of least-squares Choi estimates onto physical channels.

The physical set is the intersection of the PSD cone with the affine
partial-trace plane Tr_s(Phi) = 1/d.  Closed forms exist for the two pieces:

* ``proj_tp``  : X + (1/d) 1 (x) (1/d - Tr_s X), the Frobenius projection
  onto the partial-trace plane;
* ``proj_cp``  : eigenvalue clipping at zero, the Frobenius projection onto
  the PSD cone;
* ``proj_cp1_thresholded`` : eigenvalue thresholding at tau followed by a
  trace-one correction (water filling, or top-down refilling when the
  thresholded mass falls short of one); ``cp1_threshold`` gives the
  first-stage tau = max(0, -lambda_min) of a raw estimate.

``project_to_cptp`` combines them iteratively: plain alternating projections
(AP), Dykstra's algorithm, the hyperplane-intersection family (oneHIP,
pureHIP, HIPswitch), or ascent on the dual of the projection problem.  Every
iterate of the AP/HIP family is a Frobenius projection onto a convex superset
of the physical set, so the distance to any physical point never increases.
A final depolarizing mixing step cancels the residual negative eigenvalue
while preserving the partial-trace constraint.

Eigendecomposition dominates the run time; the iterates are decomposed by
``eigh_iterate``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.optimize
from scipy.linalg import solve_triangular

from .channels import RANK_CUT, ChoiMatrix, partial_trace

logger = logging.getLogger(__name__)

METHODS = ("AP", "Dykstra", "oneHIP", "pureHIP", "HIPswitch", "dual")

__all__ = [
    "METHODS",
    "ProjectionConfig",
    "ProjectionReport",
    "HalfSpace",
    "eigh_iterate",
    "proj_tp",
    "proj_tp_linear",
    "proj_cp",
    "proj_cp1_thresholded",
    "cp1_threshold",
    "hip_inner",
    "project_to_cptp",
    "depolarizing_finalize",
    "pls_pipeline",
    "hermitian_basis",
]


AP_STEPS = 6             # AP steps per HIPswitch cycle
HIP_STEPS = 30           # HIP steps per HIPswitch cycle
MAX_HALFSPACES = 30      # HIP memory window, oldest evicted
DUAL_GRAD_TOL = 1e-8     # dual method stops once |grad| <= this
DUAL_MAX_ITER = 20000    # per BFGS restart, and for the polish loop


@dataclass(frozen=True)
class ProjectionConfig:
    """Stopping rule of the iterative projection methods."""

    epsilon: float = 1e-7            # stop once lambda_min >= -epsilon
    max_outer_iterations: int = 2000

    def __post_init__(self):
        for name in ("epsilon", "max_outer_iterations"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ProjectionReport:
    """Trace of one projection run.

    ``final_lambda_min`` is the least eigenvalue of the last iterate before
    depolarizing mixing; ``mixing_p`` solves (1-p) lambda_min + p/d^2 = 0 for
    that value.  ``proj_cp_calls`` counts eigendecompositions that produced a
    PSD projection (the check-only decomposition of the accepted iterate is
    free bookkeeping).
    """

    method: str
    iterations: int = 0
    proj_cp_calls: int = 0
    lambda_min_trace: list = field(default_factory=list)
    cp_calls_trace: list = field(default_factory=list)
    modes: list = field(default_factory=list)
    mixing_p: float = 0.0
    final_lambda_min: float = 0.0
    converged: bool = True
    dual_grad_norm: Optional[float] = None
    threshold: Optional[float] = None
    cp1_rank: Optional[int] = None
    cp1_spectrum: Optional[np.ndarray] = None


@dataclass(frozen=True)
class HalfSpace:
    """Supporting half-space {X : <normal, X> >= offset} of the PSD cone.

    ``tp_normal`` is the component of the normal tangent to the partial-trace
    plane; the Gram system of the hyperplane projection is built from it.
    """

    normal: np.ndarray
    offset: float
    tp_normal: np.ndarray = field(init=False)

    def __post_init__(self):
        nrm = np.linalg.norm(self.normal, "fro")
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError("half-space normal must have unit Frobenius norm")
        object.__setattr__(self, "tp_normal", proj_tp_linear(self.normal))


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def eigh_iterate(x: np.ndarray):
    """Eigendecomposition of a (numerically) Hermitian iterate."""
    return np.linalg.eigh(_hermitize(x))


def _system_dim(x: np.ndarray) -> int:
    d = round(x.shape[0] ** 0.5)
    if d * d != x.shape[0]:
        raise ValueError("matrix size is not a perfect square")
    return d


def proj_tp(x: np.ndarray) -> np.ndarray:
    """Frobenius projection onto {X : Tr_s(X) = 1/d}."""
    d = _system_dim(x)
    corr = np.eye(d) / d - partial_trace(x, "system")
    return x + np.kron(np.eye(d), corr) / d


def proj_tp_linear(x: np.ndarray) -> np.ndarray:
    """Linear part of proj_tp: projection onto {X : Tr_s(X) = 0}."""
    d = _system_dim(x)
    return x - np.kron(np.eye(d), partial_trace(x, "system")) / d


def proj_cp(x: np.ndarray) -> np.ndarray:
    """Frobenius projection onto the PSD cone (clip negative eigenvalues)."""
    if np.abs(x - x.conj().T).max() > 1e-10:
        raise ValueError("proj_cp expects a Hermitian matrix")
    lam, v = eigh_iterate(x)
    return _psd_from_eigh(lam, v)


def _psd_from_eigh(lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v * np.clip(lam, 0.0, None)) @ v.conj().T


def _waterfill(values: np.ndarray, total: float = 1.0) -> np.ndarray:
    """max(values - x0, 0) with x0 >= 0 chosen so the result sums to total."""
    u = np.sort(values)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, len(u) + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.clip(values - theta, 0.0, None)


def cp1_threshold(x: np.ndarray) -> float:
    """First-stage threshold tau = max(0, -lambda_min(x)) of a raw estimate."""
    return max(0.0, -float(np.linalg.eigvalsh(_hermitize(x)).min()))


def proj_cp1_thresholded(x: np.ndarray, tau: float) -> np.ndarray:
    """Thresholded projection of a trace-one Hermitian matrix onto the states.

    Eigenvalues at or below tau are zeroed, the rest are raised by tau; the
    spectrum is then corrected to unit trace.  If the thresholded mass is at
    least one, water filling removes the excess.  Otherwise eigenvalues are
    re-enabled from the top down at lambda + tau until the running total
    reaches one, the last one receiving the residual mass; the trace is then
    exactly one by construction and is asserted.

    With tau = 0 (and trace-one input) this is the exact Frobenius projection
    onto the trace-one PSD set.
    """
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    tr = np.trace(x).real
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"input trace must be 1, got {tr}")
    lam, v = eigh_iterate(x)
    mu = np.where(lam > tau, lam + tau, 0.0)
    if mu.sum() >= 1.0:
        mu = _waterfill(mu, 1.0)
    else:
        mu = np.zeros_like(lam)
        running = 0.0
        for idx in range(len(lam) - 1, -1, -1):
            contrib = lam[idx] + tau
            if contrib <= 0.0:
                raise AssertionError("refill walked past the positive spectrum")
            if running + contrib < 1.0:
                mu[idx] = contrib
                running += contrib
            else:
                mu[idx] = 1.0 - running
                running = 1.0
                break
    out = (v * mu) @ v.conj().T
    assert abs(mu.sum() - 1.0) < 1e-9
    return _hermitize(out)


# --------------------------------------------------------------------------
# Hyperplane intersection machinery
# --------------------------------------------------------------------------


def _make_halfspace(phi: np.ndarray, phi_cp: np.ndarray) -> Optional[HalfSpace]:
    """Half-space containing the PSD cone, orthogonal at phi_cp to phi_cp - phi."""
    diff = phi_cp - phi
    nrm = np.linalg.norm(diff, "fro")
    if nrm < 1e-14:
        return None
    normal = diff / nrm
    return HalfSpace(normal=normal, offset=float(np.vdot(normal, phi_cp).real))


def hip_inner(halfspaces: Sequence[HalfSpace], phi: np.ndarray):
    """Greedy selection of half-spaces whose joint hyperplane projection is
    also the half-space projection, then the projection itself.

    Candidates are scanned in recency order; one is kept when the Gram system
    of the tentative set has all coefficients nonnegative (the KKT condition
    equating hyperplane- and half-space-intersection projections).  The lower
    Cholesky factor of the accepted set's Gram matrix (inner products of the
    ``tp_normal``s) grows by one row per candidate; a candidate whose pivot is
    at most 1e-12 depends on the accepted normals and is skipped.  Returns
    the accepted list and the projection of phi onto the intersection of the
    partial-trace plane with those half-spaces.
    """
    accepted: list[HalfSpace] = []
    low = np.zeros((0, 0))
    rhs = np.zeros(0)
    coeffs = np.zeros(0)
    for cand in halfspaces:
        m = len(accepted)
        cross = np.array([np.vdot(a.tp_normal, cand.tp_normal).real for a in accepted])
        y = solve_triangular(low, cross, lower=True)
        pivot = np.vdot(cand.tp_normal, cand.tp_normal).real - y @ y
        if pivot <= 1e-12:
            logger.debug("dropping degenerate half-space candidate")
            continue
        # kept C-ordered: solve_triangular picks its LAPACK path by memory
        # order, and rounding (hence the accepted set) depends on the path
        trial_low = np.zeros((m + 1, m + 1))
        trial_low[:m, :m] = low
        trial_low[m, :m] = y
        trial_low[m, m] = math.sqrt(pivot)
        trial_rhs = np.append(rhs, cand.offset - np.vdot(cand.normal, phi).real)
        z = solve_triangular(trial_low, trial_rhs, lower=True)
        c = solve_triangular(trial_low.T, z, lower=False)
        if np.all(c >= -1e-12):
            accepted.append(cand)
            low, rhs, coeffs = trial_low, trial_rhs, c
    phi_new = phi.copy()
    for c, h in zip(coeffs, accepted):
        phi_new += c * h.tp_normal
    return accepted, phi_new


# --------------------------------------------------------------------------
# Outer loops
# --------------------------------------------------------------------------


def depolarizing_finalize(phi: np.ndarray) -> tuple[ChoiMatrix, float]:
    """Mix with the maximally mixed state to cancel the residual negativity.

    p solves (1-p) lambda_min + p/d^2 = 0, so the output is exactly PSD while
    Tr_s is untouched.  Inputs with lambda_min < -0.1 are refused: the
    projection has not converged and mixing would wash out the estimate.
    Negativity below the round-off floor of the eigensolver counts as zero.
    """
    d2 = phi.shape[0]
    d = _system_dim(phi)
    dev = np.abs(partial_trace(phi, "system") - np.eye(d) / d).max()
    if dev > 1e-9:
        raise ValueError(f"input is not trace preserving (deviation {dev:.3e})")
    lam_min = float(np.linalg.eigvalsh(_hermitize(phi)).min())
    if lam_min < -0.1:
        raise ValueError(f"lambda_min = {lam_min:.3e}; projection has not converged")
    if lam_min >= -1e-14:
        return ChoiMatrix(_hermitize(phi)), 0.0
    a = -lam_min * d2
    p = a / (1.0 + a)
    mixed = (1.0 - p) * phi + (p / d2) * np.eye(d2)
    return ChoiMatrix(_hermitize(mixed)), float(p)


def _finish(phi: np.ndarray, lam_min: float, report: ProjectionReport,
            converged: bool = True):
    """Common exit: record the final state, warn once if the method stopped
    short, and mix phi into the physical set."""
    report.final_lambda_min = lam_min
    report.converged = converged
    if not converged:
        logger.warning("%s did not converge in %d iterations (lambda_min %.3e)",
                       report.method, report.iterations, lam_min)
    choi, report.mixing_p = depolarizing_finalize(phi)
    return choi, report


def project_to_cptp(phi0: np.ndarray, method: str = "HIPswitch",
                    cfg: Optional[ProjectionConfig] = None, iterate_hook=None):
    """Iteratively move a Hermitian trace-one matrix into the physical set.

    AP, Dykstra and the HIP family alternate between the PSD cone and the
    partial-trace plane and stop once the least eigenvalue of the plane
    iterate exceeds -cfg.epsilon; the dual method maximizes the dual function
    of the Euclidean projection problem over the plane multiplier.  All
    methods end with depolarizing finalization, so the result is physical.

    ``iterate_hook``, if given, is called with every plane iterate of the
    AP/HIP family (each one is a projection onto a convex superset of the
    physical set, so distances to physical points are nonincreasing along
    the hooked sequence).
    """
    cfg = cfg or ProjectionConfig()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    phi0 = np.asarray(phi0, dtype=complex)
    d = _system_dim(phi0)

    if method == "dual":
        return _dual_project(phi0)

    report = ProjectionReport(method=method)
    lam0 = float(np.linalg.eigvalsh(_hermitize(phi0)).min())
    tp_dev = np.abs(partial_trace(phi0, "system") - np.eye(d) / d).max()
    if lam0 >= -cfg.epsilon and tp_dev <= 1e-9:
        report.lambda_min_trace.append(lam0)
        report.cp_calls_trace.append(0)
        report.modes.append("start")
        return _finish(phi0, lam0, report)

    if method == "Dykstra":
        return _dykstra(phi0, cfg, report)
    return _hip_family(phi0, method, cfg, report, iterate_hook)


def _hip_family(phi0: np.ndarray, method: str, cfg: ProjectionConfig,
                report: ProjectionReport, iterate_hook=None):
    """AP, oneHIP, pureHIP and HIPswitch share one loop skeleton."""
    phi = proj_tp(phi0)
    w_active: list[HalfSpace] = []
    mode = "AP" if method in ("AP", "HIPswitch") else "HIP"
    steps_in_mode = 0
    best = (-np.inf, phi)

    while True:
        if iterate_hook is not None:
            iterate_hook(phi)
        lam, v = eigh_iterate(phi)
        lam_min = float(lam[0])
        report.lambda_min_trace.append(lam_min)
        report.cp_calls_trace.append(report.proj_cp_calls)
        report.modes.append(mode)
        if lam_min > best[0]:
            best = (lam_min, phi)
        if lam_min >= -cfg.epsilon:
            return _finish(phi, lam_min, report)
        if report.iterations >= cfg.max_outer_iterations:
            return _finish(best[1], best[0], report, converged=False)

        report.iterations += 1
        report.proj_cp_calls += 1
        phi_cp = _psd_from_eigh(lam, v)
        if mode == "AP":
            phi = proj_tp(phi_cp)
            steps_in_mode += 1
            if method == "HIPswitch" and steps_in_mode >= AP_STEPS:
                mode, steps_in_mode = "HIP", 0
                w_active = []
        else:
            if method == "oneHIP":
                w_active = []
            w = _make_halfspace(phi, phi_cp)
            if w is not None:
                w_active = [w] + w_active
                w_active = w_active[:MAX_HALFSPACES]
            w_active, phi = hip_inner(w_active, phi)
            steps_in_mode += 1
            if method == "HIPswitch" and steps_in_mode >= HIP_STEPS:
                mode, steps_in_mode = "AP", 0


def _dykstra(phi0: np.ndarray, cfg: ProjectionConfig, report: ProjectionReport):
    """Dykstra's algorithm with the correction term on the cone only (the
    partial-trace plane is affine and needs none); converges to the exact
    Frobenius projection of phi0."""
    x = phi0
    corr = np.zeros_like(phi0)
    best = (-np.inf, proj_tp(phi0))
    while True:
        if report.iterations >= cfg.max_outer_iterations:
            return _finish(best[1], best[0], report, converged=False)
        lam, v = eigh_iterate(x + corr)
        y = _psd_from_eigh(lam, v)
        report.proj_cp_calls += 1
        report.iterations += 1
        corr = x + corr - y
        x = proj_tp(y)
        lam_min = float(np.linalg.eigvalsh(_hermitize(x)).min())
        report.lambda_min_trace.append(lam_min)
        report.cp_calls_trace.append(report.proj_cp_calls)
        report.modes.append("Dykstra")
        if lam_min > best[0]:
            best = (lam_min, x)
        if lam_min >= -cfg.epsilon:
            return _finish(x, lam_min, report)


def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of d x d Hermitian matrices, stacked."""
    mats = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        mats.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / math.sqrt(2)
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j / math.sqrt(2)
            m[j, i] = 1j / math.sqrt(2)
            mats.append(m)
    return np.stack(mats)


def _dual_project(phi0: np.ndarray):
    """Euclidean projection onto the physical set via its dual problem.

    The plane constraint is relaxed with a Hermitian multiplier nu; the inner
    minimizer over the cone is proj_cp(phi0 - (1/2) 1 (x) nu), and the dual
    function (squared-Frobenius Lagrangian) is maximized over the d^2 real
    parameters of nu by BFGS with an analytic gradient Tr_s(Phi(nu)) - 1/d,
    followed by fixed-step gradient ascent polishing if needed.
    """
    d = _system_dim(phi0)
    d2 = d * d
    basis = hermitian_basis(d)
    eye_d2 = np.eye(d2)
    report = ProjectionReport(method="dual")

    def unpack(theta: np.ndarray) -> np.ndarray:
        return np.einsum("b,bij->ij", theta, basis)

    def pack(mat: np.ndarray) -> np.ndarray:
        return np.einsum("bij,ij->b", basis.conj(), mat).real

    def q_and_grad(theta: np.ndarray):
        nu = unpack(theta)
        shift = np.kron(np.eye(d), nu)
        lam, v = eigh_iterate(phi0 - 0.5 * shift)
        report.proj_cp_calls += 1
        phi_rel = _psd_from_eigh(lam, v)
        val = (np.linalg.norm(phi_rel - phi0, "fro") ** 2
               + np.vdot(shift, phi_rel - eye_d2 / d2).real)
        grad = partial_trace(phi_rel, "system") - np.eye(d) / d
        return val, pack(grad), phi_rel

    def neg(theta: np.ndarray):
        val, grad, _ = q_and_grad(theta)
        return -val, -grad

    theta = np.zeros(d2)
    for _ in range(3):
        res = scipy.optimize.minimize(
            neg, theta, jac=True, method="BFGS",
            options={"gtol": DUAL_GRAD_TOL, "norm": 2, "maxiter": DUAL_MAX_ITER})
        theta = res.x
        if np.linalg.norm(res.jac) <= DUAL_GRAD_TOL:
            break
    # monotone polish: the dual gradient is (d/2)-Lipschitz, step 2/d is safe
    _, grad, _ = q_and_grad(theta)
    polish = 0
    while np.linalg.norm(grad) > DUAL_GRAD_TOL and polish < DUAL_MAX_ITER:
        theta = theta + (2.0 / d) * grad
        _, grad, _ = q_and_grad(theta)
        polish += 1
    report.iterations = report.proj_cp_calls
    report.dual_grad_norm = float(np.linalg.norm(grad))

    _, _, phi_rel = q_and_grad(theta)
    phi_tp = proj_tp(phi_rel)
    lam_min = float(np.linalg.eigvalsh(_hermitize(phi_tp)).min())
    report.lambda_min_trace.append(lam_min)
    report.cp_calls_trace.append(report.proj_cp_calls)
    report.modes.append("dual")
    return _finish(phi_tp, lam_min, report,
                   converged=report.dual_grad_norm <= DUAL_GRAD_TOL)


def pls_pipeline(estimate, cfg: Optional[ProjectionConfig] = None,
                 method: str = "HIPswitch", direct: bool = False):
    """Two-step physical projection of a least-squares estimate.

    Step one thresholds onto the trace-one PSD set at tau =
    ``cp1_threshold(input)``; step two runs ``project_to_cptp``.
    ``direct=True`` skips the first step and projects the raw estimate (the
    one-step alternative kept for comparisons).  Returns (ChoiMatrix, ProjectionReport); the report
    records the threshold and the spectrum after step one.
    """
    mat = np.asarray(getattr(estimate, "matrix", estimate), dtype=complex)
    if direct:
        return project_to_cptp(mat, method, cfg)
    tau = cp1_threshold(mat)
    phi_cp1 = proj_cp1_thresholded(mat, tau)
    spectrum = np.linalg.eigvalsh(_hermitize(phi_cp1))[::-1]
    choi, report = project_to_cptp(phi_cp1, method, cfg)
    report.threshold = tau
    report.cp1_spectrum = spectrum
    report.cp1_rank = int((spectrum > RANK_CUT).sum())
    return choi, report
