"""Acceptance suites: each check runs one verifiable claim end to end.

Every check returns a :class:`CheckResult` with the measured numbers, so the
CLI can print one pass/fail line per criterion and the test suite can assert
on the same data.  Failures are data, not exceptions.

The projection oracles here are deliberately independent of the closed forms
they certify: the plane projection is recomputed from an explicitly
assembled constraint matrix and a pseudoinverse; the PSD projection goes
through (X + sqrtm(X^2))/2 with a Schur-based matrix square root; the
trace-one PSD projection iterates Dykstra between those two primitives.
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .bounds import ErrorBudget, confidence_region, pls_failure_prob
from .channels import (ChannelSpec, _check_choice, choi_from_kraus, distance,
                       haar_unitary, kraus_rank, make_channel, qft_unitary)
from .designs import mub_family, near_isotropy_defect
from .estimators import ls_estimate
from .harness import ExperimentConfig, run
from .projections import (ProjectionConfig, proj_cp, proj_cp1_thresholded,
                          proj_tp, project_to_cptp)
from .simulate import SamplingPlan, exact_table, sample

__all__ = ["CheckResult", "CHECKS", "SUITES", "run_suite", "write_report"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0     # wall time, set by run_suite; not part of details

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"{status} {self.name} ({self.seconds:.2f} s): {parts}"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    return v


def _median(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=float)))


# --------------------------------------------------------------------------
# 1. exact-data identifiability
# --------------------------------------------------------------------------


def check_identifiability() -> CheckResult:
    """Exact Born frequencies reproduce the true Choi matrix to 1e-9."""
    cases = [(1, 2), (1, 4), (2, 2), (2, 4), (3, 2), (3, 4), (4, 2), (4, 3)]
    worst = 0.0
    for scenario, d in cases:
        for spec in _test_channels(d):
            truth = choi_from_kraus(make_channel(spec))
            est = ls_estimate(exact_table(truth, scenario))
            err = distance(est.matrix, truth.matrix)["frobenius"]
            worst = max(worst, err)
    return CheckResult("identifiability", worst <= 1e-9,
                       {"worst_frobenius": worst, "tolerance": 1e-9,
                        "cases": len(cases)})


def _test_channels(d: int) -> list[ChannelSpec]:
    specs = [ChannelSpec("mixed_unitary", d, unitary=haar_unitary(d, 17 + d),
                         rank=2)]
    if d & (d - 1) == 0:
        specs.append(ChannelSpec("noisy_qft", d, measure_prob=0.25))
    else:
        specs.append(ChannelSpec("unitary", d, unitary=qft_unitary(d)))
    return specs


# --------------------------------------------------------------------------
# 2. two-design identity for the MUB families
# --------------------------------------------------------------------------


def check_two_design() -> CheckResult:
    """near-isotropy defect of every constructed family stays below 1e-10."""
    dims = (2, 3, 4, 5, 7, 8, 16)
    defects = {d: near_isotropy_defect(mub_family(d)) for d in dims}
    worst = max(defects.values())
    return CheckResult("two-design", worst <= 1e-10,
                       {"worst_defect": worst, "tolerance": 1e-10,
                        "dims": list(dims)})


# --------------------------------------------------------------------------
# 3. projection closed forms vs independent convex oracles
# --------------------------------------------------------------------------


def _oracle_proj_tp(x: np.ndarray) -> np.ndarray:
    """Plane projection via an explicitly assembled constraint matrix."""
    d = round(x.shape[0] ** 0.5)
    d2 = d * d
    m = np.zeros((d2, d2 * d2), dtype=complex)
    target = np.zeros(d2, dtype=complex)
    for a in range(d):
        for b in range(d):
            row = a * d + b
            for s in range(d):
                m[row, (s * d + a) * d2 + (s * d + b)] = 1.0
            target[row] = (1.0 / d) if a == b else 0.0
    xv = x.reshape(-1)
    z = xv + np.linalg.pinv(m) @ (target - m @ xv)
    return z.reshape(d2, d2)


def _oracle_proj_psd(x: np.ndarray) -> np.ndarray:
    """PSD projection via (X + |X|)/2 with a Schur-based square root."""
    import scipy.linalg  # only here: the run path loads no scipy

    absx = scipy.linalg.sqrtm(x @ x)
    out = 0.5 * (x + absx)
    return 0.5 * (out + out.conj().T)


def _oracle_proj_cp1(x: np.ndarray) -> np.ndarray:
    """Trace-one PSD projection by Dykstra over the two oracle primitives,
    at most 20000 steps."""
    n = x.shape[0]
    z = x
    corr = np.zeros_like(x)
    for _ in range(20000):
        y = _oracle_proj_psd(z + corr)
        corr = z + corr - y
        z_new = y - (np.trace(y).real - 1.0) / n * np.eye(n)
        if np.linalg.norm(z_new - z, "fro") < 1e-11:
            return z_new
        z = z_new
    return z


def check_projection_oracles() -> CheckResult:
    """proj_tp / proj_cp / proj_cp1 (tau=0, where the thresholded algorithm
    is the exact projection) agree with the oracles to 1e-6 on 50 random
    Hermitian inputs of sizes 4 and 16."""
    rng = np.random.default_rng(123)
    worst = {"tp": 0.0, "cp": 0.0, "cp1": 0.0}
    for n in (4, 16):
        for _ in range(25):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = 0.5 * (g + g.conj().T)
            worst["tp"] = max(worst["tp"], float(np.linalg.norm(
                proj_tp(h) - _oracle_proj_tp(h), "fro")))
            worst["cp"] = max(worst["cp"], float(np.linalg.norm(
                proj_cp(h) - _oracle_proj_psd(h), "fro")))
            h1 = h + (1.0 - np.trace(h).real) / n * np.eye(n)
            worst["cp1"] = max(worst["cp1"], float(np.linalg.norm(
                proj_cp1_thresholded(h1, 0.0)[0] - _oracle_proj_cp1(h1), "fro")))
    passed = all(v <= 1e-6 for v in worst.values())
    return CheckResult("projection-oracles", passed,
                       {"worst_tp": worst["tp"], "worst_cp": worst["cp"],
                        "worst_cp1": worst["cp1"], "tolerance": 1e-6})


# --------------------------------------------------------------------------
# 4. contraction properties of the two-step projection
# --------------------------------------------------------------------------


def check_projection_properties() -> CheckResult:
    """200 Monte Carlo runs: operator-norm doubling bound for the first
    stage, and nonincreasing distance to the truth along every second-stage
    iterate (each iterate projects onto a superset of the physical set)."""
    violations_p2 = 0
    violations_p3 = 0
    runs = 0
    for scenario in (1, 2, 3, 4):
        for k in (1, 2):
            d = 2**k
            truth = choi_from_kraus(make_channel(
                ChannelSpec("noisy_qft", d, measure_prob=0.25)))
            for seed in range(25):
                runs += 1
                table = sample(truth, scenario, SamplingPlan("random", 10**4, seed))
                est = ls_estimate(table)
                cp1, _ = proj_cp1_thresholded(est.matrix)
                op_ls = distance(est.matrix, truth.matrix)["operator"]
                op_cp1 = distance(cp1, truth.matrix)["operator"]
                if op_cp1 > 2 * op_ls + 1e-12:
                    violations_p2 += 1
                dists = []
                project_to_cptp(cp1, "HIPswitch", ProjectionConfig(),
                                iterate_hook=lambda phi: dists.append(
                                    distance(phi, truth.matrix)["frobenius"]))
                base = distance(cp1, truth.matrix)["frobenius"]
                seqs = [base] + dists
                if any(b > a + 1e-10 for a, b in zip(seqs, seqs[1:])):
                    violations_p3 += 1
    passed = violations_p2 == 0 and violations_p3 == 0
    return CheckResult("projection-properties", passed,
                       {"runs": runs, "p2_violations": violations_p2,
                        "p3_violations": violations_p3})


# --------------------------------------------------------------------------
# 5-7. statistical behaviour at desk scale (through the harness)
# --------------------------------------------------------------------------



def _run_in(cfg: ExperimentConfig):
    """Run a config in a self-cleaning scratch directory."""
    with tempfile.TemporaryDirectory(prefix="proctomo_verify_") as tmp:
        return run(cfg, out_dir=tmp)


def check_scaling() -> CheckResult:
    """Median trace error of the physical estimate follows N^(-1/2)."""
    cfg = ExperimentConfig(
        experiment="sample_size_sweep", scenario=1, k=3,
        channel={"kind": "qft"},
        n_shots_list=[30_000, 100_000, 300_000, 1_000_000],
        repetitions=10, seed=2026)
    records, _ = _run_in(cfg)
    by_n = {}
    for rec in records:
        by_n.setdefault(rec.point["n_shots"], []).append(rec.errors["PLS"]["trace"])
    ns = sorted(by_n)
    medians = [_median(by_n[n]) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    return CheckResult("scaling", -0.6 <= slope <= -0.4,
                       {"slope": slope, "window": [-0.6, -0.4],
                        "medians": [float(m) for m in medians]})


def check_lowrank_gain() -> CheckResult:
    """Rank-one channel at k=3: projection wins a factor >= d^2/10 in trace
    error over the raw least-squares estimate."""
    cfg = ExperimentConfig(
        experiment="single_run", scenario=1, k=3, channel={"kind": "qft"},
        n_shots=1_000_000, repetitions=10, seed=41)
    records, _ = _run_in(cfg)
    med_pls = _median([r.errors["PLS"]["trace"] for r in records])
    med_ls = _median([r.errors["LS"]["trace"] for r in records])
    bound = (10 / 64) * med_ls
    return CheckResult("lowrank-gain", med_pls <= bound,
                       {"median_pls": med_pls, "median_ls": med_ls,
                        "allowed": bound})


def check_rank_monotonicity() -> CheckResult:
    """Median trace error grows with the channel rank, less than linearly."""
    cfg = ExperimentConfig(
        experiment="rank_sweep", scenario=1, k=3,
        channel={"kind": "mixed_unitary", "base": "qft"},
        ranks=[1, 2, 4, 8], n_shots=1_000_000, repetitions=10, seed=53)
    records, _ = _run_in(cfg)
    by_rank = {}
    for rec in records:
        by_rank.setdefault(rec.point["rank"], []).append(rec.errors["PLS"]["trace"])
    ranks = sorted(by_rank)
    medians = [_median(by_rank[r]) for r in ranks]
    monotone = all(b >= a for a, b in zip(medians, medians[1:]))
    ratios = [b / a for a, b in zip(medians, medians[1:]) if b <= 1.0]
    sublinear = all(r <= 2.2 for r in ratios)
    return CheckResult("rank-monotonicity", monotone and sublinear,
                       {"ranks": ranks, "medians": [float(m) for m in medians],
                        "ratios": [float(r) for r in ratios]})


# --------------------------------------------------------------------------
# 8. HIP converges where plain alternating methods stall
# --------------------------------------------------------------------------


def check_hip_superiority() -> CheckResult:
    """4-qubit instance: HIPswitch reaches lambda_min >= -1e-7 with fewer
    cone projections than AP or Dykstra get in 500 capped iterations, and
    neither of those reaches the tolerance at all."""
    cfg = ExperimentConfig(
        experiment="algo_comparison", scenario=1, k=4,
        channel={"kind": "noisy_qft", "measure_prob": 0.25},
        n_shots=1_000_000, seed=5,
        methods=["HIPswitch", "AP", "Dykstra"],
        projection={"epsilon": 1e-7, "max_outer_iterations": 500})
    _, reports = _run_in(cfg)
    hip, ap, dyk = reports["HIPswitch"], reports["AP"], reports["Dykstra"]
    hip_ok = hip.converged and hip.final_lambda_min >= -1e-7
    others_fail = (not ap.converged) and (not dyk.converged)
    fewer = (hip.proj_cp_calls < ap.proj_cp_calls
             and hip.proj_cp_calls < dyk.proj_cp_calls)
    return CheckResult("hip-superiority", hip_ok and others_fail and fewer,
                       {"hip_calls": hip.proj_cp_calls,
                        "ap_calls": ap.proj_cp_calls,
                        "dykstra_calls": dyk.proj_cp_calls,
                        "hip_lambda": hip.final_lambda_min,
                        "ap_lambda": ap.final_lambda_min,
                        "dykstra_lambda": dyk.final_lambda_min})


# --------------------------------------------------------------------------
# 9. cross-method agreement at tight tolerance
# --------------------------------------------------------------------------


def check_cross_method() -> CheckResult:
    """HIPswitch, uncapped Dykstra and the semismooth-Newton dual land pairwise
    within 1e-4 on ten random two-qubit instances; the dual certificate (its
    gradient norm) holds at 1e-8.  The three methods share each instance's
    first-stage iterate, as the harness's algorithm comparison does."""
    tight = ProjectionConfig(epsilon=1e-10, max_outer_iterations=50000)
    worst_pair = 0.0
    worst_grad = 0.0
    for seed in range(10):
        spec = ChannelSpec("mixed_unitary", 4,
                           unitary=haar_unitary(4, 100 + seed), rank=2)
        truth = choi_from_kraus(make_channel(spec))
        table = sample(truth, 1, SamplingPlan("random", 10**7, seed))
        cp1, _ = proj_cp1_thresholded(ls_estimate(table).matrix)
        outs = {}
        for method in ("HIPswitch", "Dykstra", "dual"):
            choi, report = project_to_cptp(cp1, method, tight)
            outs[method] = choi.matrix
            if method == "dual":
                worst_grad = max(worst_grad, report.dual_grad_norm)
        for a in outs:
            for b in outs:
                worst_pair = max(worst_pair, float(
                    np.linalg.norm(outs[a] - outs[b], "fro")))
    passed = worst_pair <= 1e-4 and worst_grad <= 1e-8
    return CheckResult("cross-method", passed,
                       {"worst_pairwise": worst_pair, "tolerance": 1e-4,
                        "worst_dual_grad": worst_grad})


# --------------------------------------------------------------------------
# 10. bound validity and confidence-region coverage
# --------------------------------------------------------------------------


def check_bound_validity() -> CheckResult:
    """Observed failure fractions never exceed the concentration bounds, and
    the confidence region covers the truth at its nominal level."""
    n_runs = 100
    n_shots = 10**4
    eta = 0.05
    eps_grid = np.round(np.arange(0.05, 1.0, 0.05), 2)
    bound_ok = True
    coverage_ok = True
    details = {}
    for scenario in (1, 2, 3, 4):
        spec = ChannelSpec("noisy_qft", 2, measure_prob=0.25)
        kraus = make_channel(spec)
        truth = choi_from_kraus(kraus)
        rank = kraus_rank(kraus)
        errs = []
        covered = 0
        for seed in range(n_runs):
            table = sample(truth, scenario, SamplingPlan("random", n_shots, seed))
            cp1, spectrum = proj_cp1_thresholded(ls_estimate(table).matrix)
            choi, _ = project_to_cptp(cp1)
            err = distance(choi.matrix, truth.matrix)["frobenius"]
            errs.append(err)
            region = confidence_region(spectrum, ErrorBudget(
                scenario=scenario, k=1, n_shots=n_shots, eta=eta))
            covered += err <= region.frobenius_radius
        errs = np.asarray(errs)
        for eps in eps_grid:
            budget = ErrorBudget(scenario=scenario, k=1, n_shots=n_shots,
                                 rank=rank, epsilon=float(eps))
            bound = pls_failure_prob(budget, "frobenius")
            if bound >= 1.0:
                continue
            emp = float((errs >= eps).mean())
            slack = 3 * np.sqrt(bound * (1 - bound) / n_runs)
            if emp > bound + slack:
                bound_ok = False
        cov = covered / n_runs
        details[f"coverage_s{scenario}"] = cov
        if cov < (1 - eta) - 3 * np.sqrt(eta * (1 - eta) / n_runs):
            coverage_ok = False
    return CheckResult("bound-validity", bound_ok and coverage_ok,
                       {"bounds_respected": bound_ok, **details})


# --------------------------------------------------------------------------
# 11. determinism of the emitted CSVs
# --------------------------------------------------------------------------


def check_determinism() -> CheckResult:
    """Identical configs and seeds produce byte-identical CSV output, for
    both experiment runs and verification reports."""
    cfg_run = ExperimentConfig(
        experiment="single_run", scenario=1, k=1,
        channel={"kind": "noisy_qft", "measure_prob": 0.25},
        n_shots=900, repetitions=3, seed=7)
    cfg_algo = ExperimentConfig(
        experiment="algo_comparison", scenario=1, k=1,
        channel={"kind": "noisy_qft", "measure_prob": 0.25},
        n_shots=900, seed=7, methods=["HIPswitch", "AP"],
        projection={"max_outer_iterations": 200})
    same_errors = _rerun_identical(cfg_run, "errors.csv")
    same_trace = _rerun_identical(cfg_algo, "lambda_trace.csv")
    rep_a = json.dumps(check_identifiability().details, sort_keys=True)
    rep_b = json.dumps(check_identifiability().details, sort_keys=True)
    same_verify = rep_a == rep_b
    passed = same_errors and same_trace and same_verify
    return CheckResult("determinism", passed,
                       {"errors_csv_identical": same_errors,
                        "lambda_trace_identical": same_trace,
                        "verify_identical": same_verify})


def _rerun_identical(cfg: ExperimentConfig, filename: str) -> bool:
    blobs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            run(cfg, out_dir=tmp)
            blobs.append((Path(tmp) / filename).read_bytes())
    return blobs[0] == blobs[1]


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


CHECKS: dict[str, Callable[[], CheckResult]] = {
    "identifiability": check_identifiability,
    "two-design": check_two_design,
    "projection-oracles": check_projection_oracles,
    "projection-properties": check_projection_properties,
    "scaling": check_scaling,
    "lowrank-gain": check_lowrank_gain,
    "rank-monotonicity": check_rank_monotonicity,
    "hip-superiority": check_hip_superiority,
    "cross-method": check_cross_method,
    "bound-validity": check_bound_validity,
    "determinism": check_determinism,
}

SUITES = {**{name: [name] for name in CHECKS}, "all": list(CHECKS)}


def run_suite(suite: str) -> list[CheckResult]:
    _check_choice("suite", suite, SUITES)
    results = []
    for name in SUITES[suite]:
        start = time.perf_counter()
        result = CHECKS[name]()
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results


def write_report(results: list[CheckResult], path) -> None:
    payload = {"passed": all(r.passed for r in results),
               "checks": [{"name": r.name, "passed": r.passed,
                           "seconds": r.seconds, "details": r.details}
                          for r in results]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
