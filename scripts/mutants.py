#!/usr/bin/env python3
"""Mutation census: which deliberate defects in ``src/proctomo`` the tests catch.

``MUTANTS`` is append-only: a mutant keeps its id and its edit once it is
listed, so two census files compare mutant by mutant.  Each mutant names a
file of the package, an exact text that must occur in it exactly once, the
text that replaces it, and the test files that run against it.  Together
they cover every named tolerance, the conjugations and scale factors of
every kernel, and the bound of every ``_check_*`` call in ``simulate``,
``estimators``, ``projections``, ``bounds``, ``designs`` and ``channels``.

Each mutant is applied in a fresh temporary copy of the checkout (``src``,
``tests``, ``scripts``, ``perfbench`` and ``pyproject.toml``); its test
files then run there under
``pytest -x -p no:cacheprovider --hypothesis-seed=0`` with one BLAS thread,
so a rerun of one tree gives the same caught/survived set.  A mutant is
caught when pytest exits nonzero.

    python scripts/mutants.py --tag e8deb74      # the census, about 15 min
    python scripts/mutants.py --only bounds-pls-frobenius-2x --out x.json

The census writes ``MUTANTS_<tag>.json`` at the checkout root (``--out``
names another path): the totals, and per mutant whether it was caught, the
first failing test id and the wall time.  A survivor carries its
resolution from ``RESOLUTIONS``: the test added to catch it, "equivalent"
with the reason, or "tuning" with the reason.  The script exits 1 if a
survivor has no resolution.  A test is removed from the suite only on a
census's evidence: every mutant it catches is caught by a remaining test.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
PYTEST = ["-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]
TIMEOUT_S = 600

# test file shorthands: the module's own tests and the refusal table
CH, SIM, EST, PROJ, BND, DES, REF = (
    "channels", "simulate", "estimators", "projections", "bounds", "designs", "refusals")

# (id, file in src/proctomo, old text, new text, test files as test_<name>.py)
MUTANTS = [
    # -- channels: named tolerances, loosened tenfold ----------------------
    ("channels-hermiticity-tol", "channels.py", "HERMITICITY_TOL = 1e-12",
     "HERMITICITY_TOL = 1e-11", (CH, REF)),
    ("channels-trace-tol", "channels.py", "TRACE_TOL = 1e-12 ",
     "TRACE_TOL = 1e-11 ", (CH, REF)),
    ("channels-psd-tol", "channels.py", "PSD_TOL = 1e-10 ", "PSD_TOL = 1e-9 ",
     (CH, REF, SIM)),
    ("channels-tp-tol", "channels.py", "TP_TOL = 1e-9 ", "TP_TOL = 1e-8 ", (CH, REF)),
    ("channels-kraus-tp-tol", "channels.py", "KRAUS_TP_TOL = 1e-10",
     "KRAUS_TP_TOL = 1e-9", (CH, REF)),
    ("channels-raw-hermiticity-tol", "channels.py", "RAW_HERMITICITY_TOL = 1e-10",
     "RAW_HERMITICITY_TOL = 1e-9", (CH, REF, PROJ)),
    ("channels-raw-trace-tol", "channels.py", "RAW_TRACE_TOL = 1e-8",
     "RAW_TRACE_TOL = 1e-7", (CH, REF, PROJ)),
    ("channels-rank-cut", "channels.py", "RANK_CUT = 1e-9", "RANK_CUT = 1e-17", (CH,)),
    ("channels-spectrum-psd-tol", "channels.py", "SPECTRUM_PSD_TOL = 1e-9",
     "SPECTRUM_PSD_TOL = 1e-8", (BND, REF)),
    ("channels-spectrum-trace-tol", "channels.py", "SPECTRUM_TRACE_TOL = 1e-6",
     "SPECTRUM_TRACE_TOL = 1e-5", (BND, REF)),
    # -- channels: the shared input rules -----------------------------------
    ("channels-range-strictness", "channels.py",
     "below = operator.lt if strict else operator.le",
     "below = operator.le if strict else operator.lt", (REF,)),
    ("channels-int-takes-bool", "channels.py", "type(value) is int",
     "isinstance(value, int)", (REF,)),
    ("channels-real-takes-nan", "channels.py", "and bool(np.isfinite(value))", "", (REF,)),
    ("channels-real-takes-bool", "channels.py",
     " and not isinstance(value, bool)", "", (REF,)),
    ("channels-square-rule", "channels.py", "if a.ndim != 2 or a.shape[0]",
     "if a.shape[0]", (CH, REF)),
    ("channels-spec-dim-low", "channels.py", '_check_int("dim", self.dim, low=2)',
     '_check_int("dim", self.dim, low=1)', (CH, REF)),
    ("channels-spec-measure-prob-high", "channels.py",
     '_check_real("measure_prob", self.measure_prob, 0, 1)',
     '_check_real("measure_prob", self.measure_prob, 0, 2)', (CH, REF)),
    ("channels-spec-rank-high", "channels.py",
     '_check_int("rank", self.rank, 1, self.dim**2)',
     '_check_int("rank", self.rank, 1, self.dim**2 + 1)', (CH, REF)),
    ("channels-spec-unread-field", "channels.py", "elif name not in reads:",
     "elif False:", (CH, REF)),
    # -- channels: kernels --------------------------------------------------
    ("channels-kraus-factor-scale", "channels.py", "]) / np.sqrt(d)).T", "])).T", (CH,)),
    ("channels-choi-conj", "channels.py", "_hermitize(w @ w.conj().T)",
     "_hermitize(w @ w.T)", (CH,)),
    ("channels-partial-trace-factor", "channels.py", '"iaib->ab"', '"aibi->ab"', (CH,)),
    ("channels-distance-trace", "channels.py", '"trace": float(lam.sum())',
     '"trace": float(lam.sum() / 2)', (CH,)),
    ("channels-fidelity-conj", "channels.py", "w.conj().T @ b @ w", "w.T @ b @ w", (CH,)),
    ("channels-fidelity-sqrt", "channels.py",
     "np.sqrt(np.clip(mu, 0.0, None)).sum() ** 2", "np.clip(mu, 0.0, None).sum() ** 2",
     (CH,)),
    # -- simulate -----------------------------------------------------------
    ("simulate-sample-blocks", "simulate.py", "SAMPLE_BLOCKS = 16", "SAMPLE_BLOCKS = 8",
     (SIM,)),
    ("simulate-plan-shots-low", "simulate.py", '_check_int("n_shots", self.n_shots, low=1)',
     '_check_int("n_shots", self.n_shots, low=0)', (SIM, REF)),
    ("simulate-plan-seed-low", "simulate.py", '_check_int("seed", self.seed, low=0)',
     '_check_int("seed", self.seed, low=-1)', (SIM, REF)),
    ("simulate-table-dim-low", "simulate.py", '_check_int("dim", self.dim, low=2)',
     '_check_int("dim", self.dim, low=1)', (SIM, REF)),
    ("simulate-scenario-high", "simulate.py", '_check_int("scenario", scenario, 1, 4)',
     '_check_int("scenario", scenario, 1, 5)', (SIM, REF)),
    ("simulate-complex-table", "simulate.py", "if np.iscomplexobj(self.values):",
     "if False:", (SIM, EST, REF)),
    ("simulate-fixed-divisibility", "simulate.py",
     'self.scheme == "fixed" and self.n_shots % n_settings',
     'self.scheme == "fixed" and False', (SIM,)),
    ("simulate-born-ops-conj", "simulate.py", "PAULI_VECTORS.conj(), PAULI_VECTORS)",
     "PAULI_VECTORS, PAULI_VECTORS)", (SIM, EST)),
    ("simulate-ls-ops-scale", "simulate.py", "_LS_OPS = 3 * ", "_LS_OPS = 2 * ", (EST,)),
    ("simulate-ls-ops-conj", "simulate.py", "_BORN_OPS.conj().transpose(2, 3, 0, 1)",
     "_BORN_OPS.transpose(2, 3, 0, 1)", (EST,)),
    ("simulate-scenario2-view", "simulate.py", "joint.transpose(b + a + p + q)",
     "joint.transpose(a + b + q + p)", (SIM, EST)),
    ("simulate-scenario2-scale", "simulate.py", "        table *= d\n",
     "        table *= 1\n", (SIM, EST)),
    ("simulate-mub3-conj", "simulate.py", "basis.conj() @ phi", "basis @ phi", (SIM, EST)),
    ("simulate-mub3-scale", "simulate.py", "p /= d * d + 1", "p /= d * d", (SIM, EST)),
    ("simulate-mub3-adjoint-conj", "simulate.py", "(basis.T * row) @ basis.conj()",
     "(basis.T * row) @ basis", (EST,)),
    ("simulate-mub-rows-conj", "simulate.py", "(vecs.conj()[:, :, None]",
     "(vecs[:, :, None]", (SIM, EST)),
    ("simulate-mub4-layout", "simulate.py", "transpose(1, 3, 0, 2)", "transpose(3, 1, 2, 0)",
     (SIM, EST)),
    ("simulate-mub4-scale", "simulate.py", "amp.real * d / (d + 1)", "amp.real / (d + 1)",
     (SIM, EST)),
    ("simulate-mub4-adjoint-conj", "simulate.py", "projs = _mub_rows(d).conj()",
     "projs = _mub_rows(d)", (EST,)),
    ("simulate-mub4-adjoint-layout", "simulate.py", "mat.transpose(0, 2, 1, 3)",
     "mat.transpose(0, 3, 1, 2)", (EST,)),
    ("simulate-clamp-floor", "simulate.py", "p.min() < -d * PSD_TOL",
     "p.min() < -PSD_TOL", (SIM,)),
    ("simulate-frequency-scale", "simulate.py", "shots[blk], rows[blk]), nu,",
     "shots[blk], rows[blk]), plan.n_shots,", (SIM, EST)),
    # -- estimators ---------------------------------------------------------
    ("estimators-pauli-scale", "estimators.py", "scale = 3 ** (2 * k)", "scale = 3 ** k",
     (EST,)),
    ("estimators-scenario2-scale", "estimators.py", "table.dim if table.scenario == 2",
     "table.dim if table.scenario == 1", (EST,)),
    ("estimators-mub3-scale", "estimators.py", "mat *= d * d + 1", "mat *= d * d", (EST,)),
    ("estimators-mub3-shift", "estimators.py", "return mat - np.eye(d * d)",
     "return mat", (EST,)),
    ("estimators-mub4-scale", "estimators.py", "((d + 1) * f - ", "(d * f - ", (EST,)),
    ("estimators-mub4-marginal-scale", "estimators.py", "marginals / (d + 1)) / d",
     "marginals / d) / d", (EST,)),
    ("estimators-mub4-marginal-axes", "estimators.py",
     "f.sum(axis=0) + f.sum(axis=1)[:, None]", "f.sum(axis=1) + f.sum(axis=0)[:, None]",
     (EST,)),
    ("estimators-mub4-shift", "estimators.py", " / d, d) + np.eye(d * d)", " / d, d)",
     (EST,)),
    ("estimators-hermitian-part", "estimators.py",
     "LsEstimate(_hermitize(estimators[table.scenario - 1](table)))",
     "LsEstimate(estimators[table.scenario - 1](table))", (EST,)),
    # -- projections: named constants ----------------------------------------
    ("projections-ap-steps", "projections.py", "AP_STEPS = 6 ", "AP_STEPS = 5 ", (PROJ,)),
    ("projections-hip-steps", "projections.py", "HIP_STEPS = 30 ", "HIP_STEPS = 20 ",
     (PROJ,)),
    ("projections-max-halfspaces", "projections.py", "MAX_HALFSPACES = 30",
     "MAX_HALFSPACES = 20", (PROJ,)),
    ("projections-dual-grad-tol", "projections.py", "DUAL_GRAD_TOL = 1e-8",
     "DUAL_GRAD_TOL = 1e-7", (PROJ,)),
    ("projections-dual-max-iter", "projections.py", "DUAL_MAX_ITER = 200",
     "DUAL_MAX_ITER = 20", (PROJ,)),
    ("projections-hip-pivot-cut", "projections.py", "HIP_PIVOT_CUT = 1e-12",
     "HIP_PIVOT_CUT = 1e-10", (PROJ,)),
    ("projections-hip-coeff-cut", "projections.py", "HIP_COEFF_CUT = 1e-12",
     "HIP_COEFF_CUT = 1e-10", (PROJ,)),
    ("projections-refusal-lambda", "projections.py", "if lam_min < -0.1:",
     "if lam_min < -0.2:", (PROJ,)),
    ("projections-rounding-floor", "projections.py", "if lam_min >= -1e-14:",
     "if lam_min >= -1e-16:", (PROJ,)),
    ("projections-config-epsilon-strict", "projections.py",
     '_check_real("epsilon", self.epsilon, low=0, strict=True)',
     '_check_real("epsilon", self.epsilon, low=0)', (PROJ, REF)),
    ("projections-config-cap-low", "projections.py",
     '_check_int("max_outer_iterations", self.max_outer_iterations, low=1)',
     '_check_int("max_outer_iterations", self.max_outer_iterations, low=0)', (PROJ, REF)),
    ("projections-threshold-low", "projections.py", '_check_real("threshold", tau, low=0)',
     '_check_real("threshold", tau, low=-1)', (PROJ, REF)),
    ("projections-hook-refusal", "projections.py", 'method in ("Dykstra", "dual")',
     'method in ("dual",)', (PROJ,)),
    # -- projections: kernels -------------------------------------------------
    ("projections-tp-scale", "projections.py",
     "(np.eye(d) / d - partial_trace(x)) / d)", "(np.eye(d) / d - partial_trace(x)))",
     (PROJ,)),
    ("projections-tp-factor", "projections.py", "[diag, :, diag, :] += c",
     "[:, diag, :, diag] += c", (PROJ,)),
    ("projections-psd-conj", "projections.py", "@ v[:, k0:].conj().T", "@ v[:, k0:].T",
     (PROJ,)),
    ("projections-waterfill-shift", "projections.py", "css[rho] / (rho + 1.0)",
     "css[rho] / (rho + 2.0)", (PROJ,)),
    ("projections-cp1-raise", "projections.py", "lam > tau, lam + tau, 0.0",
     "lam > tau, lam, 0.0", (PROJ,)),
    ("projections-cp1-tau", "projections.py", "max(0.0, -float(lam[0]))",
     "max(0.0, -float(lam[1]))", (PROJ,)),
    ("projections-cp1-refill", "projections.py", "mu[idx] = 1.0 - running",
     "mu[idx] = contrib", (PROJ,)),
    ("projections-cp1-spectrum-order", "projections.py", "_hermitize(out), mu[::-1]",
     "_hermitize(out), mu", (PROJ,)),
    ("projections-halfspace-sign", "projections.py", "(-lam[:k0] / nrm)", "(lam[:k0] / nrm)",
     (PROJ,)),
    ("projections-halfspace-conj", "projections.py", "@ v[:, :k0].conj().T", "@ v[:, :k0].T",
     (PROJ,)),
    ("projections-gram-scale", "projections.py", "b.tr_normal).real / d)",
     "b.tr_normal).real / (d * d))", (PROJ,)),
    ("projections-hip-rhs-sign", "projections.py", "rhs = -np.vdot(cand.normal, phi).real",
     "rhs = np.vdot(cand.normal, phi).real", (PROJ,)),
    ("projections-hip-pivot-root", "projections.py", "trial_low[m, m] = math.sqrt(pivot)",
     "trial_low[m, m] = pivot", (PROJ,)),
    ("projections-hip-step-trace", "projections.py", "_plus_eye_kron(step, -tr_step / d)",
     "_plus_eye_kron(step, -tr_step)", (PROJ,)),
    ("projections-mixing-weight", "projections.py", "p = a / (1.0 + a)", "p = a / (2.0 + a)",
     (PROJ,)),
    ("projections-cap-off-by-one", "projections.py",
     "report.iterations >= cfg.max_outer_iterations",
     "report.iterations > cfg.max_outer_iterations", (PROJ,)),
    ("projections-dykstra-correction", "projections.py", "corr = x + corr - y",
     "corr = x - y", (PROJ,)),
    ("projections-dual-partial-trace-conj", "projections.py", "b.conj().reshape(d, d, -1)",
     "b.reshape(d, d, -1)", (PROJ,)),
    ("projections-dual-objective-scale", "projections.py", "np.trace(y).real / d,",
     "np.trace(y).real / (d * d),", (PROJ,)),
    ("projections-dual-jacobian-weight", "projections.py", "np.full((n - k0, n - k0), 0.5)",
     "np.full((n - k0, n - k0), 1.0)", (PROJ,)),
    ("projections-dual-cg-regularizer", "projections.py", "min(1e-2, gnorm) * h",
     "min(1e-1, gnorm) * h", (PROJ,)),
    ("projections-dual-jacobian-adjoint", "projections.py", "* h + t + t.conj().T",
     "* h + 2 * t", (PROJ,)),
    # -- bounds: each constant loosened twofold ------------------------------
    ("bounds-k-max", "bounds.py", "_K_MAX = 64 ", "_K_MAX = 600 ", (BND, REF)),
    ("bounds-g-pauli", "bounds.py", "return 3.0 ** (-2 * k)", "return 3.0 ** (-k)", (BND,)),
    ("bounds-g-mub", "bounds.py", "(0.5 if scenario == 3 else 0.25)",
     "(0.25 if scenario == 3 else 0.25)", (BND,)),
    ("bounds-f-scale", "bounds.py", "g_factor(scenario, k) * 2.0 ** (-2 * k)",
     "g_factor(scenario, k) * 2.0 ** (-k)", (BND,)),
    ("bounds-pls-frobenius-2x", "bounds.py", "g / (8 * r)", "g / (16 * r)", (BND,)),
    ("bounds-pls-trace-2x", "bounds.py", "eps**2 / 32)", "eps**2 / 64)", (BND,)),
    ("bounds-ls-operator-2x", "bounds.py",
     "expo = (3 * n * eps**2 / 8) * g\n", "expo = (3 * n * eps**2 / 16) * g\n", (BND,)),
    ("bounds-ls-frobenius-2x", "bounds.py", "* g / d2", "* g / (2 * d2)", (BND,)),
    ("bounds-sample-complexity-2x", "bounds.py", "(32 * budget.rank / budget.g)",
     "(64 * budget.rank / budget.g)", (BND,)),
    ("bounds-region-t-2x", "bounds.py", "t = math.sqrt(8 * math.log",
     "t = math.sqrt(16 * math.log", (BND,)),
    ("bounds-region-frobenius-2x", "bounds.py", "math.sqrt(2 * r) * (delta + 2 * t)",
     "2 * math.sqrt(2 * r) * (delta + 2 * t)", (BND,)),
    ("bounds-region-trace-2x", "bounds.py", "trace = r * (", "trace = 2 * r * (", (BND,)),
    ("bounds-region-delta", "bounds.py", "return max(tail, shift)", "return tail", (BND,)),
    ("bounds-direct-probability-2x", "bounds.py", "eps / 8) * f", "eps / 16) * f", (BND,)),
    ("bounds-direct-complexity-2x", "bounds.py", "(1 / f) * (8 / (3 * eps))",
     "(1 / f) * (16 / (3 * eps))", (BND,)),
    ("bounds-capped", "bounds.py", "return min(p, 1.0)", "return p", (BND,)),
    ("bounds-scenario-high", "bounds.py", '_check_int("scenario", scenario, 1, 4)',
     '_check_int("scenario", scenario, 1, 5)', (BND, REF)),
    ("bounds-k-low", "bounds.py", '_check_real("k", k, 1, _K_MAX)',
     '_check_real("k", k, 0.5, _K_MAX)', (BND, REF)),
    ("bounds-budget-shots-low", "bounds.py", '_check_int("n_shots", self.n_shots, low=0)',
     '_check_int("n_shots", self.n_shots, low=-1)', (BND, REF)),
    ("bounds-budget-rank-low", "bounds.py", '_check_int("rank", self.rank, low=1)',
     '_check_int("rank", self.rank, low=0)', (BND, REF)),
    ("bounds-budget-eta-strict", "bounds.py",
     '_check_real("eta", self.eta, 0, 1, strict=True)', '_check_real("eta", self.eta, 0, 1)',
     (BND, REF)),
    ("bounds-pls-epsilon-strict", "bounds.py",
     '_check_real("epsilon", eps, 0, 1, strict=True)\n    _check_choice',
     '_check_real("epsilon", eps, 0, 1)\n    _check_choice', (BND, REF)),
    ("bounds-ls-epsilon-high", "bounds.py", '_check_real("epsilon", eps, 0, 1)\n',
     '_check_real("epsilon", eps, 0, 2)\n', (BND, REF)),
    ("bounds-complexity-epsilon-strict", "bounds.py",
     '1, strict=True)\n    d2 = 2.0 ** (2 * budget.k)\n    n =',
     '1)\n    d2 = 2.0 ** (2 * budget.k)\n    n =', (BND, REF)),
    ("bounds-direct-epsilon-strict", "bounds.py",
     '1, strict=True)\n    d2 = 2.0 ** (2 * budget.k)\n    f =',
     '1)\n    d2 = 2.0 ** (2 * budget.k)\n    f =', (BND, REF)),
    ("bounds-region-shots-low", "bounds.py", '_check_int("n_shots", budget.n_shots, low=1)',
     '_check_int("n_shots", budget.n_shots, low=0)', (BND, REF)),
    # -- designs ------------------------------------------------------------
    ("designs-exact-tol", "designs.py", "EXACT_TOL = 1e-12", "EXACT_TOL = 1e-11", (DES,)),
    ("designs-unbiased-tol", "designs.py", "UNBIASED_TOL = 1e-10", "UNBIASED_TOL = 1e-9",
     (DES,)),
    ("designs-pauli-y", "designs.py", "[[1, 1], [1j, -1j]]", "[[1, 1], [-1j, 1j]]",
     (DES, SIM)),
    ("designs-odd-prime-phase", "designs.py", "np.outer(l, l**2)", "np.outer(l, 2 * l**2)",
     (DES,)),
    ("designs-galois-ring-lift", "designs.py", "tr + 2 * q", "tr + 0 * q", (DES,)),
    ("designs-unitarity-check", "designs.py", "if not _is_unitary(chi):", "if False:",
     (DES,)),
    ("designs-character-check", "designs.py", "        _check_character_table(chi)\n", "",
     (DES,)),
    ("designs-basis-range", "designs.py", "if not 0 <= b <= d:", "if not 0 <= b <= d + 1:",
     (DES,)),
    ("designs-isotropy-rhs", "designs.py", "rhs = a + np.trace(a) * np.eye(dim)",
     "rhs = a + np.eye(dim)", (DES,)),
]

# how each survivor of a census is resolved: ("test", the test that now
# catches it), ("equivalent", why no input tells it apart) or ("tuning", why
# it is a choice the tests need not pin)
_PHYSICAL = "tests/test_channels.py::TestPhysicalRules::"
_TWICE = ": its outside probe is twice the tolerance, where ten times sat on the mutant's"
RESOLUTIONS = {
    "channels-trace-tol": (
        "test", _PHYSICAL + "test_state_rule[trace-DensityMatrix]" + _TWICE),
    "channels-tp-tol": ("test", _PHYSICAL + "test_trace_preserving" + _TWICE),
    "channels-raw-trace-tol": ("test", _PHYSICAL + "test_raw_estimate_rule[trace]" + _TWICE),
    "channels-spectrum-psd-tol": (
        "test", "tests/test_bounds.py::TestConfidenceRegion::test_spectrum_tolerances"),
    "channels-spectrum-trace-tol": (
        "test", "tests/test_bounds.py::TestConfidenceRegion::test_spectrum_tolerances"),
    "simulate-sample-blocks": (
        "tuning", "the blocks change no bits (the bitwise pins hold at any count); 8 blocks "
        "stay under the 1.45-table pin of test_sample_peak_memory_k4, 4 do not"),
    "estimators-hermitian-part": (
        "test", "tests/test_estimators.py::TestIdentifiability::test_exact_recovery: the "
        "estimate is exactly Hermitian; scenario 4's kernel alone is not"),
    "projections-max-halfspaces": (
        "tuning", "the window never binds: on the test_hipswitch_peak_memory_k4 instance "
        "hip_inner gets at most 7 candidates and keeps at most 6 over its 44 calls; "
        "TestCountBudget should not pin it"),
    "projections-dual-grad-tol": (
        "test", "tests/test_projections.py::TestDualNewton::test_newton_work_pinned"),
    "projections-dual-max-iter": (
        "tuning", "the cap never binds: 96 TestDualNewton inputs (every kind, n = 4 and 16, "
        "seeds 0-11) take at most 12 Newton steps"),
    "projections-hip-pivot-cut": (
        "tuning", "no tested window tells a cut of 1e-10 from 1e-12: the 150 hypothesis "
        "windows, with 'near' candidates perturbed by relative 1e-9..1e-2, and the windows "
        "of a k = 2 HIPswitch run give the same accepted sets, bit for bit"),
    "projections-hip-coeff-cut": (
        "test", "tests/test_projections.py::TestHipInner::test_matches_full_rebuild_oracle: "
        "'touching' cuts now pass 1e-14..1e-9 from phi, across both cuts"),
    "projections-rounding-floor": (
        "test",
        "tests/test_projections.py::TestDepolarizingFinalize::test_psd_input_untouched"),
    "projections-cp1-raise": (
        "test", "tests/test_projections.py::TestProjCp1Thresholded::test_spec_walkthrough"),
    "projections-cap-off-by-one": (
        "test", "tests/test_projections.py::TestProjectToCptp::test_nonconverged_exit"),
    "projections-dual-objective-scale": (
        "test", "tests/test_projections.py::TestDualNewton::test_newton_work_pinned"),
    "projections-dual-cg-regularizer": (
        "test", "tests/test_projections.py::TestDualNewton::test_newton_work_pinned"),
    "bounds-pls-trace-2x": (
        "test", "tests/test_bounds.py::TestPlsFailureProb::test_frozen_example"),
    "bounds-ls-frobenius-2x": (
        "test", "tests/test_bounds.py::TestLsFailureProb::"
        "test_frobenius_is_rescaled_operator: at 10^6 shots neither side is capped at one"),
    "bounds-region-delta": (
        "test", "tests/test_bounds.py::TestConfidenceRegion::test_matches_exhaustive_scan"),
    "designs-exact-tol": (
        "test", "tests/test_designs.py::TestMubValidation::test_entry_of_wrong_modulus: its "
        "root is off by twice the tolerance, where 1.1 times the root sat outside both"),
    "designs-unbiased-tol": (
        "tuning", "the tables are integers and the roots pass EXACT_TOL, so no table the "
        "tests build has a squared-overlap defect between 1e-10 and 1e-9"),
    "designs-basis-range": (
        "test", "tests/test_designs.py::test_basis_matches_stack: basis(D + 1) must fail "
        "with the family's own message, not numpy's"),
}


def copy_checkout(dest: Path) -> None:
    """The files a test run reads, without caches or benchmark output."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".out",
                                    "*.egg-info")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def apply(mutant, dest: Path) -> None:
    """Write the mutant's edit into the copy at dest, refusing an old text
    that does not occur exactly once."""
    mid, file, old, new, _ = mutant
    path = dest / "src" / "proctomo" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{mid}: old text occurs {text.count(old)} times in {file}")
    path.write_text(text.replace(old, new))


def test_env(dest: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(dest / "src")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def first_failure(output: str):
    """The first FAILED or ERROR test id of pytest's short summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def run_mutant(mutant) -> dict:
    mid, file, _, _, tests = mutant
    files = [f"tests/test_{name}.py" for name in tests]
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        copy_checkout(dest)
        apply(mutant, dest)
        try:
            proc = subprocess.run([sys.executable, *PYTEST, *files], cwd=dest,
                                  env=test_env(dest), capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
            caught, failure = proc.returncode != 0, first_failure(proc.stdout)
            if caught and failure is None:
                failure = f"pytest exit {proc.returncode}"
        except subprocess.TimeoutExpired:
            caught, failure = True, f"timeout after {TIMEOUT_S} s"
    record = {"id": mid, "file": file, "tests": files, "caught": caught,
              "first_failure": failure, "seconds": round(time.perf_counter() - t0, 1)}
    if not caught:
        kind, reason = RESOLUTIONS.get(mid, (None, None))
        record["resolution"] = {"kind": kind, "reason": reason}
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tag", default="local", help="names MUTANTS_<tag>.json")
    parser.add_argument("--only", nargs="*", default=None, help="mutant ids to run")
    parser.add_argument("--out", default=None, help="output path")
    args = parser.parse_args()

    ids = [m[0] for m in MUTANTS]
    if len(set(ids)) != len(ids):
        print("duplicate mutant ids", file=sys.stderr)
        return 1
    chosen = MUTANTS
    if args.only is not None:
        unknown = sorted(set(args.only) - set(ids))
        if unknown:
            print(f"unknown mutant ids: {', '.join(unknown)}", file=sys.stderr)
            return 1
        chosen = [m for m in MUTANTS if m[0] in args.only]

    t0 = time.perf_counter()
    records = []
    for mutant in chosen:
        rec = run_mutant(mutant)
        records.append(rec)
        verdict = "caught" if rec["caught"] else "SURVIVED"
        print(f"{rec['id']}: {verdict} in {rec['seconds']} s"
              f"{' by ' + rec['first_failure'] if rec['first_failure'] else ''}", flush=True)
    unresolved = [r["id"] for r in records
                  if not r["caught"] and r["resolution"]["kind"] is None]
    caught = sum(r["caught"] for r in records)
    census = {"tag": args.tag, "python": platform.python_version(),
              "pytest": " ".join(PYTEST[2:]), "blas_threads": 1,
              "mutants": len(records), "caught": caught, "survived": len(records) - caught,
              "unresolved": unresolved, "seconds": round(time.perf_counter() - t0, 1),
              "records": records}
    out = Path(args.out) if args.out else ROOT / f"MUTANTS_{args.tag}.json"
    out.write_text(json.dumps(census, indent=1) + "\n")
    print(f"{caught}/{len(records)} caught, {len(unresolved)} survivors unresolved -> {out}")
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
