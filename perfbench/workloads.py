"""Workload definitions, operation seeds and per-operation output checks.

Standard library only: the benchmark derives seeds and checks outputs without
importing numpy, so that the timed set-up covers the import of proctomo and
everything it pulls in.

One operation is one ``proctomo.harness.run`` call on a workload's config;
only ``seed`` differs between operations.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

METHODS = ("AP", "Dykstra", "oneHIP", "pureHIP", "HIPswitch", "dual")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict        # harness.ExperimentConfig fields, without seed/out_dir
    trace_ops: int      # operations in the traced run (fixed, so counts repeat)


_NOISY_QFT = {"kind": "noisy_qft", "measure_prob": 0.25}

WORKLOADS = {w.name: w for w in (
    Workload(
        "pauli-k4",
        {"format_version": 1, "experiment": "single_run", "scenario": 1, "k": 4,
         "channel": _NOISY_QFT, "n_shots": 1_000_000, "method": "HIPswitch",
         "repetitions": 1, "threads": 1},
        trace_ops=5),
    Workload(
        "mub-d8",
        {"format_version": 1, "experiment": "single_run", "scenario": 3, "d": 8,
         "channel": {"kind": "mixed_unitary", "base": "qft", "rank": 2},
         "n_shots": 1_000_000, "method": "HIPswitch", "repetitions": 1,
         "threads": 1},
        trace_ops=5),
    # The values of scripts/algo_comparison.yaml, copied so that editing the
    # example script does not silently change the workload.
    Workload(
        "algo-k3",
        {"format_version": 1, "experiment": "algo_comparison", "scenario": 1,
         "k": 3, "channel": _NOISY_QFT, "n_shots": 1_000_000,
         "methods": list(METHODS),
         "projection": {"epsilon": 1.0e-7, "max_outer_iterations": 1000},
         "threads": 1},
        trace_ops=20),
)}


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of operation ``index`` (0 is the warm-up) under a workload seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def op_config(workload: Workload, seed: int, index: int, out_dir: Path) -> dict:
    return {**workload.config, "seed": op_seed(workload.name, seed, index),
            "out_dir": str(out_dir)}


def output_digest(out_dir: Path) -> dict:
    """sha256 of each emitted CSV; these bytes must repeat for a given seed."""
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("errors.csv", "lambda_trace.csv")
            if (out_dir / name).exists()}


def check_output(workload: Workload, out_dir: Path):
    """Check one operation's CSVs; returns (problem or None, PLS trace error)."""
    if workload.config["experiment"] == "algo_comparison":
        return _check_lambda_trace(out_dir / "lambda_trace.csv",
                                   workload.config["projection"]["epsilon"]), None
    return _check_errors(out_dir / "errors.csv")


def _check_errors(path: Path):
    values = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            values[(row["stage"], row["metric"])] = float(row["value"])
    for stage in ("LS", "CP1", "PLS"):
        for metric in ("trace", "frobenius", "operator"):
            val = values.get((stage, metric))
            if val is None or not math.isfinite(val):
                return f"errors.csv: {stage} {metric} missing or not finite", None
    fid = values.get(("PLS", "fidelity"))
    if fid is None or not 0.0 <= fid <= 1.0:
        return f"errors.csv: PLS fidelity {fid} outside [0, 1]", None
    return None, values[("PLS", "trace")]


def _check_lambda_trace(path: Path, epsilon: float):
    last = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            last[row["method"]] = float(row["lambda_min"])
    missing = [m for m in METHODS if m not in last]
    if missing:
        return f"lambda_trace.csv: no rows for {', '.join(missing)}"
    if not last["HIPswitch"] >= -epsilon:
        return f"lambda_trace.csv: HIPswitch final lambda_min {last['HIPswitch']}"
    return None
