"""Experiment runner: seeded multi-repetition tomography runs and CSV output.

A run is fully determined by an :class:`ExperimentConfig` (loadable from a
YAML file, ``format_version: 1``).  Experiments:

* ``single_run``         -- one (channel, scenario, N), several repetitions
* ``sample_size_sweep``  -- loop over ``n_shots_list``
* ``rank_sweep``         -- loop over ``ranks`` with mixed-unitary channels
* ``dimension_sweep``    -- loop over ``k_list`` (Pauli) or ``d_list`` (MUB);
  with ``n_shots: null`` the shot budget follows 10*9^k resp. 100*d^2
* ``algo_comparison``    -- one instance, every method in ``methods``,
  emitting the per-iteration least-eigenvalue traces

Outputs in ``out_dir``:

* ``errors.csv``       -- columns: experiment, scenario, k, d, channel, rank,
  N, repetition, seed, metric, stage, value, wall_time_ms (fixed order,
  UTF-8, '.' decimal).  Metrics are trace/frobenius/operator distances to
  the true Choi matrix plus fidelity for the physical stages; stages are
  LS, CP1, PLS.
* ``lambda_trace.csv`` -- algo_comparison only: method, iteration, mode,
  lambda_min, cum_projcp_calls.
* ``run_records.json`` -- full per-repetition records including wall times.

Reruns with the same config and seed are byte-identical except for
``run_records.json`` timings; the ``wall_time_ms`` CSV column is left empty
unless ``emit_timings`` is set, precisely so the CSVs stay reproducible.

Repetitions are independent and seeded separately, so they may run in a
thread pool (``threads``); rows are emitted in canonical order regardless.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .channels import (RANK_CUT, ChannelSpec, ChoiMatrix, choi_from_kraus,
                       distance, fidelity, haar_unitary, kraus_rank,
                       make_channel, qft_unitary)
from .estimators import ls_estimate
from .projections import (METHODS, ProjectionConfig, cp1_threshold,
                          proj_cp1_thresholded, project_to_cptp)
from .simulate import SamplingPlan, sample

EXPERIMENTS = ("single_run", "sample_size_sweep", "rank_sweep",
               "dimension_sweep", "algo_comparison")

ERROR_COLUMNS = ["experiment", "scenario", "k", "d", "channel", "rank", "N",
                 "repetition", "seed", "metric", "stage", "value", "wall_time_ms"]
TRACE_COLUMNS = ["method", "iteration", "mode", "lambda_min", "cum_projcp_calls"]

OUT_DIR_ENV = "PROCTOMO_OUT_DIR"

__all__ = ["ExperimentConfig", "RunRecord", "run", "load_config",
           "default_out_dir", "EXPERIMENTS", "ERROR_COLUMNS", "TRACE_COLUMNS",
           "OUT_DIR_ENV"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully reproducible experiment."""

    experiment: str
    scenario: int
    channel: dict
    k: Optional[int] = None
    d: Optional[int] = None
    n_shots: Optional[int] = None
    n_shots_list: Optional[list] = None
    ranks: Optional[list] = None
    k_list: Optional[list] = None
    d_list: Optional[list] = None
    repetitions: int = 1
    seed: int = 0
    scheme: str = "random"
    method: str = "HIPswitch"
    methods: Optional[list] = None
    direct: bool = False
    projection: dict = field(default_factory=dict)
    threads: int = 1
    out_dir: Optional[str] = None
    emit_timings: bool = False
    format_version: int = 1

    def __post_init__(self):
        if self.format_version != 1:
            raise ValueError(f"unsupported format_version {self.format_version}")
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.scenario not in (1, 2, 3, 4):
            raise ValueError("scenario must be 1..4")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for m in self.methods or ():
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        self.projection_config()  # reject bad projection settings up front

    def projection_config(self) -> ProjectionConfig:
        return ProjectionConfig(**self.projection)

    def config_hash(self) -> str:
        payload = {key: val for key, val in asdict(self).items()
                   if key not in ("out_dir", "threads", "emit_timings")}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RunRecord:
    """Results of one repetition at one sweep point."""

    point: dict                  # sweep-point descriptors (k, d, N, rank, ...)
    repetition: int
    seed: int
    errors: dict                 # stage -> metric -> value
    wall_times_ms: dict          # stage -> milliseconds
    projection: dict             # report summary
    config_hash: str


def default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, "proctomo_out")


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a mapping")
    return ExperimentConfig(**data)


def _dim_of(cfg: ExperimentConfig, k: Optional[int] = None,
            d: Optional[int] = None) -> int:
    if d is not None:
        return int(d)
    if k is not None:
        return 2 ** int(k)
    if cfg.d is not None:
        return int(cfg.d)
    if cfg.k is not None:
        return 2 ** int(cfg.k)
    raise ValueError("config must set k or d")


def _build_channel(channel: dict, dim: int, seed: int) -> ChannelSpec:
    """Resolve a channel description to a ChannelSpec at a given dimension.

    kinds: identity | qft | random_unitary | noisy_qft | mixed_unitary; the
    mixed-unitary base is 'identity', 'qft' or 'random'.
    """
    kind = channel.get("kind", "identity")
    if kind == "identity":
        return ChannelSpec("identity", dim)
    if kind == "qft":
        return ChannelSpec("unitary", dim, unitary=qft_unitary(dim))
    if kind == "random_unitary":
        return ChannelSpec("unitary", dim, unitary=haar_unitary(dim, seed))
    if kind == "noisy_qft":
        return ChannelSpec("noisy_qft", dim,
                           measure_prob=float(channel.get("measure_prob", 0.25)))
    if kind == "mixed_unitary":
        base = channel.get("base", "identity")
        if base == "identity":
            w = np.eye(dim)
        elif base == "qft":
            w = qft_unitary(dim)
        elif base == "random":
            w = haar_unitary(dim, seed)
        else:
            raise ValueError(f"unknown mixed_unitary base {base!r}")
        return ChannelSpec("mixed_unitary", dim, unitary=w,
                           rank=int(channel.get("rank", 1)))
    raise ValueError(f"unknown channel kind {kind!r}")


def _sweep_points(cfg: ExperimentConfig) -> list[dict]:
    """Expand the config into sweep points; validates dimensions up front."""
    points = []
    if cfg.experiment == "sample_size_sweep":
        if not cfg.n_shots_list:
            raise ValueError("sample_size_sweep needs n_shots_list")
        for n in cfg.n_shots_list:
            points.append({"k": cfg.k, "d": cfg.d, "n_shots": int(n),
                           "channel": cfg.channel})
    elif cfg.experiment == "rank_sweep":
        if not cfg.ranks:
            raise ValueError("rank_sweep needs ranks")
        for r in cfg.ranks:
            chan = dict(cfg.channel)
            chan.update(kind="mixed_unitary", rank=int(r))
            points.append({"k": cfg.k, "d": cfg.d, "n_shots": cfg.n_shots,
                           "channel": chan})
    elif cfg.experiment == "dimension_sweep":
        if cfg.k_list:
            for k in cfg.k_list:
                n = cfg.n_shots if cfg.n_shots else 10 * 9**int(k)
                points.append({"k": int(k), "d": None, "n_shots": int(n),
                               "channel": cfg.channel})
        elif cfg.d_list:
            for d in cfg.d_list:
                n = cfg.n_shots if cfg.n_shots else 100 * int(d) ** 2
                points.append({"k": None, "d": int(d), "n_shots": int(n),
                               "channel": cfg.channel})
        else:
            raise ValueError("dimension_sweep needs k_list or d_list")
    else:  # single_run, algo_comparison
        if not cfg.n_shots:
            raise ValueError(f"{cfg.experiment} needs n_shots")
        points.append({"k": cfg.k, "d": cfg.d, "n_shots": int(cfg.n_shots),
                       "channel": cfg.channel})

    # fail on unsupported combinations before any compute
    # imported at call time so a patched designs.mub_family (perfbench's
    # tracer) also sees this fail-fast call
    from .designs import mub_family

    for pt in points:
        dim = _dim_of(cfg, pt["k"], pt["d"])
        pt["dim"] = dim
        if cfg.scenario in (1, 2) and dim & (dim - 1):
            raise ValueError(f"scenario {cfg.scenario} needs a power-of-two "
                             f"dimension, got {dim}")
        if cfg.scenario == 3:
            mub_family(dim * dim)
        if cfg.scenario == 4:
            mub_family(dim)
        spec = _build_channel(pt["channel"], dim, cfg.seed)
        pt["channel_label"] = spec.label()
    return points


def _rep_seed(cfg: ExperimentConfig, point_idx: int, rep: int) -> int:
    seq = np.random.SeedSequence([cfg.seed, point_idx, rep])
    return int(seq.generate_state(1, np.uint64)[0])


def _run_repetition(cfg: ExperimentConfig, point: dict, point_idx: int,
                    rep: int, truth: ChoiMatrix, rank: int) -> RunRecord:
    seed = _rep_seed(cfg, point_idx, rep)
    pcfg = cfg.projection_config()
    plan = SamplingPlan(cfg.scheme, point["n_shots"], seed)

    t0 = time.perf_counter()
    table = sample(truth, cfg.scenario, plan)
    est = ls_estimate(table)
    t_ls = time.perf_counter()

    errors = {"LS": _metrics(est.matrix, truth.matrix, physical=False)}
    times = {"LS": (t_ls - t0) * 1e3}

    # each stage's clock starts after the previous stage's metrics
    if cfg.direct:
        stage2_input = est.matrix
    else:
        t_cp1 = time.perf_counter()
        stage2_input = proj_cp1_thresholded(est.matrix, cp1_threshold(est.matrix))
        times["CP1"] = (time.perf_counter() - t_cp1) * 1e3
        errors["CP1"] = _metrics(stage2_input, truth.matrix, physical=True)

    t_pls = time.perf_counter()
    pls, report = project_to_cptp(stage2_input, cfg.method, pcfg)
    times["PLS"] = (time.perf_counter() - t_pls) * 1e3
    errors["PLS"] = _metrics(pls.matrix, truth.matrix, physical=True)

    spectrum = np.linalg.eigvalsh(stage2_input)[::-1] if not cfg.direct else None
    summary = {
        "method": cfg.method,
        "iterations": report.iterations,
        "proj_cp_calls": report.proj_cp_calls,
        "final_lambda_min": report.final_lambda_min,
        "mixing_p": report.mixing_p,
        "converged": report.converged,
        "cp1_rank": int((spectrum > RANK_CUT).sum()) if spectrum is not None else None,
        "cp1_spectrum": spectrum.tolist() if spectrum is not None else None,
    }
    point_desc = {"k": point["k"], "d": point["dim"], "n_shots": point["n_shots"],
                  "channel": point["channel_label"], "rank": rank}
    return RunRecord(point=point_desc, repetition=rep, seed=seed, errors=errors,
                     wall_times_ms=times, projection=summary,
                     config_hash=cfg.config_hash())


def _metrics(mat: np.ndarray, truth: np.ndarray, physical: bool) -> dict:
    out = {
        "trace": distance(mat, truth, "trace"),
        "frobenius": distance(mat, truth, "frobenius"),
        "operator": distance(mat, truth, "operator"),
    }
    if physical:
        out["fidelity"] = fidelity(truth, mat)
    return out


def _algo_comparison(cfg: ExperimentConfig, point: dict, truth: ChoiMatrix):
    """Run every requested method from one shared first-stage estimate."""
    methods = cfg.methods or list(METHODS)
    seed = _rep_seed(cfg, 0, 0)
    table = sample(truth, cfg.scenario, SamplingPlan(cfg.scheme, point["n_shots"], seed))
    est = ls_estimate(table)
    if cfg.direct:
        stage2_input = est.matrix
    else:
        stage2_input = proj_cp1_thresholded(est.matrix, cp1_threshold(est.matrix))
    rows = []
    reports = {}
    for method in methods:
        _, report = project_to_cptp(stage2_input, method, cfg.projection_config())
        reports[method] = report
        for it, (lam, mode, calls) in enumerate(zip(report.lambda_min_trace,
                                                    report.modes,
                                                    report.cp_calls_trace)):
            rows.append([method, it, mode, repr(float(lam)), calls])
    return rows, reports


def run(cfg: ExperimentConfig, out_dir: Optional[str] = None):
    """Execute a config; returns (records, reports) and writes the CSVs."""
    out = Path(out_dir or cfg.out_dir or default_out_dir())
    out.mkdir(parents=True, exist_ok=True)
    points = _sweep_points(cfg)

    records: list[RunRecord] = []
    trace_rows = []
    reports = {}
    for idx, point in enumerate(points):
        spec = _build_channel(point["channel"], point["dim"], cfg.seed)
        kraus = make_channel(spec)
        truth = choi_from_kraus(kraus)
        rank = kraus_rank(kraus)
        if cfg.experiment == "algo_comparison":
            trace_rows, reports = _algo_comparison(cfg, point, truth)
            continue
        reps = range(cfg.repetitions)
        if cfg.threads > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                recs = list(pool.map(
                    lambda r: _run_repetition(cfg, point, idx, r, truth, rank), reps))
        else:
            recs = [_run_repetition(cfg, point, idx, r, truth, rank) for r in reps]
        records.extend(sorted(recs, key=lambda rec: rec.repetition))

    _write_errors_csv(out / "errors.csv", cfg, records)
    if cfg.experiment == "algo_comparison":
        _write_trace_csv(out / "lambda_trace.csv", trace_rows)
    _write_records_json(out / "run_records.json", cfg, records)
    return records, reports


def _write_errors_csv(path: Path, cfg: ExperimentConfig, records: list[RunRecord]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ERROR_COLUMNS)
        for rec in records:
            pt = rec.point
            for stage in ("LS", "CP1", "PLS"):
                if stage not in rec.errors:
                    continue
                wall = (repr(round(rec.wall_times_ms[stage], 3))
                        if cfg.emit_timings else "")
                for metric in ("trace", "frobenius", "operator", "fidelity"):
                    if metric not in rec.errors[stage]:
                        continue
                    writer.writerow([
                        cfg.experiment, cfg.scenario,
                        pt["k"] if pt["k"] is not None else "",
                        pt["d"], pt["channel"], pt["rank"], pt["n_shots"],
                        rec.repetition, rec.seed, metric, stage,
                        repr(float(rec.errors[stage][metric])), wall,
                    ])


def _write_trace_csv(path: Path, rows: list):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(rows)


def _write_records_json(path: Path, cfg: ExperimentConfig, records: list[RunRecord]):
    payload = {
        "config": asdict(cfg),
        "config_hash": cfg.config_hash(),
        "records": [asdict(rec) for rec in records],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
