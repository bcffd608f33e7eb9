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
  the true Choi matrix plus, for the physical stages, fidelity from the
  truth's Kraus factor (built once per point); stages are LS, CP1, PLS.
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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .channels import (ChannelSpec, ChoiMatrix, _check_choice, _check_int,
                       choi_from_kraus, distance, fidelity, haar_unitary, kraus_factor,
                       kraus_rank, make_channel, numerical_rank, qft_unitary)
from .estimators import ls_estimate
from .projections import (METHODS, ProjectionConfig, proj_cp1_thresholded,
                          project_to_cptp)
from .simulate import SamplingPlan, sample, setting_count

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
    """One fully reproducible experiment.  Construction refuses what cannot run
    and expands the rest into ``points``, which ``==`` and the hash ignore."""

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
    projection: dict = field(default_factory=dict)
    threads: int = 1
    out_dir: Optional[str] = None
    emit_timings: bool = False
    format_version: int = 1

    def __post_init__(self):
        if self.format_version != 1 or type(self.format_version) is not int:
            raise ValueError(f"unsupported format_version {self.format_version!r}")
        _check_choice("experiment", self.experiment, EXPERIMENTS)
        _check_int("scenario", self.scenario, 1, 4)
        for name in ("channel", "projection"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be a mapping, got {getattr(self, name)!r}")
        # counts are plain ints: a float or bool would be truncated silently
        for name, low in (("k", 1), ("d", 2), ("n_shots", None)):
            if getattr(self, name) is not None:
                _check_int(name, getattr(self, name), low=low)
        for name in ("n_shots_list", "ranks", "k_list", "d_list", "methods"):
            if not isinstance(getattr(self, name), (list, tuple, type(None))):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        for name, low in (("n_shots_list", 1), ("ranks", 1), ("k_list", 1),
                          ("d_list", 2)):
            for i, value in enumerate(getattr(self, name) or ()):
                _check_int(f"{name}[{i}]", value, low=low)
        # a field no sweep point reads is refused, not ignored: the lists of
        # other experiments, and the field a swept entry sets in its place
        # (rank_sweep's "rank" is a channel key, refused in _sweep_points)
        sweeps = _SWEEPS.get(self.experiment, ())
        unread = {name for other in _SWEEPS.values() for name, _, _ in other}
        unread -= {name for name, _, _ in sweeps}
        unread |= {key for _, key, _ in sweeps}
        if self.experiment != "algo_comparison":
            unread.add("methods")
        for name in sorted(unread):
            if getattr(self, name, None) is not None:
                raise ValueError(f"{self.experiment} does not read {name}; remove it")
        _check_int("repetitions", self.repetitions, low=1)
        _check_int("seed", self.seed, low=0)
        _check_int("threads", self.threads, low=1)
        if not isinstance(self.out_dir, (str, type(None))):
            raise ValueError(f"out_dir must be a path string, got {self.out_dir!r}")
        if type(self.emit_timings) is not bool:
            raise ValueError(f"emit_timings must be a bool, got {self.emit_timings!r}")
        if self.k is not None and self.d is not None and 2 ** self.k != self.d:
            raise ValueError(f"k = {self.k} and d = {self.d} disagree: d must be 2**k")
        if self.k_list is not None and self.d_list is not None:
            raise ValueError("set k_list or d_list, not both")
        _check_choice("method", self.method, METHODS)
        if self.methods is not None and not self.methods:
            raise ValueError("methods is empty; omit it to run every method")
        for i, m in enumerate(self.methods or ()):
            _check_choice(f"methods[{i}]", m, METHODS)
        if self.methods and len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods lists a method twice: {self.methods!r}")
        # algo_comparison runs each of ``methods`` once, on one estimate
        for name, default in (("repetitions", 1), ("method", "HIPswitch")):
            if self.experiment == "algo_comparison" and getattr(self, name) != default:
                raise ValueError(f"algo_comparison does not read {name}; remove it")
        _check_keys("projection", self.projection,
                    [f.name for f in fields(ProjectionConfig)])
        self.projection_config()  # reject bad projection settings up front
        object.__setattr__(self, "points", _sweep_points(self))

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
    import yaml  # only a config file needs it; `import proctomo` stays lighter

    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a mapping")
    _check_keys("config file", data, [f.name for f in fields(ExperimentConfig)])
    return ExperimentConfig(**data)


def _check_keys(record: str, mapping: dict, keys) -> None:
    """Refuse a key of a config mapping that its record does not take."""
    for key in mapping:
        if key not in keys:
            raise ValueError(f"{record} takes no key {key!r}")


class SweepPoint(NamedTuple):
    k: Optional[int]             # qubit count, when the point sets it
    dim: int
    n_shots: int
    spec: ChannelSpec


# experiment -> the lists it may sweep: (field, the point value one entry
# sets, the shot budget when n_shots is unset); the rest run one point
_SWEEPS = {"sample_size_sweep": (("n_shots_list", "n_shots", None),),
           "rank_sweep": (("ranks", "rank", None),),
           "dimension_sweep": (("k_list", "k", lambda k: 10 * 9**k),
                               ("d_list", "d", lambda d: 100 * d**2))}
# config channel kind -> (ChannelSpec kind, the unitary it names, the keys it
# takes besides ``kind`` with their defaults); mixed_unitary's ``base`` key
# names its unitary
_CHANNEL_KINDS = {
    "identity": ("identity", None, {}),
    "qft": ("unitary", "qft", {}),
    "random_unitary": ("unitary", "random", {}),
    "noisy_qft": ("noisy_qft", None, {"measure_prob": 0.25}),
    "mixed_unitary": ("mixed_unitary", None, {"base": "identity", "rank": 1}),
}
# unitary name -> its dim x dim matrix; a Haar unitary is drawn from the seed
_UNITARIES = {"identity": lambda dim, seed: np.eye(dim),
              "qft": lambda dim, seed: qft_unitary(dim),
              "random": haar_unitary}


def _build_channel(channel: dict, dim: int, seed: int) -> ChannelSpec:
    """ChannelSpec of a channel mapping at one dimension through
    ``_CHANNEL_KINDS``; the values go to ChannelSpec as given."""
    kind = channel.get("kind", "identity")
    _check_choice("channel kind", kind, _CHANNEL_KINDS)
    spec_kind, unitary, keys = _CHANNEL_KINDS[kind]
    given = {key: value for key, value in channel.items() if key != "kind"}
    _check_keys(f"channel kind {kind!r}", given, keys)
    spec_fields = {**keys, **given}
    if "base" in spec_fields:
        unitary = spec_fields.pop("base")
        _check_choice("mixed_unitary base", unitary, _UNITARIES)
    if unitary is not None:
        spec_fields["unitary"] = _UNITARIES[unitary](dim, seed)
    return ChannelSpec(spec_kind, dim, **spec_fields)


def _sweep_points(cfg: ExperimentConfig) -> tuple:
    """Expand a validated config's fields into its sweep points; a dimension,
    channel, shot count or scheme the run cannot take raises here."""
    lists = _SWEEPS.get(cfg.experiment, ())
    swept = [sweep for sweep in lists if getattr(cfg, sweep[0])]
    if lists and not swept:
        raise ValueError(f"{cfg.experiment} needs {' or '.join(s[0] for s in lists)}")
    name, key, auto_shots = swept[0] if swept else (None, None, None)
    if not cfg.n_shots and key != "n_shots" and auto_shots is None:
        raise ValueError(f"{cfg.experiment} needs n_shots")
    channel = cfg.channel
    if key == "rank":
        if channel.get("kind", "mixed_unitary") != "mixed_unitary" or "rank" in channel:
            raise ValueError("rank_sweep needs channel kind mixed_unitary and no rank")
        channel = {**channel, "kind": "mixed_unitary"}
    points = []
    for i, value in enumerate(getattr(cfg, name) if name else (None,)):
        pt = {"k": cfg.k, "d": cfg.d, "n_shots": cfg.n_shots, "channel": channel}
        if auto_shots:  # the swept dimension replaces k and d
            pt.update(k=None, d=None)
            if cfg.n_shots is None:
                pt["n_shots"] = auto_shots(value)
        if key == "rank":
            pt["channel"] = {**channel, "rank": value}
        elif key:
            pt[key] = value
        if pt["d"] is None and pt["k"] is None:
            raise ValueError("config must set k or d")
        dim = pt["d"] if pt["d"] is not None else 2 ** pt["k"]
        if key == "rank":  # its type and lower bound were checked with the config
            _check_int(f"{name}[{i}]", value, 1, dim * dim)
        # setting_count refuses a Pauli dimension that is not 2^k and a
        # MUB dimension with no family
        plan = SamplingPlan(cfg.scheme, pt["n_shots"], cfg.seed)
        plan.shots_per_setting(setting_count(cfg.scenario, dim))
        points.append(SweepPoint(pt["k"], dim, pt["n_shots"],
                                 _build_channel(pt["channel"], dim, cfg.seed)))
    return tuple(points)


def _rep_seed(cfg: ExperimentConfig, point_idx: int, rep: int) -> int:
    seq = np.random.SeedSequence([cfg.seed, point_idx, rep])
    return int(seq.generate_state(1, np.uint64)[0])


def _run_repetition(cfg: ExperimentConfig, point: SweepPoint, point_idx: int,
                    rep: int, truth: ChoiMatrix, factor: np.ndarray,
                    rank: int) -> RunRecord:
    seed = _rep_seed(cfg, point_idx, rep)
    pcfg = cfg.projection_config()
    plan = SamplingPlan(cfg.scheme, point.n_shots, seed)

    # the frequency table is not kept past the estimate: at k = 5 it is
    # 483 MB, held through every later stage otherwise
    t0 = time.perf_counter()
    est = ls_estimate(sample(truth, cfg.scenario, plan))
    t_ls = time.perf_counter()

    errors = {"LS": distance(est.matrix, truth.matrix)}
    times = {"LS": (t_ls - t0) * 1e3}

    # each stage's clock starts after the previous stage's metrics
    t_cp1 = time.perf_counter()
    cp1, spectrum = proj_cp1_thresholded(est.matrix)
    times["CP1"] = (time.perf_counter() - t_cp1) * 1e3
    errors["CP1"] = _metrics(cp1, truth.matrix, factor)

    t_pls = time.perf_counter()
    pls, report = project_to_cptp(cp1, cfg.method, pcfg)
    times["PLS"] = (time.perf_counter() - t_pls) * 1e3
    errors["PLS"] = _metrics(pls.matrix, truth.matrix, factor)

    summary = {
        "method": cfg.method,
        "iterations": report.iterations,
        "proj_cp_calls": report.proj_cp_calls,
        "final_lambda_min": report.final_lambda_min,
        "mixing_p": report.mixing_p,
        "converged": report.converged,
        "cp1_rank": numerical_rank(spectrum),
        "cp1_spectrum": spectrum.tolist(),
    }
    point_desc = {"k": point.k, "d": point.dim, "n_shots": point.n_shots,
                  "channel": point.spec.label(), "rank": rank}
    return RunRecord(point=point_desc, repetition=rep, seed=seed, errors=errors,
                     wall_times_ms=times, projection=summary,
                     config_hash=cfg.config_hash())


def _metrics(mat: np.ndarray, truth: np.ndarray, factor: np.ndarray) -> dict:
    """A physical stage's errors; fidelity reads the truth's Kraus factor."""
    return {**distance(mat, truth), "fidelity": fidelity(factor, mat)}


def _algo_comparison(cfg: ExperimentConfig, point: SweepPoint, truth: ChoiMatrix):
    """Run every requested method from one shared first-stage estimate."""
    methods = cfg.methods or list(METHODS)
    seed = _rep_seed(cfg, 0, 0)
    plan = SamplingPlan(cfg.scheme, point.n_shots, seed)
    est = ls_estimate(sample(truth, cfg.scenario, plan))
    cp1, _ = proj_cp1_thresholded(est.matrix)
    rows = []
    reports = {}
    for method in methods:
        _, report = project_to_cptp(cp1, method, cfg.projection_config())
        reports[method] = report
        for it, (lam, mode, calls) in enumerate(report.trace):
            rows.append([method, it, mode, repr(float(lam)), calls])
    return rows, reports


def run(cfg: ExperimentConfig, out_dir: Optional[str] = None):
    """Execute a config; returns (records, reports) and writes the CSVs."""
    out = Path(out_dir or cfg.out_dir or default_out_dir())
    out.mkdir(parents=True, exist_ok=True)

    records: list[RunRecord] = []
    trace_rows = []
    reports = {}
    for idx, point in enumerate(cfg.points):
        kraus = make_channel(point.spec)
        truth = choi_from_kraus(kraus)
        factor = kraus_factor(kraus)
        rank = kraus_rank(kraus)
        if cfg.experiment == "algo_comparison":
            trace_rows, reports = _algo_comparison(cfg, point, truth)
            continue
        reps = range(cfg.repetitions)
        def repetition(r):
            return _run_repetition(cfg, point, idx, r, truth, factor, rank)
        if cfg.threads > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                recs = list(pool.map(repetition, reps))
        else:
            recs = [repetition(r) for r in reps]
        records.extend(recs)

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
