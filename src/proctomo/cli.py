"""Command-line interface.

    proctomo run <config.yaml> [--seed N] [--threads N] [--out-dir DIR]
                               [--method M] [--epsilon E] [--timings]
    proctomo verify <suite>    [--out-dir DIR]   (suite 'list' prints the names)
    proctomo inspect <file.csv>

Exit codes: 0 success, 2 acceptance failure, 1 error.  The default output
directory is $PROCTOMO_OUT_DIR, falling back to ./proctomo_out.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path
from statistics import median

from . import harness, verification


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proctomo",
                                     description="process tomography experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="YAML config file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--threads", type=int, default=None)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--method", default=None, help="projection method override")
    p_run.add_argument("--epsilon", type=float, default=None,
                       help="projection stopping tolerance override")
    p_run.add_argument("--timings", action="store_true",
                       help="emit wall times in errors.csv (breaks rerun "
                            "byte-identity)")

    p_ver = sub.add_parser("verify", help="run an acceptance suite")
    p_ver.add_argument("suite", help="suite name or 'all'; 'list' prints the "
                                     "suite names")
    p_ver.add_argument("--out-dir", default=None)

    p_ins = sub.add_parser("inspect", help="summarize an output CSV")
    p_ins.add_argument("csv", help="errors.csv or lambda_trace.csv")
    return parser


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.method is not None:
        overrides["method"] = args.method
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.timings:
        overrides["emit_timings"] = True
    if args.epsilon is not None:
        overrides["projection"] = {**cfg.projection, "epsilon": args.epsilon}
    if overrides:
        cfg = replace(cfg, **overrides)
    out_dir = cfg.out_dir or harness.default_out_dir()
    records, reports = harness.run(cfg, out_dir=out_dir)
    print(f"wrote {len(records)} records to {out_dir} "
          f"(config hash {cfg.config_hash()})")
    for line in _convergence_lines(records, reports):
        print(line)
    return 0


def _convergence_lines(records, reports) -> list[str]:
    """One line per sweep point (median stage times, convergence and mixing
    over its repetitions), or per method of an algo_comparison run."""
    lines = []
    for method, rep in reports.items():
        lines.append(f"  {method}: iterations {rep.iterations}, proj_cp_calls "
                     f"{rep.proj_cp_calls}, final lambda_min "
                     f"{rep.final_lambda_min:.3e}, converged {rep.converged}")
    points = {}
    for rec in records:
        points.setdefault(tuple(rec.point.values()), []).append(rec)
    for recs in points.values():
        pt = recs[0].point
        stages = " ".join(
            f"{stage} {median(r.wall_times_ms[stage] for r in recs):.1f}"
            for stage in ("LS", "CP1", "PLS"))
        proj = [r.projection for r in recs]
        lines.append(
            f"  d={pt['d']} rank={pt['rank']} N={pt['n_shots']}: {len(recs)} reps, "
            f"median ms {stages}, "
            f"{sum(not s['converged'] for s in proj)} not converged, "
            f"max p {max(s['mixing_p'] for s in proj):.3e}, "
            f"median proj_cp_calls {median(s['proj_cp_calls'] for s in proj):g}")
    return lines


def _cmd_verify(args) -> int:
    if args.suite == "list":
        print("\n".join(sorted(verification.SUITES)))
        return 0
    results = verification.run_suite(args.suite)
    for res in results:
        print(res.line())
    out_dir = Path(args.out_dir or harness.default_out_dir())
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "verify_report.json"
    verification.write_report(results, report_path)
    print(f"report: {report_path}")
    return 0 if all(r.passed for r in results) else 2


def _cmd_inspect(args) -> int:
    path = Path(args.csv)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header is None:
        raise ValueError(f"{path} is empty")
    errors = {"stage", "metric", "value"} <= set(header)
    if not errors and not {"method", "lambda_min"} <= set(header):
        raise ValueError(f"{path} is neither an errors.csv nor a lambda_trace.csv")
    print(f"{path}: {len(rows)} rows, columns: {', '.join(header)}")
    if errors:
        vi = header.index("value")
        si = header.index("stage")
        mi = header.index("metric")
        groups = {}
        for row in rows:
            groups.setdefault((row[si], row[mi]), []).append(float(row[vi]))
        for (stage, metric), vals in sorted(groups.items()):
            lo, hi = min(vals), max(vals)
            print(f"  {stage:>4s} {metric:<10s} n={len(vals):<4d} "
                  f"min={lo:.4g} max={hi:.4g}")
    else:
        li = header.index("lambda_min")
        mi = header.index("method")
        groups = {}
        for row in rows:
            groups.setdefault(row[mi], []).append(float(row[li]))
        for method, vals in sorted(groups.items()):
            print(f"  {method:<10s} iterations={len(vals):<5d} "
                  f"final_lambda_min={vals[-1]:.3e}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
