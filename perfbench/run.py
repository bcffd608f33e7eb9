#!/usr/bin/env python3
"""proctomo benchmark: closed-loop ``proctomo.harness.run`` operations.

    python3 perfbench/run.py --workload pauli-k4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One process, one client, harness ``threads=1``, one BLAS thread.  An
operation is one ``harness.run`` call on the workload's config with a seed
derived from ``--seed``; its CSV outputs are checked.  With
``--trace 0`` the end-to-end metrics are measured; with ``--trace 1`` a fixed
set of operations runs both untraced and traced (alternating) and the traced
spans give the per-layer metrics.  ``--workload all`` runs every workload in
both modes.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the metrics it holds are those
named in BENCHMARK.json.  A fuller record, with the environment, the seeds
and the output digests, is written under perfbench/.out/.

The program is imported from ``src/`` of the checkout this file sits in; the
benchmark exits with code 2 when that source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, check_output, op_config, op_seed, output_digest

SETUP_RUNS = 3          # set-ups per untraced run; setup_s is their median
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS runs one thread unless the caller sets these.  On a shared two-core
# machine a second thread made an operation about 15% faster but its time
# several times noisier from run to run.
PINNED_THREAD_VARS = THREAD_VARS[:3]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)   # child process: one set-up only
    return parser.parse_args(argv)


def _import_harness():
    sys.path.insert(0, str(SRC))
    harness = importlib.import_module("proctomo.harness")
    if Path(harness.__file__).resolve().parent != SRC / "proctomo":
        raise ImportError(f"proctomo was imported from {harness.__file__}, "
                          f"not from {SRC}")
    return harness


def _run_op(harness, workload, seed, index, out_dir, tracer=None):
    """One harness.run call, timed and checked; never raises."""
    for stale in ("errors.csv", "lambda_trace.csv", "run_records.json"):
        (out_dir / stale).unlink(missing_ok=True)
    op = {"index": index, "seed": op_seed(workload.name, seed, index)}
    cfg = harness.ExperimentConfig(**op_config(workload, seed, index, out_dir))
    if tracer:
        tracer.op = index
    install = tracer.installed() if tracer else contextlib.nullcontext()
    root = tracer.span("harness.run") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with install, root:
            records, reports = harness.run(cfg)
        op["ms"] = (time.perf_counter() - t0) * 1e3
        op["problem"], op["pls_trace"] = check_output(workload, out_dir)
        op["digest"] = output_digest(out_dir)
        summaries = ([rec.projection for rec in records]
                     + [vars(rep) for rep in reports.values()])
        op["nonconverged"] = not all(s["converged"] for s in summaries)
        op["cp_projections"] = sum(s["proj_cp_calls"] for s in summaries)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted
        op.update(ms=(time.perf_counter() - t0) * 1e3,
                  problem=f"{type(exc).__name__}: {exc}", pls_trace=None,
                  digest={}, nonconverged=False, cp_projections=0)
    return op


def _setup(workload, seed, out_dir):
    """Import proctomo and run the untimed warm-up operation (index 0)."""
    t0 = time.perf_counter()
    harness = _import_harness()
    warm = _run_op(harness, workload, seed, 0, out_dir)
    return time.perf_counter() - t0, harness, warm


def _setup_probe(workload, seed):
    """Set-up in a fresh process, so import time is measured cold each time."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed),
         "--setup-probe"], capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND
    if k < 1:
        return statistics.median(xs), 50.0
    return xs[k - 1], 100.0 * k / len(xs)


def _blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "blas": {key: blas.get(key) for key in ("name", "version",
                                                  "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


UNITS = {"setup_s": "s", "cp_projections_per_op": "count", "peak_rss_mb": "MB",
         "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
         "op_ms_tail_pct": "%", "timed_ops": "count",
         "fail_frac": "frac", "nonconverged_frac": "frac",
         "pls_trace_err_p50": "trace-dist", "trace.overhead_frac": "frac"}


def _unit(name):
    return UNITS.get(name, "ms" if name.endswith("ms") else "count")


def _measure(workload, seed, seconds, out_dir):
    """Untraced run: set-ups, then operations until ``seconds`` have passed."""
    probes = [_setup_probe(workload, seed) for _ in range(SETUP_RUNS - 1)]
    setup_s, harness, warm = _setup(workload, seed, out_dir)
    ops = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        ops.append(_run_op(harness, workload, seed, len(ops) + 1, out_dir))
    wall = time.perf_counter() - start

    ms = [op["ms"] for op in ops]
    tail, tail_pct = _tail(ms)
    checked = [warm] + ops
    metrics = {
        "setup_s": statistics.median([setup_s] + [p["setup_s"] for p in probes]),
        "cp_projections_per_op": statistics.fmean(op["cp_projections"] for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": len(ops) / wall,
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail,
        "op_ms_tail_pct": tail_pct,
        "timed_ops": len(ops),
        "fail_frac": sum(bool(op["problem"]) for op in checked) / len(checked),
        "nonconverged_frac": sum(op["nonconverged"] for op in ops) / len(ops),
    }
    pls = [op["pls_trace"] for op in ops if op["pls_trace"] is not None]
    if pls:
        metrics["pls_trace_err_p50"] = statistics.median(pls)
    mismatches = [f"set-up probe digest {p['digest']} != {warm['digest']}"
                  for p in probes if p["digest"] != warm["digest"]]
    record = {"setup_runs_s": [setup_s] + [p["setup_s"] for p in probes]}
    return metrics, checked, mismatches, record, None


def _traced(workload, seed, out_dir):
    """Traced run: each of a fixed set of operations runs untraced and traced."""
    _, harness, warm = _setup(workload, seed, out_dir)
    tracer = Tracer()
    plain, traced = [], []
    for index in range(1, workload.trace_ops + 1):
        order = (False, True) if index % 2 else (True, False)
        for use_tracer in order:
            op = _run_op(harness, workload, seed, index, out_dir,
                         tracer if use_tracer else None)
            (traced if use_tracer else plain).append(op)

    metrics = layer_metrics(tracer.spans, len(traced))
    metrics["trace.overhead_frac"] = (sum(op["ms"] for op in traced)
                                      / sum(op["ms"] for op in plain) - 1.0)
    checked = [warm] + plain + traced
    mismatches = [f"op {a['index']}: traced output differs from untraced"
                  for a, b in zip(plain, traced) if a["digest"] != b["digest"]]
    return metrics, checked, mismatches, {}, tracer.spans


def _run_workload(args, spec):
    workload = WORKLOADS[args.workload]
    out_dir = OUT / f"{workload.name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup_s, _, warm = _setup(workload, args.seed, out_dir)
            print(json.dumps({"setup_s": setup_s, "digest": warm["digest"]}))
            return 0
        load_start = os.getloadavg()
        started = time.time()
        if args.trace:
            metrics, checked, mismatches, record, spans = _traced(
                workload, args.seed, out_dir)
        else:
            metrics, checked, mismatches, record, spans = _measure(
                workload, args.seed, args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    problems = [f"op {op['index']}: {op['problem']}"
                for op in checked if op["problem"]] + mismatches

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record.update(
        workload=workload.name, config=workload.config,
        seed=args.seed, seconds=args.seconds, trace=args.trace, started=started,
        loadavg_start=load_start, loadavg_end=os.getloadavg(),
        environment=_environment(), ops=checked, problems=problems,
        metrics={name: {"value": val, "unit": _unit(name)}
                 for name, val in metrics.items()})
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(
            {"columns": ["name", "parent", "op", "start_ns", "end_ns", "attrs"],
             "spans": spans}) + "\n")

    print(f"proctomo benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}, {len(checked)} operations checked")
    for name, val in metrics.items():
        print(f"  {name:<48s} {val:>14.6g} {_unit(name)}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(f"  record: {(OUT / f'{tag}.json').relative_to(ROOT)}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not problems,
        "attempted": len(checked),
        "failed": sum(bool(op["problem"]) for op in checked),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


def _run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{name}.{key}": val
                                     for key, val in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    for var in PINNED_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (SRC / "proctomo" / "__init__.py").is_file():
        print(f"error: no proctomo source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
