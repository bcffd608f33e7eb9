#!/usr/bin/env python3
"""Run every experiment config in this directory.

Each config lands in its own subdirectory of --out-root (default
./proctomo_out/<config-name>).  Pass --only to run a subset.  Every selected
config is loaded before the first one runs, so an unknown stem or a bad
config exits 1 before any output exists.

BLAS runs one thread unless the caller sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS: a multithreaded BLAS reorders its
sums, so two runs' outputs are byte-identical only with the thread count
pinned.
"""

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

# before proctomo imports numpy, which reads these once at load
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from proctomo import cli, harness  # noqa: E402

HERE = Path(__file__).parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-root", default="proctomo_out")
    parser.add_argument("--only", nargs="*", default=None,
                        help="config stems to run, e.g. rank_sweep")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    configs = sorted(HERE.glob("*.yaml"))
    if args.only:
        unknown = sorted(set(args.only) - {c.stem for c in configs})
        if unknown:
            print(f"unknown config stems: {', '.join(unknown)}", file=sys.stderr)
            return 1
        configs = [c for c in configs if c.stem in args.only]
    if not configs:
        print("no configs selected", file=sys.stderr)
        return 1

    for cfg in configs:
        try:
            replace(harness.load_config(cfg), threads=args.threads)
        except Exception as exc:  # noqa: BLE001 - reported as the CLI does
            print(f"error: {cfg.name}: {exc}", file=sys.stderr)
            return 1

    for cfg in configs:
        out_dir = Path(args.out_root) / cfg.stem
        print(f"== {cfg.stem} -> {out_dir}")
        t0 = time.perf_counter()
        code = cli.main(["run", str(cfg), "--out-dir", str(out_dir),
                         "--threads", str(args.threads)])
        print(f"   done in {time.perf_counter() - t0:.1f}s (exit {code})")
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
