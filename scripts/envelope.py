#!/usr/bin/env python3
"""Measure one repetition at the top of each scenario's desk-scale envelope.

Points, each a `single_run` with HIPswitch:

* scenario 1 at k = 4 (`noisy_qft`) and scenarios 3 and 4 at d = 16
  (`mixed_unitary` qft rank 2), random scheme, N = 10^7;
* scenario 2 at k = 4 (`noisy_qft`), fixed scheme, N = 95 * 104,976: 95
  shots for each of its 104,976 settings, drawn as one multinomial row each.

Each point runs in a fresh process, so its peak resident set is its own,
and prints one JSON line: the point, the stage wall times of its
`RunRecord` (`LS` is sampling plus the LS estimate), the projection's
`proj_cp_calls` and the process's peak RSS in MB.

    python scripts/envelope.py

BLAS runs one thread unless the caller sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS.  The whole run takes about 11 s on a
2-core machine.
"""

import json
import multiprocessing
import os
import resource
import sys
import tempfile

from proctomo.harness import ExperimentConfig, run

_MIXED = {"kind": "mixed_unitary", "base": "qft", "rank": 2}
POINTS = [
    {"scenario": 1, "k": 4, "channel": {"kind": "noisy_qft", "measure_prob": 0.25}},
    {"scenario": 3, "d": 16, "channel": _MIXED},
    {"scenario": 4, "d": 16, "channel": _MIXED},
    {"scenario": 2, "k": 4, "channel": {"kind": "noisy_qft", "measure_prob": 0.25},
     "scheme": "fixed", "n_shots": 95 * 3**8 * 2**4},
]
N_SHOTS = 10**7


def measure(point: dict) -> dict:
    """Run one repetition at ``point`` in this process and report it; the
    point's own ``n_shots`` replaces N_SHOTS."""
    cfg = ExperimentConfig(experiment="single_run", method="HIPswitch",
                           repetitions=1, seed=1, **{"n_shots": N_SHOTS, **point})
    with tempfile.TemporaryDirectory() as out:
        (record,), _ = run(cfg, out)
    return {"point": point,
            "wall_times_ms": record.wall_times_ms,
            "proj_cp_calls": record.projection["proj_cp_calls"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main() -> int:
    # inherited by the spawned workers, which import numpy afresh
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    ctx = multiprocessing.get_context("spawn")
    for point in POINTS:
        with ctx.Pool(1) as pool:
            print(json.dumps(pool.apply(measure, (point,))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
