"""Span tracing of proctomo's layers from outside the package.

The tracer replaces public functions where their callers look them up (the
names ``proctomo.harness`` imported, the module globals the projection loops
call, and ``numpy.linalg.eigh``/``eigvalsh``) with wrappers that record a
span per call.  Spans stay in memory until the run writes them out.  Every
eigendecomposition is itself a span, charged to the innermost open span.

Time conventions for the per-layer metrics: ``.ms`` is the inclusive time of
the calls, except ``simulate.sample.ms``, ``estimators.ls_estimate.ms`` and
``harness.run.self_ms``, which are self time: the span's duration minus the
time its traced children cover (eigendecompositions are not subtracted).
``.eig`` counts eigendecompositions inside the call; ``harness.run.eig``
counts only those the harness makes itself.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from workloads import METHODS

KERNELS = ("linalg.eigh", "linalg.eigvalsh")
TRUTH = ("channels.make_channel", "channels.choi_from_kraus", "channels.kraus_rank")
SELF_TIMED = ("simulate.sample", "estimators.ls_estimate")


class Tracer:
    """Collects spans: [name, parent index, operation, start ns, end ns, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        span = [name, self._stack[-1] if self._stack else None, self.op,
                time.perf_counter_ns(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[4] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if on_return is not None:
                span[5] = on_return(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced functions in for the duration of the block."""
        import numpy.linalg
        from proctomo import designs, estimators, harness, projections, simulate

        patches = [(numpy.linalg, attr, f"linalg.{attr}", None)
                   for attr in ("eigh", "eigvalsh")]
        for attr in ("sample", "ls_estimate", "proj_cp1_thresholded",
                     "project_to_cptp", "distance", "fidelity", "make_channel",
                     "choi_from_kraus", "kraus_rank"):
            layer = getattr(harness, attr).__module__.rsplit(".", 1)[-1]
            patches.append((harness, attr, f"{layer}.{attr}",
                            _projection_attrs if attr == "project_to_cptp" else None))
        for attr in ("hip_inner", "proj_tp", "depolarizing_finalize"):
            patches.append((projections, attr, f"projections.{attr}", None))

        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _, _ in patches]
        mub_family = designs.mub_family
        mub_users = (designs, simulate, estimators)
        saved += [(mod, "mub_family", mub_family) for mod in mub_users]
        try:
            for obj, attr, name, on_return in patches:
                setattr(obj, attr, self.wrap(name, getattr(obj, attr), on_return))
            traced_mub = self.wrap("designs.mub_family", mub_family)
            for mod in mub_users:
                mod.mub_family = traced_mub
            yield
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)


def _projection_attrs(args, kwargs, result):
    _, report = result
    return {"method": args[1] if len(args) > 1 else kwargs.get("method", "HIPswitch"),
            "iterations": report.iterations, "proj_cp_calls": report.proj_cp_calls}


def layer_metrics(spans: list[list], n_ops: int) -> dict:
    """Per-operation totals by layer, from the spans of ``n_ops`` operations."""
    n = len(spans)
    dur = [(s[4] - s[3]) / 1e6 for s in spans]
    child_ms = [0.0] * n        # traced non-kernel children
    self_eig = [0] * n
    incl_eig = [0] * n
    for i in range(n - 1, -1, -1):   # children follow their parent
        parent = spans[i][1]
        if parent is None:
            continue
        if spans[i][0] in KERNELS:
            self_eig[parent] += 1
            incl_eig[parent] += 1
        else:
            child_ms[parent] += dur[i]
            incl_eig[parent] += incl_eig[i]

    tot = defaultdict(float)
    for i, (name, _, _, _, _, attrs) in enumerate(spans):
        keys = [name]
        if name in TRUTH:
            keys.append("channels.truth")
        if attrs and "method" in attrs:
            keys.append(f"{name}.{attrs['method']}")
            for key in keys:
                tot[f"{key}.iterations"] += attrs["iterations"]
                tot[f"{key}.proj_cp_calls"] += attrs["proj_cp_calls"]
        for key in keys:
            tot[f"{key}.calls"] += 1
            tot[f"{key}.ms"] += dur[i]
            tot[f"{key}.eig"] += incl_eig[i]
            tot[f"{key}.self_ms"] += dur[i] - child_ms[i]
            tot[f"{key}.self_eig"] += self_eig[i]

    def per_op(key):
        return tot[key] / n_ops

    out = {"designs.mub_family.calls": per_op("designs.mub_family.calls"),
           "designs.mub_family.ms": per_op("designs.mub_family.ms")}
    for name in SELF_TIMED:
        out[f"{name}.ms"] = per_op(f"{name}.self_ms")
    for name in ("projections.proj_cp1_thresholded", "projections.depolarizing_finalize",
                 "channels.distance", "channels.fidelity"):
        out[f"{name}.ms"] = per_op(f"{name}.ms")
        out[f"{name}.eig"] = per_op(f"{name}.eig")
    cptp = "projections.project_to_cptp"
    for suffix in ("ms", "eig", "iterations", "proj_cp_calls"):
        out[f"{cptp}.{suffix}"] = per_op(f"{cptp}.{suffix}")
    out["projections.hip_inner.ms"] = per_op("projections.hip_inner.ms")
    out["projections.hip_inner.calls"] = per_op("projections.hip_inner.calls")
    out["projections.proj_tp.ms"] = per_op("projections.proj_tp.ms")
    for method in METHODS:
        for suffix in ("ms", "eig", "iterations"):
            out[f"{cptp}.{method}.{suffix}"] = per_op(f"{cptp}.{method}.{suffix}")
    out["channels.truth.ms"] = per_op("channels.truth.ms")
    out["harness.run.self_ms"] = per_op("harness.run.self_ms")
    out["harness.run.eig"] = per_op("harness.run.self_eig")
    for name in KERNELS:
        out[f"{name}.calls"] = per_op(f"{name}.calls")
        out[f"{name}.ms"] = per_op(f"{name}.ms")
    out["harness.run.ms"] = per_op("harness.run.ms")
    return out
