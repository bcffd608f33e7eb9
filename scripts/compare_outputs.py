#!/usr/bin/env python3
"""Compare the outputs of two scripts/run_all.py output roots.

    python scripts/compare_outputs.py OLD_ROOT NEW_ROOT

For every config subdirectory under either root, byte-compares
``errors.csv`` and ``lambda_trace.csv``, and compares the ``records`` of
``run_records.json`` with their ``wall_times_ms`` left out (its ``config``
holds the output directory, so it is not compared).  A ``verify_report.json``
in a subdirectory, as ``proctomo verify all --out-dir ROOT/verify`` writes
it, is compared by its top-level ``passed`` and each check's ``name``,
``passed`` and ``details``, with ``seconds`` left out.  A file that exists
under one root only counts as a difference.  Exits 0 when everything
matches; otherwise prints the first difference, then one line per differing
file, and exits 1.  For a CSV that line gives the number of differing rows
and the largest relative change in its numeric column (``value`` or
``lambda_min``), and under it comes one indented line per group of
differing rows, with the same two figures: per (stage, metric) for
``errors.csv`` and per method for ``lambda_trace.csv``.  For
``run_records.json`` it gives the number of differing records and the
dotted paths of the fields that differ in any of them, e.g.
``40 records differ: errors.CP1.fidelity, errors.PLS.fidelity``; a list
such as ``projection.cp1_spectrum`` counts as one field.  For a verify report
it gives the dotted paths that differ, keyed by check name, e.g.
``verify report differs: checks.two-design.details.worst_defect``.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

RECORDS = "run_records.json"
REPORT = "verify_report.json"
FILES = ("errors.csv", "lambda_trace.csv", RECORDS, REPORT)
NUMERIC = ("value", "lambda_min")
GROUP_BY = ("stage", "metric", "method")


def first_difference(old: Path, new: Path):
    """None if the two files hold the same bytes, else a one-line reason."""
    if not old.exists() or not new.exists():
        return f"{new if old.exists() else old}: missing"
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return None
    la, lb = a.splitlines(keepends=True), b.splitlines(keepends=True)
    for line, (x, y) in enumerate(zip(la, lb), start=1):
        if x != y:
            break
    else:
        line = min(len(la), len(lb)) + 1
    return f"{new}: line {line} differs from {old}"


def differing_paths(a, b, prefix: str = "") -> list:
    """Dotted paths of the leaves where two JSON values differ, descending
    into mappings only; a key on one side alone is a differing leaf."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [path for key in sorted(set(a) | set(b))
                for path in (differing_paths(a[key], b[key], f"{prefix}{key}.")
                             if key in a and key in b else [f"{prefix}{key}"])]
    same = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    return [] if same else [prefix[:-1]]


def records_difference(old: Path, new: Path):
    """None if the two run records agree once wall times are dropped, else a
    one-line count of the differing records and the fields that differ."""
    if not old.exists() or not new.exists():
        return f"{new if old.exists() else old}: missing"
    recs = []
    for path in (old, new):
        records = json.loads(path.read_text(encoding="utf-8"))["records"]
        recs.append([{k: v for k, v in rec.items() if k != "wall_times_ms"}
                     for rec in records])
    differing = abs(len(recs[0]) - len(recs[1]))
    paths = set()
    for x, y in zip(*recs):
        moved = differing_paths(x, y)
        differing += bool(moved)
        paths.update(moved)
    if not differing:
        return None
    fields = f": {', '.join(sorted(paths))}" if paths else ""
    return f"{new}: {differing} records differ{fields}"


def report_difference(old: Path, new: Path):
    """None if the two verify reports agree once each check's ``seconds`` is
    dropped, else a one-line list of the paths that differ."""
    if not old.exists() or not new.exists():
        return f"{new if old.exists() else old}: missing"
    views = []
    for path in (old, new):
        payload = json.loads(path.read_text(encoding="utf-8"))
        checks = {c["name"]: {"passed": c["passed"], "details": c["details"]}
                  for c in payload["checks"]}
        views.append({"passed": payload["passed"], "checks": checks})
    moved = differing_paths(*views)
    return f"{new}: verify report differs: {', '.join(moved)}" if moved else None


def relative_change(x: list, y: list, col) -> float:
    """|b - a| / |a| for the numeric column of two rows; 0 if it does not
    parse in both."""
    try:
        a, b = float(x[col]), float(y[col])
    except (IndexError, TypeError, ValueError):
        return 0.0
    return abs(b - a) / abs(a) if a else (math.inf if b else 0.0)


def row_changes(old: Path, new: Path) -> list:
    """Differing rows of two CSVs and the largest relative change of the
    numeric column over the rows that differ but still parse: one summary
    line, then one line per group of differing rows, keyed by the old row's
    ``GROUP_BY`` columns in order of first appearance."""
    rows = []
    for path in (old, new):
        with open(path, newline="", encoding="utf-8") as fh:
            rows.append(list(csv.reader(fh)))
    header = rows[0][0] if rows[0] else []
    name = next((c for c in NUMERIC if c in header), None)
    col = header.index(name) if name else None
    keys = [header.index(c) for c in GROUP_BY if c in header]
    differing = abs(len(rows[0]) - len(rows[1]))
    worst = 0.0
    groups = {}
    for x, y in zip(*rows):
        if x == y:
            continue
        differing += 1
        rel = relative_change(x, y, col)
        worst = max(worst, rel)
        key = " ".join(x[i] for i in keys if i < len(x))
        count, most = groups.get(key, (0, 0.0))
        groups[key] = (count + 1, max(most, rel))
    change = f"largest relative change in {name} {worst:.3e}" if name else "no numeric column"
    lines = [f"{new}: {differing} rows differ, {change}"]
    if name and keys:
        lines += [f"  {key}: {count} rows differ, largest relative change {most:.3e}"
                  for key, (count, most) in groups.items()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    args = parser.parse_args(argv)

    configs = sorted({p.parent.name
                      for root in (args.old_root, args.new_root)
                      for name in FILES for p in root.glob(f"*/{name}")})
    if not configs:
        print(f"no {' or '.join(FILES)} under {args.old_root} or {args.new_root}",
              file=sys.stderr)
        return 1
    compare = {RECORDS: records_difference, REPORT: report_difference}
    compared = 0
    differing = []
    for config in configs:
        for name in FILES:
            old = args.old_root / config / name
            new = args.new_root / config / name
            if not old.exists() and not new.exists():
                continue
            reason = compare.get(name, first_difference)(old, new)
            if reason:
                if not differing:
                    print(f"DIFFER {reason}")
                differing.append((old, new, reason))
            compared += 1
    if differing:
        for old, new, reason in differing:
            rows = old.suffix == ".csv" and old.exists() and new.exists()
            for line in row_changes(old, new) if rows else [reason]:
                print(f"  {line}")
        return 1
    print(f"identical: {compared} files in {len(configs)} configs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
