#!/usr/bin/env python3
"""Byte-compare the CSV outputs of two scripts/run_all.py output roots.

    python scripts/compare_outputs.py OLD_ROOT NEW_ROOT

For every config subdirectory under either root, compares ``errors.csv`` and
``lambda_trace.csv``.  A file that exists under one root only counts as a
difference.  Exits 0 when everything matches; otherwise prints the first
file and line that differ and exits 1.
"""

import argparse
import sys
from pathlib import Path

FILES = ("errors.csv", "lambda_trace.csv")


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
    compared = 0
    for config in configs:
        for name in FILES:
            old = args.old_root / config / name
            new = args.new_root / config / name
            if not old.exists() and not new.exists():
                continue
            reason = first_difference(old, new)
            if reason:
                print(f"DIFFER {reason}")
                return 1
            compared += 1
    print(f"identical: {compared} files in {len(configs)} configs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
