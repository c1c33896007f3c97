#!/usr/bin/env python3
"""Structural diff of hcs scenario reports (or any two JSON files).

Strings, booleans, nulls, keys and array lengths must match exactly;
numbers match exactly by default, or within --rtol/--atol when given (CI
compares cross-compiler/cross-libm runs against the committed golden with a
tiny rtol, so a last-ulp libm difference doesn't fail the build while any
real regression does).  --ignore skips one path in the diff's own notation
(e.g. `$.config.run.jobs`, the echoed thread count, when a run at another
job count is checked against a golden recorded serially).

Exit status: 0 = match, 1 = mismatch, 2 = usage/IO error.
"""

import argparse
import json
import math
import sys


def compare(a, b, path, rtol, atol, diffs, limit=20, ignore=frozenset()):
    if len(diffs) >= limit or path in ignore:
        return
    if type(a) is not type(b) and not (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
        and not isinstance(a, bool) and not isinstance(b, bool)
    ):
        diffs.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
        return
    if isinstance(a, dict):
        for key in a.keys() | b.keys():
            if key not in a:
                diffs.append(f"{path}.{key}: only in second file")
            elif key not in b:
                diffs.append(f"{path}.{key}: only in first file")
            else:
                compare(a[key], b[key], f"{path}.{key}", rtol, atol, diffs,
                        limit, ignore)
    elif isinstance(a, list):
        if len(a) != len(b):
            diffs.append(f"{path}: array length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{path}[{i}]", rtol, atol, diffs, limit, ignore)
    elif isinstance(a, bool) or a is None or isinstance(a, str):
        if a != b:
            diffs.append(f"{path}: {a!r} != {b!r}")
    else:  # number
        if a == b:
            return
        if math.isclose(a, b, rel_tol=rtol, abs_tol=atol):
            return
        diffs.append(f"{path}: {a!r} != {b!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly produced report")
    parser.add_argument("golden", help="committed golden report")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative tolerance for numbers (default exact)")
    parser.add_argument("--atol", type=float, default=0.0,
                        help="absolute tolerance for numbers (default exact)")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="PATH",
                        help="skip this path, e.g. $.config.run.jobs "
                             "(repeatable)")
    args = parser.parse_args()

    try:
        with open(args.current) as f:
            current = json.load(f)
        with open(args.golden) as f:
            golden = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"report_diff: {e}", file=sys.stderr)
        return 2

    diffs = []
    compare(current, golden, "$", args.rtol, args.atol, diffs,
            ignore=frozenset(args.ignore))
    if diffs:
        print(f"report_diff: {args.current} deviates from {args.golden}:")
        for d in diffs:
            print(f"  {d}")
        if len(diffs) >= 20:
            print("  ... (truncated)")
        return 1
    print(f"report_diff: {args.current} matches {args.golden}"
          + (f" (rtol={args.rtol:g}, atol={args.atol:g})"
             if args.rtol or args.atol else " (exact)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
