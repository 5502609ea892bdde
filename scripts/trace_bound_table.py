#!/usr/bin/env python3
"""Tabulate the inverse-trace bound slack for a family of shapes.

For each shape (256 boundary nodes) and contrast the table lists the
polarization-tensor trace, its eigenvalues, and the slack of the
inverse-trace bound.  Ellipses sit on the bound curve (slack at rounding
level); cornered and lobed shapes sit strictly inside.  Writes
trace_bound_table.csv to the output directory and exits 1 when
``bounds_verdict`` fails any shape at any contrast.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from inclab.acceptance import DISK, ELLIPSE21, ELLIPSE41, KITE, SQUARE, STAR3
from inclab.polarization import bound_gap_scan
from inclab.serialize import to_csv

SHAPES = [
    ("disk", DISK),
    ("ellipse 2:1", ELLIPSE21),
    ("ellipse 4:1", ELLIPSE41),
    ("square", SQUARE),
    ("kite", KITE),
    ("three-lobed star", STAR3),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--k", default="0.5,2,3,10",
        help="comma-separated conductivity contrasts",
    )
    parser.add_argument("--out", default="artifacts", help="output directory")
    args = parser.parse_args()
    ks = [float(tok) for tok in args.k.split(",") if tok]

    rows = []
    failed = []
    for k in ks:
        records = bound_gap_scan([shape for _, shape in SHAPES], k)
        for (name, _), rec in zip(SHAPES, records):
            if not rec["passed"]:
                failed.append(f"{name} at k = {k:g}")
            rows.append(
                {
                    "shape": name,
                    "k": k,
                    "tr_M": rec["tr_M"],
                    "eig_low": rec["eig_low"],
                    "eig_high": rec["eig_high"],
                    "slack2": rec["slack2"],
                    "saturated2": rec["saturated2"],
                }
            )

    header = ["shape", "k", "tr_M", "eig_low", "eig_high", "slack2", "saturated2"]
    table = to_csv(header, [[row[name] for name in header] for row in rows])
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "trace_bound_table.csv"), "w", encoding="utf-8") as fh:
        fh.write(table)

    banner = f"{'shape':<18} {'k':>6} {'tr M':>14} {'slack':>12}  saturated"
    print(banner)
    print("-" * len(banner))
    for row in rows:
        print(
            f"{row['shape']:<18} {row['k']:>6g} {row['tr_M']:>14.8f} "
            f"{row['slack2']:>12.3e}  {'yes' if row['saturated2'] else 'no'}"
        )
    print(f"\nwrote {os.path.join(args.out, 'trace_bound_table.csv')}")
    if failed:
        print(f"bounds_verdict failed: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
