#!/usr/bin/env python3
"""Tabulate the inverse-trace bound slack for a family of shapes.

For each shape (256 boundary nodes, one boundary solve for all contrasts)
and contrast the table lists the polarization-tensor trace, its
eigenvalues, and the slack of the inverse-trace bound.  Ellipses sit on the
bound curve (slack at rounding level); cornered and lobed shapes sit
strictly inside.  Writes trace_bound_table.csv to the output directory and
exits 1 when a record fails the rule of ``bound_gap_scan``: both bounds
hold, and the inverse-trace bound saturates exactly on the ellipses.  A
``--k`` that ``inclab`` refuses exits 2 naming it.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from inclab.acceptance import DISK, ELLIPSE21, ELLIPSE41, KITE, SQUARE, STAR3
from inclab.cli import _parse_contrasts
from inclab.errors import ConfigError
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
    try:
        ks = _parse_contrasts(args.k)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # the scan's records come contrast by contrast, one per shape
    records = bound_gap_scan([shape for _, shape in SHAPES], *ks)
    labels = [(name, k) for k in ks for name, _ in SHAPES]
    rows = [{"shape": name, "k": k, **rec} for (name, k), rec in zip(labels, records)]
    failed = [f"{row['shape']} at k = {row['k']:g}" for row in rows if not row["passed"]]

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
        print(f"bound gap scan failed: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
