"""Run the full indicator pipeline on a synthetic bubble panel.

A 500-stock geometric random walk is tilted so that 100 stocks drift up
strongly between two dates and then revert. The script normalizes prices
against a few reference dates, prints where the cross-sectional variance
peaks and where the tail exponent dips, and optionally writes the panel
plus the per-reference reports for inspection.

Usage:
    python3 scripts/synthetic_bubble_demo.py [--out-dir OUT]
"""

import argparse
from pathlib import Path

import numpy as np

from crossdisp import (
    DROP_AT_REF,
    KPolicy,
    analyze_panel,
    bubble_panel,
    write_price_panel,
    write_report,
)
from crossdisp.tails import LOCAL_MINIMUM

WINDOW = 20


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=20040102)
    ap.add_argument("--ref-rows", type=str, default="0,40,80",
                    help="comma-separated row indices used as reference dates")
    ap.add_argument("--out-dir", help="write panel CSV and JSON reports here")
    args = ap.parse_args(argv)

    panel = bubble_panel(seed=args.seed)
    boost_start = panel.dates[150]
    boost_end = panel.dates[260]
    print(f"panel: {len(panel.dates)} days x {len(panel.tickers)} stocks, "
          f"boost window {boost_start} .. {boost_end}")

    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_price_panel(panel, out_dir / "bubble_panel.csv")

    for row in (int(r) for r in args.ref_rows.split(",")):
        ref = panel.dates[row]
        report = analyze_panel(panel, ref, DROP_AT_REF, KPolicy(), WINDOW)
        disp = report.dispersion

        peak = disp.dates[int(np.nanargmax(disp.variance))]
        dips = [e for e in report.extremes if e.kind == LOCAL_MINIMUM]
        print(f"\nreference {ref}:")
        print(f"  dispersion peak      {peak} "
              f"(V = {np.nanmax(disp.variance):.4f})")
        for e in dips:
            print(f"  tail exponent dip    {e.date} (alpha = {e.value:.3f})")

        if out_dir is not None:
            path = out_dir / f"analysis_{ref.isoformat()}.json"
            write_report(report, path, fmt="json")
            print(f"  wrote {path}")


if __name__ == "__main__":
    main()
