"""Command-line interface.

Subcommands:
  analyze   dispersion series, tail series and extreme events for one
            reference date
  survival  survival-curve step points for one cross-section
  simulate  Monte Carlo dispersion of a correlated Gaussian universe
  sweep     the analyze pipeline across several reference dates

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical or
feasibility error. Output is deterministic: repeating an invocation with
the same arguments (and seed) yields byte-identical files and stdout,
regardless of --workers.
"""

from __future__ import annotations

import argparse
import datetime as dt
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .io import (
    AnalysisReport,
    RhoSweepRow,
    RhoSweepTable,
    _write_text,
    load_price_panel,
    render_report,
    to_document,
    tref_sweep,
    write_report,
    first_trading_day_per_year,
)
from .panel import (
    DROP_AT_REF,
    MISSING_DATA_POLICIES,
    dispersion_series,
    normalize_panel,
    survival_curve,
)
from .simulate import SimConfig, simulate_dispersion, validate_feasibility
from .tails import KPolicy, detect_extremes, hill_k_sweep, tail_series
from .theory import CorrelationSpec, equicorrelation_expected_dispersion

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

RHO_GRID = tuple(i / 5.0 - 1.0 for i in range(11))  # -1.0, -0.8, ..., 1.0


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; the contract reserves 2
    # for data errors, so usage failures are remapped to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _iso_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an ISO date: {text!r}") from None


def _date_list(text: str) -> list[dt.date]:
    return [_iso_date(part) for part in text.split(",") if part.strip()]


def _year_list(text: str) -> list[int]:
    years: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            years.extend(range(int(lo), int(hi) + 1))
        else:
            years.append(int(part))
    if not years:
        raise argparse.ArgumentTypeError("no years given")
    return years


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned integer")
    return value


def _k_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("must lie strictly between 0 and 1")
    return value


def _window(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _rho(text: str) -> float:
    value = float(text)
    if not -1.0 <= value <= 1.0:  # also rejects NaN
        raise argparse.ArgumentTypeError("must lie in [-1, 1]")
    return value


def _sigma(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crossdisp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    analyze = sub.add_parser("analyze", help="dispersion, tails and extremes for one reference date")
    analyze.add_argument("panel", help="price panel CSV")
    analyze.add_argument("--tref", type=_iso_date, required=True, help="reference date (ISO)")
    analyze.add_argument("--k-fraction", type=_k_fraction, default=0.10,
                         help="fraction of the cross-section used as Hill order statistics")
    analyze.add_argument("--window", type=_window, default=20,
                         help="half-width for extreme detection on the tail series")
    analyze.add_argument("--policy", choices=MISSING_DATA_POLICIES, default=DROP_AT_REF)
    analyze.add_argument("--out", help="output path (default: JSON to stdout)")
    analyze.add_argument("--format", choices=("csv", "json"), default="json")
    analyze.set_defaults(func=cmd_analyze)

    survival = sub.add_parser("survival", help="survival-curve step points for one date")
    survival.add_argument("panel", help="price panel CSV")
    survival.add_argument("--tref", type=_iso_date, required=True)
    survival.add_argument("--date", type=_iso_date, required=True,
                          help="cross-section date (ISO)")
    survival.add_argument("--policy", choices=MISSING_DATA_POLICIES, default=DROP_AT_REF)
    survival.add_argument("--out", help="output path (default: CSV to stdout)")
    survival.add_argument("--format", choices=("csv", "json"), default="csv")
    survival.add_argument("--hill-sweep", metavar="PATH",
                          help="also write a (k, alpha) Hill diagnostic CSV for this date")
    survival.set_defaults(func=cmd_survival)

    simulate = sub.add_parser("simulate", help="Monte Carlo cross-sectional dispersion")
    simulate.add_argument("--n", type=int, default=1000, help="universe size")
    simulate.add_argument("--m-reps", type=int, default=100, help="replications")
    simulate.add_argument("--rho", type=_rho, default=0.0, help="common correlation")
    simulate.add_argument("--sigma", type=_sigma, default=1.0, help="common volatility")
    simulate.add_argument("--seed", type=_seed, default=0)
    simulate.add_argument("--table", choices=("rho-sweep",),
                          help="sweep rho over -1.0, -0.8, ..., 1.0 instead of one run")
    simulate.add_argument("--analytic-only", action="store_true",
                          help="skip sampling and report the closed-form value")
    simulate.add_argument("--workers", type=int, default=1,
                          help="threads for replication blocks; never changes results")
    simulate.add_argument("--out", help="also write the table to this path")
    simulate.add_argument("--format", choices=("csv", "json"), default="json")
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="analyze pipeline across reference dates")
    sweep.add_argument("panel", help="price panel CSV")
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--trefs", type=_date_list,
                       help="comma-separated reference dates (ISO)")
    group.add_argument("--years", type=_year_list,
                       help="use the first trading day of each year, e.g. 1998-2008")
    sweep.add_argument("--k-fraction", type=_k_fraction, default=0.10)
    sweep.add_argument("--policy", choices=MISSING_DATA_POLICIES, default=DROP_AT_REF)
    sweep.add_argument("--out", help="output path (default: JSON to stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="json")
    sweep.set_defaults(func=cmd_sweep)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    panel = load_price_panel(args.panel)
    perf = normalize_panel(panel, args.tref, policy=args.policy)
    disp = dispersion_series(perf)
    tails = tail_series(perf, KPolicy(fraction=args.k_fraction))
    events = detect_extremes(tails.alphas(), args.window, dates=perf.dates)
    report = AnalysisReport(
        ref_date=args.tref,
        dispersion=disp,
        tails=tails,
        extremes=tuple(events),
        policy=args.policy,
        window=args.window,
    )
    if args.out:
        write_report(report, args.out, fmt=args.format)
    else:
        sys.stdout.write(render_report(report, fmt="json"))
    return EXIT_OK


def _write_hill_sweep(path: Path, xs: np.ndarray) -> None:
    # the estimates and their rows are freed before the survival report
    # is rendered, so the two never occupy memory at once
    rows = ["k,alpha"] + [f"{e.k},{e.alpha!r}" for e in hill_k_sweep(xs)]
    _write_text(path, "\n".join(rows) + "\n")


def cmd_survival(args: argparse.Namespace) -> int:
    panel = load_price_panel(args.panel)
    perf = normalize_panel(panel, args.tref, policy=args.policy)
    xs = perf.cross_section(args.date)
    curve = survival_curve(xs)
    if args.hill_sweep:
        # written first, so an unwritable path fails before any output
        _write_hill_sweep(Path(args.hill_sweep), xs)
    if args.out:
        write_report(curve, args.out, fmt=args.format)
    else:
        sys.stdout.write(render_report(curve, fmt=args.format))
    return EXIT_OK


def _one_rho_row(
    n: int, rho: float, sigma: float, reps: int, seed: int, workers: int,
    analytic_only: bool,
) -> RhoSweepRow:
    expected = equicorrelation_expected_dispersion(n, rho, sigma)
    spec = CorrelationSpec.equicorrelated(n, rho, sigma)
    feasible = validate_feasibility(spec).feasible
    if analytic_only or not feasible:
        return RhoSweepRow(rho=rho, mean_vn=expected, se_vn=None,
                           expected=expected, source="analytic")
    result = simulate_dispersion(SimConfig(spec=spec, reps=reps, seed=seed),
                                 workers=workers)
    return RhoSweepRow(rho=rho, mean_vn=result.mean_vn, se_vn=result.se_vn,
                       expected=expected, source="simulated")


def _format_table(table: RhoSweepTable) -> str:
    lines = [
        f"n={table.n} reps={table.reps} sigma={table.sigma!r} seed={table.seed}",
        f"{'rho':>6}  {'mean_vn':>14}  {'se_vn':>12}  {'expected':>14}  source",
    ]
    for row in table.rows:
        se = f"{row.se_vn:.6e}" if row.se_vn is not None else "-"
        lines.append(
            f"{row.rho:>6.1f}  {row.mean_vn:>14.6e}  {se:>12}  "
            f"{row.expected:>14.6e}  {row.source}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise DataError("universe size must be at least 2")
    if args.table == "rho-sweep":
        # independent child seed per row so rows share no draws
        children = np.random.SeedSequence(args.seed).spawn(len(RHO_GRID))
        rows = []
        for rho, child in zip(RHO_GRID, children):
            child_seed = int(child.generate_state(1, np.uint64)[0])
            rows.append(
                _one_rho_row(args.n, rho, args.sigma, args.m_reps, child_seed,
                             args.workers, args.analytic_only)
            )
        table = RhoSweepTable(rows=tuple(rows), n=args.n, reps=args.m_reps,
                              sigma=args.sigma, seed=args.seed)
    else:
        spec = CorrelationSpec.equicorrelated(args.n, args.rho, args.sigma)
        expected = equicorrelation_expected_dispersion(args.n, args.rho, args.sigma)
        if args.analytic_only:
            row = RhoSweepRow(rho=args.rho, mean_vn=expected, se_vn=None,
                              expected=expected, source="analytic")
        else:
            # infeasible structures raise NotPSD here (exit 3)
            result = simulate_dispersion(
                SimConfig(spec=spec, reps=args.m_reps, seed=args.seed),
                workers=args.workers,
            )
            row = RhoSweepRow(rho=args.rho, mean_vn=result.mean_vn,
                              se_vn=result.se_vn, expected=expected,
                              source="simulated")
        table = RhoSweepTable(rows=(row,), n=args.n, reps=args.m_reps,
                              sigma=args.sigma, seed=args.seed)
    sys.stdout.write(_format_table(table))
    if args.out:
        write_report(table, args.out, fmt=args.format)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    panel = load_price_panel(args.panel)
    refs = args.trefs if args.trefs else first_trading_day_per_year(panel, args.years)
    result = tref_sweep(panel, refs, policy=args.policy,
                        k_policy=KPolicy(fraction=args.k_fraction))
    if args.out:
        write_report(result, args.out, fmt=args.format)
    else:
        sys.stdout.write(render_report(result, fmt="json"))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return EXIT_OK
        return int(code)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"crossdisp: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DataError as exc:
        print(f"crossdisp: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
