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
from collections.abc import Callable, Iterator
from typing import Any

from .errors import DataError, NumericalError, ZeroReps
from .io import (
    AnalysisReport,
    RhoSweepRow,
    RhoSweepTable,
    _write_text,
    _ymd,
    first_trading_day_per_year,
    load_price_panel,
    tref_sweep,
    write_report,
)
from .panel import (
    DROP_AT_REF,
    MISSING_DATA_POLICIES,
    PricePanel,
    performance_chunks,
    survival_curve,
)
from .simulate import SimConfig, simulate_dispersion, spawn_seeds, validate_feasibility
from .tails import KPolicy, detect_extremes, hill_k_sweep
from .theory import CorrelationSpec, equicorrelation_expected_dispersion

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

RHO_GRID = tuple(i / 5.0 for i in range(-5, 6))  # -1.0, -0.8, ..., 1.0, each the nearest double


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; the contract reserves 2
    # for data errors, so usage failures are remapped to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _iso_date(text: str) -> dt.date:
    try:
        return _ymd(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an ISO date: {text!r}") from None


def _items(text: str) -> list[str]:
    """The comma-separated items of a list argument, stripped, empty ones dropped."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _date_list(text: str) -> list[dt.date]:
    dates = [_iso_date(part) for part in _items(text)]
    if not dates:
        raise argparse.ArgumentTypeError("no dates given")
    return dates


def _year_list(text: str) -> list[tuple[int, int]]:
    """--years as inclusive (first, last) ranges in argument order, checked
    against the panel's years only when the sweep resolves them."""
    years: list[tuple[int, int]] = []
    for part in _items(text):
        bounds = part.split("-", 1)
        try:
            lo, hi = int(bounds[0]), int(bounds[-1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a year or year range: {part!r}") from None
        if lo > hi:
            raise argparse.ArgumentTypeError(f"empty year range {part}")
        years.append((lo, hi))
    if not years:
        raise argparse.ArgumentTypeError("no years given")
    return years


def _checked(name: str, convert: Callable[[str], Any], ok: Callable[[Any], bool],
             message: str) -> Callable[[str], Any]:
    """An argparse type: ``convert`` the text, and reject a value that is not ``ok``."""

    def parse(text: str) -> Any:
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = name  # argparse names it in "invalid <name> value"
    return parse


_seed = _checked("_seed", int, lambda v: 0 <= v < 2**64, "seed must be a 64-bit unsigned integer")
_k_fraction = _checked("_k_fraction", float, lambda v: 0.0 < v < 1.0,
                       "must lie strictly between 0 and 1")
_window = _checked("_window", int, lambda v: v >= 1, "must be at least 1")
_workers = _checked("_workers", int, lambda v: v >= 1, "must be at least 1")
# the comparisons also reject NaN
_rho = _checked("_rho", float, lambda v: -1.0 <= v <= 1.0, "must lie in [-1, 1]")
_sigma = _checked("_sigma", float, lambda v: 0.0 < v < math.inf, "must be positive and finite")


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
    analyze.add_argument("--out", help="output path (default: stdout, JSON only)")
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
    simulate.add_argument("--workers", type=_workers, default=1,
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
    sweep.add_argument("--out", help="output path (default: stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="json")
    sweep.set_defaults(func=cmd_sweep)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def analyze_panel(
    panel: PricePanel, ref_date: dt.date, policy: str, k_policy: KPolicy, window: int
) -> AnalysisReport:
    """The analyze pipeline: dispersion series, tail series and the tail
    exponent's strict local extremes within ``window`` dates, for one reference date."""
    # detect_extremes is called in this module's namespace, where the benchmark
    # tracer (bench/tracer.py) wraps it
    (entry,) = tref_sweep(panel, [ref_date], policy, k_policy).entries
    events = detect_extremes(entry.tails.alpha, window, dates=entry.tails.dates)
    return AnalysisReport(ref_date=ref_date, dispersion=entry.dispersion, tails=entry.tails,
                          extremes=tuple(events), policy=policy, window=window)


def cmd_analyze(args: argparse.Namespace) -> int:
    panel = load_price_panel(args.panel)
    report = analyze_panel(panel, args.tref, args.policy,
                           KPolicy(fraction=args.k_fraction), args.window)
    write_report(report, args.out or None, fmt=args.format)
    return EXIT_OK


def cmd_survival(args: argparse.Namespace) -> int:
    panel = load_price_panel(args.panel)
    xs = None
    for chunk in performance_chunks(panel, args.tref, policy=args.policy):  # each range-checked
        if args.date in chunk.dates:
            xs = chunk.cross_section(args.date)
    if xs is None:  # --date is before --tref or not in the panel: date_index raises which
        chunk.date_index(args.date)
    curve = survival_curve(xs)
    if args.hill_sweep:
        # written first, so an unwritable path fails before any output
        write_report(hill_k_sweep(xs), args.hill_sweep, fmt="csv")
    write_report(curve, args.out or None, fmt=args.format)
    return EXIT_OK


def _one_rho_row(
    args: argparse.Namespace, rho: float, seed: int, infeasible_analytic: bool
) -> RhoSweepRow:
    """Simulated and closed-form dispersion at one rho. An infeasible rho
    raises NotPSD (exit 3) unless ``infeasible_analytic`` is set, in which
    case it gets the closed form only, as --analytic-only gives every rho."""
    expected = equicorrelation_expected_dispersion(args.n, rho, args.sigma)
    if math.isinf(expected):
        raise NumericalError(f"dispersion at sigma {args.sigma} is outside the range of a double")
    analytic = RhoSweepRow(rho=rho, mean_vn=expected, se_vn=None,
                           expected=expected, source="analytic")
    if args.analytic_only:
        return analytic  # the closed form needs no n-long spec
    spec = CorrelationSpec.equicorrelated(args.n, rho, args.sigma)
    if infeasible_analytic and not validate_feasibility(spec).feasible:
        return analytic
    result = simulate_dispersion(SimConfig(spec=spec, reps=args.m_reps, seed=seed),
                                 workers=args.workers)
    return RhoSweepRow(rho=rho, mean_vn=result.mean_vn, se_vn=result.se_vn,
                       expected=expected, source="simulated")


def _format_table(table: RhoSweepTable) -> Iterator[str]:
    yield f"n={table.n} reps={table.reps} sigma={table.sigma!r} seed={table.seed}\n"
    yield f"{'rho':>6}  {'mean_vn':>14}  {'se_vn':>12}  {'expected':>14}  source\n"
    for row in table.rows:
        # undefined (analytic, or one replication) prints "-", as CSV leaves it empty
        se = f"{row.se_vn:.6e}" if row.se_vn is not None and math.isfinite(row.se_vn) else "-"
        yield (f"{row.rho!r:>6}  {row.mean_vn:>14.6e}  {se:>12}  "
               f"{row.expected:>14.6e}  {row.source}\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise DataError("universe size must be at least 2")
    if args.m_reps < 1:
        raise ZeroReps(args.m_reps)
    if args.table == "rho-sweep":
        rows = tuple(
            _one_rho_row(args, rho, seed, infeasible_analytic=True)
            for rho, seed in zip(RHO_GRID, spawn_seeds(args.seed, len(RHO_GRID)))
        )
    else:
        rows = (_one_rho_row(args, args.rho, args.seed, infeasible_analytic=False),)
    table = RhoSweepTable(rows=rows, n=args.n, reps=args.m_reps,
                          sigma=args.sigma, seed=args.seed)
    _write_text(None, _format_table(table))
    if args.out:
        write_report(table, args.out, fmt=args.format)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    panel = load_price_panel(args.panel)
    refs = args.trefs if args.trefs else first_trading_day_per_year(panel, args.years)
    result = tref_sweep(panel, refs, policy=args.policy,
                        k_policy=KPolicy(fraction=args.k_fraction))
    write_report(result, args.out or None, fmt=args.format)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze" and args.format == "csv" and not args.out:
            parser.error("analyze --format csv writes one file per table: give --out")
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
    except MemoryError as exc:
        print(f"crossdisp: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
