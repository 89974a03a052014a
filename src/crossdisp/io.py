"""CSV ingestion of price panels and CSV/JSON report writing.

Input contract (CSV, UTF-8): header row ``date,<ticker1>,<ticker2>,...``,
one row per date with an ISO-8601 date and decimal prices. An empty cell
is a missing price. Duplicate dates, non-positive prices and anything
unparsable are rejected with the offending line and column (1-based).
Rows may arrive in any order; the panel is sorted by date after loading.

Ingest is streamed: the file is read row by row, each row's prices are
converted and checked together, and only a row that fails the check is
parsed again cell by cell to name its first bad cell. Peak memory thus
grows with the price matrix, not with the file text. Bytes that are not
UTF-8, and text the csv module cannot split into cells (such as a field
over its size limit), raise a DataError.

Reports serialize floats with Python's shortest round-trip repr, so
every written number reparses to the exact same double. JSON documents
are a top-level object with a ``meta`` block (tool, version, policies,
seed where applicable) and the payload arrays; undefined values are
null in JSON and empty cells in CSV. Survival curves are written as
two-column (z, survival) step points.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Any

import numpy as np

from .errors import (
    DataError,
    DuplicateDate,
    IoError,
    NonPositivePrice,
    ParseError,
    RefDateAbsent,
)
from .panel import (
    DROP_AT_REF,
    DispersionSeries,
    FloatArray,
    PerformancePanel,
    PricePanel,
    SurvivalCurve,
    dispersion_series,
    normalize_panel,
)
from .simulate import SimResult
from .tails import ExtremeEvent, KPolicy, TailSeries, tail_series
from .theory import Equicorrelation
from .version import __version__


# ---------------------------------------------------------------------------
# panel loading
# ---------------------------------------------------------------------------


def _parse_price(cell: str, line: int, column: int) -> float:
    text = cell.strip()
    if text == "":
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise ParseError(line, column, f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(line, column, f"not a finite number: {text!r}")
    if value <= 0.0:
        raise NonPositivePrice(line, column, value)
    return value


def _parse_prices(cells: list[str], line: int) -> FloatArray:
    """One row's prices, empty cells as NaN.

    numpy converts the whole row with ``float`` and one vectorized test
    checks it; only a row that fails goes through ``_parse_price`` cell
    by cell, which raises the error of its first offending cell or, for
    cells that are only whitespace, returns the row.
    """
    n_empty = cells.count("")
    try:
        values = np.array(
            [cell or "nan" for cell in cells] if n_empty else cells, dtype=np.float64
        )
    except ValueError:
        pass
    else:
        # NaN fails both comparisons, so only the empty cells may miss
        if np.count_nonzero((values > 0.0) & (values < math.inf)) == len(cells) - n_empty:
            return values
    return np.array(
        [_parse_price(cell, line, col) for col, cell in enumerate(cells, start=2)]
    )


def load_price_panel(path: str | Path, fmt: str = "csv") -> PricePanel:
    """Read a price panel file into a PricePanel.

    Only the CSV format described in the module docstring is supported.
    """
    if fmt != "csv":
        raise ValueError(f"unsupported panel format: {fmt!r}")
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as handle:
            dates, tickers, matrix = _read_panel(csv.reader(handle))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"cannot read {path}: malformed CSV ({exc})") from None
    return PricePanel(dates=dates, tickers=tickers, prices=matrix)


def _read_panel(
    reader: Iterator[list[str]],
) -> tuple[tuple[dt.date, ...], tuple[str, ...], FloatArray]:
    """Dates, tickers and price matrix, sorted by date.

    Rows are checked in file order, so the first bad row raises.
    """
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, 1, "empty file") from None
    if not header or header[0].strip() != "date":
        raise ParseError(1, 1, "header must start with 'date'")
    tickers = tuple(cell.strip() for cell in header[1:])
    if len(tickers) == 0:
        raise ParseError(1, 2, "no ticker columns")
    if any(t == "" for t in tickers):
        raise ParseError(1, 2 + [t == "" for t in tickers].index(True), "empty ticker name")
    if len(set(tickers)) != len(tickers):
        raise ParseError(1, 2, "duplicate ticker names")

    dates: list[dt.date] = []
    rows: list[FloatArray] = []
    seen: set[dt.date] = set()
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(
                line_no, 1, f"expected {len(header)} cells, found {len(row)}"
            )
        try:
            when = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(line_no, 1, f"bad date: {row[0]!r}") from None
        if when in seen:
            raise DuplicateDate(when)
        seen.add(when)
        dates.append(when)
        rows.append(_parse_prices(row[1:], line_no))

    order = sorted(range(len(dates)), key=dates.__getitem__)
    matrix = np.array([rows[i] for i in order]).reshape(len(rows), len(tickers))
    return tuple(dates[i] for i in order), tickers, matrix


def write_price_panel(panel: PricePanel, path: str | Path) -> None:
    """Write a panel in the same CSV format load_price_panel reads."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["date"] + list(panel.tickers))
    for when, row in zip(panel.dates, panel.prices):
        writer.writerow([when.isoformat()] + [_cell(v) for v in row])
    _write_text(Path(path), buf.getvalue())


def first_trading_day_per_year(
    panel: PricePanel, years: list[int] | None = None
) -> list[dt.date]:
    """Earliest panel date in each requested year (default: every year present)."""
    first: dict[int, dt.date] = {}
    for when in panel.dates:
        first.setdefault(when.year, when)
    if years is None:
        return [first[y] for y in sorted(first)]
    missing = [y for y in years if y not in first]
    if missing:
        raise RefDateAbsent(f"no trading days in year {missing[0]}")
    return [first[y] for y in sorted(set(years))]


# ---------------------------------------------------------------------------
# sweep over reference dates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    ref_date: dt.date
    dispersion: DispersionSeries
    tails: TailSeries


@dataclass(frozen=True)
class SweepResult:
    """Dispersion and tail series for several reference dates over one universe."""

    entries: tuple[SweepEntry, ...]
    universe: tuple[str, ...]
    policy: str
    k_policy: KPolicy

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "universe", tuple(self.universe))
        refs = [e.ref_date for e in self.entries]
        if any(a >= b for a, b in zip(refs, refs[1:])):
            raise ValueError("reference dates must be strictly increasing")
        for entry in self.entries:
            if entry.dispersion.dates[0] != entry.ref_date:
                raise ValueError("each sub-series must start at its own reference date")


def tref_sweep(
    panel: PricePanel,
    ref_dates: list[dt.date],
    policy: str = DROP_AT_REF,
    k_policy: KPolicy | None = None,
    min_stocks: int = 2,
) -> SweepResult:
    """Run the normalize / dispersion / tail pipeline once per reference date."""
    kp = k_policy if k_policy is not None else KPolicy()
    for when in ref_dates:
        if when not in panel.dates:
            raise RefDateAbsent(when)
    entries = []
    for when in sorted(set(ref_dates)):
        perf = normalize_panel(panel, when, policy=policy, min_stocks=min_stocks)
        entries.append(
            SweepEntry(
                ref_date=when,
                dispersion=dispersion_series(perf),
                tails=tail_series(perf, kp),
            )
        )
    return SweepResult(
        entries=tuple(entries),
        universe=panel.tickers,
        policy=policy,
        k_policy=kp,
    )


# ---------------------------------------------------------------------------
# report containers assembled by the CLI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisReport:
    """Bundle written by the analyze command: one reference date's series."""

    ref_date: dt.date
    dispersion: DispersionSeries
    tails: TailSeries
    extremes: tuple[ExtremeEvent, ...]
    policy: str
    window: int


@dataclass(frozen=True)
class RhoSweepRow:
    rho: float
    mean_vn: float
    se_vn: float | None
    expected: float
    source: str  # "simulated" or "analytic"


@dataclass(frozen=True)
class RhoSweepTable:
    rows: tuple[RhoSweepRow, ...]
    n: int
    reps: int
    sigma: float
    seed: int


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _cell(value: Any) -> str:
    """One CSV cell. Floats use shortest round-trip repr, NaN/None are empty."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return repr(value) if math.isfinite(value) else ""
    if isinstance(value, (np.integer,)):
        return str(int(value))
    if isinstance(value, dt.date):
        return value.isoformat()
    return str(value)


def _jf(value: float | None) -> float | None:
    """JSON float: NaN and infinities become null."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _meta(kind: str, **extra: Any) -> dict[str, Any]:
    meta: dict[str, Any] = {"tool": "crossdisp", "version": __version__, "kind": kind}
    meta.update(extra)
    return meta


def _dispersion_rows(series: DispersionSeries) -> list[dict[str, Any]]:
    return [
        {
            "date": when.isoformat(),
            "mean": _jf(m),
            "variance": _jf(v),
            "count": int(c),
        }
        for when, m, v, c in zip(series.dates, series.mean, series.variance, series.count)
    ]


def _tail_rows(series: TailSeries) -> list[dict[str, Any]]:
    rows = []
    for when, est in zip(series.dates, series.estimates):
        if est is None:
            rows.append({"date": when.isoformat(), "alpha": None, "k": None,
                         "n": None, "method": None})
        else:
            rows.append({"date": when.isoformat(), "alpha": _jf(est.alpha),
                         "k": est.k, "n": est.n, "method": est.method})
    return rows


def _event_rows(events: tuple[ExtremeEvent, ...] | list[ExtremeEvent]) -> list[dict[str, Any]]:
    return [
        {
            "date": e.date.isoformat() if isinstance(e.date, dt.date) else e.date,
            "kind": e.kind,
            "value": _jf(e.value),
            "window": e.window,
        }
        for e in events
    ]


def _survival_rows(curve: SurvivalCurve) -> list[dict[str, Any]]:
    zs, ss = curve.step_points()
    return [{"z": _jf(z), "survival": _jf(s)} for z, s in zip(zs, ss)]


def _k_policy_meta(kp: KPolicy) -> dict[str, Any]:
    return {"k_fraction": kp.fraction, "min_n": kp.min_n}


def _sim_meta(result: SimResult) -> dict[str, Any]:
    spec = result.config.spec
    meta: dict[str, Any] = {
        "n": spec.n,
        "reps": result.config.reps,
        "seed": result.config.seed,
    }
    if isinstance(spec.structure, Equicorrelation):
        meta["rho"] = spec.structure.rho
        meta["sigma"] = _jf(float(spec.sigmas[0]))
    return meta


def to_document(result: Any) -> dict[str, Any]:
    """JSON-ready document for any supported report object."""
    if isinstance(result, DispersionSeries):
        return {"meta": _meta("dispersion-series"), "series": _dispersion_rows(result)}
    if isinstance(result, TailSeries):
        return {
            "meta": _meta("tail-series", **_k_policy_meta(result.k_policy)),
            "series": _tail_rows(result),
        }
    if isinstance(result, SurvivalCurve):
        return {"meta": _meta("survival-curve", n=result.n), "series": _survival_rows(result)}
    if isinstance(result, AnalysisReport):
        return {
            "meta": _meta(
                "analysis",
                ref_date=result.ref_date.isoformat(),
                policy=result.policy,
                window=result.window,
                **_k_policy_meta(result.tails.k_policy),
            ),
            "dispersion": _dispersion_rows(result.dispersion),
            "tail": _tail_rows(result.tails),
            "extremes": _event_rows(result.extremes),
        }
    if isinstance(result, SweepResult):
        return {
            "meta": _meta(
                "sweep",
                policy=result.policy,
                universe_size=len(result.universe),
                **_k_policy_meta(result.k_policy),
            ),
            "series": [
                {
                    "ref_date": entry.ref_date.isoformat(),
                    "dispersion": _dispersion_rows(entry.dispersion),
                    "tail": _tail_rows(entry.tails),
                }
                for entry in result.entries
            ],
        }
    if isinstance(result, SimResult):
        return {
            "meta": _meta("simulation", **_sim_meta(result)),
            "result": {
                "mean_vn": _jf(result.mean_vn),
                "se_vn": _jf(result.se_vn),
                "var_vn": _jf(result.var_vn),
            },
        }
    if isinstance(result, RhoSweepTable):
        return {
            "meta": _meta(
                "rho-sweep", n=result.n, reps=result.reps,
                sigma=_jf(result.sigma), seed=result.seed,
            ),
            "series": [
                {
                    "rho": _jf(row.rho),
                    "mean_vn": _jf(row.mean_vn),
                    "se_vn": _jf(row.se_vn),
                    "expected": _jf(row.expected),
                    "source": row.source,
                }
                for row in result.rows
            ],
        }
    if isinstance(result, (list, tuple)) and all(
        isinstance(e, ExtremeEvent) for e in result
    ):
        return {"meta": _meta("extreme-events"), "events": _event_rows(result)}
    raise TypeError(f"cannot serialize {type(result).__name__}")


def _csv_from_rows(header: list[str], rows: list[list[Any]]) -> str:
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _to_csv(result: Any) -> str:
    if isinstance(result, DispersionSeries):
        return _csv_from_rows(
            ["date", "mean", "variance", "count"],
            [
                [when, m, v, int(c)]
                for when, m, v, c in zip(result.dates, result.mean, result.variance, result.count)
            ],
        )
    if isinstance(result, TailSeries):
        rows = []
        for when, est in zip(result.dates, result.estimates):
            if est is None:
                rows.append([when, None, None, None, None])
            else:
                rows.append([when, est.alpha, est.k, est.n, est.method])
        return _csv_from_rows(["date", "alpha", "k", "n", "method"], rows)
    if isinstance(result, SurvivalCurve):
        zs, ss = result.step_points()
        return _csv_from_rows(
            ["z", "survival"], [[float(z), float(s)] for z, s in zip(zs, ss)]
        )
    if isinstance(result, SweepResult):
        rows = []
        for entry in result.entries:
            alphas = entry.tails.alphas()
            for i, when in enumerate(entry.dispersion.dates):
                est = entry.tails.estimates[i]
                rows.append(
                    [
                        entry.ref_date,
                        when,
                        entry.dispersion.mean[i],
                        entry.dispersion.variance[i],
                        int(entry.dispersion.count[i]),
                        float(alphas[i]),
                        est.k if est is not None else None,
                    ]
                )
        return _csv_from_rows(
            ["ref_date", "date", "mean", "variance", "count", "alpha", "k"], rows
        )
    if isinstance(result, SimResult):
        return _csv_from_rows(
            ["mean_vn", "se_vn", "var_vn", "reps", "seed"],
            [[result.mean_vn, result.se_vn, result.var_vn,
              result.config.reps, result.config.seed]],
        )
    if isinstance(result, RhoSweepTable):
        return _csv_from_rows(
            ["rho", "mean_vn", "se_vn", "expected", "source"],
            [[r.rho, r.mean_vn, r.se_vn, r.expected, r.source] for r in result.rows],
        )
    if isinstance(result, (list, tuple)) and all(
        isinstance(e, ExtremeEvent) for e in result
    ):
        return _csv_from_rows(
            ["date", "kind", "value", "window"],
            [[e.date, e.kind, e.value, e.window] for e in result],
        )
    raise TypeError(f"cannot serialize {type(result).__name__} to CSV")


def render_report(result: Any, fmt: str = "csv") -> str:
    """Serialize a report object to CSV or JSON text."""
    if fmt == "json":
        return json.dumps(to_document(result), indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        return _to_csv(result)
    raise ValueError(f"unsupported report format: {fmt!r}")


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_report(result: Any, path: str | Path, fmt: str = "csv") -> None:
    """Render ``result`` and write it to ``path``.

    The full document is built in memory first, so a failed render never
    leaves a partial file behind. AnalysisReport in CSV mode fans out to
    three files (base.dispersion.csv, base.tail.csv, base.extremes.csv)
    because its sections have different columns.
    """
    path = Path(path)
    if isinstance(result, AnalysisReport) and fmt == "csv":
        base = path.with_suffix("") if path.suffix == ".csv" else path
        parts = {
            Path(f"{base}.dispersion.csv"): _to_csv(result.dispersion),
            Path(f"{base}.tail.csv"): _to_csv(result.tails),
            Path(f"{base}.extremes.csv"): _to_csv(list(result.extremes)),
        }
        for part_path, text in parts.items():
            _write_text(part_path, text)
        return
    _write_text(path, render_report(result, fmt))
