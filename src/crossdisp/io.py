"""CSV ingestion of price panels, reference-date sweeps, and CSV/JSON reports.

Input contract (CSV, UTF-8, optionally starting with a byte-order mark):
header row ``date,<ticker1>,<ticker2>,...``, one row per date with an
ISO-8601 date and decimal prices. An empty cell is a missing price.
Duplicate dates, non-positive prices and anything unparsable are
rejected with the offending line and column (1-based). Rows may arrive
in any order; the panel is sorted by date after loading.

Ingest is streamed: the file is read row by row, each row's prices are
converted and checked together, and only a row that fails the check is
parsed again cell by cell to name its first bad cell. Peak memory thus
grows with the price matrix, not with the file text. Bytes that are not
UTF-8, and text the csv module cannot split into cells (such as a field
over its size limit), raise a DataError.

``tref_sweep`` runs the normalize / dispersion / tail step of the
analyze pipeline (``cli.analyze_panel``) once per reference date.

Every report maps to a ``meta`` block and named tables of rows, which
both formats render. JSON documents are a top-level object with the
``meta`` block (tool, version, policies, seed where applicable) and each
table as a list of objects; CSV holds one table per file. Floats use
Python's shortest round-trip repr, so every written number reparses to
the exact same double; undefined values are null in JSON and empty cells
in CSV. Files are replaced atomically, never left half written.
"""

from __future__ import annotations

import csv
import datetime as dt
import errno
import json
import math
import os
import stat
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
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
from .tails import (
    ExtremeEvent,
    KPolicy,
    TailEstimate,
    TailSeries,
    tail_series,
)
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
        with path.open(encoding="utf-8-sig") as handle:
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
    rows = (
        (when.isoformat(), *map(_jf, row.tolist()))
        for when, row in zip(panel.dates, panel.prices)
    )
    _write_text(Path(path), _Table(("date", *panel.tickers), rows).csv_text())


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
# the normalize / dispersion / tail step, for one or several reference dates
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


@dataclass(frozen=True)
class AnalysisReport:
    """Bundle written by the analyze command: one reference date's series."""

    ref_date: dt.date
    dispersion: DispersionSeries
    tails: TailSeries
    extremes: tuple[ExtremeEvent, ...]
    policy: str
    window: int


def _sweep_entry(
    panel: PricePanel, ref_date: dt.date, policy: str, k_policy: KPolicy, min_stocks: int = 2
) -> SweepEntry:
    """Dispersion and tail series from ``ref_date``; the performance panel is freed on return."""
    perf = normalize_panel(panel, ref_date, policy=policy, min_stocks=min_stocks)
    return SweepEntry(
        ref_date=ref_date,
        dispersion=dispersion_series(perf),
        tails=tail_series(perf, k_policy),
    )


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
    return SweepResult(
        entries=tuple(
            _sweep_entry(panel, when, policy, kp, min_stocks)
            for when in sorted(set(ref_dates))
        ),
        universe=panel.tickers,
        policy=policy,
        k_policy=kp,
    )


# ---------------------------------------------------------------------------
# other report containers
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True)
class HillSweep:
    """Hill estimates of one sample across k, as from ``hill_k_sweep``."""

    estimates: tuple[TailEstimate, ...]


# ---------------------------------------------------------------------------
# report tables: one row model behind JSON and CSV
# ---------------------------------------------------------------------------


def _jf(value: float | None) -> float | None:
    """A float cell: NaN and infinities become None (JSON null, empty CSV cell)."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _meta(kind: str, **extra: Any) -> dict[str, Any]:
    return {"tool": "crossdisp", "version": __version__, "kind": kind, **extra}


def _k_policy_meta(kp: KPolicy) -> dict[str, Any]:
    return {"k_fraction": kp.fraction, "min_n": kp.min_n}


@dataclass(frozen=True)
class _Table:
    """Column names plus rows produced once, when rendered. Each cell is a
    str (dates in ISO form), an int, a float passed through ``_jf``, or None."""

    columns: tuple[str, ...]
    rows: Iterable[tuple[Any, ...]]

    def objects(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def csv_text(self) -> str:
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)  # None becomes an empty cell
        return buf.getvalue()


@dataclass(frozen=True)
class _Layout:
    """A report's JSON meta block and tables; ``json_body`` replaces the tables in JSON."""

    meta: dict[str, Any]
    tables: dict[str, _Table]
    json_body: Callable[[], dict[str, Any]] | None = None


def _dispersion_table(series: DispersionSeries) -> _Table:
    return _Table(
        ("date", "mean", "variance", "count"),
        (
            (when.isoformat(), _jf(m), _jf(v), int(c))
            for when, m, v, c in zip(series.dates, series.mean, series.variance, series.count)
        ),
    )


def _tail_table(series: TailSeries) -> _Table:
    return _Table(
        ("date", "alpha", "k", "n", "method"),
        (
            (when.isoformat(), None, None, None, None) if est is None
            else (when.isoformat(), _jf(est.alpha), est.k, est.n, est.method)
            for when, est in zip(series.dates, series.estimates)
        ),
    )


def _event_table(events: Iterable[ExtremeEvent]) -> _Table:
    return _Table(
        ("date", "kind", "value", "window"),
        (
            (e.date.isoformat() if isinstance(e.date, dt.date) else e.date,
             e.kind, _jf(e.value), e.window)
            for e in events
        ),
    )


def _survival_rows(curve: SurvivalCurve) -> Iterator[tuple[Any, ...]]:
    zs, ss = curve.step_points()
    for z, s in zip(zs, ss):
        yield _jf(z), _jf(s)


def _sweep_rows(result: SweepResult) -> Iterator[tuple[Any, ...]]:
    for entry in result.entries:
        ref = entry.ref_date.isoformat()
        tails = _tail_table(entry.tails).rows
        for (when, mean, variance, count), (_, alpha, k, _, _) in zip(
            _dispersion_table(entry.dispersion).rows, tails
        ):
            yield ref, when, mean, variance, count, alpha, k


def _layout(result: Any) -> _Layout:
    """The meta block and tables of any supported report object."""
    if isinstance(result, DispersionSeries):
        return _Layout(_meta("dispersion-series"), {"series": _dispersion_table(result)})
    if isinstance(result, TailSeries):
        return _Layout(
            _meta("tail-series", **_k_policy_meta(result.k_policy)),
            {"series": _tail_table(result)},
        )
    if isinstance(result, SurvivalCurve):
        return _Layout(_meta("survival-curve", n=result.n),
                       {"series": _Table(("z", "survival"), _survival_rows(result))})
    if isinstance(result, AnalysisReport):
        return _Layout(
            _meta(
                "analysis",
                ref_date=result.ref_date.isoformat(),
                policy=result.policy,
                window=result.window,
                **_k_policy_meta(result.tails.k_policy),
            ),
            {
                "dispersion": _dispersion_table(result.dispersion),
                "tail": _tail_table(result.tails),
                "extremes": _event_table(result.extremes),
            },
        )
    if isinstance(result, SweepResult):
        # JSON nests each reference date's tables; CSV joins them in one table
        return _Layout(
            _meta(
                "sweep",
                policy=result.policy,
                universe_size=len(result.universe),
                **_k_policy_meta(result.k_policy),
            ),
            {"series": _Table(("ref_date", "date", "mean", "variance", "count", "alpha", "k"),
                              _sweep_rows(result))},
            json_body=lambda: {
                "series": [
                    {
                        "ref_date": entry.ref_date.isoformat(),
                        "dispersion": _dispersion_table(entry.dispersion).objects(),
                        "tail": _tail_table(entry.tails).objects(),
                    }
                    for entry in result.entries
                ]
            },
        )
    if isinstance(result, SimResult):
        spec = result.config.spec
        meta = _meta("simulation", n=spec.n, reps=result.config.reps, seed=result.config.seed)
        if isinstance(spec.structure, Equicorrelation):
            meta["rho"] = spec.structure.rho
            meta["sigma"] = _jf(float(spec.sigmas[0]))
        row = (_jf(result.mean_vn), _jf(result.se_vn), _jf(result.var_vn),
               result.config.reps, result.config.seed)
        table = _Table(("mean_vn", "se_vn", "var_vn", "reps", "seed"), (row,))
        # JSON keeps reps and seed in meta, so its result is one object without them
        return _Layout(meta, {"result": table},
                       json_body=lambda: {"result": dict(zip(table.columns[:3], row))})
    if isinstance(result, RhoSweepTable):
        return _Layout(
            _meta("rho-sweep", n=result.n, reps=result.reps,
                  sigma=_jf(result.sigma), seed=result.seed),
            {"series": _Table(
                ("rho", "mean_vn", "se_vn", "expected", "source"),
                ((_jf(r.rho), _jf(r.mean_vn), _jf(r.se_vn), _jf(r.expected), r.source)
                 for r in result.rows),
            )},
        )
    if isinstance(result, HillSweep):
        return _Layout(
            _meta("hill-sweep"),
            {"series": _Table(("k", "alpha"), ((e.k, _jf(e.alpha)) for e in result.estimates))},
        )
    if isinstance(result, (list, tuple)) and all(
        isinstance(e, ExtremeEvent) for e in result
    ):
        return _Layout(_meta("extreme-events"), {"events": _event_table(result)})
    raise TypeError(f"cannot serialize {type(result).__name__}")


def to_document(result: Any) -> dict[str, Any]:
    """JSON-ready document for any supported report object."""
    layout = _layout(result)
    if layout.json_body is not None:
        return {"meta": layout.meta, **layout.json_body()}
    return {"meta": layout.meta,
            **{name: table.objects() for name, table in layout.tables.items()}}


def render_report(result: Any, fmt: str = "csv") -> str:
    """Serialize a report object to CSV or JSON text."""
    if fmt == "json":
        return json.dumps(to_document(result), indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        tables = _layout(result).tables
        if len(tables) != 1:
            raise TypeError(f"cannot serialize {type(result).__name__} to CSV")
        (table,) = tables.values()
        return table.csv_text()
    raise ValueError(f"unsupported report format: {fmt!r}")


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` through a temporary file next to ``path`` that then
    replaces it, so a failed write leaves the old bytes or no file. The
    directory must be writable. A new file gets 0o666 less the umask, a
    replaced one keeps its mode, and one we may not write is left as it
    is; a target that is not a regular file (symlink, /dev/stdout, FIFO)
    is written in place.
    """
    try:
        try:
            mode: int | None = os.lstat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            path.write_text(text, encoding="utf-8")
            return
        if mode is not None and not os.access(path, os.W_OK):
            # os.replace needs only the directory, so check the file itself
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
        tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
        handle = open(tmp, "x", encoding="utf-8")  # created 0o666 less the umask
        try:
            with handle:
                if mode is not None:
                    os.fchmod(handle.fileno(), stat.S_IMODE(mode))
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        # name the target, not the temporary file
        shown = OSError(exc.errno, exc.strerror, os.fspath(path)) if exc.filename else exc
        raise IoError(f"cannot write {path}: {shown}") from exc


def write_report(result: Any, path: str | Path, fmt: str = "csv") -> None:
    """Render ``result`` and write it to ``path``.

    Every file is rendered in full before any is written, and written
    atomically. In CSV a report with several tables (AnalysisReport)
    writes one file per table, ``base.<table>.csv``, where ``base`` is
    ``path`` without a ``.csv`` suffix.
    """
    path = Path(path)
    if fmt == "csv":
        tables = _layout(result).tables
        if len(tables) > 1:
            base = path.with_suffix("") if path.suffix == ".csv" else path
            texts = {Path(f"{base}.{name}.csv"): table.csv_text()
                     for name, table in tables.items()}
            for part_path, text in texts.items():
                _write_text(part_path, text)
            return
    _write_text(path, render_report(result, fmt))
