"""CSV ingestion of price panels, reference-date sweeps, and CSV/JSON reports.

Input contract (CSV, UTF-8, optionally starting with a byte-order mark):
header row ``date,<ticker1>,<ticker2>,...``, one row per date with a
``YYYY-MM-DD`` date and decimal prices. An empty cell is a missing price.
Duplicate dates, non-positive prices and anything unparsable are
rejected with the offending line and column (1-based). Rows may arrive
in any order; the panel is sorted by date after loading.

Ingest is streamed in blocks of whole lines of about 32 KiB. A block's dates
are parsed in Python and its prices in C by ``np.loadtxt`` (each empty cell
written as ``nan``); it is taken only if every present cell is a price in
(0, inf) and every date is new. The first block refused (one with a quoted,
whitespace-only or unparsable cell, say) and every line after it go through
the row reader, which converts each cell on its own, with the same result, so
every error is raised first in file order, naming the physical line it starts
on. Rows fill one float64 matrix, doubled in place when full, trimmed at the
end, reordered only if the dates came unsorted and adopted by the panel, so
peak memory follows the matrix, not the file text. Non-UTF-8 bytes and text
the csv module cannot split (such as an oversized field) raise a DataError.

``tref_sweep`` is the normalize / dispersion / tail step of both ``analyze``
(one reference date) and ``sweep``, run one performance chunk at a time;
each reference date's series form one ``SweepEntry``.

There are five reports, the ones the commands write: ``AnalysisReport``
(analyze), ``SweepResult`` (sweep), ``SurvivalCurve`` and ``HillSweep``
(survival) and ``RhoSweepTable`` (simulate); anything else raises TypeError.
Each is a ``meta`` block and named tables, which both formats render from one
column model: slabs of 512 rows, each a tuple of columns (float arrays, whose
values that are not finite are null, int arrays and lists of str). Each
column of a slab is encoded by one C-level call, floats by their shortest
round-trip repr, and each slab filled at once: JSON byte for byte as
``json.dumps(document, indent=2, allow_nan=False)`` plus a newline writes it,
CSV (one table a file) as ``csv.writer`` does. Each series date is formatted
once per report. Reports are streamed a slab at a time, so memory follows one
slab, not the table; files are replaced atomically.
"""

from __future__ import annotations

import csv
import datetime as dt
import errno
import math
import os
import re
import stat
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext
from dataclasses import dataclass
from io import StringIO
from itertools import chain
from json.encoder import JSONEncoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, NamedTuple, TextIO

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
    _any_nonpositive_or_infinite,
    _freeze,
    dispersion_series,
    performance_chunks,
)
from .tails import (
    HILL,
    ExtremeEvent,
    HillSweep,
    KPolicy,
    TailSeries,
    tail_series,
)
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


def _ymd(text: str) -> dt.date:
    """A YYYY-MM-DD date; from Python 3.11 on, fromisoformat alone also takes 20040102."""
    return dt.date.fromisoformat(text if len(text) == 10 and text[4] + text[7] == "--" else "")


# bytes of whole lines parsed as one block (the last line may run past them): a block is
# small next to the matrix however long its lines are
_BLOCK = 1 << 15


def load_price_panel(path: str | Path) -> PricePanel:
    """Read a price panel in the CSV format of the module docstring."""
    path = Path(path)
    try:
        with path.open(encoding="utf-8-sig") as handle:
            dates, tickers, matrix = _read_panel(handle)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"cannot read {path}: malformed CSV ({exc})") from None
    return PricePanel(dates=dates, tickers=tickers, prices=matrix)


def _has_long_field(text: str) -> bool:
    """True if ``text`` may hold a field longer than the csv module's limit: every
    such field spans a whole aligned window of half the limit without a comma. A
    partial last window is not checked: a short comma-free tail is no long field."""
    half = max(csv.field_size_limit() // 2, 1)
    return len(text) > 2 * half and any(
        text.find(",", start, start + half) < 0
        for start in range(0, len(text) - half + 1, half))


def _parse_block(
    lines: list[str], width: int, seen: dict[dt.date, None], gappy: bool
) -> tuple[list[dt.date], FloatArray] | None:
    """The dates and prices of whole lines, the prices parsed in C by ``np.loadtxt``;
    if ``gappy``, each empty cell is written as ``nan`` first.

    None if the row reader must read the lines: a blank line, a field the csv
    module may refuse, an ``n`` or ``N`` (every spelling of nan or inf that ``float``
    takes has one, so NaN comes only from empty cells), a cell loadtxt cannot parse
    (quoted, whitespace-only, ``1_0``), a line with no price cell, a row of the wrong
    length, a bad date or one already read, or a price outside (0, inf). So every
    block this accepts, the row reader reads the same.
    """
    text = "".join(lines)
    if "\n" in lines or _has_long_field(text) or "n" in text or "N" in text:
        return None
    del text  # the guards' copy of the block, freed before the parse
    parts = [line.partition(",") for line in lines]
    cells = [rest for _, _, rest in parts]
    if "" in cells or "\n" in cells:
        return None  # loadtxt would skip the line, or warn if it read no line at all
    try:
        dates = [_ymd(when.strip()) for when, _, _ in parts]
        del parts
        if gappy:
            # with a comma before and after its cells, a line's empty cells are its
            # ",,"; replace skips a match that overlaps the last, so a run takes two
            # passes. Rewritten in place, so that each line's old cells go as its new
            # ones come
            for i, rest in enumerate(cells):
                rest = "," + rest.removesuffix("\n") + ","
                cells[i] = rest.replace(",,", ",nan,").replace(",,", ",nan,")[1:-1]
        prices = np.loadtxt(cells, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    if (prices.shape != (len(lines), width) or _any_nonpositive_or_infinite(prices)
            or len(set(dates)) < len(dates) or not seen.keys().isdisjoint(dates)):
        return None
    return dates, prices


def _reserve(rows: FloatArray, count: int) -> None:
    """Double ``rows`` in place until it holds ``count`` rows."""
    size = len(rows)
    while size < count:
        size *= 2
    if size > len(rows):
        rows.resize((size, rows.shape[1]), refcheck=False)


def _read_panel(
    handle: TextIO,
) -> tuple[tuple[dt.date, ...], tuple[str, ...], FloatArray]:
    """Dates, tickers and price matrix, sorted by date.

    Blocks of lines go through ``_parse_block``; the first block it refuses
    and every line after it go through the row reader, which checks rows in
    file order, so the first bad row raises.
    """
    reader = csv.reader(handle)
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

    seen: dict[dt.date, None] = {}  # the dates in file order
    rows = np.empty((64, len(tickers)))  # one matrix, grown in place (see above)
    done = reader.line_num  # the lines read so far
    gappy = False  # from the first block with an empty cell on, every block is parsed as gappy
    while lines := handle.readlines(_BLOCK):
        block = _parse_block(lines, len(tickers), seen, gappy)
        if block is None and not gappy:
            # loadtxt refuses an empty cell; searching each block for one would cost a
            # clean panel more than this retry costs a gappy one
            gappy = True
            block = _parse_block(lines, len(tickers), seen, gappy)
        if block is None:
            break
        dates, prices = block
        _reserve(rows, len(seen) + len(dates))
        rows[len(seen):len(seen) + len(dates)] = prices
        seen.update(dict.fromkeys(dates))
        done += len(lines)

    # the row reader, from the refused block on (no lines if none was refused)
    reader = csv.reader(chain(lines, handle))
    start = done + 1  # a row starts on the line after the previous row ended
    for row in reader:
        line_no, start = start, done + reader.line_num + 1
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(
                line_no, 1, f"expected {len(header)} cells, found {len(row)}"
            )
        try:
            when = _ymd(row[0].strip())
        except ValueError:
            raise ParseError(line_no, 1, f"bad date: {row[0]!r}") from None
        if when in seen:
            raise DuplicateDate(when)
        _reserve(rows, len(seen) + 1)
        rows[len(seen)] = [_parse_price(cell, line_no, col)
                           for col, cell in enumerate(row[1:], start=2)]
        seen[when] = None

    rows.resize((len(seen), len(tickers)), refcheck=False)
    dates = tuple(seen)
    if any(a > b for a, b in zip(dates, dates[1:])):
        rows = rows[sorted(range(len(dates)), key=dates.__getitem__)]
        dates = tuple(sorted(dates))
    rows.setflags(write=False)  # so that PricePanel adopts it
    return dates, tickers, rows


def write_price_panel(panel: PricePanel, path: str | Path) -> None:
    """Write a panel in the CSV format load_price_panel reads, about 16,384 prices a slab."""
    rows = max(1, (1 << 14) // len(panel.tickers))
    slabs = ((list(map(str, panel.dates[s])), panel.prices[s])
             for s in _slabs(len(panel.dates), rows))
    _write_text(Path(path), _Table(("date", *panel.tickers), slabs).csv_text())


def first_trading_day_per_year(
    panel: PricePanel, years: Iterable[int | tuple[int, int]] | None = None
) -> list[dt.date]:
    """Earliest panel date in each requested year (default: every year present).

    Each entry of ``years`` is a year or an inclusive (first, last) range;
    a range whose first year comes after its last raises ValueError. The
    first year missing from the panel, in argument order, raises
    RefDateAbsent; a range is walked only up to that year, never expanded.
    """
    first: dict[int, dt.date] = {}
    for when in panel.dates:
        first.setdefault(when.year, when)
    if years is None:
        return [first[y] for y in sorted(first)]
    chosen: set[int] = set()
    for span in years:
        year, last = span if isinstance(span, tuple) else (span, span)
        if year > last:
            raise ValueError(f"empty year range {year}-{last}")
        while year <= last and year in first:
            chosen.add(year)
            year += 1
        if year <= last:
            raise RefDateAbsent(year, f"no trading days in year {year}")
    return [first[y] for y in sorted(chosen)]


# ---------------------------------------------------------------------------
# the normalize / dispersion / tail step, for one or several reference dates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    """One reference date's dispersion and tail series, which share their dates from
    that date on (the reports format the dates once, for both tables)."""

    ref_date: dt.date
    dispersion: DispersionSeries
    tails: TailSeries

    def __post_init__(self) -> None:
        dates = self.dispersion.dates
        if not dates or dates[0] != self.ref_date:
            raise ValueError("the series must start at their reference date")
        if self.tails.dates != dates:
            raise ValueError("the tail series must have its dispersion's dates")


@dataclass(frozen=True)
class SweepResult:
    """Dispersion and tail series for several reference dates over one universe, each
    entry's tail series under ``k_policy``."""

    entries: tuple[SweepEntry, ...]
    universe: tuple[str, ...]
    policy: str
    k_policy: KPolicy

    def __post_init__(self) -> None:
        _freeze(self, entries=tuple, universe=tuple)
        refs = [e.ref_date for e in self.entries]
        if any(a >= b for a, b in zip(refs, refs[1:])):
            raise ValueError("reference dates must be strictly increasing")
        if any(e.tails.k_policy != self.k_policy for e in self.entries):
            raise ValueError("each tail series must have the sweep's k policy")


@dataclass(frozen=True)
class AnalysisReport(SweepEntry):
    """Bundle written by the analyze command: one reference date's series."""

    extremes: tuple[ExtremeEvent, ...]
    policy: str
    window: int


def _sweep_entry(panel: PricePanel, ref_date: dt.date, policy: str,
                 k_policy: KPolicy) -> SweepEntry:
    """Dispersion and tail series from ``ref_date``, one performance chunk at a time,
    both over one date tuple: the panel's dates from ``ref_date`` on, which the chunks
    cover end to end."""
    parts = []
    for chunk in performance_chunks(panel, ref_date, policy):
        d, t = dispersion_series(chunk), tail_series(chunk, k_policy)
        parts.append((d.mean, d.variance, d.count, t.alpha, t.k, t.n))
    # the statistics reduce each date on its own, so the joined columns equal the
    # whole matrix's bit for bit
    mean, variance, count, alpha, k, n = (np.concatenate(column) for column in zip(*parts))
    dates = panel.dates[panel.date_index(ref_date):]
    return SweepEntry(ref_date=ref_date, dispersion=DispersionSeries(dates, mean, variance, count),
                      tails=TailSeries(dates, alpha, k, n, k_policy))


def tref_sweep(panel: PricePanel, ref_dates: list[dt.date], policy: str = DROP_AT_REF,
               k_policy: KPolicy | None = None) -> SweepResult:
    """Run the normalize / dispersion / tail pipeline once per reference date."""
    kp = k_policy if k_policy is not None else KPolicy()
    for when in ref_dates:
        if when not in panel.dates:
            raise RefDateAbsent(when)
    entries = tuple(_sweep_entry(panel, when, policy, kp) for when in sorted(set(ref_dates)))
    return SweepResult(entries=entries, universe=panel.tickers, policy=policy, k_policy=kp)


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


# ---------------------------------------------------------------------------
# report tables: one column model behind JSON and CSV
# ---------------------------------------------------------------------------


# the rows of a report table built and rendered at a time: its cells and text live that long
_SLAB = 512
_IsoText = Callable[[tuple[dt.date, ...]], tuple[str, int]]  # see _iso_text


def _slabs(n_rows: int, size: int = _SLAB) -> list[slice]:
    """The slabs of an ``n_rows``-row table, in order, of ``size`` rows (the last fewer)."""
    return [slice(i, min(i + size, n_rows)) for i in range(0, n_rows, size)]


def _meta(kind: str, **extra: Any) -> dict[str, Any]:
    return {"tool": "crossdisp", "version": __version__, "kind": kind, **extra}


def _csv_row(cells: Iterable[Any]) -> str:
    csv.writer(buf := StringIO(), lineterminator="\n").writerow(cells)
    return buf.getvalue()


class _Table(NamedTuple):
    """Column names plus slabs produced once, when rendered: each slab a tuple of one
    column per name, all of one length (see ``_cells`` for what a column may be)."""

    columns: tuple[str, ...]
    slabs: Iterable[tuple[Any, ...]]

    def csv_text(self) -> Iterator[str]:
        """The table as CSV: the header (a one-row slab of str), then one piece per slab."""
        for slab in chain([tuple([name] for name in self.columns)], self.slabs):
            cells = [_cells(column, json=False) for column in slab]
            if len(cells) == 1:  # csv.writer quotes a row's only cell if it is empty
                cells = [['""' if cell == "" else cell for cell in cells[0]]]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"


class _Layout(NamedTuple):
    """A report's JSON meta block and tables; ``json_body`` replaces the tables in JSON."""

    meta: dict[str, Any]
    tables: dict[str, _Table]
    json_body: dict[str, Any] | None = None


def _iso_text() -> _IsoText:
    """A function of dates to their ISO text joined by newlines (11 bytes a date) and the index
    there of the first; dates that end the last it formatted are not formatted again."""
    done: list[Any] = [(), ""]

    def text(dates: tuple[dt.date, ...]) -> tuple[str, int]:
        start = len(done[0]) - len(dates)
        if start < 0 or done[0][start:] != dates:
            # a slab at a time, so only one slab's strs are alive (str(date) is isoformat())
            done[:] = dates, "\n".join(["\n".join(map(str, dates[s])) for s in _slabs(len(dates))])
            start = 0
        return done[1], start
    return text


def _series_slabs(entry: SweepEntry, iso: _IsoText, *columns: str) -> Iterator[tuple[Any, ...]]:
    """The named columns of one reference date's dispersion and tail series, a slab at a
    time (a tail gap has null alpha, k and method but keeps its n)."""
    disp, tails = entry.dispersion, entry.tails
    text, first = iso(disp.dates)
    for s in _slabs(len(disp.dates)):
        gap = tails.k[s] == 0
        slab = {"ref_date": [text[11 * first:11 * first + 10]] * len(gap),
                "date": text[11 * (first + s.start):11 * (first + s.stop) - 1].split("\n"),
                "mean": disp.mean[s], "variance": disp.variance[s], "count": disp.count[s],
                "alpha": tails.alpha[s], "k": (tails.k[s], gap), "n": tails.n[s],
                "method": ([HILL] * len(gap), gap)}
        yield tuple(slab[c] for c in columns)


def _series_tables(entry: SweepEntry, iso: _IsoText) -> dict[str, _Table]:
    """The dispersion and tail tables of one reference date, over one date column."""
    return {name: _Table(columns, _series_slabs(entry, iso, *columns)) for name, columns in (
        ("dispersion", ("date", "mean", "variance", "count")),
        ("tail", ("date", "alpha", "k", "n", "method")))}


def _whole(n_rows: int, **columns: Any) -> _Table:
    """A table of whole named columns (arrays or lists of ``n_rows`` cells)."""
    return _Table(tuple(columns), (tuple(c[s] for c in columns.values()) for s in _slabs(n_rows)))


def _layout(result: Any) -> _Layout:
    """The meta block and tables of the five reports the commands write."""
    if isinstance(result, SurvivalCurve):
        z, survival = result.step_points()
        return _Layout(_meta("survival-curve", n=result.n),
                       {"series": _whole(len(z), z=z, survival=survival)})
    if isinstance(result, AnalysisReport):
        events = result.extremes
        return _Layout(
            _meta("analysis", ref_date=result.ref_date.isoformat(), policy=result.policy,
                  window=result.window, k_fraction=result.tails.k_policy.fraction,
                  min_n=result.tails.k_policy.min_n),
            {**_series_tables(result, _iso_text()), "extremes": _whole(
                len(events), date=np.array([e.date.isoformat() if isinstance(e.date, dt.date)
                                            else e.date for e in events], dtype=object),
                kind=[e.kind for e in events], value=np.array([e.value for e in events], float),
                window=np.array([e.window for e in events], dtype=np.int64))},
        )
    if isinstance(result, SweepResult):
        # JSON nests each reference date's tables, CSV joins them; entries are built as read
        iso = _iso_text()
        columns = ("ref_date", "date", "mean", "variance", "count", "alpha", "k")
        return _Layout(
            _meta("sweep", policy=result.policy, universe_size=len(result.universe),
                  k_fraction=result.k_policy.fraction, min_n=result.k_policy.min_n),
            {"series": _Table(columns, chain.from_iterable(
                _series_slabs(e, iso, *columns) for e in result.entries))},
            json_body={"series": ({"ref_date": e.ref_date.isoformat(), **_series_tables(e, iso)}
                                  for e in result.entries)},
        )
    if isinstance(result, RhoSweepTable):
        rows = result.rows
        return _Layout(
            _meta("rho-sweep", n=result.n, reps=result.reps,
                  sigma=float(result.sigma) if math.isfinite(result.sigma) else None,
                  seed=result.seed),
            {"series": _whole(len(rows), **{c: np.array([getattr(r, c) for r in rows], float)
                                            for c in ("rho", "mean_vn", "se_vn", "expected")},
                              source=[r.source for r in rows])},
        )
    if isinstance(result, HillSweep):
        return _Layout(_meta("hill-sweep"),
                       {"series": _whole(len(result.k), k=result.k, alpha=result.alpha)})
    raise TypeError(f"cannot serialize {type(result).__name__}")


# a scalar as json writes it (its C encoder: no indent), ValueError if not finite
_json_leaf = JSONEncoder(allow_nan=False).encode
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_quoted(cells: list[str]) -> list[str]:
    """str cells as csv.writer writes them: one with a comma, quote or line break goes
    through the writer, which quotes it or not (Python 3.13 quotes a lone CR, 3.11 not)."""
    if not _CSV_SPECIAL.search("".join(cells)):
        return list(cells)  # a new list, which the caller may change
    return [_csv_row([c])[:-1] if _CSV_SPECIAL.search(c) else c for c in cells]


def _cells(column: Any, json: bool) -> list[str]:
    """One column of a slab as JSON or CSV text, each kind encoded by one C-level call: a
    float array (a value that is not finite is null; in CSV a 2-D one is adjacent columns, a
    row's values one cell), an int array, a list of str, or a pair (int array or list of str,
    bool array) null where the bool array is set. An object array holds plain scalars, each
    as json.dumps or csv.writer writes it (None is null; in JSON a non-finite float raises)."""
    column, nulls = column if isinstance(column, tuple) else (column, None)
    null = "null" if json else ""
    if isinstance(column, list):
        cells = list(map(encode_basestring_ascii, column)) if json else _csv_quoted(column)
    elif column.dtype.kind == "f":
        cells = list(map(float.__repr__, column.ravel().tolist()))
        nulls = None if np.isfinite(column).all() else ~np.isfinite(column)
    elif column.dtype.kind == "O":
        cells = [null if c is None else _json_leaf(c) if json else _csv_quoted([str(c)])[0]
                 for c in column.tolist()]
    else:
        cells = list(map(int.__repr__, column.tolist()))
    for i in [] if nulls is None else np.flatnonzero(nulls).tolist():
        cells[i] = null
    if getattr(column, "ndim", 1) == 2:
        width = column.shape[1]
        return [",".join(cells[i:i + width]) for i in range(0, len(cells), width)]
    return cells


def _object_template(keys: Iterable[str], pad: str) -> str:
    """A JSON object at indent ``pad`` as a %-template, one ``%s`` per key."""
    fields = ",\n".join(f"{pad}  {encode_basestring_ascii(key).replace('%', '%%')}: %s"
                        for key in keys)
    return f"{{\n{fields}\n{pad}}}" if fields else "{}"


def _json_text(value: Any, pad: str) -> Iterator[str]:
    """``value`` (dicts, lists or iterators, ``_Table``s, scalars) at indent ``pad``, one
    piece per dict key, list item and slab of a table (a table is a list of objects)."""
    inner = pad + "  "
    if isinstance(value, dict):
        opening = "{"
        for key, item in value.items():
            yield f"{opening}\n{inner}{encode_basestring_ascii(key)}: "
            yield from _json_text(item, inner)
            opening = ","
        yield "{}" if opening == "{" else f"\n{pad}}}"
    elif isinstance(value, _Table):  # a NamedTuple, so tested before tuple
        row, opening = _object_template(value.columns, inner), "["
        for slab in value.slabs:
            cells = [_cells(column, json=True) for column in slab]
            template = f",\n{inner}".join([row] * len(cells[0]))  # the slab's objects
            yield f"{opening}\n{inner}" + template % tuple(chain.from_iterable(zip(*cells)))
            opening = ","
        yield "[]" if opening == "[" else f"\n{pad}]"
    elif isinstance(value, (list, tuple, Iterator)):
        opening = "["
        for item in value:
            yield f"{opening}\n{inner}"
            yield from _json_text(item, inner)
            opening = ","
        yield "[]" if opening == "[" else f"\n{pad}]"
    else:
        yield _json_leaf(value)


def render_chunks(result: Any, fmt: str = "csv") -> Iterator[str]:
    """A report's CSV or JSON text in pieces, each rendered when it is read;
    an unsupported report or format raises at once, before the first piece."""
    if fmt == "json":
        layout = _layout(result)
        body = layout.tables if layout.json_body is None else layout.json_body
        return chain(_json_text({"meta": layout.meta, **body}, ""), ("\n",))
    if fmt == "csv":
        tables = _layout(result).tables
        if len(tables) != 1:
            raise TypeError(f"cannot serialize {type(result).__name__} to CSV")
        (table,) = tables.values()
        return table.csv_text()
    raise ValueError(f"unsupported report format: {fmt!r}")


def render_report(result: Any, fmt: str = "csv") -> str:
    """Serialize a report object to CSV or JSON text."""
    return "".join(render_chunks(result, fmt))


def _write_text(path: Path | None, chunks: Iterable[str]) -> None:
    """Write ``chunks``, each as it comes, to ``path``, or to stdout if it is
    None; an OSError becomes an IoError naming the target. A file is written
    into a temporary file next to it that then replaces it, so a failed write
    or a chunk that raises leaves the old bytes or no file. The directory must
    be writable. A new file gets 0o666 less the umask, a replaced one keeps its
    mode, and one we may not write is left as it is. Stdout and a target that
    is not a regular file (symlink, /dev/stdout, FIFO) are written in place and
    flushed, and keep what was written before a failure."""
    try:
        try:
            mode: int | None = None if path is None else os.lstat(path).st_mode
        except FileNotFoundError:
            mode = None
        if path is None or (mode is not None and not stat.S_ISREG(mode)):
            with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as handle:
                for chunk in chunks:
                    handle.write(chunk)
                handle.flush()
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
                for chunk in chunks:
                    handle.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        if path is None:
            if sys.stdout is sys.__stdout__:
                # what stdout still buffers would fail again, with a traceback, when Python
                # flushes it at exit: point it at /dev/null, as the signal docs advise
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            raise IoError(f"cannot write <stdout>: {exc}") from exc
        # name the target, not the temporary file
        shown = OSError(exc.errno, exc.strerror, os.fspath(path)) if exc.filename else exc
        raise IoError(f"cannot write {path}: {shown}") from exc


def write_report(result: Any, path: str | Path | None, fmt: str = "csv") -> None:
    """Render ``result`` and write it to ``path`` atomically, or to stdout if
    ``path`` is None, streamed: each piece is written as it is rendered, so
    memory follows one slab of 512 rows.

    In CSV a report with several tables (AnalysisReport) writes one file
    per table, ``base.<table>.csv``, where ``base`` is ``path`` without a
    ``.csv`` suffix, each streamed in turn; to stdout it raises TypeError
    before the first byte.
    """
    if path is None or fmt != "csv":
        _write_text(None if path is None else Path(path), render_chunks(result, fmt))
        return
    path = Path(path)
    tables = _layout(result).tables
    base = path.with_suffix("") if path.suffix == ".csv" else path
    for name, table in tables.items():
        _write_text(path if len(tables) == 1 else Path(f"{base}.{name}.csv"), table.csv_text())
