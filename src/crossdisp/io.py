"""CSV ingestion of price panels, reference-date sweeps, and CSV/JSON reports.

Input contract (CSV, UTF-8, optionally starting with a byte-order mark):
header row ``date,<ticker1>,<ticker2>,...``, one row per date with a
``YYYY-MM-DD`` date and decimal prices. An empty cell is a missing price.
Duplicate dates, non-positive prices and anything unparsable are
rejected with the offending line and column (1-based). Rows may arrive
in any order; the panel is sorted by date after loading.

Ingest is streamed in blocks of whole lines of about 32 KiB. Each block's
dates are split off and parsed in Python and its prices in C by
``np.loadtxt``, each empty cell written as ``nan``; a block is taken only
if every cell that is not empty is a price in (0, inf) and every date is
new. The first block refused (one with a quoted, whitespace-only or
unparsable cell, say) and every line after it go through the row reader,
which converts each cell on its own, with the same result. So every error is
raised first in file order, naming the physical line it starts on. Rows
fill one float64 matrix, doubled in place (``ndarray.resize``) when full,
trimmed at the end, reordered only if the dates came unsorted and adopted
by the panel, so peak memory follows the matrix, not the file text or the
heap's layout.
Non-UTF-8 bytes and text the csv module cannot split (such as an oversized
field) raise a DataError.

``tref_sweep`` is the normalize / dispersion / tail step of both
``analyze`` (one reference date) and ``sweep``, run one performance
chunk at a time; each reference date's series form one ``SweepEntry``.
Its dispersion and tail tables are formatted from the series' columns
over one date column (a tail gap has empty alpha, k and method cells but
keeps its n).

There are five reports, the ones the commands write: ``AnalysisReport``
(analyze), ``SweepResult`` (sweep), ``SurvivalCurve`` and ``HillSweep``
(survival) and ``RhoSweepTable`` (simulate). Each maps to a ``meta``
block and named tables of rows, which both formats render; anything else
(a bare series, a list of events, a ``SimResult``) raises TypeError. A
JSON document is a top-level object with the ``meta`` block (tool,
version, policies, seed where applicable) and each table as a list of
objects, written here from the tables (one %-template per table fills
each row) byte for byte as ``json.dumps(document, indent=2,
allow_nan=False)`` plus a newline would write it; CSV holds one table
per file. Floats use Python's shortest round-trip repr, so every
written number reparses to the exact same double; undefined values are
null in JSON and empty cells in CSV. Reports are streamed to their file
or to stdout. Every table's cells are built one slab of 512 rows at a
time, and JSON is rendered a slab at a time, CSV in pieces of 64 KiB, so
memory follows one slab of 512 rows, not the table or the report. Files
are replaced atomically.
"""

from __future__ import annotations

import csv
import datetime as dt
import errno
import math
import os
import stat
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import nullcontext
from dataclasses import dataclass
from io import StringIO
from itertools import chain, islice
from json.encoder import JSONEncoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, TextIO

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
    such field spans a whole aligned window of half the limit without a comma."""
    half = max(csv.field_size_limit() // 2, 1)
    return len(text) > 2 * half and any(
        text.find(",", start, start + half) < 0 for start in range(0, len(text), half))


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
    """Write a panel in the same CSV format load_price_panel reads."""
    rows = (
        (when.isoformat(), *_jf_all(row))
        for when, row in zip(panel.dates, panel.prices)
    )
    _write_text(Path(path), _Table(("date", *panel.tickers), rows).csv_text())


def first_trading_day_per_year(
    panel: PricePanel, years: Iterable[int | tuple[int, int]] | None = None
) -> list[dt.date]:
    """Earliest panel date in each requested year (default: every year present).

    Each entry of ``years`` is a year or an inclusive (first, last) range.
    The first year missing from the panel, in argument order, raises
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
    that date on (the reports format the dates once and join the tables row by row)."""

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


def _joined(parts: list[Any], columns: tuple[str, ...], **extra: Any) -> Any:
    """One series of consecutive ``parts``: their dates and each column joined."""
    return type(parts[0])(tuple(chain.from_iterable(part.dates for part in parts)),
                          *(np.concatenate([getattr(part, c) for part in parts]) for c in columns),
                          **extra)


def _sweep_entry(panel: PricePanel, ref_date: dt.date, policy: str,
                 k_policy: KPolicy) -> SweepEntry:
    """Dispersion and tail series from ``ref_date``, one performance chunk at a time."""
    # the statistics reduce each date on its own, so the joined columns equal the
    # whole matrix's bit for bit
    parts = [(dispersion_series(chunk), tail_series(chunk, k_policy))
             for chunk in performance_chunks(panel, ref_date, policy)]
    dispersions, tails = zip(*parts)
    return SweepEntry(
        ref_date=ref_date,
        dispersion=_joined(dispersions, ("mean", "variance", "count")),
        tails=_joined(tails, ("alpha", "k", "n"), k_policy=k_policy),
    )


def tref_sweep(panel: PricePanel, ref_dates: list[dt.date], policy: str = DROP_AT_REF,
               k_policy: KPolicy | None = None) -> SweepResult:
    """Run the normalize / dispersion / tail pipeline once per reference date."""
    kp = k_policy if k_policy is not None else KPolicy()
    for when in ref_dates:
        if when not in panel.dates:
            raise RefDateAbsent(when)
    return SweepResult(
        entries=tuple(_sweep_entry(panel, when, policy, kp) for when in sorted(set(ref_dates))),
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


# ---------------------------------------------------------------------------
# report tables: one row model behind JSON and CSV
# ---------------------------------------------------------------------------


# the rows of a report table built and rendered at a time: cells and text are alive for
# one slab, not for the table
_SLAB = 512


def _slabs(n_rows: int) -> list[slice]:
    """The slabs of an ``n_rows``-row table, in order."""
    return [slice(i, i + _SLAB) for i in range(0, n_rows, _SLAB)]


def _jf(value: float | None) -> float | None:
    """A float cell: NaN and infinities become None (JSON null, empty CSV cell)."""
    return None if value is None or not math.isfinite(value) else float(value)


def _jf_all(values: FloatArray) -> list[float | None]:
    """``_jf`` of every value of a float array."""
    return values.tolist() if np.isfinite(values).all() else list(map(_jf, values.tolist()))


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

    def csv_text(self) -> Iterator[str]:
        """The table as CSV, in pieces of 64 KiB or more (the last may be shorter)."""
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)  # None becomes an empty cell
            if buf.tell() >= 1 << 16:
                yield buf.getvalue()
                # a new buffer: one emptied by seek and truncate writes slower
                buf = StringIO()
                writer = csv.writer(buf, lineterminator="\n")
        yield buf.getvalue()


@dataclass(frozen=True)
class _Layout:
    """A report's JSON meta block and tables; ``json_body`` replaces the tables in JSON."""

    meta: dict[str, Any]
    tables: dict[str, _Table]
    json_body: dict[str, Any] | None = None


def _series_tables(entry: SweepEntry) -> dict[str, _Table]:
    """The dispersion and tail tables of one reference date, over one date column."""
    disp, tails = entry.dispersion, entry.tails
    slabs = _slabs(len(disp.dates))
    # each date formatted once and kept as one line of its slab's string: about 11 bytes
    # a date, where a str of its own takes about 60
    iso = ["\n".join([when.isoformat() for when in disp.dates[s]]) for s in slabs]

    def dispersion_rows(s: slice, dates: str) -> Iterable[tuple[Any, ...]]:
        return zip(dates.split("\n"), _jf_all(disp.mean[s]), _jf_all(disp.variance[s]),
                   disp.count[s].tolist())

    def tail_rows(s: slice, dates: str) -> Iterable[tuple[Any, ...]]:
        k, method = (np.where(tails.k[s] == 0, None, c).tolist() for c in (tails.k[s], HILL))
        return zip(dates.split("\n"), _jf_all(tails.alpha[s]), k, tails.n[s].tolist(), method)

    return {
        "dispersion": _Table(("date", "mean", "variance", "count"),
                             chain.from_iterable(map(dispersion_rows, slabs, iso))),
        "tail": _Table(("date", "alpha", "k", "n", "method"),
                       chain.from_iterable(map(tail_rows, slabs, iso))),
    }


def _layout(result: Any) -> _Layout:
    """The meta block and tables of the five reports the commands write."""
    if isinstance(result, SurvivalCurve):
        points = result.step_points()
        return _Layout(_meta("survival-curve", n=result.n), {"series": _Table(
            ("z", "survival"), chain.from_iterable(
                zip(*(_jf_all(c[s]) for c in points)) for s in _slabs(len(points[0]))))})
    if isinstance(result, AnalysisReport):
        return _Layout(
            _meta(
                "analysis",
                ref_date=result.ref_date.isoformat(),
                policy=result.policy,
                window=result.window,
                **_k_policy_meta(result.tails.k_policy),
            ),
            {**_series_tables(result), "extremes": _Table(
                ("date", "kind", "value", "window"),
                ((e.date.isoformat() if isinstance(e.date, dt.date) else e.date,
                  e.kind, _jf(e.value), e.window) for e in result.extremes))},
        )
    if isinstance(result, SweepResult):
        # JSON nests each reference date's tables, CSV joins them; entries are built as read
        entries = ({"ref_date": e.ref_date.isoformat(), **_series_tables(e)}
                   for e in result.entries)
        return _Layout(
            _meta(
                "sweep",
                policy=result.policy,
                universe_size=len(result.universe),
                **_k_policy_meta(result.k_policy),
            ),
            # each row: ref_date, the dispersion row (date, mean, variance, count), alpha, k
            {"series": _Table(("ref_date", "date", "mean", "variance", "count", "alpha", "k"), (
                (e["ref_date"], *row, tail_row[1], tail_row[2])
                for e in entries for row, tail_row in zip(e["dispersion"].rows, e["tail"].rows)
            ))},
            json_body={"series": entries},
        )
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
        return _Layout(_meta("hill-sweep"), {"series": _Table(
            ("k", "alpha"), chain.from_iterable(zip(result.k[s].tolist(), _jf_all(result.alpha[s]))
                                                for s in _slabs(len(result.k))))})
    raise TypeError(f"cannot serialize {type(result).__name__}")


# a scalar as json writes it (its C encoder: no indent), ValueError if not finite
_json_leaf = JSONEncoder(allow_nan=False).encode
_JSON_BY_TYPE: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__}


def _json_cells(column: tuple[Any, ...]) -> list[str]:
    """Each cell as ``_json_leaf`` writes it; one type's cells by that type's encoder."""
    kinds = set(map(type, column)) - {type(None)}
    encode = _JSON_BY_TYPE.get(kinds.pop(), _json_leaf) if len(kinds) == 1 else _json_leaf
    if encode is float.__repr__ and not all(math.isfinite(c) for c in column if c is not None):
        encode = _json_leaf  # raises at the first value that is not finite
    return ["null" if cell is None else encode(cell) for cell in column]


def _object_template(keys: Iterable[str], pad: str) -> str:
    """A JSON object at indent ``pad`` as a %-template, one ``%s`` per key."""
    fields = ",\n".join(f"{pad}  {encode_basestring_ascii(key).replace('%', '%%')}: %s"
                        for key in keys)
    return f"{{\n{fields}\n{pad}}}" if fields else "{}"


def _json_text(value: Any, pad: str) -> Iterator[str]:
    """``value`` (dicts, lists or iterators, ``_Table``s, scalars) at indent ``pad``, one
    piece per dict key, list item and slab of a table's rows (a table is a list of
    objects, one template per row; each slab picks its columns' encoders itself)."""
    inner = pad + "  "
    if isinstance(value, dict):
        opening = "{"
        for key, item in value.items():
            yield f"{opening}\n{inner}{encode_basestring_ascii(key)}: "
            yield from _json_text(item, inner)
            opening = ","
        yield "{}" if opening == "{" else f"\n{pad}}}"
    elif isinstance(value, _Table):
        fill = _object_template(value.columns, inner).__mod__
        rows = iter(value.rows)
        opening = "["
        while slab := list(islice(rows, _SLAB)):
            cells = zip(*map(_json_cells, zip(*slab)))
            yield f"{opening}\n{inner}" + f",\n{inner}".join(map(fill, cells))
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
