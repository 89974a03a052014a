"""The block-wise CSV loader against the plain per-cell reference loader."""

import csv
import datetime as dt
import math
import re
import tracemalloc
from io import StringIO
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdisp import (
    DataError,
    DuplicateDate,
    NonPositivePrice,
    ParseError,
    PricePanel,
    load_price_panel,
    write_price_panel,
)
from crossdisp import io as crossdisp_io


# ---------------------------------------------------------------------------
# reference: read the whole text, parse every cell on its own
# ---------------------------------------------------------------------------


def _reference_price(cell, line, column):
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


def reference_load_price_panel(path):
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(StringIO(text))
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

    rows = []
    seen = set()
    start = reader.line_num + 1  # a row starts on the line after the previous row ended
    for row in reader:
        line_no, start = start, reader.line_num + 1
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(
                line_no, 1, f"expected {len(header)} cells, found {len(row)}"
            )
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", row[0].strip()):
            raise ParseError(line_no, 1, f"bad date: {row[0]!r}")
        try:
            when = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(line_no, 1, f"bad date: {row[0]!r}") from None
        if when in seen:
            raise DuplicateDate(when)
        seen.add(when)
        prices = [
            _reference_price(cell, line_no, col)
            for col, cell in enumerate(row[1:], start=2)
        ]
        rows.append((when, prices))

    rows.sort(key=lambda item: item[0])
    dates = tuple(when for when, _ in rows)
    matrix = np.array([p for _, p in rows], dtype=np.float64).reshape(
        len(rows), len(tickers)
    )
    return PricePanel(dates=dates, tickers=tickers, prices=matrix)


def outcome(load, path):
    """What a loader makes of a file: the panel's exact contents, or its error."""
    try:
        panel = load(path)
    except DataError as exc:
        return type(exc), str(exc)
    return panel.dates, panel.tickers, panel.prices.shape, panel.prices.tobytes()


# ---------------------------------------------------------------------------
# generated panels
# ---------------------------------------------------------------------------

DATES = [f"2020-01-{day:02d}" for day in range(2, 12)]
# Python 3.11's date.fromisoformat also reads 20200102 and 2020-W01-4
BAD_DATES = ["", "x", "2020-02-30", "01/02/2020", "20200102", "2020-W01-4", "2020-1-02"]
TOKENS = [
    "", " ", "  ", "nan", "NaN", "inf", "-inf", "1e400", "-1", "0", "-0",
    "x", "1_0", "+4", '"5"', " 7 ", '""', "1e-320", "2.5",
    "1e309", "infinity", "-infinity", "-Infinity", "1e-400", "6#x", "\u0663", "0x10", "\x1c1",
]
GOOD_CELLS = st.one_of(
    st.just(""),
    st.floats(min_value=1e-300, max_value=1e300).map(repr),
)
WILD_CELLS = st.one_of(st.sampled_from(TOKENS), st.floats().map(repr))
ROW_KINDS = ["good"] * 6 + ["wild"] * 3 + ["blank", "ragged", "bad date", "duplicate"]


@st.composite
def panel_texts(draw):
    """Unsorted rows, a few of them broken in one of several ways."""
    width = draw(st.integers(1, 4))
    dates = draw(st.permutations(DATES))
    lines = ["date," + ",".join(f"T{i}" for i in range(width))]
    for i in range(draw(st.integers(0, len(dates)))):
        kind = draw(st.sampled_from(ROW_KINDS))
        if kind == "blank":
            lines.append("")
            continue
        date = dates[i]
        if kind == "bad date":
            date = draw(st.sampled_from(BAD_DATES))
        elif kind == "duplicate" and i > 0:
            date = dates[draw(st.integers(0, i - 1))]
        cells = draw(st.lists(GOOD_CELLS, min_size=width, max_size=width))
        if kind == "wild":
            for col in draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=2)):
                cells[col] = draw(WILD_CELLS)
        elif kind == "ragged":
            cells = cells[1:] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join([date] + cells))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline


@pytest.mark.parametrize("token", TOKENS)
def test_each_token_matches_reference(token, tmp_path):
    # the first file is one gappy block, which loadtxt parses a second time with its
    # empty cell written as nan: a nan or inf token must still name its line and column
    path = tmp_path / "token.csv"
    path.write_text(f"date,A,B,C\n2020-01-03,1,{token},2\n2020-01-02,3,4,\n", encoding="utf-8")
    assert outcome(load_price_panel, path) == outcome(reference_load_price_panel, path)
    # no other cell empty, so the token meets np.loadtxt, last in its row
    path.write_text(f"date,A,B,C\n2020-01-03,1,2,{token}\n2020-01-02,3,4,5\n", encoding="utf-8")
    assert outcome(load_price_panel, path) == outcome(reference_load_price_panel, path)


@settings(max_examples=200, deadline=None)
@given(text=panel_texts())
def test_streamed_loader_matches_reference(text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(load_price_panel, path) == outcome(reference_load_price_panel, path)


FULL_CELLS = st.one_of(
    st.sampled_from(["", "+4", " 7 ", "2.50", "1e-320"]),
    st.floats(min_value=1e-300, max_value=1e300).map(repr),
)
REFUSALS = ["wild", "blank", "ragged", "quoted", "quoted over two lines", "bad date",
            "earlier date", "whitespace"]


@st.composite
def multi_block_texts(draw):
    """Rows in any order, with empty cells anywhere (leading, trailing, in runs), so
    that the block parser reads them, and after the first row up to two rows that it
    refuses in one of several ways."""
    width = draw(st.integers(1, 4))
    days = draw(st.permutations(range(60)))[:draw(st.integers(2, 40))]
    rows = [[(dt.date(2020, 1, 1) + dt.timedelta(days=day)).isoformat(),
             *draw(st.lists(FULL_CELLS, min_size=width, max_size=width))] for day in days]
    blanks = []
    for at in draw(st.lists(st.integers(1, len(rows) - 1), max_size=2, unique=True)):
        col = draw(st.integers(1, width))
        kind = draw(st.sampled_from(REFUSALS))
        if kind == "wild":
            rows[at][col] = draw(WILD_CELLS)
        elif kind == "blank":
            blanks.append(at)
        elif kind == "ragged":
            rows[at] = rows[at][:-1] if draw(st.booleans()) else rows[at] + ["1"]
        elif kind == "quoted":
            rows[at][col] = f'"{rows[at][col]}"'
        elif kind == "quoted over two lines":
            rows[at][col] = f'"{rows[at][col]}\n"'
        elif kind == "bad date":
            rows[at][0] = draw(st.sampled_from(BAD_DATES))
        elif kind == "earlier date":
            rows[at][0] = rows[draw(st.integers(0, at - 1))][0]
        else:
            rows[at][col] = " "
    for at in sorted(blanks, reverse=True):
        rows.insert(at, [])
    lines = ["date," + ",".join(f"T{i}" for i in range(width))] + [",".join(r) for r in rows]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline


@settings(max_examples=300, deadline=None)
@given(text=multi_block_texts(), block=st.integers(1, 160))
def test_block_parser_matches_reference(text, block, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "blocks.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with patch.object(crossdisp_io, "_BLOCK", block):
        assert outcome(load_price_panel, path) == outcome(reference_load_price_panel, path)


def test_no_written_panel_reaches_the_row_reader(tmp_path, monkeypatch):
    def row_reader(cell, line, column):
        raise AssertionError(f"line {line} went through the row reader")

    monkeypatch.setattr(crossdisp_io, "_parse_price", row_reader)
    rng = np.random.default_rng(13)
    n_dates, n_stocks = 500, 40
    for gap_share in (0.0, 0.1, 0.5):
        prices = np.exp(rng.normal(3.0, 1.0, (n_dates, n_stocks)))
        prices[rng.random(prices.shape) < gap_share] = np.nan
        # a stock listed late, one delisted early, one never priced
        prices[:100, 0] = prices[400:, 1] = prices[:, 2] = np.nan
        panel = PricePanel(
            dates=tuple(dt.date(2000, 1, 3) + dt.timedelta(days=i) for i in range(n_dates)),
            tickers=tuple(f"S{i:02d}" for i in range(n_stocks)),
            prices=prices,
        )
        path = tmp_path / "panel.csv"
        write_price_panel(panel, path)
        assert path.stat().st_size > 4 * crossdisp_io._BLOCK
        loaded = load_price_panel(path)
        assert loaded.dates == panel.dates
        assert loaded.prices.tobytes() == panel.prices.tobytes()


def test_error_lines_are_physical_lines(tmp_path):
    # the quoted cell spans lines 2 and 3, so the bad cell is on line 4
    path = tmp_path / "quoted.csv"
    path.write_text('date,A,B\n2004-01-02,"1\n",2\n2004-01-03,2,x\n', encoding="utf-8")
    with pytest.raises(ParseError, match=r"^line 4, column 3: not a number: 'x'$"):
        load_price_panel(path)
    assert outcome(load_price_panel, path) == outcome(reference_load_price_panel, path)


def test_a_field_longer_than_the_csv_limit_is_refused(tmp_path):
    # np.loadtxt has no field limit; the row reader reads the block and the csv module
    # refuses the field, as it does on its own
    digits = csv.field_size_limit() + 10
    path = tmp_path / "long.csv"
    path.write_text(f"date,A,B\n2020-01-02,1,2\n2020-01-03,1.{'0' * digits},2\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match=r"malformed CSV \(field larger than field limit"):
        load_price_panel(path)
    # a field just under the limit is a price
    path.write_text(f"date,A,B\n2020-01-02,1,2\n2020-01-03,1.{'0' * (digits - 20)},2\n",
                    encoding="utf-8")
    assert outcome(load_price_panel, path) == outcome(reference_load_price_panel, path)


def test_a_short_comma_free_tail_is_no_long_field():
    # a block that ends one character into a window of half the csv limit: that
    # window holds no comma, but only a whole window can hold part of a long field
    half = csv.field_size_limit() // 2
    width = half // 7
    lines = [f"2020-01-0{day}{',1.5' * width}\n" for day in (2, 3, 4)]
    pad = 2 * half + 1 - len("".join(lines))
    lines[0] = lines[0].replace(",1.5", ",1.5" + "0" * pad, 1)
    text = "".join(lines)
    assert len(text) == 2 * half + 1 and "," not in text[2 * half:]
    assert not crossdisp_io._has_long_field(text)
    dates, prices = crossdisp_io._parse_block(lines, width, {}, gappy=False)
    assert len(dates) == 3 and prices.shape == (3, width) and (prices == 1.5).all()
    # a field one character over the limit still is one
    field = "1." + "0" * (2 * half - 1)
    assert len(field) == csv.field_size_limit() + 1
    assert crossdisp_io._has_long_field(f"2020-01-02,{field},2\n")


@pytest.mark.parametrize("text", ["20200102", "2020-W01-4", "2020W014", " 2020-01-02 x"])
def test_dates_are_read_only_as_yyyy_mm_dd(text, tmp_path):
    path = tmp_path / "dates.csv"
    path.write_text(f"date,A\n2020-01-01,1\n{text},2\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^line 3, column 1: bad date: {text!r}$"):
        load_price_panel(path)
    assert outcome(load_price_panel, path) == outcome(reference_load_price_panel, path)


def test_unsorted_rows_past_the_first_matrix_block(tmp_path):
    # 300 rows in random order: the loader's matrix grows from 64 rows to 512
    rng = np.random.default_rng(7)
    lines = ["date,A,B,C"]
    for day in rng.permutation(300):
        when = dt.date(2001, 1, 1) + dt.timedelta(days=int(day))
        cells = ["" if x < 0.5 else repr(x) for x in rng.exponential(10.0, 3).tolist()]
        lines.append(",".join([when.isoformat(), *cells]))
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_price_panel(path).prices.shape == (300, 3)
    assert outcome(load_price_panel, path) == outcome(reference_load_price_panel, path)


@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
def test_rows_in_any_order_load_sorted_and_read_only(order, tmp_path):
    # 70 rows: past the loader's first 64-row block
    days = {"sorted": range(70), "reversed": range(69, -1, -1),
            "shuffled": np.random.default_rng(3).permutation(70).tolist()}[order]
    lines = ["date,A,B"] + [f"{dt.date(2001, 1, 1) + dt.timedelta(days=day)},{day + 1},"
                            for day in days]
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    panel = load_price_panel(path)
    assert panel.dates == tuple(dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(70))
    assert panel.prices[:, 0].tolist() == list(range(1, 71))
    assert np.isnan(panel.prices[:, 1]).all()
    assert not panel.prices.flags.writeable
    with pytest.raises(ValueError):
        panel.prices[0, 0] = 2.0


@pytest.mark.parametrize("rows, error", [
    # the first bad row in file order raises, after the first 64-row block too
    (["2001-01-02,1", "2001-01-01,1", "2001-01-02,x"], "duplicate date: 2001-01-02"),
    (["2001-01-02,1", "2001-01-01,x", "2001-01-02,1"], "line 3, column 2: not a number: 'x'"),
    ([f"{dt.date(2001, 1, 1) + dt.timedelta(days=i)},1" for i in range(99, 29, -1)]
     + ["2002-01-01,0", "2001-04-10,1"], "line 72, column 2: non-positive price 0.0"),
    ([f"{dt.date(2001, 1, 1) + dt.timedelta(days=i)},1" for i in range(99, 29, -1)]
     + ["2001-04-10,1", "2002-01-01,0"], "duplicate date: 2001-04-10"),
])
def test_first_bad_row_in_file_order_raises(rows, error, tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(["date,A", *rows]) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_price_panel(path)
    assert str(err.value) == error


# ---------------------------------------------------------------------------
# byte-order mark
# ---------------------------------------------------------------------------

BOM = "\ufeff"


def test_leading_byte_order_mark_is_dropped(tmp_path):
    text = "date,A,B\n2020-01-03,1,2\n2020-01-02,3,\n"
    plain = tmp_path / "plain.csv"
    marked = tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(BOM + text, encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfdate,")
    assert outcome(load_price_panel, marked) == outcome(reference_load_price_panel, plain)


@pytest.mark.parametrize(
    "text",
    [
        f"date,A,B\n2020-01-03,{BOM}1,2\n",
        f"date,A,B\n2020-01-03,1,2{BOM}\n",
        f"date,A,B\n{BOM}2020-01-03,1,2\n",
        f"date,{BOM}A,B\n2020-01-03,1,2\n",
        f"{BOM}{BOM}date,A\n2020-01-03,1\n",
    ],
)
def test_byte_order_mark_elsewhere_is_unchanged(text, tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text(text, encoding="utf-8")
    assert outcome(load_price_panel, path) == outcome(reference_load_price_panel, path)


def test_byte_order_mark_in_a_price_cell_is_a_parse_error(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text(f"{BOM}date,A,B\n2020-01-03,1,{BOM}2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2, column 3"):
        load_price_panel(path)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def test_ingest_peak_memory_is_bounded_by_the_matrix(tmp_path):
    rng = np.random.default_rng(11)
    n_dates, n_stocks = 200, 300
    prices = np.exp(rng.normal(3.0, 1.0, (n_dates, n_stocks)))
    prices[rng.random(prices.shape) < 0.05] = np.nan
    panel = PricePanel(
        dates=tuple(dt.date(2000, 1, 3) + dt.timedelta(days=i) for i in range(n_dates)),
        tickers=tuple(f"S{i:03d}" for i in range(n_stocks)),
        prices=prices,
    )
    path = tmp_path / "panel.csv"
    write_price_panel(panel, path)

    tracemalloc.start()
    try:
        loaded = load_price_panel(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.prices, prices, equal_nan=True)
    # one matrix, grown in place to 256 rows for 200 dates and then adopted by the
    # panel; the constant covers the reader's buffers
    assert peak <= 256 / 200 * loaded.prices.nbytes + 256 * 1024
