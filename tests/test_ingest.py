"""The streamed CSV loader against the plain per-cell reference loader."""

import csv
import datetime as dt
import math
import tracemalloc
from io import StringIO
from pathlib import Path

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
BAD_DATES = ["", "x", "2020-02-30", "01/02/2020"]
TOKENS = [
    "", " ", "  ", "nan", "NaN", "inf", "-inf", "1e400", "-1", "0", "-0",
    "x", "1_0", "+4", '"5"', " 7 ", '""', "1e-320", "2.5",
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
    path = tmp_path / "token.csv"
    path.write_text(f"date,A,B,C\n2020-01-03,1,{token},2\n2020-01-02,3,4,\n", encoding="utf-8")
    assert outcome(load_price_panel, path) == outcome(reference_load_price_panel, path)


@settings(max_examples=200, deadline=None)
@given(text=panel_texts())
def test_streamed_loader_matches_reference(text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(load_price_panel, path) == outcome(reference_load_price_panel, path)


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
    # the rows, the stacked matrix and PricePanel's checked copy come to
    # about 3x; the constant covers the reader's buffers and row objects
    assert peak <= 5 * loaded.prices.nbytes + 256 * 1024
