"""Performances in chunks of dates against the whole performance matrix.

``panel.performance_chunks`` divides the price matrix a chunk of dates at a
time; ``io._sweep_entry`` (the step of ``analyze`` and ``sweep``) and the
``survival`` command reduce those chunks one by one, and ``normalize_panel``
joins them. Here each is compared, bit for bit, with the whole-matrix
normalization it replaced, kept below as the reference. Chunks are shrunk to
a few dates by patching ``panel.CHUNK_BYTES``, and a tall panel is also cut at
the shipped size and at 1 MiB.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdisp import panel as panel_module
from crossdisp.cli import EXIT_DATA, EXIT_OK, main
from crossdisp.errors import DataError, TooFewStocks
from crossdisp.io import _sweep_entry, render_report, write_price_panel
from crossdisp.panel import (
    COMPLETE_ONLY,
    DROP_AT_REF,
    PerformancePanel,
    PricePanel,
    dispersion_series,
    normalize_panel,
    performance_chunks,
    survival_curve,
)
from crossdisp.tails import KPolicy, tail_series


def reference_normalize(panel, ref_date, policy):
    """The whole performance matrix at once, as ``normalize_panel`` built it
    before chunks: one fancy-indexed division of every row from the reference date."""
    row = panel.date_index(ref_date)
    ref_prices = panel.prices[row]
    keep = np.isfinite(ref_prices)
    if policy == COMPLETE_ONLY:
        keep &= np.isfinite(panel.prices[row:]).all(axis=0)
    n_kept = int(keep.sum())
    if n_kept < 2:
        raise TooFewStocks(n_kept, 2)
    with np.errstate(over="ignore"):
        values = panel.prices[row:, keep] / ref_prices[keep]
    tickers = tuple(t for t, ok in zip(panel.tickers, keep) if ok)
    if (np.fmin.reduce(values, axis=None, initial=1.0) == 0.0
            or np.fmax.reduce(values, axis=None, initial=1.0) == np.inf):
        i, j = np.argwhere((values == 0.0) | (values == np.inf))[0]
        raise DataError(f"performance of {tickers[j]} on {panel.dates[row + i]} against "
                        f"{ref_date} is outside the range of a double")
    return PerformancePanel(ref_date=ref_date, dates=panel.dates[row:], tickers=tickers,
                            values=values)


def columns(series, names):
    """A series' dates and the exact bytes of each named column."""
    return series.dates, [getattr(series, name).tobytes() for name in names]


def outcome(compute):
    try:
        return compute()
    except DataError as exc:
        return type(exc), str(exc)


def whole(panel, ref, policy, kp):
    perf = reference_normalize(panel, ref, policy)
    return (columns(dispersion_series(perf), ("mean", "variance", "count")),
            columns(tail_series(perf, kp), ("alpha", "k", "n")))


def chunked(panel, ref, policy, kp):
    entry = _sweep_entry(panel, ref, policy, kp)
    return (columns(entry.dispersion, ("mean", "variance", "count")),
            columns(entry.tails, ("alpha", "k", "n")))


EXTREME = (1e300, 1e-300)


@st.composite
def cases(draw):
    """A small panel with missing prices (a few extreme ones, whose ratios may
    leave the doubles), dates with gaps, a reference date on the first, a
    middle, the last or any row, a policy, a k policy and a chunk size in bytes
    (of one to six dates' prices, and more when stocks are dropped)."""
    # from 8 values on, numpy sums a contiguous row pairwise, not in order
    n_stocks = draw(st.integers(2, 20))
    n_dates = draw(st.integers(1, 12))
    days = sorted(draw(st.sets(st.integers(0, 20), min_size=n_dates, max_size=n_dates)))
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=day) for day in days)
    extreme = [st.sampled_from(EXTREME)] if draw(st.integers(0, 3)) == 0 else []
    cell = st.one_of(st.floats(0.5, 200.0), st.just(math.nan), *extreme)
    prices = np.array(draw(st.lists(st.lists(cell, min_size=n_stocks, max_size=n_stocks),
                                    min_size=n_dates, max_size=n_dates)))
    panel = PricePanel(dates, tuple(f"S{i}" for i in range(n_stocks)), prices)
    row = draw(st.sampled_from([0, n_dates // 2, n_dates - 1, draw(st.integers(0, n_dates - 1))]))
    kp = KPolicy(fraction=draw(st.sampled_from([0.1, 0.5])), min_n=draw(st.integers(2, 4)))
    policy = draw(st.sampled_from([DROP_AT_REF, COMPLETE_ONLY]))
    chunk_bytes = 8 * n_stocks * draw(st.integers(1, 6)) + draw(st.integers(0, 7))
    return panel, dates[row], policy, kp, chunk_bytes


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_chunked_statistics_equal_the_whole_matrix_bit_for_bit(case):
    panel, ref, policy, kp, chunk_bytes = case
    want = outcome(lambda: whole(panel, ref, policy, kp))
    with mock.patch.object(panel_module, "CHUNK_BYTES", chunk_bytes):
        assert outcome(lambda: chunked(panel, ref, policy, kp)) == want
        joined = outcome(lambda: normalize_panel(panel, ref, policy))
    if isinstance(joined, tuple):
        assert joined == want
        return
    perf = reference_normalize(panel, ref, policy)
    assert (joined.dates, joined.tickers) == (perf.dates, perf.tickers)
    assert joined.values.tobytes() == perf.values.tobytes()
    # the joined matrix keeps the whole one's layout, so numpy sums it the same way
    assert columns(dispersion_series(joined), ("mean", "variance", "count")) == want[0]


@settings(max_examples=200, deadline=None)
@given(case=cases(), data=st.data())
def test_survival_row_equals_the_whole_matrix_row(case, data):
    panel, ref, policy, _, chunk_bytes = case
    # any panel date, one between two of them, or one past the last
    date = data.draw(st.sampled_from(
        [*panel.dates, panel.dates[0] - dt.timedelta(days=1),
         panel.dates[-1] + dt.timedelta(days=1), dt.date(2020, 1, 22)]))

    def expected():
        perf = reference_normalize(panel, ref, policy)
        return EXIT_OK, render_report(survival_curve(perf.cross_section(date)), fmt="csv")

    want = outcome(expected)
    if len(want) == 2 and isinstance(want[0], type):
        want = EXIT_DATA, f"crossdisp: {want[1]}\n"
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "panel.csv"), os.path.join(tmp, "out.csv")
        write_price_panel(panel, path)
        err = io.StringIO()
        with mock.patch.object(panel_module, "CHUNK_BYTES", chunk_bytes), \
                contextlib.redirect_stderr(err):
            code = main(["survival", path, "--tref", ref.isoformat(), "--date",
                         date.isoformat(), "--policy", policy, "--out", out])
        got = (code, Path(out).read_text(encoding="utf-8") if code == EXIT_OK else err.getvalue())
    assert got == want


def test_chunks_hold_the_chunk_bytes_and_never_one_date_alone():
    prices = np.arange(1.0, 1.0 + 13 * 4).reshape(13, 4)
    panel = PricePanel(tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(13)),
                       ("A", "B", "C", "D"), prices)
    sizes = {}
    for chunk_bytes in (1, 3 * 8 * 4, 4 * 8 * 4, 1 << 20):
        with mock.patch.object(panel_module, "CHUNK_BYTES", chunk_bytes):
            for row in (0, 7, 10, 11, 12):
                chunks = list(performance_chunks(panel, panel.dates[row]))
                assert all(not c.values.flags.writeable for c in chunks)
                sizes[chunk_bytes, row] = [len(c.dates) for c in chunks]
    assert sizes[1, 0] == [2] * 5 + [3]  # at least two dates a chunk
    assert sizes[3 * 8 * 4, 0] == [3] * 3 + [4]  # a lone last date joins the chunk before
    assert sizes[4 * 8 * 4, 0] == [4, 4, 5]
    assert sizes[4 * 8 * 4, 7] == [4, 2]
    assert sizes[1, 11] == [2] and sizes[1, 12] == [1]  # one date: the whole panel
    assert sizes[1 << 20, 0] == [13]


def test_chunks_skip_the_record_checks_their_values_pass():
    panel = PricePanel(tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(9)),
                       ("A", "B", "C"), np.arange(1.0, 28.0).reshape(9, 3))
    with mock.patch.object(panel_module, "CHUNK_BYTES", 1), mock.patch.object(
            PerformancePanel, "__post_init__", side_effect=AssertionError("checked again")):
        chunks = list(performance_chunks(panel, panel.dates[2]))
    assert [len(c.dates) for c in chunks] == [2, 2, 3]
    for chunk in chunks:  # the public constructor, which checks, takes each chunk as it is
        assert PerformancePanel(chunk.ref_date, chunk.dates, chunk.tickers, chunk.values) == chunk


# two dates a chunk, the shipped size and 1 MiB, the size before it
@pytest.mark.parametrize("chunk_bytes", [1, panel_module.CHUNK_BYTES, 1 << 20])
def test_chunks_of_every_size_equal_the_whole_matrix_bit_for_bit(chunk_bytes):
    # tall enough that the shipped size cuts more chunks than 1 MiB
    rng = np.random.default_rng(11)
    prices = rng.lognormal(0.0, 0.3, (4000, 40))
    prices[1:][rng.random((3999, 40)) < 0.05] = np.nan
    dates = tuple(dt.date(2000, 1, 3) + dt.timedelta(days=i) for i in range(4000))
    panel = PricePanel(dates, tuple(f"S{i}" for i in range(40)), prices)
    kp = KPolicy(min_n=5)
    with mock.patch.object(panel_module, "CHUNK_BYTES", chunk_bytes):
        n_chunks = len(list(performance_chunks(panel, dates[0])))
        got = chunked(panel, dates[0], DROP_AT_REF, kp)
        joined = normalize_panel(panel, dates[0])
    assert n_chunks == {1: 2000, panel_module.CHUNK_BYTES: 3, 1 << 20: 2}[chunk_bytes]
    assert got == whole(panel, dates[0], DROP_AT_REF, kp)
    want = reference_normalize(panel, dates[0], DROP_AT_REF)
    assert joined.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 20])
@pytest.mark.parametrize("gaps", [False, True])
def test_an_entry_shares_the_panel_dates_from_its_reference_date(chunk_bytes, gaps):
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=3 * i) for i in range(9))
    prices = np.arange(1.0, 37.0).reshape(9, 4)
    if gaps:
        prices[[1, 4, 4, 8], [0, 2, 3, 1]] = np.nan
    panel = PricePanel(dates, ("A", "B", "C", "D"), prices)
    for row in (0, 2, 7, 8):
        with mock.patch.object(panel_module, "CHUNK_BYTES", chunk_bytes):
            n_chunks = len(list(performance_chunks(panel, dates[row])))
            entry = _sweep_entry(panel, dates[row], DROP_AT_REF, KPolicy(min_n=2))
        # at one byte, two dates a chunk and the last up to three
        assert n_chunks == (max(1, (9 - row) // 2) if chunk_bytes == 1 else 1)
        assert entry.dispersion.dates is entry.tails.dates
        assert entry.dispersion.dates == dates[row:]


D3 = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(3))
# each check of PerformancePanel.__post_init__: the fields that fail it and its message
PERFORMANCE_CHECKS = {
    "shape": ((D3[0], D3, ("A", "B"), np.ones((3, 3))), "value matrix shape"),
    "dates increase": ((D3[0], (D3[0], D3[2], D3[1]), ("A", "B"), np.ones((3, 2))),
                       "dates must be strictly increasing"),
    "unique tickers": ((D3[0], D3, ("A", "A"), np.ones((3, 2))), "tickers must be unique"),
    "on or after the reference date": ((D3[1], D3, ("A", "B"), np.ones((3, 2))),
                                       "on or after the reference date"),
    "positive": ((D3[0], D3, ("A", "B"), [[1.0, 1.0], [0.0, 2.0], [1.0, 1.0]]),
                 "strictly positive and finite"),
    "finite": ((D3[0], D3, ("A", "B"), [[1.0, 1.0], [2.0, 2.0], [np.inf, 1.0]]),
               "strictly positive and finite"),
    "unit reference row": ((D3[0], D3, ("A", "B"), [[1.0, 1.5], [1.0, 1.0], [1.0, 1.0]]),
                           "reference-date row must be identically 1"),
}


@pytest.mark.parametrize("fields, message", PERFORMANCE_CHECKS.values(), ids=PERFORMANCE_CHECKS)
def test_direct_performance_panel_runs_every_check(fields, message):
    with pytest.raises(ValueError, match=message):
        PerformancePanel(*fields)


def extreme_later_panel():
    """Ten dates; stock B's ratio overflows on the eighth, in the fourth two-date chunk."""
    prices = np.full((10, 3), 2.0)
    prices[0, 1] = 1e-300
    prices[7, 1] = 1e300
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(10))
    return PricePanel(dates, ("A", "B", "C"), prices)


MESSAGE = ("performance of B on 2020-01-08 against 2020-01-01 is outside the range "
           "of a double")


def test_out_of_range_ratio_in_a_later_chunk_keeps_its_message(tmp_path, capsys):
    panel = extreme_later_panel()
    ref = panel.dates[0]
    with pytest.raises(DataError) as whole_err:
        reference_normalize(panel, ref, DROP_AT_REF)
    assert str(whole_err.value) == MESSAGE
    path = tmp_path / "panel.csv"
    write_price_panel(panel, path)
    with mock.patch.object(panel_module, "CHUNK_BYTES", 1):
        chunks = performance_chunks(panel, ref)
        assert [len(next(chunks).dates) for _ in range(3)] == [2, 2, 2]  # before the bad date
        with pytest.raises(DataError, match=f"^{MESSAGE}$"):
            next(chunks)
        for argv in (["analyze", "--window", "1"], ["sweep"], ["survival", "--date", "2020-01-02"]):
            tref = ["--trefs", "2020-01-01"] if argv[0] == "sweep" else ["--tref", "2020-01-01"]
            assert main([argv[0], str(path), *tref, *argv[1:]]) == EXIT_DATA
            assert capsys.readouterr().err == f"crossdisp: {MESSAGE}\n"


@pytest.mark.parametrize("tref, date, policy, message", [
    # a reference date that is not in the panel comes first
    ("2020-01-20", "2020-01-30", DROP_AT_REF, "date not in panel: 2020-01-20"),
    # then too few stocks (only B and C are priced on every date)
    ("2020-01-01", "2019-12-31", COMPLETE_ONLY, "need at least 2 stocks, found 1"),
    # then a ratio outside the doubles, even on a date after --date
    ("2020-01-01", "2020-01-30", DROP_AT_REF, MESSAGE),
    ("2020-01-01", "2020-01-02", DROP_AT_REF, MESSAGE),
    # and only then a --date before --tref or not in the panel
    ("2020-01-09", "2020-01-02", DROP_AT_REF,
     "date 2020-01-02 is before the reference date 2020-01-09"),
    ("2020-01-09", "2020-01-30", DROP_AT_REF, "date not in panel: 2020-01-30"),
])
def test_survival_errors_come_in_order(tref, date, policy, message, tmp_path, capsys):
    panel = extreme_later_panel()
    prices = panel.prices.copy()
    prices[3, 0] = np.nan  # A is missing once, so complete-only keeps only B and C...
    prices[5, 2] = np.nan  # ...and C too: one stock
    path = tmp_path / "panel.csv"
    write_price_panel(PricePanel(panel.dates, panel.tickers, prices), path)
    with mock.patch.object(panel_module, "CHUNK_BYTES", 1):
        code = main(["survival", str(path), "--tref", tref, "--date", date, "--policy", policy])
    assert (code, capsys.readouterr().err) == (EXIT_DATA, f"crossdisp: {message}\n")
