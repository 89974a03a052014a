import datetime as dt
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdisp import (
    AnalysisReport,
    DuplicateDate,
    ExtremeEvent,
    IoError,
    KPolicy,
    NonPositivePrice,
    ParseError,
    PricePanel,
    RefDateAbsent,
    RhoSweepRow,
    RhoSweepTable,
    TailSeries,
    analyze_panel,
    detect_extremes,
    dispersion_series,
    first_trading_day_per_year,
    load_price_panel,
    normalize_panel,
    render_report,
    survival_curve,
    tail_series,
    tref_sweep,
    write_price_panel,
    write_report,
)
from crossdisp.tails import LOCAL_MINIMUM

from conftest import d


def document(result):
    """The JSON document of a report, as a reader of its JSON text gets it."""
    return json.loads(render_report(result, fmt="json"))


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD = """date,AAA,BBB
2020-01-02,10,20
2020-01-03,15,
2020-01-06,12.5,60
"""


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_load_basic(tmp_path):
    panel = load_price_panel(write(tmp_path, GOOD))
    assert panel.tickers == ("AAA", "BBB")
    assert panel.dates == (d("2020-01-02"), d("2020-01-03"), d("2020-01-06"))
    assert panel.prices[0, 0] == 10.0
    assert np.isnan(panel.prices[1, 1])
    assert panel.prices[2, :].tolist() == [12.5, 60.0]


def test_rows_sorted_after_load(tmp_path):
    shuffled = """date,AAA,BBB
2020-01-06,12.5,60
2020-01-02,10,20
2020-01-03,15,
"""
    a = load_price_panel(write(tmp_path, GOOD, "a.csv"))
    b = load_price_panel(write(tmp_path, shuffled, "b.csv"))
    assert a.dates == b.dates
    assert np.array_equal(a.prices, b.prices, equal_nan=True)


def test_empty_file(tmp_path):
    with pytest.raises(ParseError) as err:
        load_price_panel(write(tmp_path, ""))
    assert err.value.line == 1


def test_bad_header(tmp_path):
    with pytest.raises(ParseError):
        load_price_panel(write(tmp_path, "when,AAA\n2020-01-02,10\n"))
    with pytest.raises(ParseError):
        load_price_panel(write(tmp_path, "date\n2020-01-02\n"))
    with pytest.raises(ParseError):
        load_price_panel(write(tmp_path, "date,AAA,,BBB\n"))
    with pytest.raises(ParseError):
        load_price_panel(write(tmp_path, "date,AAA,AAA\n"))


def test_bad_date_cell(tmp_path):
    with pytest.raises(ParseError) as err:
        load_price_panel(write(tmp_path, "date,AAA\n02/01/2020,10\n"))
    assert err.value.line == 2
    assert err.value.column == 1


def test_non_numeric_cell_reports_position(tmp_path):
    text = "date,AAA,BBB\n2020-01-02,10,20\n2020-01-03,oops,30\n"
    with pytest.raises(ParseError) as err:
        load_price_panel(write(tmp_path, text))
    assert err.value.line == 3
    assert err.value.column == 2
    assert "oops" in str(err.value)


def test_non_finite_cell(tmp_path):
    with pytest.raises(ParseError):
        load_price_panel(write(tmp_path, "date,AAA\n2020-01-02,inf\n"))


def test_nonpositive_price(tmp_path):
    text = "date,AAA,BBB\n2020-01-02,10,-3\n"
    with pytest.raises(NonPositivePrice) as err:
        load_price_panel(write(tmp_path, text))
    assert err.value.line == 2
    assert err.value.column == 3
    with pytest.raises(NonPositivePrice):
        load_price_panel(write(tmp_path, "date,AAA\n2020-01-02,0\n", "z.csv"))


def test_duplicate_date(tmp_path):
    text = "date,AAA\n2020-01-02,10\n2020-01-02,11\n"
    with pytest.raises(DuplicateDate):
        load_price_panel(write(tmp_path, text))


def test_ragged_row(tmp_path):
    with pytest.raises(ParseError) as err:
        load_price_panel(write(tmp_path, "date,AAA,BBB\n2020-01-02,10\n"))
    assert err.value.line == 2


def test_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_price_panel(tmp_path / "nope.csv")


def test_panel_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(8)
    prices = np.exp(rng.normal(4.0, 1.0, (6, 4)))
    prices[2, 1] = np.nan
    prices[5, 3] = np.nan
    panel = PricePanel(
        dates=tuple(d("2021-03-01") + dt.timedelta(days=i) for i in range(6)),
        tickers=("A", "B", "C", "D"),
        prices=prices,
    )
    path = tmp_path / "out.csv"
    write_price_panel(panel, path)
    back = load_price_panel(path)
    assert back.dates == panel.dates
    assert back.tickers == panel.tickers
    assert np.array_equal(back.prices, panel.prices, equal_nan=True)


def test_first_trading_day_per_year(tmp_path):
    text = """date,AAA
2019-12-30,9
2020-01-03,10
2020-01-02,11
2021-01-04,12
"""
    panel = load_price_panel(write(tmp_path, text))
    assert first_trading_day_per_year(panel) == [
        d("2019-12-30"),
        d("2020-01-02"),
        d("2021-01-04"),
    ]
    assert first_trading_day_per_year(panel, years=[2021, 2020]) == [
        d("2020-01-02"),
        d("2021-01-04"),
    ]
    with pytest.raises(RefDateAbsent):
        first_trading_day_per_year(panel, years=[2022])
    assert first_trading_day_per_year(panel, years=[(2020, 2021), 2019]) == [
        d("2019-12-30"),
        d("2020-01-02"),
        d("2021-01-04"),
    ]
    # the first missing year in argument order is named, ranges included
    for years, missing in [([2021, (2019, 2023), 2018], 2022), ([2017, (2019, 2023)], 2017),
                           ([(2020, 10**9)], 2022)]:
        with pytest.raises(RefDateAbsent, match=f"no trading days in year {missing}$"):
            first_trading_day_per_year(panel, years=years)


# ---------------------------------------------------------------------------
# reference date sweeps
# ---------------------------------------------------------------------------


def test_sweep_single_ref_matches_manual_pipeline(tiny_panel):
    ref = tiny_panel.dates[0]
    kp = KPolicy(min_n=2)
    sweep = tref_sweep(tiny_panel, [ref], k_policy=kp)
    perf = normalize_panel(tiny_panel, ref)
    manual_disp = dispersion_series(perf)
    manual_tails = tail_series(perf, kp)
    entry = sweep.entries[0]
    assert entry.ref_date == ref
    assert entry.dispersion.dates == manual_disp.dates
    assert np.array_equal(entry.dispersion.variance, manual_disp.variance, equal_nan=True)
    assert np.array_equal(entry.dispersion.mean, manual_disp.mean, equal_nan=True)
    assert np.array_equal(entry.tails.alpha, manual_tails.alpha, equal_nan=True)


def test_sweep_multiple_refs(tiny_panel):
    refs = [tiny_panel.dates[1], tiny_panel.dates[0]]
    sweep = tref_sweep(tiny_panel, refs)
    assert [e.ref_date for e in sweep.entries] == sorted(refs)
    assert len(sweep.entries[0].dispersion) == 3
    assert len(sweep.entries[1].dispersion) == 2
    for entry in sweep.entries:
        assert entry.dispersion.dates[0] == entry.ref_date
        assert entry.dispersion.variance[0] == 0.0


def test_equal_multi_date_series_and_reports_compare_equal(gappy_panel):
    # numpy columns compare by value (NaN equal to NaN); == must not raise
    dates = gappy_panel.dates[:2]
    assert (TailSeries(dates, [math.nan, 1.0], [0, 1], [3, 3])
            == TailSeries(dates, [math.nan, 1.0], [0, 1], [3, 3]))
    assert (TailSeries(dates, [math.nan, 1.0], [0, 1], [3, 3])
            != TailSeries(dates, [math.nan, 2.0], [0, 1], [3, 3]))
    kp = KPolicy(min_n=2)
    first, second = (analyze_panel(gappy_panel, gappy_panel.dates[0], "drop-at-ref", kp, 1)
                     for _ in range(2))
    assert first.dispersion is not second.dispersion and np.isnan(first.tails.alpha[0])
    assert first.dispersion == second.dispersion and first.tails == second.tails
    assert first == second
    sweeps = [tref_sweep(gappy_panel, list(gappy_panel.dates[:2]), k_policy=kp) for _ in range(2)]
    assert sweeps[0].entries[0] == sweeps[1].entries[0] and sweeps[0] == sweeps[1]
    assert sweeps[0].entries[0] != sweeps[0].entries[1]
    assert first.dispersion != dispersion_series(normalize_panel(gappy_panel, dates[1]))


def test_sweep_result_rejects_a_sub_series_its_csv_would_misalign(tiny_panel):
    sweep = tref_sweep(tiny_panel, [tiny_panel.dates[0]])
    (entry,) = sweep.entries
    disp, tails = entry.dispersion, entry.tails
    later = tuple(when + dt.timedelta(days=365) for when in tails.dates)
    bad = [
        (disp, replace(tails, dates=later)),  # tails dated in another year
        (disp, replace(tails, dates=tails.dates[:-1], alpha=tails.alpha[:-1],
                       k=tails.k[:-1], n=tails.n[:-1])),  # a shorter tail series
        (disp, replace(tails, k_policy=KPolicy(fraction=0.5))),  # not the sweep's k policy
        (replace(disp, dates=(), mean=[], variance=[], count=[]),
         replace(tails, dates=(), alpha=[], k=[], n=[])),  # no dates at all
    ]
    for dispersion, tail in bad:
        with pytest.raises(ValueError):
            replace(sweep, entries=(replace(entry, dispersion=dispersion, tails=tail),))
    assert replace(sweep, entries=(replace(entry),)) == sweep
    two = tref_sweep(tiny_panel, list(tiny_panel.dates[:2]))
    with pytest.raises(ValueError, match="reference dates must be strictly increasing"):
        replace(two, entries=two.entries[::-1])


def test_sweep_absent_ref_names_date(tiny_panel):
    with pytest.raises(RefDateAbsent) as err:
        tref_sweep(tiny_panel, [d("1999-01-01")])
    assert "1999-01-01" in str(err.value)


@pytest.mark.parametrize("policy", ["drop-at-ref", "complete-only"])
def test_analyze_panel_is_the_hand_written_chain(gappy_panel, policy):
    ref = gappy_panel.dates[0]
    kp = KPolicy(min_n=2)
    perf = normalize_panel(gappy_panel, ref, policy=policy)
    tails = tail_series(perf, kp)
    expected = AnalysisReport(
        ref_date=ref,
        dispersion=dispersion_series(perf),
        tails=tails,
        extremes=tuple(detect_extremes(tails.alpha, 1, dates=perf.dates)),
        policy=policy,
        window=1,
    )
    report = analyze_panel(gappy_panel, ref, policy, kp, 1)
    assert render_report(report, fmt="json") == render_report(expected, fmt="json")
    (entry,) = tref_sweep(gappy_panel, [ref], policy=policy, k_policy=kp).entries
    assert render_report(entry.dispersion) == render_report(report.dispersion)
    assert render_report(entry.tails) == render_report(report.tails)


@st.composite
def panels_with_a_head(draw):
    """A panel of 3-12 stocks priced on its first date and maybe missing later,
    the length of a leading part of it, and a reference date at least three
    dates before that part ends."""
    n_stocks = draw(st.integers(3, 12))
    n_dates = draw(st.integers(4, 14))
    head = draw(st.integers(3, n_dates - 1))
    ref = draw(st.integers(0, head - 3))
    price = st.floats(0.01, 1e4)
    rows = [draw(st.lists(price, min_size=n_stocks, max_size=n_stocks))]
    rows += [draw(st.lists(st.one_of(price, st.just(math.nan)),
                           min_size=n_stocks, max_size=n_stocks))
             for _ in range(n_dates - 1)]
    rows[ref] = rows[0]
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(n_dates))
    panel = PricePanel(dates, tuple(f"S{i}" for i in range(n_stocks)), np.array(rows))
    return panel, head, dates[ref]


@settings(max_examples=150, deadline=None)
@given(case=panels_with_a_head())
def test_appending_dates_leaves_earlier_rows_unchanged(case):
    # under drop-at-ref both series are computed row by row, so bit for bit
    panel, head, ref = case
    kp = KPolicy(fraction=0.3, min_n=3)
    short = analyze_panel(PricePanel(panel.dates[:head], panel.tickers, panel.prices[:head]),
                          ref, "drop-at-ref", kp, 1)
    full = analyze_panel(panel, ref, "drop-at-ref", kp, 1)
    n = len(short.dispersion)
    assert short.dispersion.dates == full.dispersion.dates[:n]
    for name in ("mean", "variance", "count"):
        assert (getattr(short.dispersion, name).tobytes()
                == getattr(full.dispersion, name)[:n].tobytes())
    for name in ("alpha", "k", "n"):
        assert getattr(short.tails, name).tobytes() == getattr(full.tails, name)[:n].tobytes()


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def analysis_fixture(tiny_panel):
    perf = normalize_panel(tiny_panel, tiny_panel.dates[0])
    disp = dispersion_series(perf)
    tails = tail_series(perf, KPolicy(min_n=2))
    events = (
        ExtremeEvent(date=tiny_panel.dates[1], kind=LOCAL_MINIMUM, value=1.0, window=1),
    )
    return AnalysisReport(
        ref_date=tiny_panel.dates[0],
        dispersion=disp,
        tails=tails,
        extremes=events,
        policy="drop-at-ref",
        window=1,
    )


def test_dispersion_json_document(tiny_panel):
    doc = document(dispersion_series(normalize_panel(tiny_panel, tiny_panel.dates[0])))
    assert doc["meta"]["tool"] == "crossdisp"
    assert doc["meta"]["kind"] == "dispersion-series"
    assert [row["date"] for row in doc["series"]] == [
        "2003-01-02", "2003-01-03", "2003-01-06",
    ]
    assert doc["series"][0]["variance"] == 0.0
    assert doc["series"][0]["count"] == 2


def test_json_nan_becomes_null(gappy_panel):
    perf = normalize_panel(gappy_panel, gappy_panel.dates[1], policy="complete-only")
    series = dispersion_series(perf)
    variances = [row["variance"] for row in document(series)["series"]]
    assert variances == [None if math.isnan(v) else v for v in series.variance.tolist()]


def test_json_round_trips_exact_floats(tiny_panel):
    series = dispersion_series(normalize_panel(tiny_panel, tiny_panel.dates[0]))
    parsed = json.loads(render_report(series, fmt="json"))
    values = [row["variance"] for row in parsed["series"]]
    assert values == list(series.variance)


def test_dispersion_csv(tiny_panel):
    series = dispersion_series(normalize_panel(tiny_panel, tiny_panel.dates[0]))
    text = render_report(series, fmt="csv")
    lines = text.strip().split("\n")
    assert lines[0] == "date,mean,variance,count"
    assert len(lines) == 4
    cells = lines[1].split(",")
    assert cells[0] == "2003-01-02"
    assert float(cells[1]) == series.mean[0]
    assert float(cells[2]) == series.variance[0]


def test_csv_nan_is_empty_cell():
    # one-date series with a single stock: variance undefined
    from crossdisp.panel import DispersionSeries

    series = DispersionSeries(
        dates=(d("2020-01-02"),),
        mean=np.array([1.0]),
        variance=np.array([np.nan]),
        count=np.array([1]),
    )
    line = render_report(series, fmt="csv").strip().split("\n")[1]
    assert line == "2020-01-02,1.0,,1"
    assert document(series)["series"][0]["variance"] is None


def test_tail_csv_gap_rows(tiny_panel):
    perf = normalize_panel(tiny_panel, tiny_panel.dates[0])
    tails = tail_series(perf, KPolicy(min_n=2))
    text = render_report(tails, fmt="csv")
    lines = text.strip().split("\n")
    assert lines[0] == "date,alpha,k,n,method"
    # the reference date row is a gap: every stock sits exactly at 1
    assert lines[1] == "2003-01-02,,,,"


def test_survival_csv(tiny_panel):
    perf = normalize_panel(tiny_panel, tiny_panel.dates[0])
    curve = survival_curve(perf.cross_section(tiny_panel.dates[2]))
    text = render_report(curve, fmt="csv")
    lines = text.strip().split("\n")
    assert lines[0] == "z,survival"
    zs = [float(row.split(",")[0]) for row in lines[1:]]
    assert zs == sorted(zs)


def test_analysis_report_json(tiny_panel):
    report = analysis_fixture(tiny_panel)
    doc = json.loads(render_report(report, fmt="json"))
    assert set(doc) == {"meta", "dispersion", "tail", "extremes"}
    assert doc["meta"]["kind"] == "analysis"
    assert doc["meta"]["ref_date"] == "2003-01-02"
    assert doc["meta"]["policy"] == "drop-at-ref"
    assert doc["extremes"][0]["kind"] == LOCAL_MINIMUM


def test_analysis_report_csv_fans_out(tiny_panel, tmp_path):
    report = analysis_fixture(tiny_panel)
    write_report(report, tmp_path / "run.csv", fmt="csv")
    disp = (tmp_path / "run.dispersion.csv").read_text(encoding="utf-8")
    tail = (tmp_path / "run.tail.csv").read_text(encoding="utf-8")
    events = (tmp_path / "run.extremes.csv").read_text(encoding="utf-8")
    assert disp.startswith("date,mean,variance,count\n")
    assert tail.startswith("date,alpha,k,n,method\n")
    assert events.startswith("date,kind,value,window\n")
    assert LOCAL_MINIMUM in events


def test_sweep_documents(tiny_panel):
    sweep = tref_sweep(tiny_panel, [tiny_panel.dates[0], tiny_panel.dates[1]])
    doc = document(sweep)
    assert doc["meta"]["kind"] == "sweep"
    assert [e["ref_date"] for e in doc["series"]] == ["2003-01-02", "2003-01-03"]
    csv_text = render_report(sweep, fmt="csv")
    lines = csv_text.strip().split("\n")
    assert lines[0] == "ref_date,date,mean,variance,count,alpha,k"
    # 3 dates for the first ref + 2 for the second
    assert len(lines) == 6
    assert lines[1].startswith("2003-01-02,2003-01-02,")
    assert lines[4].startswith("2003-01-03,2003-01-03,")


def test_sim_result_documents():
    from crossdisp import CorrelationSpec, SimConfig, simulate_dispersion

    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(10, 0.5), reps=20, seed=17)
    res = simulate_dispersion(cfg)
    # the simulate command writes a RhoSweepTable; a bare SimResult has no report layout
    for fmt in ("json", "csv"):
        with pytest.raises(TypeError):
            render_report(res, fmt)


def test_rho_sweep_table_documents():
    table = RhoSweepTable(
        rows=(
            RhoSweepRow(rho=-1.0, mean_vn=1.998, se_vn=None, expected=1.998, source="analytic"),
            RhoSweepRow(rho=0.0, mean_vn=0.999, se_vn=0.001, expected=0.999, source="simulated"),
        ),
        n=1000,
        reps=100,
        sigma=1.0,
        seed=0,
    )
    doc = document(table)
    assert doc["meta"]["kind"] == "rho-sweep"
    assert doc["series"][0]["se_vn"] is None
    assert doc["series"][0]["source"] == "analytic"
    lines = render_report(table, fmt="csv").strip().split("\n")
    assert lines[0] == "rho,mean_vn,se_vn,expected,source"
    assert lines[1] == "-1.0,1.998,,1.998,analytic"


def test_event_list_documents():
    events = [ExtremeEvent(date=d("2020-05-05"), kind=LOCAL_MINIMUM, value=2.5, window=3)]
    doc = document(events)
    assert doc["meta"]["kind"] == "extreme-events"
    assert doc["events"][0]["date"] == "2020-05-05"
    assert render_report([], fmt="csv") == "date,kind,value,window\n"


def test_unsupported_objects():
    with pytest.raises(TypeError):
        render_report(object(), fmt="json")
    with pytest.raises(TypeError):
        render_report(object(), fmt="csv")
    with pytest.raises(ValueError):
        render_report([], fmt="yaml")


def test_write_report_io_error(tiny_panel, tmp_path):
    series = dispersion_series(normalize_panel(tiny_panel, tiny_panel.dates[0]))
    with pytest.raises(IoError):
        write_report(series, tmp_path / "missing" / "deep" / "out.csv")


def test_write_report_json(tiny_panel, tmp_path):
    series = dispersion_series(normalize_panel(tiny_panel, tiny_panel.dates[0]))
    path = tmp_path / "series.json"
    write_report(series, path, fmt="json")
    assert path.read_text(encoding="utf-8") == render_report(series, fmt="json")
    assert document(series)["meta"]["kind"] == "dispersion-series"
