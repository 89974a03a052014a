import datetime as dt
import json
import math

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
    analyze_panel,
    detect_extremes,
    dispersion_series,
    first_trading_day_per_year,
    load_price_panel,
    normalize_panel,
    render_report,
    survival_curve,
    tail_series,
    to_document,
    tref_sweep,
    write_price_panel,
    write_report,
)
from crossdisp.tails import LOCAL_MINIMUM

from conftest import d


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
    assert np.array_equal(entry.tails.alphas(), manual_tails.alphas(), equal_nan=True)


def test_sweep_multiple_refs(tiny_panel):
    refs = [tiny_panel.dates[1], tiny_panel.dates[0]]
    sweep = tref_sweep(tiny_panel, refs)
    assert [e.ref_date for e in sweep.entries] == sorted(refs)
    assert len(sweep.entries[0].dispersion) == 3
    assert len(sweep.entries[1].dispersion) == 2
    for entry in sweep.entries:
        assert entry.dispersion.dates[0] == entry.ref_date
        assert entry.dispersion.variance[0] == 0.0


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
        extremes=tuple(detect_extremes(tails.alphas(), 1, dates=perf.dates)),
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
    assert repr(short.tails.estimates) == repr(full.tails.estimates[:n])


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
    doc = to_document(dispersion_series(normalize_panel(tiny_panel, tiny_panel.dates[0])))
    assert doc["meta"]["tool"] == "crossdisp"
    assert doc["meta"]["kind"] == "dispersion-series"
    assert [row["date"] for row in doc["series"]] == [
        "2003-01-02", "2003-01-03", "2003-01-06",
    ]
    assert doc["series"][0]["variance"] == 0.0
    assert doc["series"][0]["count"] == 2


def test_json_nan_becomes_null(gappy_panel):
    perf = normalize_panel(gappy_panel, gappy_panel.dates[1], policy="complete-only")
    doc = to_document(dispersion_series(perf))
    # the gap date keeps only one complete stock pair? build a sparser case instead
    text = render_report(dispersion_series(perf), fmt="json")
    parsed = json.loads(text)
    assert parsed == doc


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
    doc = to_document(series)
    assert doc["series"][0]["variance"] is None


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
    doc = to_document(sweep)
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
    doc = to_document(res)
    assert doc["meta"]["kind"] == "simulation"
    assert doc["meta"]["rho"] == 0.5
    assert doc["meta"]["seed"] == 17
    assert doc["result"]["mean_vn"] == res.mean_vn
    lines = render_report(res, fmt="csv").strip().split("\n")
    assert lines[0] == "mean_vn,se_vn,var_vn,reps,seed"
    assert float(lines[1].split(",")[0]) == res.mean_vn


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
    doc = to_document(table)
    assert doc["meta"]["kind"] == "rho-sweep"
    assert doc["series"][0]["se_vn"] is None
    assert doc["series"][0]["source"] == "analytic"
    lines = render_report(table, fmt="csv").strip().split("\n")
    assert lines[0] == "rho,mean_vn,se_vn,expected,source"
    assert lines[1] == "-1.0,1.998,,1.998,analytic"


def test_event_list_documents():
    events = [ExtremeEvent(date=d("2020-05-05"), kind=LOCAL_MINIMUM, value=2.5, window=3)]
    doc = to_document(events)
    assert doc["meta"]["kind"] == "extreme-events"
    assert doc["events"][0]["date"] == "2020-05-05"
    assert render_report([], fmt="csv") == "date,kind,value,window\n"


def test_unsupported_objects():
    with pytest.raises(TypeError):
        to_document(object())
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
    assert json.loads(path.read_text(encoding="utf-8")) == to_document(series)
