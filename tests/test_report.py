"""The report table model against the per-type serializers it replaced.

The reference functions below are the earlier per-type document and CSV
ladders, the ``write_report`` CSV fan-out and the hand-formatted Hill
sweep CSV, kept verbatim in behaviour, plus the Hill sweep's JSON
document. Every report type must render to the same bytes in both
formats, and write the same set of files. The JSON text, which the io
module writes itself, must also equal what ``json.dumps(..., indent=2)``
of the running interpreter writes of the reference document.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import os
import tempfile
import tracemalloc
from dataclasses import replace
from io import StringIO
from pathlib import Path
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdisp import (
    AnalysisReport,
    DispersionSeries,
    ExtremeEvent,
    HillSweep,
    KPolicy,
    RhoSweepRow,
    RhoSweepTable,
    SurvivalCurve,
    SweepEntry,
    SweepResult,
    TailEstimate,
    TailSeries,
    __version__,
    render_report,
    write_report,
)
from crossdisp import io as report_io
from crossdisp.tails import LOCAL_MAXIMUM, LOCAL_MINIMUM

# ---------------------------------------------------------------------------
# reference serializers
# ---------------------------------------------------------------------------


def ref_cell(value: Any) -> str:
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


def ref_jf(value: float | None) -> float | None:
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def ref_meta(kind: str, **extra: Any) -> dict[str, Any]:
    meta: dict[str, Any] = {"tool": "crossdisp", "version": __version__, "kind": kind}
    meta.update(extra)
    return meta


def ref_dispersion_rows(series):
    return [
        {"date": when.isoformat(), "mean": ref_jf(m), "variance": ref_jf(v), "count": int(c)}
        for when, m, v, c in zip(series.dates, series.mean, series.variance, series.count)
    ]


def ref_tail_rows(series):
    rows = []
    for when, est, n in zip(series.dates, series.estimates, series.n.tolist()):
        if est is None:
            # a gap keeps its cross-section size: n < min_n, or a tied tail
            rows.append({"date": when.isoformat(), "alpha": None, "k": None,
                         "n": n, "method": None})
        else:
            rows.append({"date": when.isoformat(), "alpha": ref_jf(est.alpha),
                         "k": est.k, "n": est.n, "method": "hill"})
    return rows


def ref_event_rows(events):
    return [
        {
            "date": e.date.isoformat() if isinstance(e.date, dt.date) else e.date,
            "kind": e.kind,
            "value": ref_jf(e.value),
            "window": e.window,
        }
        for e in events
    ]


def ref_k_policy_meta(kp):
    return {"k_fraction": kp.fraction, "min_n": kp.min_n}


def ref_to_document(result):
    if isinstance(result, SurvivalCurve):
        zs, ss = result.step_points()
        return {"meta": ref_meta("survival-curve", n=result.n),
                "series": [{"z": ref_jf(z), "survival": ref_jf(s)} for z, s in zip(zs, ss)]}
    if isinstance(result, AnalysisReport):
        return {
            "meta": ref_meta("analysis", ref_date=result.ref_date.isoformat(),
                             policy=result.policy, window=result.window,
                             **ref_k_policy_meta(result.tails.k_policy)),
            "dispersion": ref_dispersion_rows(result.dispersion),
            "tail": ref_tail_rows(result.tails),
            "extremes": ref_event_rows(result.extremes),
        }
    if isinstance(result, SweepResult):
        return {
            "meta": ref_meta("sweep", policy=result.policy,
                             universe_size=len(result.universe),
                             **ref_k_policy_meta(result.k_policy)),
            "series": [
                {"ref_date": entry.ref_date.isoformat(),
                 "dispersion": ref_dispersion_rows(entry.dispersion),
                 "tail": ref_tail_rows(entry.tails)}
                for entry in result.entries
            ],
        }
    if isinstance(result, RhoSweepTable):
        return {
            "meta": ref_meta("rho-sweep", n=result.n, reps=result.reps,
                             sigma=ref_jf(result.sigma), seed=result.seed),
            "series": [
                {"rho": ref_jf(r.rho), "mean_vn": ref_jf(r.mean_vn), "se_vn": ref_jf(r.se_vn),
                 "expected": ref_jf(r.expected), "source": r.source}
                for r in result.rows
            ],
        }
    if isinstance(result, HillSweep):
        return {"meta": ref_meta("hill-sweep"),
                "series": [{"k": int(k), "alpha": ref_jf(a)}
                           for k, a in zip(result.k, result.alpha)]}
    raise TypeError(f"cannot serialize {type(result).__name__}")


def ref_csv_from_rows(header, rows):
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([ref_cell(v) for v in row])
    return buf.getvalue()


def ref_dispersion_csv(series):
    return ref_csv_from_rows(
        ["date", "mean", "variance", "count"],
        [[w, m, v, int(c)]
         for w, m, v, c in zip(series.dates, series.mean, series.variance, series.count)],
    )


def ref_tail_csv(series):
    rows = [[w, None, None, n, None] if e is None else [w, e.alpha, e.k, e.n, "hill"]
            for w, e, n in zip(series.dates, series.estimates, series.n.tolist())]
    return ref_csv_from_rows(["date", "alpha", "k", "n", "method"], rows)


def ref_event_csv(events):
    return ref_csv_from_rows(["date", "kind", "value", "window"],
                             [[e.date, e.kind, e.value, e.window] for e in events])


def ref_to_csv(result):
    if isinstance(result, SurvivalCurve):
        zs, ss = result.step_points()
        return ref_csv_from_rows(["z", "survival"],
                                 [[float(z), float(s)] for z, s in zip(zs, ss)])
    if isinstance(result, SweepResult):
        rows = []
        for entry in result.entries:
            alphas = entry.tails.alpha
            for i, when in enumerate(entry.dispersion.dates):
                est = entry.tails.estimates[i]
                rows.append([entry.ref_date, when, entry.dispersion.mean[i],
                             entry.dispersion.variance[i], int(entry.dispersion.count[i]),
                             float(alphas[i]), est.k if est is not None else None])
        return ref_csv_from_rows(
            ["ref_date", "date", "mean", "variance", "count", "alpha", "k"], rows)
    if isinstance(result, RhoSweepTable):
        return ref_csv_from_rows(
            ["rho", "mean_vn", "se_vn", "expected", "source"],
            [[r.rho, r.mean_vn, r.se_vn, r.expected, r.source] for r in result.rows],
        )
    if isinstance(result, HillSweep):  # the hand-formatted --hill-sweep file
        pairs = zip(result.k.tolist(), result.alpha.tolist())
        return "\n".join(["k,alpha"] + [f"{k},{alpha!r}" for k, alpha in pairs]) + "\n"
    raise TypeError(f"cannot serialize {type(result).__name__} to CSV")


def ref_render_report(result, fmt):
    if fmt == "json":
        return json.dumps(ref_to_document(result), indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        return ref_to_csv(result)
    raise ValueError(f"unsupported report format: {fmt!r}")


def ref_write_report(result, path, fmt):
    path = Path(path)
    if isinstance(result, AnalysisReport) and fmt == "csv":
        base = path.with_suffix("") if path.suffix == ".csv" else path
        parts = {
            Path(f"{base}.dispersion.csv"): ref_dispersion_csv(result.dispersion),
            Path(f"{base}.tail.csv"): ref_tail_csv(result.tails),
            Path(f"{base}.extremes.csv"): ref_event_csv(result.extremes),
        }
        for part_path, text in parts.items():
            part_path.write_text(text, encoding="utf-8")
        return
    path.write_text(ref_render_report(result, fmt), encoding="utf-8")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

START = dt.date(2001, 3, 1)
any_float = st.floats(allow_nan=True, allow_infinity=True)
positive = st.floats(min_value=1e-300, max_value=1e300)
k_policies = st.builds(KPolicy, fraction=st.floats(min_value=0.01, max_value=0.99),
                       min_n=st.integers(2, 50))


def dates_from(start: dt.date, n: int) -> tuple[dt.date, ...]:
    return tuple(start + dt.timedelta(days=i) for i in range(n))


@st.composite
def dispersion_series_at(draw, start: dt.date, n: int) -> DispersionSeries:
    means = draw(st.lists(any_float, min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    variances = [
        draw(st.one_of(st.just(math.nan), st.floats(min_value=0.0, max_value=1e300)))
        if c >= 2 else math.nan
        for c in counts
    ]
    return DispersionSeries(dates=dates_from(start, n), mean=np.array(means, dtype=float),
                            variance=np.array(variances), count=np.array(counts))


@st.composite
def tail_estimates(draw) -> TailEstimate:
    n = draw(st.integers(2, 10**6))
    return TailEstimate(alpha=draw(positive), k=draw(st.integers(1, n - 1)), n=n)


@st.composite
def tail_columns(draw) -> tuple[float, int, int]:
    """One date's alpha, k and n: a gap (any n), or an estimate with any k < n."""
    if draw(st.booleans()):
        return math.nan, 0, draw(st.integers(0, 10**6))
    estimate = draw(tail_estimates())
    return estimate.alpha, estimate.k, estimate.n


@st.composite
def tail_series_at(draw, start: dt.date, n: int, k_policy: KPolicy | None = None) -> TailSeries:
    rows = draw(st.lists(tail_columns(), min_size=n, max_size=n))
    return TailSeries(dates=dates_from(start, n), alpha=[r[0] for r in rows],
                      k=[r[1] for r in rows], n=[r[2] for r in rows],
                      k_policy=draw(k_policies) if k_policy is None else k_policy)


@st.composite
def event_lists(draw, dates: tuple[dt.date, ...]) -> list[ExtremeEvent]:
    """Events on the report's dates, or on any date or index."""
    when = st.sampled_from(dates)
    if draw(st.booleans()):
        when = st.one_of(st.integers(0, 10**6), st.dates())
    return draw(st.lists(st.builds(
        ExtremeEvent, date=when, kind=st.sampled_from([LOCAL_MINIMUM, LOCAL_MAXIMUM]),
        value=any_float, window=st.integers(1, 100)), max_size=6))


@st.composite
def analysis_reports(draw) -> AnalysisReport:
    n = draw(st.integers(1, 12))
    disp = draw(dispersion_series_at(START, n))
    return AnalysisReport(ref_date=START, dispersion=disp, tails=draw(tail_series_at(START, n)),
                          extremes=tuple(draw(event_lists(disp.dates))),
                          policy=draw(st.sampled_from(["drop-at-ref", "complete-only"])),
                          window=draw(st.integers(1, 50)))


@st.composite
def sweep_results(draw) -> SweepResult:
    gaps = draw(st.lists(st.integers(1, 30), min_size=0, max_size=4))
    refs = [START]
    for gap in gaps:
        refs.append(refs[-1] + dt.timedelta(days=gap))
    k_policy = draw(k_policies)
    entries = []
    for ref in refs:
        n = draw(st.integers(1, 8))
        entries.append(SweepEntry(ref_date=ref, dispersion=draw(dispersion_series_at(ref, n)),
                                  tails=draw(tail_series_at(ref, n, k_policy))))
    universe = tuple(f"S{i}" for i in range(draw(st.integers(1, 20))))
    return SweepResult(entries=tuple(entries), universe=universe,
                       policy=draw(st.sampled_from(["drop-at-ref", "complete-only"])),
                       k_policy=k_policy)


rho_rows = st.builds(RhoSweepRow, rho=st.floats(-1.0, 1.0), mean_vn=any_float,
                     se_vn=st.one_of(st.none(), any_float), expected=any_float,
                     source=st.sampled_from(["simulated", "analytic"]))
rho_tables = st.builds(RhoSweepTable, rows=st.lists(rho_rows, max_size=5).map(tuple),
                       n=st.integers(2, 10**4), reps=st.integers(0, 10**4),
                       sigma=positive, seed=st.integers(0, 2**64 - 1))
survival_curves = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12).map(
    lambda xs: SurvivalCurve(sorted_values=np.sort(np.array(xs))))
hill_sweeps = st.lists(tail_estimates(), max_size=6).map(
    lambda es: HillSweep(k=[e.k for e in es], alpha=[e.alpha for e in es]))

reports = st.one_of(
    survival_curves,
    analysis_reports(),
    sweep_results(),
    rho_tables,
    hill_sweeps,
)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def outcome(func, *args):
    try:
        return func(*args)
    except (TypeError, ValueError) as exc:
        return type(exc)


def written_files(write, result, name: str, fmt: str):
    """The files ``write`` leaves in an empty directory, or, when it raises,
    the exception type and the names left there."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            write(result, Path(tmp) / name, fmt)
        except (TypeError, ValueError) as exc:
            return type(exc), sorted(os.listdir(tmp))
        return {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}


@settings(max_examples=300, deadline=None)
@given(result=reports)
def test_render_report_matches_the_reference_serializers(result):
    assert outcome(render_report, result, "json") == outcome(ref_render_report, result, "json")
    # a reader of the JSON text gets the reference document back, floats exact
    assert outcome(lambda r: json.loads(render_report(r, "json")), result) == outcome(
        ref_to_document, result)
    assert outcome(render_report, result, "csv") == outcome(ref_render_report, result, "csv")


@settings(max_examples=150, deadline=None)
@given(result=reports, name=st.sampled_from(["out.csv", "out", "out.json"]),
       fmt=st.sampled_from(["csv", "json"]))
def test_write_report_writes_the_reference_file_set(result, name, fmt):
    assert written_files(write_report, result, name, fmt) == written_files(
        ref_write_report, result, name, fmt)


def test_multi_reference_sweep_is_covered():
    # one concrete multi-reference sweep with gaps, NaN cells and both formats
    disp = DispersionSeries(dates=dates_from(START, 2), mean=np.array([1.0, math.nan]),
                            variance=np.array([0.0, math.nan]), count=np.array([3, 0]))
    later = dt.date(2001, 4, 1)
    disp2 = DispersionSeries(dates=dates_from(later, 1), mean=np.array([2.5]),
                             variance=np.array([math.inf]), count=np.array([4]))
    tails = TailSeries(dates=dates_from(START, 2), alpha=[math.nan, 1.5], k=[0, 2], n=[0, 9])
    tails2 = TailSeries(dates=dates_from(later, 1), alpha=[math.nan], k=[0], n=[0])
    sweep = SweepResult(entries=(SweepEntry(START, disp, tails), SweepEntry(later, disp2, tails2)),
                        universe=("A", "B", "C", "D"), policy="drop-at-ref", k_policy=KPolicy())
    assert render_report(sweep, "csv") == (
        "ref_date,date,mean,variance,count,alpha,k\n"
        "2001-03-01,2001-03-01,1.0,0.0,3,,\n"
        "2001-03-01,2001-03-02,,,0,1.5,2\n"
        "2001-04-01,2001-04-01,2.5,,4,,\n"
    )
    assert render_report(sweep, "json") == ref_render_report(sweep, "json")


# ---------------------------------------------------------------------------
# JSON text written from the table model, against json.dumps
# ---------------------------------------------------------------------------

def dumps_reference(document) -> str:
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


# quotes, backslashes, control characters, non-ASCII, surrogates and '%'
awkward_text = st.text(st.characters(blacklist_categories=()), max_size=8)


@st.composite
def reports_with_awkward_strings(draw):
    """Reports whose free-text cells and meta values need escaping."""
    text = draw(awkward_text)
    kind = draw(st.sampled_from(["analysis", "sweep", "rho"]))
    if kind == "analysis":
        report = draw(analysis_reports())
        events = tuple(ExtremeEvent(e.date, draw(awkward_text), e.value, e.window)
                       for e in report.extremes)
        return AnalysisReport(report.ref_date, report.dispersion, report.tails, events,
                              policy=text, window=report.window)
    if kind == "sweep":
        sweep = draw(sweep_results())
        return SweepResult(sweep.entries, sweep.universe, policy=text, k_policy=sweep.k_policy)
    table = draw(rho_tables)
    rows = tuple(RhoSweepRow(r.rho, r.mean_vn, r.se_vn, r.expected, draw(awkward_text))
                 for r in table.rows)
    return RhoSweepTable(rows, table.n, table.reps, table.sigma, table.seed)


EMPTY_REPORTS = [
    SweepResult(entries=(), universe=("A",), policy="drop-at-ref", k_policy=KPolicy()),
    RhoSweepTable(rows=(), n=2, reps=0, sigma=1.0, seed=0),
    HillSweep(k=[], alpha=[]),
    AnalysisReport(
        ref_date=START,
        dispersion=DispersionSeries(dates=(START,), mean=np.array([math.nan]),
                                    variance=np.array([math.nan]), count=np.array([0])),
        tails=TailSeries(dates=(START,), alpha=[math.nan], k=[0], n=[0]),
        extremes=(), policy="", window=1),
]


@settings(max_examples=300, deadline=None)
@given(result=st.one_of(reports, reports_with_awkward_strings(), st.sampled_from(EMPTY_REPORTS)))
def test_json_render_is_byte_identical_to_json_dumps(result):
    assert render_report(result, "json") == dumps_reference(ref_to_document(result))


# documents of any shape: nested dicts and lists of scalars and tables
scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**30, 10**30),
                    st.floats(allow_nan=False, allow_infinity=False), awkward_text)


# a column holds one type, with or without None, or any mix of scalars
column_cells = [scalars, st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                awkward_text, st.booleans()]


@st.composite
def tables(draw):
    columns = tuple(draw(st.lists(awkward_text, min_size=1, max_size=4, unique=True)))
    cells = [draw(st.sampled_from(column_cells)) for _ in columns]
    cells = [st.one_of(st.none(), c) if draw(st.booleans()) else c for c in cells]
    rows = draw(st.lists(st.tuples(*cells), max_size=5))
    return report_io._Table(columns, rows)


documents = st.recursive(
    st.one_of(scalars, tables()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(awkward_text, inner, max_size=4)),
    max_leaves=12,
)


def _plain(value: Any) -> Any:
    """``value`` with each ``_Table`` in it as a list of objects."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, report_io._Table):
        return [dict(zip(value.columns, row)) for row in value.rows]
    return value


@settings(max_examples=300, deadline=None)
@given(document=documents)
def test_json_text_of_any_document_matches_json_dumps(document):
    # the rows here are lists, so both sides can read them
    assert "".join(report_io._json_text(document, "")) + "\n" == dumps_reference(
        _plain(document))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_float_reaching_the_renderer_raises(bad):
    Table = report_io._Table
    for document in (
        {"meta": {"x": bad}},
        [1.0, bad],
        Table(("a",), [(bad,)]),
        Table(("a",), [(1.0,), (None,), (bad,)]),
        Table(("a",), [("text",), (bad,)]),
    ):
        with pytest.raises(ValueError):
            "".join(report_io._json_text(document, ""))


class CountingDate(dt.date):
    calls = 0

    def isoformat(self):
        CountingDate.calls += 1
        return super().isoformat()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_each_date_of_a_reference_date_is_formatted_once(fmt, tmp_path):
    dates = tuple(CountingDate(2001, 3, day) for day in range(1, 6))
    disp = DispersionSeries(dates=dates, mean=np.ones(5), variance=np.zeros(5),
                            count=np.full(5, 3))
    tails = TailSeries(dates=dates, alpha=np.full(5, math.nan), k=np.zeros(5), n=np.zeros(5))
    report = AnalysisReport(ref_date=START, dispersion=disp, tails=tails, extremes=(),
                            policy="drop-at-ref", window=1)
    # the reference dates are plain dates, so only the series' dates count
    sweep = SweepResult(entries=(SweepEntry(START, disp, tails),), universe=("A", "B"),
                        policy="drop-at-ref", k_policy=KPolicy())
    CountingDate.calls = 0
    write_report(report, tmp_path / "analysis", fmt)
    render_report(sweep, fmt)
    assert CountingDate.calls == 2 * len(dates)


# ---------------------------------------------------------------------------
# streamed writes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_chunk_that_raises_midway_leaves_the_old_file(fmt, tmp_path):
    Table = report_io._Table

    def rows():
        yield from ((i, 0.5) for i in range(20000))  # about 170 KB: two 64 KiB pieces first
        raise ValueError("the rows ran out")

    if fmt == "csv":
        chunks = Table(("i", "x"), rows()).csv_text()
    else:  # the second table holds a float JSON cannot write
        chunks = report_io._json_text(
            {"first": Table(("x",), [(0.5,)] * 3000), "second": Table(("x",), [(math.inf,)])}, "")
    target = tmp_path / "out"
    target.write_bytes(b"old bytes\n")
    during = []

    def watched():
        yield next(chunks)
        during.extend(os.listdir(tmp_path))  # the first chunk is in the temporary file
        yield from chunks

    with pytest.raises(ValueError):
        report_io._write_text(target, watched())
    assert len(during) == 2 and any(n.startswith(".out.") and n.endswith(".tmp") for n in during)
    assert target.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["out"]


# ---------------------------------------------------------------------------
# slabs of rows: a table is built and rendered a slab at a time
# ---------------------------------------------------------------------------


SLAB = report_io._SLAB
# no rows, one row, a slab less one, one slab, a slab and one, two slabs and one
SLAB_SIZES = [0, 1, SLAB - 1, SLAB, SLAB + 1, 2 * SLAB + 1]


@pytest.mark.parametrize("n", SLAB_SIZES)
def test_a_table_renders_as_the_whole_table_would(n):
    # x is None all through the first slab and a float after it, y an int, then a
    # float: each slab picks its own encoders
    columns = ("i", "x", "y", "s")
    rows = [(i, None if i < SLAB else i / 7, i if i < SLAB else i + 0.5, f"r{i}")
            for i in range(n)]
    document = {"table": report_io._Table(columns, iter(rows))}  # rows read once
    assert "".join(report_io._json_text(document, "")) + "\n" == dumps_reference(
        {"table": [dict(zip(columns, row)) for row in rows]})
    whole = StringIO()
    csv.writer(whole, lineterminator="\n").writerows([columns, *rows])
    assert "".join(report_io._Table(columns, iter(rows)).csv_text()) == whole.getvalue()


def slab_reports(n: int) -> list[Any]:
    """Reports whose tables have ``n`` rows; a series is all gaps and NaN in its first
    slab only, and each survival step value is held twice."""
    reports: list[Any] = [HillSweep(k=np.arange(1, n + 1), alpha=1.0 + np.arange(n) / 3)]
    if not n:
        return reports

    def entry(start: dt.date) -> SweepEntry:
        dates, later = dates_from(start, n), np.arange(n) >= SLAB
        disp = DispersionSeries(dates=dates, mean=np.where(later, np.arange(n) / 3, math.nan),
                                variance=np.where(later, np.arange(n) / 9, math.nan),
                                count=np.where(later, 5, 0))
        tails = TailSeries(dates=dates, alpha=np.where(later, 1.5 + np.arange(n) / 11, math.nan),
                           k=np.where(later, 2, 0), n=np.where(later, 5, 0))
        return SweepEntry(start, disp, tails)

    first = entry(START)
    return reports + [
        AnalysisReport(START, first.dispersion, first.tails, extremes=(),
                       policy="drop-at-ref", window=1),
        SweepResult(entries=(first, entry(START + dt.timedelta(days=n))), universe=("A",) * 5,
                    policy="drop-at-ref", k_policy=KPolicy()),
        SurvivalCurve(sorted_values=np.repeat(np.arange(n) / 4, 2)),
    ]


@pytest.mark.parametrize("n", SLAB_SIZES)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_reports_render_across_slab_edges_as_the_reference(n, fmt):
    for report in slab_reports(n):
        assert written_files(write_report, report, "out", fmt) == written_files(
            ref_write_report, report, "out", fmt)


def test_a_non_finite_float_in_a_later_slab_raises_and_keeps_the_old_file(tmp_path):
    rows = [(0.5,)] * (SLAB + 3) + [(math.inf,)]
    target = tmp_path / "out"
    target.write_bytes(b"old bytes\n")
    written: list[str] = []
    chunks = report_io._json_text({"table": report_io._Table(("x",), iter(rows))}, "")
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        report_io._write_text(target, (written.append(c) or c for c in chunks))
    # the first slab went to the temporary file before the second raised
    assert "".join(written).count('"x": 0.5') == SLAB
    assert target.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["out"]


def synthetic_sweep(n_refs: int, n_dates: int = 2000) -> SweepResult:
    """``n_refs`` reference dates a day apart, each with ``n_dates`` dates of
    full-precision dispersion values and Hill estimates."""
    rng = np.random.default_rng(7)
    entries = []
    for i in range(n_refs):
        dates = dates_from(START + dt.timedelta(days=i), n_dates)
        disp = DispersionSeries(dates=dates, mean=rng.random(n_dates),
                                variance=rng.random(n_dates), count=np.full(n_dates, 50))
        tails = TailSeries(dates=dates, alpha=1.0 + rng.random(n_dates),
                           k=np.full(n_dates, 5), n=np.full(n_dates, 50))
        entries.append(SweepEntry(dates[0], disp, tails))
    return SweepResult(entries=tuple(entries), universe=("A",) * 50, policy="drop-at-ref",
                       k_policy=KPolicy())


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_write_report_peak_memory_follows_one_reference_date(fmt, tmp_path):
    peaks = {}
    for n_refs in (10, 20):
        sweep = synthetic_sweep(n_refs)
        tracemalloc.start()
        try:
            write_report(sweep, tmp_path / f"sweep{n_refs}", fmt)
            _, peaks[n_refs] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    one = max(len(render_report(replace(sweep, entries=(e,)), fmt)) for e in sweep.entries)
    # Measured with 20 reference dates: JSON 0.55 MB, 0.9x the 0.62 MB of one
    # reference date; CSV 0.57 MB, 3.4x its 0.17 MB (a slab of rows and a 64 KiB
    # piece). Rendering each table whole peaked at 1.86 MB (JSON) and 1.32 MB (CSV),
    # and writing the whole document at once at 30.9 MB and 9.2 MB.
    assert peaks[20] <= one + (512 << 10)
    assert peaks[20] <= peaks[10] + (64 << 10)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_write_report_peak_memory_follows_one_slab_not_the_table(fmt, tmp_path):
    peaks = {}
    for n_dates in (2000, 20000):
        sweep = synthetic_sweep(1, n_dates)
        tracemalloc.start()
        try:
            write_report(sweep, tmp_path / f"sweep{n_dates}", fmt)
            _, peaks[n_dates] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # Measured: 2,000 dates peak at 0.70 MB (JSON) and 0.55 MB (CSV), 20,000 dates
    # 0.05 MB and 0.22 MB above that, about 0.2 MB of it the 18,000 more dates' ISO
    # text (11 bytes each); rendering each table whole peaked 16.6 MB (JSON) and
    # 4.5 MB (CSV) higher with 20,000 dates. The margin is 512 bytes a row of one slab.
    assert peaks[20000] <= peaks[2000] + SLAB * 512


def test_analyze_csv_fan_out_streams_each_file(tmp_path):
    n = 30000
    rng = np.random.default_rng(7)
    dates = dates_from(START, n)
    disp = DispersionSeries(dates=dates, mean=rng.random(n), variance=rng.random(n),
                            count=np.full(n, 50))
    tails = TailSeries(dates=dates, alpha=1.0 + rng.random(n), k=np.full(n, 5), n=np.full(n, 50))
    report = AnalysisReport(ref_date=START, dispersion=disp, tails=tails, extremes=(),
                            policy="drop-at-ref", window=1)
    peaks = []
    for write in (lambda: report_io._layout(report).tables,
                  lambda: write_report(report, tmp_path / "analysis.csv", "csv")):
        tracemalloc.start()
        try:
            write()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    written = sum(p.stat().st_size for p in tmp_path.iterdir())
    # Measured: laying out the tables peaks at 0.37 MB (their date text) and
    # writing them at 0.86 MB (a slab of rows and a 64 KiB piece); with each table's
    # cells built whole the two were 7.69 and 7.88 MB. Rendering all three files
    # before writing any peaked 2.77 MB higher, the size of their text.
    assert written > 2.5e6
    assert peaks[1] <= peaks[0] + (1 << 20)
    assert peaks[1] <= written / 2
