from __future__ import annotations

import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdisp import (
    COMPLETE_ONLY,
    CorrelationSpec,
    DataError,
    DispersionSeries,
    EmptyCrossSection,
    FullMatrix,
    HillSweep,
    PerformancePanel,
    PricePanel,
    RefDateAbsent,
    SimConfig,
    SimResult,
    SurvivalCurve,
    TailSeries,
    TooFewStocks,
    cross_sectional_moments,
    dispersion_series,
    dispersion_values,
    hill_estimator,
    hill_k_sweep,
    normalize_panel,
    pairwise_dispersion,
    survival_curve,
    survival_value,
)

from crossdisp.theory import Equicorrelation

from conftest import d


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.0])
def test_price_panel_rejects_nonpositive_prices(bad):
    prices = np.array([[1.0, np.nan], [2.0, bad]])
    with pytest.raises(ValueError, match="strictly positive"):
        PricePanel(dates=(d("2003-01-02"), d("2003-01-03")), tickers=("A", "B"), prices=prices)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_price_panel_rejects_infinite_prices(bad):
    dates = (d("2003-01-02"), d("2003-01-03"), d("2003-01-06"))
    prices = np.array([[1.0, 2.0, 3.0], [2.0, np.nan, 4.0], [3.0, bad, 5.0]])
    with pytest.raises(ValueError, match="^present prices must be strictly positive and finite$"):
        PricePanel(dates=dates, tickers=("A", "B", "C"), prices=prices)


def test_price_panel_ignores_missing_prices():
    prices = np.array([[1.0, np.nan], [np.nan, 2.0]])
    panel = PricePanel(dates=(d("2003-01-02"), d("2003-01-03")), tickers=("A", "B"), prices=prices)
    np.testing.assert_array_equal(panel.prices, prices)


D2 = (d("2003-01-02"), d("2003-01-03"))
# each record, one of its array fields, a valid value for it and the record's other fields
FROZEN_FIELDS = {
    "PricePanel.prices": (PricePanel, "prices", [[1.0, 2.0], [3.0, np.nan]],
                          dict(dates=D2, tickers=("A", "B"))),
    "PerformancePanel.values": (PerformancePanel, "values", [[1.0, 1.0], [3.0, np.nan]],
                                dict(ref_date=D2[0], dates=D2, tickers=("A", "B"))),
    "SurvivalCurve.sorted_values": (SurvivalCurve, "sorted_values", [1.0, 2.5], {}),
    "DispersionSeries.mean": (DispersionSeries, "mean", [1.0, 2.0],
                              dict(dates=D2, variance=[0.0, 1.0], count=[2, 3])),
    "DispersionSeries.variance": (DispersionSeries, "variance", [0.0, 1.0],
                                  dict(dates=D2, mean=[1.0, 2.0], count=[2, 3])),
    "DispersionSeries.count": (DispersionSeries, "count", [2, 3],
                               dict(dates=D2, mean=[1.0, 2.0], variance=[0.0, 1.0])),
    "TailSeries.alpha": (TailSeries, "alpha", [np.nan, 1.5], dict(dates=D2, k=[0, 1], n=[3, 3])),
    "TailSeries.k": (TailSeries, "k", [0, 1], dict(dates=D2, alpha=[np.nan, 1.5], n=[3, 3])),
    "TailSeries.n": (TailSeries, "n", [3, 4], dict(dates=D2, alpha=[np.nan, 1.5], k=[0, 1])),
    "HillSweep.k": (HillSweep, "k", [1, 2], dict(alpha=[1.5, 2.0])),
    "HillSweep.alpha": (HillSweep, "alpha", [1.5, 2.0], dict(k=[1, 2])),
    "FullMatrix.matrix": (FullMatrix, "matrix", [[1.0, 0.5], [0.5, 1.0]], {}),
    "CorrelationSpec.means": (CorrelationSpec, "means", [0.0, 1.0],
                              dict(n=2, sigmas=[1.0, 2.0], structure=Equicorrelation(0.5))),
    "CorrelationSpec.sigmas": (CorrelationSpec, "sigmas", [1.0, 2.0],
                               dict(n=2, means=[0.0, 1.0], structure=Equicorrelation(0.5))),
    "SimResult.per_rep": (SimResult, "per_rep", [0.5, 1.5],
                          dict(mean_vn=1.0, se_vn=0.5, var_vn=0.5,
                               config=SimConfig(CorrelationSpec.equicorrelated(2, 0.5), 2, 0))),
}


@pytest.mark.parametrize("case", FROZEN_FIELDS.values(), ids=FROZEN_FIELDS)
def test_a_record_copies_what_a_caller_can_still_write(case):
    record, name, value, others = case
    caller = np.array(value)
    read_only_view = caller[:]
    read_only_view.setflags(write=False)
    arrays = [getattr(record(**others, **{name: given}), name)
              for given in (caller, read_only_view, value)]
    first = caller.flat[0]
    caller.flat[0] = 7  # the caller's array changes; no record does
    for arr in arrays:
        assert arr is not caller and arr is not read_only_view
        assert np.array_equal(arr.flat[0], first, equal_nan=True) and not arr.flags.writeable


@pytest.mark.parametrize("case", FROZEN_FIELDS.values(), ids=FROZEN_FIELDS)
def test_a_record_adopts_a_read_only_array_nothing_else_writes(case):
    record, name, value, others = case
    owned = np.array(value)
    owned.setflags(write=False)
    transposed = np.array(value).T.copy()
    transposed.setflags(write=False)
    assert getattr(record(**others, **{name: owned}), name) is owned
    # a read-only view of a read-only array that owns its data, such as its transpose
    assert getattr(record(**others, **{name: transposed.T}), name).base is transposed
    narrow = owned.astype(np.float32 if owned.dtype.kind == "f" else np.int32)
    widened = getattr(record(**others, **{name: narrow}), name)
    assert widened.dtype == owned.dtype and np.array_equal(widened, owned, equal_nan=True)


def test_price_panel_construction_peak_memory():
    rng = np.random.default_rng(5)
    n_dates, n_stocks = 300, 400
    prices = np.exp(rng.normal(3.0, 1.0, (n_dates, n_stocks)))
    prices[rng.random(prices.shape) < 0.05] = np.nan
    dates = tuple(d("2000-01-03") + dt.timedelta(days=i) for i in range(n_dates))
    tickers = tuple(f"S{i:03d}" for i in range(n_stocks))
    tracemalloc.start()
    try:
        panel = PricePanel(dates=dates, tickers=tickers, prices=prices)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert panel.prices is not prices and not panel.prices.flags.writeable
    # the read-only copy; the positivity check reduces without a mask
    assert peak <= 1.5 * prices.nbytes + 64 * 1024


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_divides_by_reference_price(tiny_panel):
    perf = normalize_panel(tiny_panel, d("2003-01-02"))
    assert perf.ref_date == d("2003-01-02")
    assert perf.tickers == ("AAA", "BBB")
    np.testing.assert_array_equal(
        perf.values, np.array([[1.0, 1.0], [1.5, 1.0], [1.2, 3.0]])
    )


def test_normalize_single_stock_needs_waiver():
    panel = PricePanel(
        dates=(d("2003-01-02"), d("2003-01-03"), d("2003-01-06")),
        tickers=("AAA",),
        prices=np.array([[10.0], [15.0], [12.0]]),
    )
    with pytest.raises(TooFewStocks):
        normalize_panel(panel, d("2003-01-02"))


def test_normalize_starts_at_reference_date(tiny_panel):
    perf = normalize_panel(tiny_panel, d("2003-01-03"))
    assert perf.dates == (d("2003-01-03"), d("2003-01-06"))
    assert np.all(perf.values[0] == 1.0)


def test_normalize_absent_ref_date(tiny_panel):
    with pytest.raises(RefDateAbsent, match="2003-02-01"):
        normalize_panel(tiny_panel, d("2003-02-01"))


def test_normalize_drops_stock_missing_at_ref(gappy_panel):
    perf = normalize_panel(gappy_panel, d("2003-01-02"))
    assert perf.tickers == ("AAA", "BBB")


def test_normalize_keeps_later_gaps_per_date(gappy_panel):
    perf = normalize_panel(gappy_panel, d("2003-01-03"))
    assert perf.tickers == ("AAA", "BBB", "CCC")
    assert math.isnan(perf.values[1, 2])
    np.testing.assert_array_equal(perf.cross_section(d("2003-01-06")), [0.8, 3.0])


def test_normalize_complete_only_drops_gappy_stock(gappy_panel):
    perf = normalize_panel(gappy_panel, d("2003-01-03"), policy=COMPLETE_ONLY)
    assert perf.tickers == ("AAA", "BBB")


@pytest.mark.parametrize("first, second", [(1e300, 1e-300), (1e-300, 1e300)])
def test_normalize_rejects_a_ratio_outside_the_doubles(first, second):
    # 1e-600 underflows to 0 and 1e600 overflows to inf; both raise DataError
    panel = PricePanel(
        dates=(d("2001-01-01"), d("2001-01-02"), d("2001-01-03")),
        tickers=("A", "B", "C"),
        prices=np.array([[first, 1.0, 2.0], [second, 2.0, 3.0], [1.0, 3.0, 4.0]]),
    )
    message = "performance of A on 2001-01-02 against 2001-01-01 is outside the range of a double"
    with pytest.raises(DataError, match=f"^{message}$"):
        normalize_panel(panel, d("2001-01-01"))
    perf = normalize_panel(panel, d("2001-01-02"))  # from the next date every ratio fits
    assert perf.values[1, 0] == 1.0 / second


def test_normalize_rejects_unknown_policy(tiny_panel):
    with pytest.raises(ValueError):
        normalize_panel(tiny_panel, d("2003-01-02"), policy="ffill")


def test_panel_rejects_nonpositive_price():
    with pytest.raises(ValueError):
        PricePanel(
            dates=(d("2003-01-02"),), tickers=("AAA",), prices=np.array([[0.0]])
        )


def test_panel_rejects_unsorted_dates():
    with pytest.raises(ValueError):
        PricePanel(
            dates=(d("2003-01-03"), d("2003-01-02")),
            tickers=("AAA",),
            prices=np.array([[1.0], [2.0]]),
        )


def test_performance_panel_requires_unit_reference_row():
    with pytest.raises(ValueError):
        PerformancePanel(
            ref_date=d("2003-01-02"),
            dates=(d("2003-01-02"),),
            tickers=("AAA", "BBB"),
            values=np.array([[1.0, 1.1]]),
        )


def test_performance_panel_dates_start_on_or_after_the_reference_date():
    ref, tickers = d("2003-01-03"), ("AAA", "BBB")
    with pytest.raises(ValueError, match="on or after the reference date"):
        PerformancePanel(ref_date=ref, dates=(d("2003-01-02"), ref), tickers=tickers,
                         values=np.ones((2, 2)))
    # a chunk that starts after the reference date has no unit row to check
    later = PerformancePanel(ref_date=ref, dates=(d("2003-01-06"), d("2003-01-07")),
                             tickers=tickers, values=np.array([[1.1, 0.9], [1.0, 1.2]]))
    assert later.values.tolist() == [[1.1, 0.9], [1.0, 1.2]]
    assert PerformancePanel(ref_date=ref, dates=(), tickers=tickers,
                            values=np.empty((0, 2))).values.shape == (0, 2)


# ---------------------------------------------------------------------------
# survival function
# ---------------------------------------------------------------------------


def test_survival_value_counts_strictly_greater():
    xs = [0.5, 1.5, 2.5]
    assert survival_value(xs, 1.0) == pytest.approx(2.0 / 3.0)
    assert survival_value(xs, 0.0) == 1.0
    assert survival_value(xs, 2.5) == 0.0  # ties do not count
    assert survival_value(xs, 0.5) == pytest.approx(2.0 / 3.0)


def test_survival_value_empty():
    with pytest.raises(EmptyCrossSection):
        survival_value([], 1.0)


def test_survival_curve_matches_pointwise_definition():
    xs = np.array([2.0, 1.0, 3.0, 1.0])
    curve = survival_curve(xs)
    np.testing.assert_array_equal(curve.sorted_values, [1.0, 1.0, 2.0, 3.0])
    grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 99.0]
    for z in grid:
        assert curve.evaluate(z) == survival_value(xs, z)


def test_survival_curve_step_points():
    curve = survival_curve([0.5, 1.5, 2.5])
    zs, ss = curve.step_points()
    np.testing.assert_array_equal(zs, [0.5, 1.5, 2.5])
    np.testing.assert_array_equal(ss, [2.0 / 3.0, 1.0 / 3.0, 0.0])


def test_survival_curve_rejects_unsorted_values():
    with pytest.raises(ValueError):
        SurvivalCurve(sorted_values=np.array([2.0, 1.0]))


def test_survival_curve_holds_one_copy_of_its_sample():
    sample = np.random.default_rng(5).random(1_000_000)
    tracemalloc.start()
    try:
        curve = survival_curve(sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not curve.sorted_values.flags.writeable
    # the sorted copy, adopted by the record, and the finiteness check's booleans
    assert peak <= 1.5 * sample.nbytes


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=40),
    st.floats(min_value=-1.0, max_value=110.0),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_survival_monotone_and_quantized(xs, z, dz):
    curve = survival_curve(xs)
    lo, hi = curve.evaluate(z), curve.evaluate(z + dz)
    assert hi <= lo
    n = len(xs)
    assert round(lo * n) == pytest.approx(lo * n)  # multiples of 1/n
    assert 0.0 <= hi <= lo <= 1.0
    assert curve.evaluate(min(xs) - 1.0) == 1.0
    assert curve.evaluate(max(xs)) == 0.0


# ---------------------------------------------------------------------------
# moments and pairwise identity
# ---------------------------------------------------------------------------


def test_moments_basic():
    m = cross_sectional_moments([1.0, 2.0, 3.0])
    assert m.mean == 2.0
    assert m.variance == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_moments_population_not_sample():
    # population convention: divide by N
    m = cross_sectional_moments([0.0, 2.0])
    assert m.variance == 1.0


def test_moments_needs_two():
    with pytest.raises(TooFewStocks):
        cross_sectional_moments([5.0])


def test_pairwise_matches_brute_force():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.1, 5.0, size=23)
    brute = sum((a - b) ** 2 for a in xs for b in xs) / (2 * len(xs) ** 2)
    assert pairwise_dispersion(xs) == pytest.approx(brute, rel=1e-12)
    assert pairwise_dispersion(xs) == pytest.approx(
        cross_sectional_moments(xs).variance, rel=1e-12
    )


def test_pairwise_constant_is_zero():
    assert pairwise_dispersion([3.0, 3.0, 3.0]) == 0.0


@settings(max_examples=80)
@given(
    st.lists(
        st.integers(min_value=1, max_value=10**6).map(lambda i: i / 1000.0),
        min_size=2,
        max_size=80,
    )
)
def test_pairwise_identity_property(xs):
    var = cross_sectional_moments(xs).variance
    pair = pairwise_dispersion(xs)
    assert pair == pytest.approx(var, rel=1e-10, abs=1e-18)


@settings(max_examples=40)
@given(
    st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=2, max_size=30),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=8.0),
)
def test_variance_translation_and_scaling(xs, shift, scale):
    arr = np.asarray(xs)
    base = cross_sectional_moments(arr).variance
    shifted = cross_sectional_moments(arr + shift).variance
    scaled = cross_sectional_moments(arr * scale).variance
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)
    assert scaled == pytest.approx(base * scale**2, rel=1e-9, abs=1e-12)


def test_dispersion_values_matches_per_row_moments():
    rng = np.random.default_rng(5)
    matrix = rng.uniform(0.5, 2.0, size=(7, 13))
    rows = dispersion_values(matrix)
    for i in range(7):
        assert rows[i] == cross_sectional_moments(matrix[i]).variance


# ---------------------------------------------------------------------------
# dispersion series
# ---------------------------------------------------------------------------


def test_dispersion_series_reference_date_is_exact(tiny_panel):
    perf = normalize_panel(tiny_panel, d("2003-01-02"))
    series = dispersion_series(perf)
    assert series.mean[0] == 1.0
    assert series.variance[0] == 0.0
    assert series.count[0] == 2


def test_dispersion_series_values(tiny_panel):
    perf = normalize_panel(tiny_panel, d("2003-01-02"))
    series = dispersion_series(perf)
    # day 2: X = (1.5, 1.0) -> mean 1.25, var 0.0625
    assert series.mean[1] == pytest.approx(1.25)
    assert series.variance[1] == pytest.approx(0.0625)
    # day 3: X = (1.2, 3.0) -> mean 2.1, var 0.81
    assert series.variance[2] == pytest.approx(0.81)


def reference_dispersion(values):
    """Mean, variance and count with a fresh array for each step."""
    present = np.isfinite(values)
    count = present.sum(axis=1, dtype=np.int64)
    filled = np.where(present, values, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(count > 0, filled.sum(axis=1) / count, np.nan)
        dev_sq = np.where(present, (values - mean[:, None]) ** 2, 0.0)
        variance = np.where(count >= 2, dev_sq.sum(axis=1) / count, np.nan)
    return mean, variance, count


def perf_from_rows(values):
    dates = tuple(d("2003-01-02") + dt.timedelta(days=i) for i in range(len(values)))
    return PerformancePanel(
        ref_date=dates[0],
        dates=dates,
        tickers=tuple(f"T{i}" for i in range(values.shape[1])),
        values=values,
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda width: st.lists(
            st.lists(
                st.one_of(
                    st.floats(0.01, 100.0),
                    st.just(np.nan),
                ),
                min_size=width,
                max_size=width,
            ),
            min_size=1,
            max_size=6,
        )
    )
)
def test_dispersion_series_matches_reference_bit_for_bit(rows):
    values = np.array([[1.0] * len(rows[0])] + rows)
    series = dispersion_series(perf_from_rows(values))
    mean, variance, count = reference_dispersion(values)
    np.testing.assert_array_equal(series.mean, mean)
    np.testing.assert_array_equal(series.variance, variance)
    np.testing.assert_array_equal(series.count, count)


def test_dispersion_series_peak_memory():
    rng = np.random.default_rng(6)
    values = rng.uniform(0.5, 2.0, size=(300, 400))
    values[0] = 1.0
    values[1:][rng.random((299, 400)) < 0.05] = np.nan
    perf = perf_from_rows(values)
    tracemalloc.start()
    try:
        dispersion_series(perf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one scratch matrix and two boolean masks
    assert peak <= 1.5 * values.nbytes + 64 * 1024


def test_dispersion_series_identical_paths_stay_zero():
    prices = np.array([[10.0, 10.0], [11.0, 11.0], [9.0, 9.0]])
    panel = PricePanel(
        dates=(d("2003-01-02"), d("2003-01-03"), d("2003-01-06")),
        tickers=("AAA", "BBB"),
        prices=prices,
    )
    series = dispersion_series(normalize_panel(panel, d("2003-01-02")))
    np.testing.assert_array_equal(series.variance, [0.0, 0.0, 0.0])


def test_dispersion_series_undefined_below_two_stocks():
    values = np.array([[1.0, 1.0], [2.0, np.nan], [np.nan, np.nan]])
    perf = PerformancePanel(
        ref_date=d("2003-01-02"),
        dates=(d("2003-01-02"), d("2003-01-03"), d("2003-01-06")),
        tickers=("AAA", "BBB"),
        values=values,
    )
    series = dispersion_series(perf)
    assert series.count.tolist() == [2, 1, 0]
    assert math.isnan(series.variance[1])
    assert series.mean[1] == 2.0
    assert math.isnan(series.mean[2])


# ---------------------------------------------------------------------------
# rejected inputs
# ---------------------------------------------------------------------------


# each call, the error it raises and a fragment of its message
REJECTED = {
    "duplicate tickers": (lambda: PricePanel(D2, ("A", "A"), [[1.0, 2.0], [3.0, 4.0]]),
                          ValueError, "tickers must be unique"),
    "price shape": (lambda: PricePanel(D2, ("A", "B"), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                    ValueError, "does not match 2 dates x 2 tickers"),
    "performance shape": (lambda: PerformancePanel(D2[0], D2, ("A", "B"), [[1.0, 1.0, 1.0]]),
                          ValueError, "value matrix shape does not match axes"),
    "performance not positive": (
        lambda: PerformancePanel(D2[0], D2, ("A", "B"), [[1.0, 1.0], [2.0, -1.0]]),
        ValueError, "performance values must be strictly positive"),
    "empty survival curve": (lambda: SurvivalCurve(sorted_values=[]),
                             EmptyCrossSection, "needs at least one value"),
    "survival curve record of a matrix": (lambda: SurvivalCurve(sorted_values=[[1.0, 2.0]]),
                                          ValueError, "expected a 1-d sample"),
    "survival curve of a scalar": (lambda: survival_curve(5.0),
                                   ValueError, "expected a 1-d sample"),
    "survival value of a matrix": (lambda: survival_value([[1.0, 2.0], [3.0, 4.0]], 1.5),
                                   ValueError, "expected a 1-d sample"),
    "moments of a matrix": (lambda: cross_sectional_moments([[1.0, 2.0], [3.0, 4.0]]),
                            ValueError, "expected a 1-d sample"),
    "pairwise of one":(lambda: pairwise_dispersion([1.0]),
                        TooFewStocks, "need at least 2 stocks, found 1"),
    "dispersion of a vector": (lambda: dispersion_values([1.0, 2.0]),
                               ValueError, "expected a 2-d matrix"),
    "dispersion of one column": (lambda: dispersion_values([[1.0], [2.0]]),
                                 TooFewStocks, "need at least 2 stocks, found 1"),
    "series lengths": (lambda: DispersionSeries(D2, [1.0], [0.0, 1.0], [2, 2]),
                       ValueError, "must all match the number of dates"),
    "negative variance": (lambda: DispersionSeries(D2, [1.0, 1.0], [0.0, -1.0], [2, 2]),
                          ValueError, "variance cannot be negative"),
    "variance of one stock": (lambda: DispersionSeries(D2, [1.0, 1.0], [0.0, 1.0], [2, 1]),
                              ValueError, "variance requires at least two stocks"),
}


@pytest.mark.parametrize("case", REJECTED.values(), ids=REJECTED)
def test_rejected_input_raises(case):
    call, error, fragment = case
    with pytest.raises(error, match=fragment):
        call()


# every function of one cross-section, called on a sample
ONE_CROSS_SECTION = {
    "survival_value": lambda x: survival_value(x, 0.5),
    "survival_curve": survival_curve,
    "SurvivalCurve": lambda x: SurvivalCurve(sorted_values=x),
    "cross_sectional_moments": cross_sectional_moments,
    "pairwise_dispersion": pairwise_dispersion,
    "hill_k_sweep": hill_k_sweep,
    "hill_estimator": lambda x: hill_estimator(x, 1),
}
# each sample that is not 1-d and finite, and the message every function raises for it
NOT_A_SAMPLE = {
    "NaN": ([1.0, 2.0, np.nan], "expected a finite sample"),
    "+inf": ([1.0, 2.0, np.inf], "expected a finite sample"),
    "-inf": ([-np.inf, 1.0, 2.0], "expected a finite sample"),
    "matrix": ([[1.0, 2.0], [3.0, 4.0]], "expected a 1-d sample"),
    "NaN inside": ([1.0, np.nan, 2.0], "expected a finite sample"),
    "+inf of two": ([1.0, np.inf], "expected a finite sample"),
    "-inf last": ([1.0, -np.inf], "expected a finite sample"),
    "2x3 matrix": ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "expected a 1-d sample"),
    "unequal matrix": ([[1.0, 2.0], [3.0, 5.0]], "expected a 1-d sample"),
}


@pytest.mark.parametrize("sample, message", NOT_A_SAMPLE.values(), ids=NOT_A_SAMPLE)
@pytest.mark.parametrize("call", ONE_CROSS_SECTION.values(), ids=ONE_CROSS_SECTION)
def test_one_cross_section_takes_a_finite_1d_sample(call, sample, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(sample)


@pytest.mark.parametrize("cell", [np.inf, -np.inf])
def test_price_and_performance_panels_reject_the_same_infinite_cell(cell):
    # NaN is a panel's only missing value: an infinity is rejected, not dropped
    values = [[1.0, 1.0], [2.0, cell]]
    with pytest.raises(ValueError, match="^present prices must be strictly positive and finite$"):
        PricePanel(D2, ("A", "B"), values)
    with pytest.raises(ValueError,
                       match="^performance values must be strictly positive and finite$"):
        PerformancePanel(D2[0], D2, ("A", "B"), values)
