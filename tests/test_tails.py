from __future__ import annotations

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdisp import (
    BadK,
    DegenerateTail,
    ExtremeEvent,
    HillSweep,
    KPolicy,
    NonFiniteVariance,
    PerformancePanel,
    TailEstimate,
    TailSeries,
    WindowTooLarge,
    detect_extremes,
    hill_estimator,
    hill_k_sweep,
    pareto_variance,
    tail_series,
)

from conftest import d, pareto_grid

# Frozen oracle values. Computed by direct evaluation of the estimator
# definition in pure Python (math.fsum over explicit log ratios),
# independent of the library code paths.
HILL_GRID_N1000_A25_K100 = 2.5569515932168203
HILL_GRID_N20000_A4_K2000 = 4.007453224502762


def hill_oracle(xs, k: int) -> float:
    xs = sorted(float(x) for x in xs)
    n = len(xs)
    thr = xs[n - k - 1]
    return k / math.fsum(math.log(xs[n - k + j] / thr) for j in range(k))


# ---------------------------------------------------------------------------
# Hill estimator
# ---------------------------------------------------------------------------


def test_hill_three_point_example():
    est = hill_estimator([1.0, math.e, math.e**2], k=2)
    # mean log excess over x_(1)=1 is (2 + 1)/2 = 1.5
    assert est.alpha == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert (est.k, est.n) == (2, 3)
    # a numpy integer k is stored as the int it holds
    assert type(hill_estimator([1.0, math.e, math.e**2], k=np.int64(2)).k) is int


def test_hill_matches_quantile_grid_oracle():
    xs = pareto_grid(1000, 2.5)
    est = hill_estimator(xs, 100)
    assert est.alpha == pytest.approx(hill_oracle(xs, 100), rel=1e-12)
    assert est.alpha == pytest.approx(HILL_GRID_N1000_A25_K100, rel=1e-12)


def test_hill_grid_converges_toward_true_exponent():
    xs = pareto_grid(20000, 4.0)
    est = hill_estimator(xs, 2000)
    assert est.alpha == pytest.approx(HILL_GRID_N20000_A4_K2000, rel=1e-12)
    assert abs(est.alpha - 4.0) < 0.01


def test_hill_order_insensitive():
    xs = pareto_grid(500, 1.8)
    rng = np.random.default_rng(3)
    shuffled = rng.permutation(xs)
    assert hill_estimator(xs, 50).alpha == hill_estimator(shuffled, 50).alpha


def test_hill_bad_k():
    xs = [1.0, 2.0, 3.0]
    with pytest.raises(BadK):
        hill_estimator(xs, 0)
    with pytest.raises(BadK):
        hill_estimator(xs, 3)
    with pytest.raises(BadK):
        hill_estimator(xs, -1)
    for k in (1.5, True):  # neither is cut nor cast to an estimate at k = 1
        with pytest.raises(TypeError):
            hill_estimator(xs, k)
    with pytest.raises(TypeError):
        hill_k_sweep(xs, [1, 1.5])


def test_hill_degenerate_tail():
    with pytest.raises(DegenerateTail):
        hill_estimator([1.0, 2.0, 5.0, 5.0, 5.0], k=2)


def test_hill_rejects_nonpositive():
    with pytest.raises(ValueError):
        hill_estimator([-1.0, 2.0, 3.0], 1)


@settings(max_examples=40)
@given(st.floats(min_value=0.01, max_value=100.0))
def test_hill_scale_invariance(c):
    xs = pareto_grid(200, 2.0)
    base = hill_estimator(xs, 20).alpha
    scaled = hill_estimator(c * xs, 20).alpha
    assert scaled == pytest.approx(base, rel=1e-10)


@pytest.mark.parametrize("p", [0.5, 2.0, 3.7])
def test_hill_power_transform_divides_alpha(p):
    xs = pareto_grid(400, 3.0)
    base = hill_estimator(xs, 40).alpha
    powered = hill_estimator(xs**p, 40).alpha
    assert powered == pytest.approx(base / p, rel=1e-10)


def test_hill_spacing_ratio_past_the_largest_double():
    # 1e300 / 2e-10 overflows, so that spacing's log comes from the logs
    xs = np.array([1e300, *np.arange(2.0, 12.0) * 1e-10])
    top = np.sort(xs)[::-1]
    sweep = hill_k_sweep(xs)
    for k, alpha in zip(sweep.k.tolist(), sweep.alpha.tolist()):
        direct = np.sum(np.log(top[:k]) - np.log(top[k]))
        assert alpha == pytest.approx(k / direct, rel=1e-12)


def test_hill_k_sweep_covers_range():
    xs = pareto_grid(50, 2.0)
    sweep = hill_k_sweep(xs)
    assert len(sweep) == 49 and sweep.k.tolist() == list(range(1, 50))
    assert sweep.alpha[9] == hill_estimator(xs, 10).alpha


def test_hill_k_sweep_builds_no_tail_estimate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hill_k_sweep built a TailEstimate")

    monkeypatch.setattr("crossdisp.tails.TailEstimate", refuse)
    sweep = hill_k_sweep(pareto_grid(50, 2.0))
    assert len(sweep) == 49
    assert not sweep.k.flags.writeable and not sweep.alpha.flags.writeable


@pytest.mark.parametrize(
    "k, alpha",
    [
        ([0], [1.0]),  # k not positive
        ([1], [0.0]),  # alpha not positive
        ([1], [np.inf]),  # alpha not finite
        ([1], [np.nan]),
        ([1, 2], [1.0]),  # one k per alpha
        ([[1]], [[1.0]]),  # columns, not a matrix
    ],
)
def test_hill_sweep_validates_columns(k, alpha):
    with pytest.raises(ValueError):
        HillSweep(k=k, alpha=alpha)


# ---------------------------------------------------------------------------
# Pareto variance
# ---------------------------------------------------------------------------


def test_pareto_variance_at_three_is_exact():
    assert pareto_variance(3.0) == 0.75


def test_pareto_variance_known_value():
    assert pareto_variance(4.0) == pytest.approx(2.0 / 9.0, rel=1e-15)


@pytest.mark.parametrize("alpha", [2.0, 1.99, 1.0, 0.5, -3.0])
def test_pareto_variance_diverges_at_two_and_below(alpha):
    with pytest.raises(NonFiniteVariance):
        pareto_variance(alpha)


def test_pareto_variance_strictly_decreasing():
    grid = np.linspace(2.5, 20.0, 200)
    values = [pareto_variance(a) for a in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# per-date series
# ---------------------------------------------------------------------------


def make_perf(rows: list[np.ndarray], start="2003-01-02") -> PerformancePanel:
    start_date = d(start)
    width = max(len(r) for r in rows)
    values = np.full((len(rows) + 1, width), np.nan)
    values[0, :] = 1.0
    for i, r in enumerate(rows, start=1):
        values[i, : len(r)] = r
    dates = tuple(start_date + dt.timedelta(days=i) for i in range(len(rows) + 1))
    return PerformancePanel(
        ref_date=start_date,
        dates=dates,
        tickers=tuple(f"T{i}" for i in range(width)),
        values=values,
    )


def test_tail_series_constant_on_repeated_cross_section():
    grid = pareto_grid(100, 2.0)
    perf = make_perf([grid, grid, grid])
    series = tail_series(perf)
    expected = hill_estimator(grid, 10).alpha
    # the reference date itself is degenerate (all ones) -> gap
    assert series.estimates[0] is None
    for est in series.estimates[1:]:
        assert est.alpha == expected
        assert (est.k, est.n) == (10, 100)


def test_tail_series_gap_below_min_cross_section():
    grid = pareto_grid(100, 2.0)
    small = grid[:9]  # below the default minimum of 10
    perf = make_perf([grid, small])
    series = tail_series(perf)
    assert series.estimates[1] is not None
    assert series.estimates[2] is None
    assert math.isnan(series.alpha[2]) and series.k[2] == 0
    assert len(series) == 3


def test_k_policy_default_is_ten_percent_ceiling():
    policy = KPolicy()
    assert policy.k_for(1000) == 100
    assert policy.k_for(15) == 2  # ceil(1.5)
    assert policy.k_for(10) == 1
    assert policy.k_for(9) == 0
    assert policy.k_for([1000, 15, 10, 9, 0]).tolist() == [100, 2, 1, 0, 0]
    assert KPolicy(fraction=0.99, min_n=2).k_for(2) == 1  # clamped below n


def test_k_policy_validation():
    with pytest.raises(ValueError):
        KPolicy(fraction=0.0)
    with pytest.raises(ValueError):
        KPolicy(min_n=1)


@pytest.mark.parametrize("min_n", [True, 10.0, 10.5, np.float64(10.0), "10"])
def test_k_policy_min_n_must_be_an_integer(min_n):
    with pytest.raises(TypeError, match="^min_n must be an integer"):
        KPolicy(min_n=min_n)


def test_tail_estimate_validates_fields():
    with pytest.raises(ValueError):
        TailEstimate(alpha=1.0, k=5, n=5)
    with pytest.raises(ValueError):
        TailEstimate(alpha=-2.0, k=1, n=5)


@pytest.mark.parametrize(
    "alpha, k, n",
    [
        ([1.0], [1], [1]),  # k = n
        ([1.0], [-1], [5]),  # k negative
        ([0.0], [1], [5]),  # alpha not positive
        ([-2.0], [1], [5]),
        ([np.inf], [1], [5]),  # alpha not finite
        ([np.nan], [1], [5]),  # no alpha at an estimate
        ([1.0], [0], [5]),  # an alpha at a gap
        ([1.0, np.nan], [1, 0], [5, 5]),  # two values for one date
        ([1.0], [1, 0], [5]),
        ([1.0], [1], [5, 5]),
    ],
)
def test_tail_series_validates_columns(alpha, k, n):
    with pytest.raises(ValueError):
        TailSeries((d("2003-01-02"),), alpha, k, n)


# ---------------------------------------------------------------------------
# extreme detection
# ---------------------------------------------------------------------------


def test_detect_extremes_single_minimum():
    events = detect_extremes([3.0, 2.0, 1.0, 2.0, 3.0], window=2)
    assert len(events) == 1
    event = events[0]
    assert (event.date, event.kind, event.value) == (2, "local-minimum", 1.0)


def test_detect_extremes_monotone_has_none():
    assert detect_extremes(np.arange(10.0), window=3) == []


def test_detect_extremes_plateau_has_none():
    assert detect_extremes([1.0, 1.0, 1.0], window=1) == []


def test_detect_extremes_finds_maximum_with_dates():
    dates = tuple(d("2003-01-02") + dt.timedelta(days=i) for i in range(5))
    events = detect_extremes([1.0, 2.0, 5.0, 2.0, 1.0], window=2, dates=dates)
    assert [e.kind for e in events] == ["local-maximum"]
    assert events[0].date == dates[2]


def test_detect_extremes_window_too_large():
    with pytest.raises(WindowTooLarge):
        detect_extremes([1.0, 2.0, 1.0], window=2)  # needs length > 2*window
    with pytest.raises(WindowTooLarge):
        detect_extremes([1.0, 2.0], window=1)
    # length 3 with half-width 1 has exactly one interior point and is legal
    assert detect_extremes([1.0, 2.0, 1.0], window=1)[0].kind == "local-maximum"


def test_detect_extremes_rejects_zero_window():
    with pytest.raises(ValueError):
        detect_extremes([1.0, 2.0, 1.0, 2.0], window=0)


@pytest.mark.parametrize("window", [True, 1.5, 1.0, np.float64(1.0), np.bool_(True), "1"])
def test_detect_extremes_rejects_a_window_that_is_not_an_integer(window):
    with pytest.raises(TypeError, match="^window must be an integer"):
        detect_extremes([1.0, 2.0, 1.0, 2.0], window=window)


def test_detect_extremes_takes_a_numpy_integer_window():
    (event,) = detect_extremes([1.0, 2.0, 1.0], window=np.int64(1))
    assert type(event.window) is int and event.window == 1


def test_detect_extremes_skips_windows_with_gaps():
    series = [3.0, 2.0, 1.0, np.nan, 3.0]
    assert detect_extremes(series, window=2) == []


def test_detect_extremes_invariant_under_monotone_transform():
    rng = np.random.default_rng(8)
    series = rng.uniform(1.0, 3.0, size=60)
    base = detect_extremes(series, window=4)
    shifted = detect_extremes(series + 100.0, window=4)
    exped = detect_extremes(np.exp(series), window=4)
    assert [(e.date, e.kind) for e in base] == [(e.date, e.kind) for e in shifted]
    assert [(e.date, e.kind) for e in base] == [(e.date, e.kind) for e in exped]
    decreasing = detect_extremes(-series, window=4)
    flip = {"local-minimum": "local-maximum", "local-maximum": "local-minimum"}
    assert [(e.date, flip[e.kind]) for e in decreasing] == [
        (e.date, e.kind) for e in base
    ]


# ---------------------------------------------------------------------------
# references: one Hill estimate per k and per date, one window per date
# ---------------------------------------------------------------------------


def reference_hill_estimator(x, k):
    """Direct Hill formula: the mean of log(x / threshold) over the top k."""
    arr = np.asarray(x, dtype=np.float64)
    n = int(arr.size)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("sample must be strictly positive and finite")
    if not 1 <= k < n:
        raise BadK(k, n)
    ordered = np.sort(arr)
    mean_log_excess = float(np.mean(np.log(ordered[n - k:] / ordered[n - k - 1])))
    if mean_log_excess == 0.0:
        raise DegenerateTail("tied tail")
    return TailEstimate(alpha=1.0 / mean_log_excess, k=k, n=n)


def reference_hill_k_sweep(x, k_values=None):
    arr = np.asarray(x, dtype=np.float64)
    out = []
    for k in range(1, arr.size) if k_values is None else k_values:
        try:
            out.append(reference_hill_estimator(arr, k))
        except DegenerateTail:
            continue
    return out


def reference_k(policy, n):
    """The documented rule: ceil(fraction * n) clamped to [1, n - 1], None below min_n."""
    if n < policy.min_n:
        return None
    return min(max(math.ceil(policy.fraction * n), 1), n - 1)


def reference_tail_series(perf, policy):
    estimates = []
    for row in perf.values:
        xs = row[np.isfinite(row)]
        k = reference_k(policy, int(xs.size))
        try:
            estimates.append(None if k is None else reference_hill_estimator(xs, k))
        except DegenerateTail:
            estimates.append(None)
    return estimates


def reference_detect_extremes(values, window, dates=None):
    series = np.asarray(values, dtype=np.float64)
    n = int(series.size)
    events = []
    for t in range(window, n - window):
        segment = series[t - window : t + window + 1]
        if not np.isfinite(segment).all():
            continue
        center = segment[window]
        others = np.delete(segment, window)
        when = dates[t] if dates is not None else t
        if center < others.min():
            events.append(ExtremeEvent(when, "local-minimum", float(center), window))
        elif center > others.max():
            events.append(ExtremeEvent(when, "local-maximum", float(center), window))
    return events


def sweep_estimates(sweep, n):
    """A sweep's columns as the TailEstimates of one hill_estimator call per k."""
    return [TailEstimate(a, k, n) for k, a in zip(sweep.k.tolist(), sweep.alpha.tolist())]


def assert_same_estimates(got, want):
    """Same gaps, k and n; alpha within rel 1e-12."""
    assert [None if e is None else (e.k, e.n) for e in got] == [
        None if e is None else (e.k, e.n) for e in want
    ]
    for g, w in zip(got, want):
        if g is not None:
            assert g.alpha == pytest.approx(w.alpha, rel=1e-12)


# Integer grids keep distinct values at least 0.1% apart, where the direct
# log-ratio formula is still good to about 1e-13, and make exact ties common.
TIED_VALUES = st.integers(1, 1000).map(float)
SCALES = st.sampled_from([1.0, 0.125, 1024.0, 1e6])


@settings(max_examples=200, deadline=None)
@given(
    sample=st.lists(TIED_VALUES, min_size=2, max_size=60),
    scale=SCALES,
    data=st.data(),
)
def test_hill_k_sweep_matches_per_k_reference(sample, scale, data):
    xs = np.array(sample) * scale
    n = xs.size
    assert_same_estimates(sweep_estimates(hill_k_sweep(xs), n), reference_hill_k_sweep(xs))
    ks = data.draw(st.lists(st.integers(1, n - 1), max_size=10))
    swept = hill_k_sweep(xs, ks)
    want = reference_hill_k_sweep(xs, ks)
    assert_same_estimates(sweep_estimates(swept, n), want)
    # bit for bit against one estimate per k, in the order of ks
    assert list(zip(swept.k.tolist(), swept.alpha.tolist())) == [
        (e.k, hill_estimator(xs, e.k).alpha) for e in want]


@pytest.mark.parametrize(
    "sample, k_values",
    [
        ([1.0, 2.0, 3.0], [0]),
        ([1.0, 2.0, 3.0], [1, 3]),
        ([-1.0, 2.0, 3.0], [1]),
        ([-1.0, 2.0, 3.0], [0]),
        ([1.0, np.nan, 3.0], None),
        ([1.0], None),
        ([2.0, 2.0, 2.0], None),
        ([1.0, 2.0, 3.0], []),
        ([1.0, np.inf, 3.0], [5]),  # the sample is checked before any k
    ],
)
def test_hill_k_sweep_errors_match_reference(sample, k_values):
    def run(sweep):
        try:
            estimates = sweep(sample, k_values)
        except (BadK, ValueError) as exc:
            return type(exc)
        if isinstance(estimates, HillSweep):
            estimates = sweep_estimates(estimates, len(sample))
        return [(e.alpha, e.k) for e in estimates]

    assert run(hill_k_sweep) == run(reference_hill_k_sweep)


@st.composite
def performance_panels(draw):
    """A reference row of ones, then rows with ties, gaps and small sizes."""
    width = draw(st.integers(1, 30))
    n_rows = draw(st.integers(1, 8))
    cells = st.one_of(TIED_VALUES, st.just(np.nan))
    values = np.array(
        [[1.0] * width]
        + [draw(st.lists(cells, min_size=width, max_size=width)) for _ in range(n_rows)]
    )
    values[1:] *= draw(SCALES) / 100.0
    dates = tuple(d("2003-01-02") + dt.timedelta(days=i) for i in range(n_rows + 1))
    return PerformancePanel(
        ref_date=dates[0],
        dates=dates,
        tickers=tuple(f"T{i}" for i in range(width)),
        values=values,
    )


@settings(max_examples=200, deadline=None)
@given(
    perf=performance_panels(),
    fraction=st.sampled_from([0.1, 0.3, 0.5, 0.95]),
    min_n=st.integers(2, 12),
)
def test_tail_series_matches_per_date_reference(perf, fraction, min_n):
    policy = KPolicy(fraction=fraction, min_n=min_n)
    series = tail_series(perf, policy)
    assert series.dates == perf.dates and series.k_policy == policy
    assert_same_estimates(series.estimates, reference_tail_series(perf, policy))
    assert series.n.tolist() == [int(np.isfinite(row).sum()) for row in perf.values]
    exact = [hill_estimator(row[np.isfinite(row)], k).alpha if k else np.nan
             for row, k in zip(perf.values, series.k.tolist())]
    assert np.array_equal(series.alpha, exact, equal_nan=True)


def test_hill_is_accurate_on_nearly_tied_values():
    # 5000 values of about 1e6 that differ only from the 7th digit on: the
    # log of a ratio of two of them keeps only a few correct digits
    rng = np.random.default_rng(7)
    xs = 1e6 + rng.uniform(0.0, 1.0, 5000)
    desc = sorted(xs.tolist(), reverse=True)

    def exact_alpha(k):
        threshold = desc[k]
        return k / math.fsum(math.log1p((v - threshold) / threshold) for v in desc[:k])

    swept = hill_k_sweep(xs)
    for k in (1, 2, 3, 10, 100, 1000, 4999):
        want = exact_alpha(k)
        assert hill_estimator(xs, k).alpha == pytest.approx(want, rel=1e-13)
        assert swept.alpha[k - 1] == pytest.approx(want, rel=1e-13)


EXTREME_VALUES = st.one_of(
    st.integers(0, 4).map(float),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.floats(-10.0, 10.0),
)


@settings(max_examples=300, deadline=None)
@given(
    series=st.lists(EXTREME_VALUES, min_size=3, max_size=40),
    window=st.integers(1, 5),
    with_dates=st.booleans(),
)
def test_detect_extremes_matches_loop_reference(series, window, with_dates):
    if len(series) <= 2 * window:
        with pytest.raises(WindowTooLarge):
            detect_extremes(series, window)
        return
    dates = (
        tuple(d("2003-01-02") + dt.timedelta(days=i) for i in range(len(series)))
        if with_dates
        else None
    )
    got = detect_extremes(series, window, dates=dates)
    want = reference_detect_extremes(series, window, dates=dates)
    assert got == want
    assert [type(e.date) for e in got] == [type(e.date) for e in want]


# each call, the error it raises and a fragment of its message
REJECTED = {
    "sweep of a matrix, no k": (lambda: hill_k_sweep([[1.0, 2.0, 3.0]], []),
                                ValueError, "expected a 1-d sample"),
    "sweep of a k matrix": (lambda: hill_k_sweep([1.0, 2.0, 3.0, 4.0], [[1, 2]]),
                            ValueError, "expected 1-d k values"),
    "sweep of a scalar k": (lambda: hill_k_sweep([1.0, 2.0, 3.0, 4.0], 2),
                            ValueError, "expected 1-d k values"),
    "extremes of a matrix": (lambda: detect_extremes([[1.0, 2.0, 1.0]], 1),
                             ValueError, "expected a 1-d series"),
    "extremes misdated": (lambda: detect_extremes([1.0, 2.0, 1.0], 1, dates=(d("2003-01-02"),)),
                          ValueError, "dates must align with the series"),
}


@pytest.mark.parametrize("case", REJECTED.values(), ids=REJECTED)
def test_rejected_input_raises(case):
    call, error, fragment = case
    with pytest.raises(error, match=fragment):
        call()
