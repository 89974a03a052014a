"""Metamorphic properties of the analyze and survival pipelines on small
generated panels: relabelling the stocks or changing one stock's price unit
must not change what is measured.

Permuting the ticker columns only reorders each cross-section. The tail
series, the extreme events and the survival steps are functions of the
sorted cross-section, so they stay bit for bit; the dispersion sums the
cross-section in another order, so it stays up to rounding.

Scaling one stock's whole price path by c > 0 cancels in its performance.
For c a power of two the products and the quotients are exact, so every
report is byte-identical. For any other c each performance of that stock
moves by a few units in the last place; the dispersion and the Hill mean
log-excess (1 / alpha, 0 at a tied tail) move by a bound set from the
double precision epsilon below. The extreme events and the survival steps
compare values for equality, where one rounding can break a tie, so they
are checked only in the exact case.
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdisp import (
    DataError,
    KPolicy,
    PricePanel,
    analyze_panel,
    normalize_panel,
    render_report,
    survival_curve,
)

EPS = float(np.finfo(np.float64).eps)
PRICES = st.floats(0.01, 1e4)


@st.composite
def cases(draw):
    """A panel priced in full on its first date (the reference date) and
    perhaps missing later, a missing-data policy and a k policy small
    enough for the Hill estimator to engage."""
    n_stocks = draw(st.integers(2, 14))
    n_dates = draw(st.integers(3, 12))
    rows = [draw(st.lists(PRICES, min_size=n_stocks, max_size=n_stocks))]
    rows += [draw(st.lists(st.one_of(PRICES, st.just(math.nan)),
                           min_size=n_stocks, max_size=n_stocks))
             for _ in range(n_dates - 1)]
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(n_dates))
    panel = PricePanel(dates, tuple(f"S{i}" for i in range(n_stocks)), np.array(rows))
    policy = draw(st.sampled_from(["drop-at-ref", "complete-only"]))
    k_policy = KPolicy(fraction=draw(st.sampled_from([0.1, 0.3, 0.5])),
                       min_n=draw(st.integers(2, 6)))
    return panel, policy, k_policy


def with_prices(panel: PricePanel, prices: np.ndarray, tickers=None) -> PricePanel:
    return PricePanel(panel.dates, panel.tickers if tickers is None else tickers, prices)


def run(panel: PricePanel, policy: str, k_policy: KPolicy):
    """The analysis, and the survival curve on the last date, or the error."""
    try:
        report = analyze_panel(panel, panel.dates[0], policy, k_policy, 1)
        curve = survival_curve(
            normalize_panel(panel, panel.dates[0], policy).cross_section(panel.dates[-1]))
    except DataError as exc:
        return type(exc), str(exc)
    return report, curve


def assert_dispersion_close(got, want, panel: PricePanel, policy: str) -> None:
    """Mean and variance within a few roundings per stock of the largest performance."""
    assert got.count.tolist() == want.count.tolist()
    values = np.abs(normalize_panel(panel, panel.dates[0], policy).values)
    scale = np.max(np.where(np.isfinite(values), values, 0.0), axis=1)
    n = np.maximum(want.count, 1)
    for name, tolerance in (("mean", 8 * n * EPS * scale),
                            ("variance", 16 * n * EPS * scale**2)):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.all(np.abs(np.nan_to_num(a - b)) <= tolerance)


@settings(max_examples=150, deadline=None)
@given(case=cases(), data=st.data())
def test_permuting_tickers_changes_no_tail_extreme_or_survival_step(case, data):
    panel, policy, k_policy = case
    order = np.array(data.draw(st.permutations(range(len(panel.tickers)))))
    shuffled = with_prices(panel, panel.prices[:, order],
                           tuple(panel.tickers[i] for i in order))
    want, got = run(panel, policy, k_policy), run(shuffled, policy, k_policy)
    if isinstance(want[0], type):
        assert got == want
        return
    (report, curve), (shuffled_report, shuffled_curve) = want, got
    for name in ("alpha", "k", "n"):
        assert (getattr(shuffled_report.tails, name).tobytes()
                == getattr(report.tails, name).tobytes())
    assert shuffled_report.extremes == report.extremes
    assert render_report(shuffled_curve, "json") == render_report(curve, "json")
    assert_dispersion_close(shuffled_report.dispersion, report.dispersion, panel, policy)


@settings(max_examples=150, deadline=None)
@given(case=cases(), data=st.data())
def test_scaling_a_stock_by_a_power_of_two_changes_no_report(case, data):
    panel, policy, k_policy = case
    stock = data.draw(st.integers(0, len(panel.tickers) - 1))
    prices = panel.prices.copy()
    prices[:, stock] *= 2.0 ** data.draw(st.integers(-40, 40))
    want, got = run(panel, policy, k_policy), run(with_prices(panel, prices), policy, k_policy)
    if isinstance(want[0], type):
        assert got == want
        return
    for scaled_report, report in zip(got, want):
        assert render_report(scaled_report, "json") == render_report(report, "json")


@settings(max_examples=150, deadline=None)
@given(case=cases(), c=st.floats(1e-3, 1e3), data=st.data())
def test_scaling_a_stock_moves_dispersion_and_tails_only_by_rounding(case, c, data):
    panel, policy, k_policy = case
    stock = data.draw(st.integers(0, len(panel.tickers) - 1))
    prices = panel.prices.copy()
    prices[:, stock] *= c
    want, got = run(panel, policy, k_policy), run(with_prices(panel, prices), policy, k_policy)
    if isinstance(want[0], type):
        assert got == want
        return
    report, scaled = want[0], got[0]
    assert_dispersion_close(scaled.dispersion, report.dispersion, panel, policy)
    # the Hill mean log-excess h = 1 / alpha (0 at a gap): each log ratio moves by
    # twice the performances' relative error, and each evaluation adds (k + 2)
    # roundings of h
    assert scaled.tails.n.tolist() == report.tails.n.tolist()
    k = k_policy.k_for(report.tails.n)
    h, scaled_h = (np.nan_to_num(1.0 / tails.alpha) for tails in (report.tails, scaled.tails))
    assert np.all(np.abs(scaled_h - h) <= 16 * EPS + 4 * (k + 2) * EPS * np.maximum(h, scaled_h))
