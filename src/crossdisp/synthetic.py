"""Deterministic synthetic price panels for tests and demos.

The bubble panel is a geometric random walk universe in which a subset
of stocks receives a strong positive log drift over a fixed window and
then mean-reverts back over the following days. Cross-sectional
dispersion peaks near the end of the boost window and the upper tail of
the performance distribution stretches while the boost lasts, which is
what the end-to-end diagnostics look for.
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np

from .panel import PricePanel

DAILY_VOL = 0.01  # standard deviation of each daily log step
BOOST_MULTIPLE = 2.2  # price factor the boosted cohort gains over the boost window
START = dt.date(2004, 1, 2)  # the first date of every panel


def bubble_panel(
    n_stocks: int = 500,
    n_boosted: int = 100,
    n_days: int = 420,
    boost_start: int = 150,
    boost_end: int = 260,
    reversion_days: int = 60,
    seed: int = 20040102,
) -> PricePanel:
    """Geometric random-walk panel with one boosted-then-reverting cohort.

    Boosted stocks gain log(BOOST_MULTIPLE) of extra log drift spread
    evenly over (boost_start, boost_end], then lose it again over the
    following ``reversion_days`` days. Dates are consecutive calendar
    days starting at START; day indices map directly onto row offsets.
    """
    if not 0 <= n_boosted <= n_stocks:
        raise ValueError("boosted cohort cannot exceed the universe")
    if not 0 <= boost_start < boost_end < n_days:
        raise ValueError("boost window must fit inside the panel")
    if boost_end + reversion_days >= n_days:
        raise ValueError("reversion must finish inside the panel")
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal((n_days - 1, n_stocks)) * DAILY_VOL
    boost_rate = math.log(BOOST_MULTIPLE) / (boost_end - boost_start)
    revert_rate = -math.log(BOOST_MULTIPLE) / reversion_days
    # steps[t] moves prices from day t to day t+1
    steps[boost_start:boost_end, :n_boosted] += boost_rate
    steps[boost_end : boost_end + reversion_days, :n_boosted] += revert_rate
    log_prices = np.vstack([np.zeros(n_stocks), np.cumsum(steps, axis=0)])
    prices = 100.0 * np.exp(log_prices)
    dates = tuple(START + dt.timedelta(days=i) for i in range(n_days))
    tickers = tuple(f"S{i:04d}" for i in range(n_stocks))
    return PricePanel(dates=dates, tickers=tickers, prices=prices)
