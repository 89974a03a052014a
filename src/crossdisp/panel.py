"""Price panels, performance normalization and cross-sectional statistics.

A price panel holds daily closes for a stock universe. Fixing a reference
date turns every stock's path into a performance ratio (price divided by
its price on the reference date), and each later date then carries a
cross-section of performances. This module builds those cross-sections,
their empirical survival function, and their mean and dispersion through
time.

All variances are the population form (divide by N, not N - 1). The
survival function uses a strict inequality: S(z) is the fraction of the
cross-section strictly greater than z.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.typing as npt

from .errors import DataError, EmptyCrossSection, RefDateAbsent, TooFewStocks

FloatArray = npt.NDArray[np.float64]

DROP_AT_REF = "drop-at-ref"
COMPLETE_ONLY = "complete-only"
MISSING_DATA_POLICIES = (DROP_AT_REF, COMPLETE_ONLY)


# ---------------------------------------------------------------------------
# panel types
# ---------------------------------------------------------------------------


def _as_readonly(values: object) -> FloatArray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _any_nonpositive(values: FloatArray) -> bool:
    """True if any finite entry is <= 0; NaN and +-inf are ignored."""
    return bool(np.any((values <= 0.0) & np.isfinite(values)))


def _check_axes(dates: tuple[dt.date, ...], tickers: tuple[str, ...]) -> None:
    for a, b in zip(dates, dates[1:]):
        if a >= b:
            raise ValueError(f"dates must be strictly increasing, got {a} before {b}")
    if len(set(tickers)) != len(tickers):
        raise ValueError("tickers must be unique")


@dataclass(frozen=True)
class PricePanel:
    """Daily prices, one row per date and one column per ticker.

    NaN marks a missing price. Present prices must be strictly positive,
    dates strictly increasing and tickers unique.
    """

    dates: tuple[dt.date, ...]
    tickers: tuple[str, ...]
    prices: FloatArray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        prices = _as_readonly(self.prices)
        object.__setattr__(self, "prices", prices)
        if prices.shape != (len(self.dates), len(self.tickers)):
            raise ValueError(
                f"price matrix shape {prices.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        _check_axes(self.dates, self.tickers)
        if _any_nonpositive(prices):
            raise ValueError("present prices must be strictly positive")

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_stocks(self) -> int:
        return len(self.tickers)

    def date_index(self, when: dt.date) -> int:
        """Row index of ``when``; raises RefDateAbsent if not in the panel."""
        try:
            return self.dates.index(when)
        except ValueError:
            raise RefDateAbsent(when) from None


@dataclass(frozen=True)
class PerformancePanel:
    """Performance ratios relative to a fixed reference date.

    Rows cover the reference date and everything after it. The row at the
    reference date is identically 1. NaN marks a stock with no usable
    price on that particular date; such stocks drop out of that date's
    cross-section only.
    """

    ref_date: dt.date
    dates: tuple[dt.date, ...]
    tickers: tuple[str, ...]
    values: FloatArray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        values = _as_readonly(self.values)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.dates), len(self.tickers)):
            raise ValueError("value matrix shape does not match axes")
        _check_axes(self.dates, self.tickers)
        if any(d < self.ref_date for d in self.dates):
            raise ValueError("all dates must be on or after the reference date")
        if _any_nonpositive(values):
            raise ValueError("performance values must be strictly positive")
        if self.ref_date in self.dates:
            row = values[self.dates.index(self.ref_date)]
            if not np.all(row[np.isfinite(row)] == 1.0):
                raise ValueError("the reference-date row must be identically 1")

    def date_index(self, when: dt.date) -> int:
        try:
            return self.dates.index(when)
        except ValueError:
            raise RefDateAbsent(when) from None

    def cross_section(self, when: dt.date) -> FloatArray:
        """Present performance values on ``when`` (NaN entries dropped)."""
        row = self.values[self.date_index(when)]
        return row[np.isfinite(row)]


def normalize_panel(
    panel: PricePanel,
    ref_date: dt.date,
    policy: str = DROP_AT_REF,
    min_stocks: int = 2,
) -> PerformancePanel:
    """Divide every price path by its price on ``ref_date``. A ratio that
    underflows to 0 or overflows to infinity raises DataError.

    Parameters
    ----------
    panel:
        Source prices.
    ref_date:
        Reference date; must be present in the panel.
    policy:
        Missing-data handling. ``drop-at-ref`` keeps every stock with a
        present price on the reference date and treats later missing
        prices as per-date gaps. ``complete-only`` keeps only stocks
        priced on every date from the reference date onward.
    min_stocks:
        Minimum number of surviving stocks. The cross-sectional
        statistics need 2; pass 1 to waive this in single-series use.
    """
    if policy not in MISSING_DATA_POLICIES:
        raise ValueError(f"unknown missing-data policy: {policy!r}")
    row = panel.date_index(ref_date)
    ref_prices = panel.prices[row]
    keep = np.isfinite(ref_prices)
    if policy == COMPLETE_ONLY:
        keep &= np.isfinite(panel.prices[row:]).all(axis=0)
    n_kept = int(keep.sum())
    if n_kept < min_stocks:
        raise TooFewStocks(n_kept, min_stocks)
    with np.errstate(over="ignore"):
        values = panel.prices[row:, keep] / ref_prices[keep]
    tickers = tuple(t for t, ok in zip(panel.tickers, keep) if ok)
    if (np.fmin.reduce(values, axis=None, initial=1.0) == 0.0
            or np.fmax.reduce(values, axis=None, initial=1.0) == np.inf):
        i, j = np.argwhere((values == 0.0) | (values == np.inf))[0]
        raise DataError(f"performance of {tickers[j]} on {panel.dates[row + i]} against "
                        f"{ref_date} is outside the range of a double")
    return PerformancePanel(
        ref_date=ref_date,
        dates=panel.dates[row:],
        tickers=tickers,
        values=values,
    )


# ---------------------------------------------------------------------------
# survival function
# ---------------------------------------------------------------------------


def survival_value(x: npt.ArrayLike, z: float) -> float:
    """Fraction of the cross-section strictly greater than ``z``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        raise EmptyCrossSection("cannot evaluate the survival function of nothing")
    return int(np.count_nonzero(arr > z)) / arr.size


@dataclass(frozen=True)
class SurvivalCurve:
    """Empirical survival function of one cross-section.

    Stores the ascending sample and evaluates S(z) = #{x_i > z} / n for
    any threshold. Step points for export are the distinct sample values.
    """

    sorted_values: FloatArray

    def __post_init__(self) -> None:
        values = _as_readonly(self.sorted_values)
        object.__setattr__(self, "sorted_values", values)
        if values.size == 0:
            raise EmptyCrossSection("survival curve needs at least one value")
        if np.any(np.diff(values) < 0):
            raise ValueError("sorted_values must be ascending")

    @property
    def n(self) -> int:
        return int(self.sorted_values.size)

    def evaluate(self, z: npt.ArrayLike) -> float | FloatArray:
        """S(z), vectorized over thresholds. Strict inequality, so ties
        at z do not count as exceedances."""
        idx = np.searchsorted(self.sorted_values, z, side="right")
        out = (self.n - idx) / self.n
        if np.isscalar(z) or np.ndim(z) == 0:
            return float(out)
        return out

    def step_points(self) -> tuple[FloatArray, FloatArray]:
        """Distinct sample values and S at each; the last S is 0."""
        zs = np.unique(self.sorted_values)
        return zs, np.asarray(self.evaluate(zs), dtype=np.float64)


def survival_curve(x: npt.ArrayLike) -> SurvivalCurve:
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        raise EmptyCrossSection("survival curve needs at least one value")
    return SurvivalCurve(sorted_values=np.sort(arr))


# ---------------------------------------------------------------------------
# moments and dispersion
# ---------------------------------------------------------------------------


class Moments(NamedTuple):
    mean: float
    variance: float


def cross_sectional_moments(x: npt.ArrayLike) -> Moments:
    """Mean and population variance of one cross-section (needs n >= 2)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size < 2:
        raise TooFewStocks(int(arr.size), 2)
    return Moments(float(arr.mean()), float(arr.var()))


def pairwise_dispersion(x: npt.ArrayLike) -> float:
    """Average squared pairwise difference, halved.

    Computes (1/(2 n^2)) * sum_ij (x_i - x_j)^2, which is algebraically
    identical to the population variance. Kept as an independent O(n^2)
    route so the identity can be checked numerically.
    """
    arr = np.asarray(x, dtype=np.float64)
    n = arr.size
    if n < 2:
        raise TooFewStocks(int(n), 2)
    diffs = arr[:, None] - arr[None, :]
    return float(np.sum(diffs * diffs) / (2.0 * n * n))


def dispersion_values(rows: npt.ArrayLike) -> FloatArray:
    """Population variance of each row of a stacked cross-section matrix.

    Vectorized form of ``cross_sectional_moments``; one variance per row.
    """
    matrix = np.asarray(rows, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d matrix of stacked cross-sections")
    if matrix.shape[1] < 2:
        raise TooFewStocks(int(matrix.shape[1]), 2)
    return matrix.var(axis=1)


@dataclass(frozen=True)
class DispersionSeries:
    """Per-date cross-sectional mean, variance and stock count.

    Variance is NaN on dates with fewer than two present stocks; the mean
    is NaN only when no stock is present at all.
    """

    dates: tuple[dt.date, ...]
    mean: FloatArray
    variance: FloatArray
    count: npt.NDArray[np.int64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "mean", _as_readonly(self.mean))
        object.__setattr__(self, "variance", _as_readonly(self.variance))
        count = np.array(self.count, dtype=np.int64)
        count.setflags(write=False)
        object.__setattr__(self, "count", count)
        n = len(self.dates)
        if not (self.mean.shape == self.variance.shape == self.count.shape == (n,)):
            raise ValueError("series arrays must all match the number of dates")
        defined = np.isfinite(self.variance)
        if np.any(self.variance[defined] < 0.0):
            raise ValueError("variance cannot be negative")
        if np.any(self.count[defined] < 2):
            raise ValueError("variance requires at least two stocks")

    def __len__(self) -> int:
        return len(self.dates)


def dispersion_series(perf: PerformancePanel) -> DispersionSeries:
    """Cross-sectional mean and variance for every date of the panel.

    Dates where fewer than two stocks are present get a NaN variance
    rather than a fabricated zero.
    """
    values = perf.values
    present = np.isfinite(values)
    count = present.sum(axis=1, dtype=np.int64)
    # one scratch matrix: first the present values, then squared deviations
    scratch = np.where(present, values, 0.0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mean = np.where(count > 0, scratch.sum(axis=1) / count, np.nan)
        np.subtract(values, mean[:, None], out=scratch)
        np.square(scratch, out=scratch)
        np.copyto(scratch, 0.0, where=~present)
        variance = np.where(count >= 2, scratch.sum(axis=1) / count, np.nan)
    return DispersionSeries(
        dates=perf.dates, mean=mean, variance=variance, count=count
    )
