"""Price panels, performance normalization and cross-sectional statistics.

A price panel holds daily closes for a stock universe. Fixing a reference
date turns every stock's path into a performance ratio (price divided by
its price on the reference date), and each later date then carries a
cross-section of performances. This module builds those cross-sections,
their empirical survival function, and their mean and dispersion through
time.

``performance_chunks`` divides the prices into performances a chunk of
about CHUNK_BYTES at a time; ``normalize_panel`` joins the chunks.

All variances are the population form (divide by N, not N - 1). The
survival function uses a strict inequality: S(z) is the fraction of the
cross-section strictly greater than z.
"""

from __future__ import annotations

import datetime as dt
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import chain
from typing import Any, NamedTuple

import numpy as np
import numpy.typing as npt

from .errors import DataError, EmptyCrossSection, RefDateAbsent, TooFewStocks

FloatArray = npt.NDArray[np.float64]

DROP_AT_REF = "drop-at-ref"
COMPLETE_ONLY = "complete-only"
MISSING_DATA_POLICIES = (DROP_AT_REF, COMPLETE_ONLY)
CHUNK_BYTES = 2**20  # bytes of one chunk: a block's draws in the simulator, performances here


# ---------------------------------------------------------------------------
# panel types
# ---------------------------------------------------------------------------


def _freeze(record: Any, **kinds: type) -> None:
    """Set each named field of the frozen dataclass ``record`` to a tuple (kind ``tuple``) or
    to a read-only array of the given dtype. An array is adopted if its data belongs to a
    read-only array (itself or the one it views) that owns it, and copied otherwise, as a
    caller's writable array is."""
    for name, kind in kinds.items():
        value = getattr(record, name)
        if kind is tuple:
            value = tuple(value)
        else:
            owner = value if getattr(value, "base", None) is None else value.base
            if not (type(value) is type(owner) is np.ndarray and value.dtype == kind
                    and owner.flags.owndata and not owner.flags.writeable):
                value = np.array(value, dtype=kind)
                value.setflags(write=False)
        object.__setattr__(record, name, value)


def _doubles(count: int, fill: float | None = None) -> FloatArray:
    """``count`` doubles, each ``fill`` if given. A count whose bytes numpy cannot
    address raises MemoryError, as one it cannot allocate does, not ValueError."""
    if count > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{count} doubles are more than numpy can address")
    return np.empty(count) if fill is None else np.full(count, fill)


def _eq_by_value(self: Any, other: object) -> bool:
    """``==`` of a frozen dataclass that holds numpy arrays: same type and equal
    fields, each array by shape and values (NaN equal to NaN)."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
               for a, b in pairs)


def _any_nonpositive_or_infinite(values: FloatArray) -> bool:
    """True if any entry but NaN is <= 0 or +-inf: NaN is a panel's only missing
    value, and every present value must be strictly positive and finite. Two
    reductions, no mask."""
    return bool(np.fmin.reduce(values, axis=None, initial=np.inf) <= 0.0
                or np.fmax.reduce(values, axis=None, initial=0.0) == np.inf)


def _check_axes(dates: tuple[dt.date, ...], tickers: tuple[str, ...]) -> None:
    for a, b in zip(dates, dates[1:]):
        if a >= b:
            raise ValueError(f"dates must be strictly increasing, got {a} before {b}")
    if len(set(tickers)) != len(tickers):
        raise ValueError("tickers must be unique")


@dataclass(frozen=True)
class PricePanel:
    """Daily prices, one row per date and one column per ticker.

    NaN marks a missing price. Present prices must be finite and strictly
    positive, dates strictly increasing and tickers unique.
    """

    dates: tuple[dt.date, ...]
    tickers: tuple[str, ...]
    prices: FloatArray
    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        _freeze(self, dates=tuple, tickers=tuple, prices=np.float64)
        if self.prices.shape != (len(self.dates), len(self.tickers)):
            raise ValueError(
                f"price matrix shape {self.prices.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        _check_axes(self.dates, self.tickers)
        if _any_nonpositive_or_infinite(self.prices):
            raise ValueError("present prices must be strictly positive and finite")

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
    cross-section only. Present values must be strictly positive and finite.
    """

    ref_date: dt.date
    dates: tuple[dt.date, ...]
    tickers: tuple[str, ...]
    values: FloatArray
    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        _freeze(self, dates=tuple, tickers=tuple, values=np.float64)
        if self.values.shape != (len(self.dates), len(self.tickers)):
            raise ValueError("value matrix shape does not match axes")
        _check_axes(self.dates, self.tickers)
        # the dates strictly increase: only the first can be the reference date
        if self.dates and self.dates[0] < self.ref_date:
            raise ValueError("all dates must be on or after the reference date")
        if _any_nonpositive_or_infinite(self.values):
            raise ValueError("performance values must be strictly positive and finite")
        if self.dates and self.dates[0] == self.ref_date:
            row = self.values[0]
            if not np.all(row[np.isfinite(row)] == 1.0):
                raise ValueError("the reference-date row must be identically 1")

    def date_index(self, when: dt.date) -> int:
        if when < self.ref_date:
            raise DataError(f"date {when} is before the reference date {self.ref_date}")
        try:
            return self.dates.index(when)
        except ValueError:
            raise RefDateAbsent(when) from None

    def cross_section(self, when: dt.date) -> FloatArray:
        """Present performance values on ``when`` (NaN entries dropped)."""
        row = self.values[self.date_index(when)]
        return row[np.isfinite(row)]


def performance_chunks(
    panel: PricePanel,
    ref_date: dt.date,
    policy: str = DROP_AT_REF,
) -> Iterator[PerformancePanel]:
    """The performance panel of ``normalize_panel`` in read-only chunks of
    consecutive dates, from the reference date on: ``max(2, CHUNK_BYTES //
    (8 * stocks kept))`` dates each, the last up to one more. A chunk is
    divided from the price matrix when it is drawn. The checks of
    ``normalize_panel`` run when the first chunk is drawn, and each chunk's
    range check when it is, so errors come in date order.
    """
    if policy not in MISSING_DATA_POLICIES:
        raise ValueError(f"unknown missing-data policy: {policy!r}")
    row = panel.date_index(ref_date)
    ref_prices = panel.prices[row]
    keep = np.isfinite(ref_prices)
    if policy == COMPLETE_ONLY:
        keep &= np.isfinite(panel.prices[row:]).all(axis=0)
    n_kept = int(keep.sum())
    if n_kept < 2:
        raise TooFewStocks(n_kept, 2)
    ref_prices = ref_prices[keep]
    tickers = tuple(t for t, ok in zip(panel.tickers, keep) if ok)
    # Chunks are column-major and hold two dates or more (the whole panel aside), so
    # numpy sums each date's row in order, as in one matrix; a lone row it sums pairwise.
    step = max(2, CHUNK_BYTES // (8 * n_kept))
    stops = [*range(row + step, len(panel.dates) - 1, step), len(panel.dates)]
    for lo, hi in zip([row, *stops], stops):
        block = panel.prices[lo:hi].T[keep]  # stocks by dates: one copy, divided in place
        with np.errstate(over="ignore"):
            np.divide(block, ref_prices[:, None], out=block)
        block.setflags(write=False)
        values = block.T
        if (np.fmin.reduce(values, axis=None, initial=1.0) == 0.0
                or np.fmax.reduce(values, axis=None, initial=1.0) == np.inf):
            i, j = np.argwhere((values == 0.0) | (values == np.inf))[0]
            raise DataError(f"performance of {tickers[j]} on {panel.dates[lo + i]} against "
                            f"{ref_date} is outside the range of a double")
        yield PerformancePanel(ref_date=ref_date, dates=panel.dates[lo:hi],
                               tickers=tickers, values=values)


def normalize_panel(
    panel: PricePanel,
    ref_date: dt.date,
    policy: str = DROP_AT_REF,
) -> PerformancePanel:
    """Divide every price path by its price on ``ref_date``: the chunks of
    ``performance_chunks`` joined. A ratio that underflows to 0 or overflows
    to infinity raises DataError, and fewer than the 2 surviving stocks the
    cross-sectional statistics need raise TooFewStocks.

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
    """
    chunks = list(performance_chunks(panel, ref_date, policy))
    block = np.concatenate([chunk.values.T for chunk in chunks], axis=1)  # as each chunk's
    block.setflags(write=False)
    return PerformancePanel(ref_date=ref_date, tickers=chunks[0].tickers, values=block.T,
                            dates=tuple(chain.from_iterable(chunk.dates for chunk in chunks)))


# ---------------------------------------------------------------------------
# survival function
# ---------------------------------------------------------------------------


def _sample(x: npt.ArrayLike) -> FloatArray:
    """One cross-section as a float64 array. Every one-cross-section function checks
    its sample here: a scalar, a matrix, a NaN or an infinity raises ValueError."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d sample")
    if not np.isfinite(arr).all():
        raise ValueError("expected a finite sample")
    return arr


def survival_value(x: npt.ArrayLike, z: float) -> float:
    """Fraction of the cross-section strictly greater than ``z``."""
    arr = _sample(x)
    if arr.size == 0:
        raise EmptyCrossSection("cannot evaluate the survival function of nothing")
    return int(np.count_nonzero(arr > z)) / arr.size


@dataclass(frozen=True)
class SurvivalCurve:
    """Empirical survival function of one cross-section.

    Stores the ascending sample, checked as every one-cross-section function's
    sample is, and evaluates S(z) = #{x_i > z} / n for any threshold. Step
    points for export are the distinct sample values.
    """

    sorted_values: FloatArray
    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        _freeze(self, sorted_values=np.float64)
        _sample(self.sorted_values)
        if self.sorted_values.size == 0:
            raise EmptyCrossSection("survival curve needs at least one value")
        if np.any(np.diff(self.sorted_values) < 0):
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
    return SurvivalCurve(sorted_values=np.sort(_sample(x)))


# ---------------------------------------------------------------------------
# moments and dispersion
# ---------------------------------------------------------------------------


class Moments(NamedTuple):
    mean: float
    variance: float


def cross_sectional_moments(x: npt.ArrayLike) -> Moments:
    """Mean and population variance of one cross-section (needs n >= 2)."""
    arr = _sample(x)
    if arr.size < 2:
        raise TooFewStocks(int(arr.size), 2)
    return Moments(float(arr.mean()), float(arr.var()))


def pairwise_dispersion(x: npt.ArrayLike) -> float:
    """Average squared pairwise difference, halved.

    Computes (1/(2 n^2)) * sum_ij (x_i - x_j)^2, which is algebraically
    identical to the population variance. Kept as an independent O(n^2)
    route so the identity can be checked numerically.
    """
    arr = _sample(x)
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
    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        _freeze(self, dates=tuple, mean=np.float64, variance=np.float64, count=np.int64)
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
