"""Tail-exponent estimation and extreme-value scanning.

The upper-tail Pareto exponent of a per-date cross-section of performance
ratios is estimated with the Hill estimator on its k largest order
statistics. `hill_k_sweep` returns a `HillSweep` of columns k and alpha
for one sample (degenerate ks left out; `hill_estimator` is its one-k
case), and `tail_series` a `TailSeries` of columns alpha, k and n for
every date of a performance panel (a gap has alpha NaN and k 0). Neither
builds an object per k or per date.

All Hill sums come from one kernel, `_hill_sums`. On a sample sorted in
descending order it forms the sum of log(x_(i) / x_(k+1)) over i = 1..k
from the spacings, as sum_j j * log1p((x_(j) - x_(j+1)) / x_(j+1)) over
j = 1..k, with one cumulative sum that serves every k at once. The terms
are never negative and each is accurate even for nearly tied values, and
a sum is zero exactly when the top k+1 values are tied. `hill_estimator`,
`hill_k_sweep` and `tail_series` therefore give bit-identical alphas for
the same sample and k. A k-sweep costs one sort, and a panel's tail
series one row-wise sort.

`detect_extremes` finds strict local minima and maxima of any per-date
series inside a symmetric window, which is how dips of the tail exponent
are located in a panel diagnostic.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadK, DegenerateTail, NonFiniteVariance, WindowTooLarge
from .panel import FloatArray, PerformancePanel, _eq_by_value, _freeze, _sample

HILL = "hill"  # the method column of every tail table


@dataclass(frozen=True)
class TailEstimate:
    """One Hill estimate: exponent ``alpha`` from the ``k`` largest values of
    a cross-section of size ``n``."""

    alpha: float
    k: int
    n: int

    def __post_init__(self) -> None:
        if not (0 < self.k < self.n):
            raise ValueError(f"k={self.k} must satisfy 0 < k < n={self.n}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"tail exponent must be positive and finite, got {self.alpha}")


# ---------------------------------------------------------------------------
# Hill estimator
# ---------------------------------------------------------------------------


def _hill_sums(descending: FloatArray, ks: npt.NDArray[np.intp]) -> FloatArray:
    """Sum of log(x_(i) / x_(k+1)) over i = 1..k, for each k in ``ks``.

    ``descending`` is one sample sorted in descending order, with
    ``ks`` any k values, or a matrix of such samples row by row (NaN
    last) with one k per row. Every k must satisfy 1 <= k < n of its
    sample. A zero sum means the top k+1 values are exactly tied.
    """
    kmax = int(ks.max())
    top = descending[..., : kmax + 1]
    upper, lower = top[..., :-1], top[..., 1:]
    with np.errstate(over="ignore"):
        terms = np.log1p((upper - lower) / lower)
    wide = terms == np.inf  # a ratio past the largest double: subtract the logs instead
    terms[wide] = np.log(upper[wide]) - np.log(lower[wide])
    terms *= np.arange(1, kmax + 1, dtype=np.float64)
    sums = np.cumsum(terms, axis=-1)
    if sums.ndim == 1:
        return sums[ks - 1]
    return np.take_along_axis(sums, (ks - 1)[:, None], axis=1)[:, 0]


@dataclass(frozen=True)
class HillSweep:
    """Hill estimates of one sample across k, as columns: order statistics used
    ``k`` and exponent ``alpha``, one value per estimate."""

    k: npt.NDArray[np.intp]
    alpha: FloatArray
    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        _freeze(self, k=np.intp, alpha=np.float64)
        if self.k.ndim != 1 or self.k.shape != self.alpha.shape or not np.all(
                (0 < self.k) & (0.0 < self.alpha) & (self.alpha < np.inf)):
            raise ValueError("need 1-d columns: one k > 0 per finite alpha > 0")

    def __len__(self) -> int:
        return len(self.k)


def hill_k_sweep(x: npt.ArrayLike, k_values: list[int] | None = None) -> HillSweep:
    """Hill estimates at each integer k of ``k_values`` (default 1..n-1), for
    diagnostic plots, from one sort and one cumulative sum; degenerate ks are
    left out. Errors come as from one estimate per k in turn: BadK for the
    first k, ValueError for a sample that is not strictly positive and
    finite, then BadK for the first other k out of range. A sample or
    ``k_values`` that is not 1-d raises ValueError before any of these."""
    arr = _sample(x)
    n = int(arr.size)
    ks = np.arange(1, n) if k_values is None else np.asarray(k_values)
    if ks.ndim != 1:
        raise ValueError("expected 1-d k values")
    if not ks.size:
        return HillSweep(k=ks, alpha=np.empty(0))
    if ks.dtype.kind not in "iu":
        raise TypeError(f"k must be an integer, got {ks.dtype} values")
    bad = (ks < 1) | (ks >= n)
    if bad[0]:
        raise BadK(int(ks[0]), n)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("sample must be strictly positive and finite")
    if bad.any():
        raise BadK(int(ks[bad.argmax()]), n)
    sums = _hill_sums(np.sort(arr)[::-1], ks)
    spread = sums > 0.0  # a zero sum: the top k+1 values are tied
    return HillSweep(k=ks[spread], alpha=ks[spread] / sums[spread])


def hill_estimator(x: npt.ArrayLike, k: int) -> TailEstimate:
    """Hill estimate of the upper-tail exponent from the k largest values:
    the one-k case of ``hill_k_sweep``.

    Parameters
    ----------
    x:
        Strictly positive sample, any order.
    k:
        Number of upper order statistics, an integer with 1 <= k < len(x).

    Returns
    -------
    TailEstimate
        alpha = k / sum(log(x_(n-i+1) / x_(n-k)) for i = 1..k), the
        reciprocal of the mean log-excess over the k-th largest value.

    Raises
    ------
    BadK
        If k is out of range.
    DegenerateTail
        If the k+1 largest values are all equal, so the mean log-excess
        is zero and no exponent is defined.
    """
    arr = np.asarray(x, dtype=np.float64)
    sweep = hill_k_sweep(arr, [k])
    if not len(sweep):
        raise DegenerateTail(f"the {k + 1} largest values are all equal; no tail spread")
    return TailEstimate(alpha=float(sweep.alpha[0]), k=int(k), n=int(arr.size))


# ---------------------------------------------------------------------------
# Pareto variance
# ---------------------------------------------------------------------------


def pareto_variance(alpha: float) -> float:
    """Variance of a unit-scale Pareto law with tail exponent ``alpha``.

    alpha / ((alpha - 1)^2 (alpha - 2)); only finite for alpha > 2.
    """
    if not math.isfinite(alpha) or alpha <= 2.0:
        raise NonFiniteVariance(alpha)
    return alpha / ((alpha - 1.0) ** 2 * (alpha - 2.0))


# ---------------------------------------------------------------------------
# per-date tail series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KPolicy:
    """How many upper order statistics the per-date Hill estimator uses.

    k = ceil(fraction * n), clamped to [1, n - 1]. Dates with fewer than
    ``min_n`` present stocks produce a gap instead of an estimate.
    """

    fraction: float = 0.10
    min_n: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must lie strictly between 0 and 1")
        if self.min_n < 2:
            raise ValueError("min_n must be at least 2")

    def k_for(self, n: npt.ArrayLike) -> npt.NDArray[np.intp]:
        """k for cross-sections of sizes ``n``, 0 where a size is below ``min_n``."""
        n = np.asarray(n, dtype=np.intp)
        k = np.minimum(np.maximum(np.ceil(self.fraction * n).astype(np.intp), 1), n - 1)
        return np.where(n < self.min_n, 0, k)


@dataclass(frozen=True)
class TailSeries:
    """Per-date Hill estimates as columns, one value per date: exponent ``alpha``, order
    statistics used ``k``, cross-section size ``n``. A gap has alpha NaN and k 0."""

    dates: tuple[dt.date, ...]
    alpha: FloatArray
    k: npt.NDArray[np.intp]
    n: npt.NDArray[np.intp]
    k_policy: KPolicy = field(default_factory=KPolicy)
    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        _freeze(self, dates=tuple, alpha=np.float64, k=np.intp, n=np.intp)
        if not self.alpha.shape == self.k.shape == self.n.shape == (len(self.dates),):
            raise ValueError("one alpha, k and n per date required")
        estimate = (0 < self.k) & (self.k < self.n) & (0.0 < self.alpha) & (self.alpha < np.inf)
        if not np.all(np.where(self.k == 0, np.isnan(self.alpha), estimate)):
            raise ValueError("need 0 < k < n and a finite alpha > 0, or k = 0 and alpha NaN")

    @property
    def estimates(self) -> tuple[TailEstimate | None, ...]:
        """One TailEstimate per date, None at a gap, built on demand."""
        columns = zip(self.alpha.tolist(), self.k.tolist(), self.n.tolist())
        return tuple(TailEstimate(a, k, n) if k else None for a, k, n in columns)

    def __len__(self) -> int:
        return len(self.dates)


def _top_order_statistics(
    values: FloatArray, rows: npt.NDArray[np.intp], width: int
) -> FloatArray:
    """The ``width`` largest present values of each selected row, largest
    first, NaN-padded.

    One negated copy of the selected rows is sorted in place (NaN goes
    last) and only its first ``width`` columns are kept.
    """
    work = values[rows]
    work[~np.isfinite(work)] = np.nan
    np.negative(work, out=work)
    work.sort(axis=1)
    return -work[:, :width]


def tail_series(perf: PerformancePanel, k_policy: KPolicy | None = None) -> TailSeries:
    """Hill exponent for every date of a performance panel.

    Dates whose cross-section is too small under the policy, or whose
    tail is degenerate (for example the reference date itself, where all
    performances equal 1), yield gaps; the sweep never aborts.
    """
    policy = k_policy if k_policy is not None else KPolicy()
    n = np.isfinite(perf.values).sum(axis=1)
    k = policy.k_for(n)
    alpha = np.full(len(n), np.nan)
    rows = np.flatnonzero(k)
    if rows.size:
        top = _top_order_statistics(perf.values, rows, int(k.max()) + 1)
        sums = _hill_sums(top, k[rows])
        spread = sums > 0.0  # a zero sum: the top k+1 values are tied
        k[rows[~spread]] = 0
        alpha[rows[spread]] = k[rows[spread]] / sums[spread]
    return TailSeries(dates=perf.dates, alpha=alpha, k=k, n=n, k_policy=policy)


# ---------------------------------------------------------------------------
# extreme detection
# ---------------------------------------------------------------------------

LOCAL_MINIMUM = "local-minimum"
LOCAL_MAXIMUM = "local-maximum"


@dataclass(frozen=True)
class ExtremeEvent:
    """A strict local extreme of a per-date series."""

    date: dt.date | int
    kind: str
    value: float
    window: int


def detect_extremes(
    values: npt.ArrayLike,
    window: int,
    dates: tuple[dt.date, ...] | None = None,
) -> list[ExtremeEvent]:
    """Strict local minima and maxima within a symmetric window.

    A date t is an event iff its value is strictly below (above) every
    other value within ``window`` steps on both sides. Only dates with a
    full window on each side are candidates, so plateaus and monotone
    stretches produce no events. Windows containing non-finite values
    (gaps) are skipped.
    """
    series = np.asarray(values, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError("expected a 1-d series")
    if window < 1:
        raise ValueError("window half-width must be at least 1")
    n = int(series.size)
    if n <= 2 * window:
        raise WindowTooLarge(window, n)
    if dates is not None and len(dates) != n:
        raise ValueError("dates must align with the series")
    windows = sliding_window_view(series, 2 * window + 1)
    left, right = windows[:, :window], windows[:, window + 1 :]
    centers = series[window : n - window]
    complete = np.isfinite(windows).all(axis=1)
    is_min = complete & (centers < np.minimum(left.min(axis=1), right.min(axis=1)))
    is_max = complete & (centers > np.maximum(left.max(axis=1), right.max(axis=1)))
    events: list[ExtremeEvent] = []
    for i in np.flatnonzero(is_min | is_max).tolist():
        t = i + window
        kind = LOCAL_MINIMUM if is_min[i] else LOCAL_MAXIMUM
        when = dates[t] if dates is not None else t
        events.append(ExtremeEvent(when, kind, float(series[t]), window))
    return events
