"""Tail-exponent estimation and extreme-value scanning.

Two estimators of the upper-tail Pareto exponent are provided: the Hill
estimator on the k largest order statistics, and a least-squares fit of
the log survival function against the log threshold. Both are meant for
per-date cross-sections of performance ratios; `tail_series` sweeps one
of them across a whole performance panel.

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

from .errors import (
    BadK,
    DegenerateTail,
    NonFiniteVariance,
    TooFewTailPoints,
    WindowTooLarge,
)
from .panel import FloatArray, PerformancePanel, SurvivalCurve

HILL = "hill"
LOGLOG = "loglog"


@dataclass(frozen=True)
class TailEstimate:
    """One tail-exponent estimate.

    ``k`` is the number of upper order statistics (Hill) or fitted points
    (log-log) actually used, out of a cross-section of size ``n``.
    """

    alpha: float
    k: int
    n: int
    method: str

    def __post_init__(self) -> None:
        if not (0 < self.k < self.n):
            raise ValueError(f"k={self.k} must satisfy 0 < k < n={self.n}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"tail exponent must be positive and finite, got {self.alpha}")
        if self.method not in (HILL, LOGLOG):
            raise ValueError(f"unknown method: {self.method!r}")


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


def _descending(arr: FloatArray) -> FloatArray:
    """A strictly positive, finite sample sorted largest first."""
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("sample must be strictly positive and finite")
    return np.sort(arr)[::-1]


def _hill(log_excess_sum: float, k: int, n: int) -> TailEstimate | None:
    """The estimate for one Hill sum, or None for a degenerate tail."""
    if log_excess_sum == 0.0:
        return None
    return TailEstimate(alpha=k / log_excess_sum, k=k, n=n, method=HILL)


def hill_estimator(x: npt.ArrayLike, k: int) -> TailEstimate:
    """Hill estimate of the upper-tail exponent from the k largest values.

    Parameters
    ----------
    x:
        Strictly positive sample, any order.
    k:
        Number of upper order statistics, 1 <= k < len(x).

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
    n = int(arr.size)
    if not 1 <= k < n:
        raise BadK(k, n)
    ordered = _descending(arr)
    estimate = _hill(float(_hill_sums(ordered, np.array([k]))[0]), k, n)
    if estimate is None:
        raise DegenerateTail(
            f"the {k + 1} largest values are all equal; no tail spread"
        )
    return estimate


def hill_k_sweep(x: npt.ArrayLike, k_values: list[int] | None = None) -> list[TailEstimate]:
    """Hill estimates across a range of k, for diagnostic plots.

    Defaults to every k in 1..n-1. Degenerate ks are skipped. One sort
    and one cumulative sum serve every k.
    """
    arr = np.asarray(x, dtype=np.float64)
    n = int(arr.size)
    ks = list(range(1, n)) if k_values is None else list(k_values)
    if not ks:
        return []
    # the same checks, in the same order, as one hill_estimator call per k
    if not 1 <= ks[0] < n:
        raise BadK(ks[0], n)
    ordered = _descending(arr)
    for k in ks:
        if not 1 <= k < n:
            raise BadK(k, n)
    sums = _hill_sums(ordered, np.array(ks, dtype=np.intp))
    estimates = (_hill(s, k, n) for s, k in zip(sums.tolist(), ks))
    return [e for e in estimates if e is not None]


# ---------------------------------------------------------------------------
# log-log survival fit
# ---------------------------------------------------------------------------


def powerlaw_slope(z: npt.ArrayLike, s: npt.ArrayLike) -> tuple[float, float]:
    """Least-squares slope and intercept of log(s) against log(z).

    Needs at least 3 points with z > 0 and s > 0. A slope that is not
    strictly negative means the points carry no decaying tail, which is
    flagged as DegenerateTail (the implied exponent would be -slope <= 0).
    """
    zs = np.asarray(z, dtype=np.float64)
    ss = np.asarray(s, dtype=np.float64)
    if zs.shape != ss.shape or zs.ndim != 1:
        raise ValueError("z and s must be 1-d arrays of equal length")
    if zs.size < 3:
        raise TooFewTailPoints(int(zs.size))
    if np.any(zs <= 0.0) or np.any(ss <= 0.0):
        raise ValueError("log-log fit needs strictly positive z and s")
    lz = np.log(zs)
    ls = np.log(ss)
    zc = lz - lz.mean()
    denom = float(zc @ zc)
    if denom == 0.0:
        raise ValueError("thresholds must not all coincide")
    slope = float(zc @ (ls - ls.mean())) / denom
    intercept = float(ls.mean() - slope * lz.mean())
    if slope >= 0.0:
        raise DegenerateTail(
            f"fitted tail exponent {-slope} is not positive; survival does not decay"
        )
    return slope, intercept


def loglog_tail_fit(curve: SurvivalCurve, z_min: float | None = None) -> TailEstimate:
    """Tail exponent from an OLS fit of log S(z) over the curve's own steps.

    Fits only sample points strictly above ``z_min`` that still have a
    positive survival value (the largest point always has S = 0 and is
    excluded). ``z_min`` defaults to the cross-sectional median.
    """
    if z_min is None:
        z_min = float(np.median(curve.sorted_values))
    zs, ss = curve.step_points()
    usable = (zs > z_min) & (ss > 0.0)
    n_usable = int(usable.sum())
    if n_usable < 3:
        raise TooFewTailPoints(n_usable)
    slope, _ = powerlaw_slope(zs[usable], ss[usable])
    return TailEstimate(alpha=-slope, k=n_usable, n=curve.n, method=LOGLOG)


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

    def k_for(self, n: int) -> int | None:
        """k for a cross-section of size n, or None when n is too small."""
        if n < self.min_n:
            return None
        return min(max(math.ceil(self.fraction * n), 1), n - 1)


@dataclass(frozen=True)
class TailSeries:
    """Per-date tail estimates; None marks a date with no usable estimate."""

    dates: tuple[dt.date, ...]
    estimates: tuple[TailEstimate | None, ...]
    k_policy: KPolicy = field(default_factory=KPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "estimates", tuple(self.estimates))
        if len(self.dates) != len(self.estimates):
            raise ValueError("one estimate slot per date required")

    def alphas(self) -> FloatArray:
        """Exponent per date, NaN at gaps."""
        return np.array(
            [e.alpha if e is not None else np.nan for e in self.estimates],
            dtype=np.float64,
        )

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
    counts = np.isfinite(perf.values).sum(axis=1).tolist()
    row_ks = [policy.k_for(n) for n in counts]
    rows = np.array([i for i, k in enumerate(row_ks) if k is not None], dtype=np.intp)
    estimates: list[TailEstimate | None] = [None] * len(counts)
    if rows.size:
        ks = np.array([row_ks[i] for i in rows], dtype=np.intp)
        top = _top_order_statistics(perf.values, rows, int(ks.max()) + 1)
        sums = _hill_sums(top, ks)
        for i, k, log_excess_sum in zip(rows.tolist(), ks.tolist(), sums.tolist()):
            estimates[i] = _hill(log_excess_sum, k, counts[i])
    return TailSeries(dates=perf.dates, estimates=tuple(estimates), k_policy=policy)


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
