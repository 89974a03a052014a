from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from crossdisp import PricePanel


def d(iso: str) -> dt.date:
    return dt.date.fromisoformat(iso)


def make_tiny_panel() -> PricePanel:
    """Three dates, two stocks, no gaps."""
    return PricePanel(
        dates=(d("2003-01-02"), d("2003-01-03"), d("2003-01-06")),
        tickers=("AAA", "BBB"),
        prices=np.array([[10.0, 20.0], [15.0, 20.0], [12.0, 60.0]]),
    )


def make_gappy_panel() -> PricePanel:
    """Stock CCC is missing on the first and last date."""
    prices = np.array(
        [
            [10.0, 20.0, np.nan],
            [15.0, 20.0, 5.0],
            [12.0, 60.0, np.nan],
        ]
    )
    return PricePanel(
        dates=(d("2003-01-02"), d("2003-01-03"), d("2003-01-06")),
        tickers=("AAA", "BBB", "CCC"),
        prices=prices,
    )


@pytest.fixture
def tiny_panel() -> PricePanel:
    return make_tiny_panel()


@pytest.fixture
def gappy_panel() -> PricePanel:
    return make_gappy_panel()


def pareto_grid(n: int, alpha: float) -> np.ndarray:
    """Deterministic Pareto quantile grid x_i = (1 - i/(n+1))^(-1/alpha)."""
    i = np.arange(1, n + 1, dtype=np.float64)
    return (1.0 - i / (n + 1.0)) ** (-1.0 / alpha)


def homogeneous_variance(n: int, rho: float, sigma: float = 1.0) -> float:
    """Var[V] for one sigma, rho and mean: N V / ((1 - rho) sigma^2) ~ chi^2_{N-1},
    so Var[V] = 2 E[V]^2 / (N - 1) = 2 (1 - rho)^2 sigma^4 (N - 1) / N^2."""
    mean = (1.0 - 1.0 / n) * (1.0 - rho) * sigma * sigma
    return 2.0 * mean * mean / (n - 1) if n > 1 else 0.0
