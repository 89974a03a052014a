"""Expected cross-sectional dispersion under a Gaussian one-period model.

For stocks with means m_i, standard deviations sigma_i and correlations
rho_ij, the expected population variance of the cross-section is

    E[V] = (1/N) sum_i sigma_i^2
         - (1/N^2) sum_ij rho_ij sigma_i sigma_j
         + (1/N) sum_i m_i^2 - ((1/N) sum_i m_i)^2.

With a common sigma, mean and pairwise correlation rho this collapses to
(1 - 1/N)(1 - rho) sigma^2, which decreases linearly in rho and vanishes
as rho -> 1. The expression itself is pure algebra and evaluates for any
correlation input; whether that input is realizable as an actual
correlation matrix is a separate feasibility question answered by the
simulation module's gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import DimensionMismatch, NoLimit
from .panel import FloatArray, _doubles, _eq_by_value, _freeze


@dataclass(frozen=True)
class Equicorrelation:
    """All off-diagonal correlations equal to rho."""

    rho: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")


@dataclass(frozen=True)
class FullMatrix:
    """An explicit correlation matrix: symmetric, unit diagonal, entries in [-1, 1]."""

    matrix: FloatArray
    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        _freeze(self, matrix=np.float64)
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"correlation matrix must be square, got {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("correlation matrix must be symmetric")
        if not np.all(np.diag(m) == 1.0):
            raise ValueError("correlation matrix must have a unit diagonal")
        if np.any(np.abs(m) > 1.0):
            raise ValueError("correlations must lie in [-1, 1]")


@dataclass(frozen=True)
class CorrelationSpec:
    """Means, volatilities and correlation structure for an N-stock universe."""

    n: int
    means: FloatArray
    sigmas: FloatArray
    structure: Equicorrelation | FullMatrix
    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("universe size must be at least 1")
        _freeze(self, means=np.float64, sigmas=np.float64)
        if self.means.shape != (self.n,):
            raise DimensionMismatch(
                f"means has shape {self.means.shape}, expected ({self.n},)"
            )
        if self.sigmas.shape != (self.n,):
            raise DimensionMismatch(
                f"sigmas has shape {self.sigmas.shape}, expected ({self.n},)"
            )
        if np.any(~np.isfinite(self.sigmas)) or np.any(self.sigmas <= 0.0):
            raise ValueError("sigmas must be strictly positive and finite")
        if np.any(~np.isfinite(self.means)):
            raise ValueError("means must be finite")
        if isinstance(self.structure, FullMatrix):
            if self.structure.matrix.shape != (self.n, self.n):
                raise DimensionMismatch(
                    f"correlation matrix has shape {self.structure.matrix.shape}, "
                    f"expected ({self.n}, {self.n})"
                )

    @classmethod
    def equicorrelated(
        cls, n: int, rho: float, sigma: float = 1.0, mean: float = 0.0
    ) -> CorrelationSpec:
        return cls(
            n=n,
            means=_doubles(n, float(mean)),
            sigmas=_doubles(n, float(sigma)),
            structure=Equicorrelation(rho),
        )

    @classmethod
    def with_matrix(
        cls,
        matrix: npt.ArrayLike,
        sigmas: npt.ArrayLike | None = None,
        means: npt.ArrayLike | None = None,
    ) -> CorrelationSpec:
        structure = FullMatrix(np.asarray(matrix, dtype=np.float64))
        n = structure.matrix.shape[0]
        s = np.ones(n) if sigmas is None else np.asarray(sigmas, dtype=np.float64)
        m = np.zeros(n) if means is None else np.asarray(means, dtype=np.float64)
        return cls(n=n, means=m, sigmas=s, structure=structure)

    def correlation_matrix(self) -> FloatArray:
        if isinstance(self.structure, FullMatrix):
            return np.array(self.structure.matrix)
        rho = self.structure.rho
        out = np.full((self.n, self.n), rho, dtype=np.float64)
        np.fill_diagonal(out, 1.0)
        return out

    def covariance_matrix(self) -> FloatArray:
        return self.correlation_matrix() * np.outer(self.sigmas, self.sigmas)

    def min_correlation_eigenvalue(self) -> float:
        """Smallest eigenvalue of the correlation matrix.

        Equicorrelation has the closed form min(1 - rho, 1 + (n-1) rho);
        full matrices go through a symmetric eigendecomposition.
        """
        if isinstance(self.structure, Equicorrelation):
            rho = self.structure.rho
            if self.n == 1:
                return 1.0
            return min(1.0 - rho, 1.0 + (self.n - 1) * rho)
        return float(np.linalg.eigvalsh(self.structure.matrix)[0])


def expected_dispersion(spec: CorrelationSpec) -> float:
    """Expected population variance of one cross-section under ``spec``.

    Pure algebra in the first and second moments; no feasibility check.
    """
    s = spec.sigmas
    m = spec.means
    n = spec.n
    sum_var = float(np.sum(s * s))
    if isinstance(spec.structure, Equicorrelation):
        # the same two terms, arranged so that equal sigmas at rho = 1 leave
        # no rounding residue: np.var(s) is then zero up to its last bits
        rho = spec.structure.rho
        spread = (1.0 - rho) * sum_var * (n - 1) / (n * n) + rho * float(np.var(s))
    else:
        spread = sum_var / n - float(s @ spec.structure.matrix @ s) / (n * n)
    return spread + float(np.mean(m * m)) - float(np.mean(m)) ** 2


def dispersion_variance(spec: CorrelationSpec) -> float:
    """Exact variance of one cross-section's population variance under ``spec``.

    V = x^T A x with x ~ N(m, Sigma) and A = C / N, C = I - J / N, so

        Var[V] = 2 tr((A Sigma)^2) + 4 m^T A Sigma A m
               = (2 ||C Sigma C||_F^2 + 4 (C m)^T Sigma (C m)) / N^2.

    A full matrix takes that dense O(N^2) form. Equicorrelation with any
    sigmas s and means, Sigma = (1 - rho) D + rho s s^T with d = s^2 and
    D = diag(d), takes an O(N) form: with u = C s and v = C m,

        ||C Sigma C||_F^2 = (1 - rho)^2 (sum d^2 (1 - 2/N) + (sum d)^2 / N^2)
                          + 2 rho (1 - rho) u^T D u + rho^2 (u^T u)^2,
        (C m)^T Sigma (C m) = (1 - rho) v^T D v + rho (s^T v)^2.

    Pure algebra in the first and second moments; no feasibility check.
    """
    s, n = spec.sigmas, spec.n
    dev = spec.means - np.mean(spec.means)
    if isinstance(spec.structure, Equicorrelation):
        rho = spec.structure.rho
        d = s * s
        u = s - np.mean(s)
        sum_d = float(np.sum(d))
        centered_sq = (
            (1.0 - rho) ** 2 * (float(d @ d) * (1.0 - 2.0 / n) + sum_d * sum_d / (n * n))
            + 2.0 * rho * (1.0 - rho) * float(d @ (u * u))
            + rho * rho * float(u @ u) ** 2
        )
        mean_term = (1.0 - rho) * float(d @ (dev * dev)) + rho * float(s @ dev) ** 2
    else:
        cov = spec.covariance_matrix()
        centered = cov - cov.mean(axis=0)
        centered -= centered.mean(axis=1, keepdims=True)
        centered_sq = float(np.sum(centered * centered))
        mean_term = float(dev @ cov @ dev)
    return (2.0 * centered_sq + 4.0 * mean_term) / (n * n)


def equicorrelation_expected_dispersion(n: int, rho: float, sigma: float = 1.0) -> float:
    """Closed form (1 - 1/n)(1 - rho) sigma^2 for the homogeneous case."""
    if n < 1:
        raise ValueError("universe size must be at least 1")
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    return (1.0 - 1.0 / n) * (1.0 - rho) * sigma * sigma


def equicorrelation_dispersion_variance(n: int, rho: float, sigma: float = 1.0) -> float:
    """Exact Var[V] = 2 (1 - rho)^2 sigma^4 (n - 1) / n^2 for the homogeneous
    case at any feasible rho, the closed form of ``dispersion_variance``
    with one sigma (any common mean): V ~ (1 - rho) sigma^2 chi^2_{n-1} / n,
    so its variance is 2 E[V]^2 / (n - 1)."""
    mean = equicorrelation_expected_dispersion(n, rho, sigma)
    return 2.0 * mean * mean / (n - 1) if n > 1 else 0.0


@dataclass(frozen=True)
class EquicorrelatedFamily:
    """A growing homogeneous universe: common rho, sigma and mean for all n."""

    rho: float
    sigma: float = 1.0
    mean: float = 0.0


@dataclass(frozen=True)
class TermLimits:
    """User-supplied limits of the four averages in the dispersion formula.

    avg_variance:     lim (1/N) sum sigma_i^2
    avg_pairwise_cov: lim (1/N^2) sum_ij rho_ij sigma_i sigma_j
    avg_sq_mean:      lim (1/N) sum m_i^2
    avg_mean:         lim (1/N) sum m_i
    """

    avg_variance: float
    avg_pairwise_cov: float
    avg_sq_mean: float
    avg_mean: float


def limit_dispersion(family: EquicorrelatedFamily | TermLimits) -> float:
    """Large-universe limit of the expected dispersion.

    Supported families are the homogeneous equicorrelated universe, whose
    limit is (1 - rho) sigma^2, and explicit term limits. Anything else
    raises NoLimit; no general sequence inference is attempted. The limit
    is algebraic: for rho < 0 the family is no correlation matrix once
    n > 1 - 1/rho, so no feasible universe approaches (1 - rho) sigma^2.
    """
    if isinstance(family, EquicorrelatedFamily):
        return (1.0 - family.rho) * family.sigma * family.sigma
    if isinstance(family, TermLimits):
        return (
            family.avg_variance
            - family.avg_pairwise_cov
            + family.avg_sq_mean
            - family.avg_mean**2
        )
    raise NoLimit(
        f"cannot derive term limits for {type(family).__name__}; "
        "supply TermLimits explicitly"
    )


def dispersion_bounds(n: int) -> tuple[float, float]:
    """Algebraic range of the expected dispersion for m = 0, sigma = 1, over
    unit-diagonal inputs with entries in [-1, 1]: zero at full positive
    correlation, 2 - 2/n at rho = -1. For n > 2 no correlation matrix R
    reaches the top: E[V] = 1 - 1'R1/n^2 and 1'R1 >= 0 when R is positive
    semidefinite, so the feasible maximum is 1, at rho = -1/(n - 1)."""
    if n < 2:
        raise ValueError("bounds need a universe of at least 2 stocks")
    return 0.0, 2.0 - 2.0 / n
