from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdisp import (
    CorrelationSpec,
    DimensionMismatch,
    EquicorrelatedFamily,
    Equicorrelation,
    FullMatrix,
    NoLimit,
    TermLimits,
    dispersion_bounds,
    dispersion_variance,
    equicorrelation_dispersion_variance,
    equicorrelation_expected_dispersion,
    expected_dispersion,
    limit_dispersion,
)


def random_correlation(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n + 2))
    cov = a @ a.T + 1e-8 * np.eye(n)
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return corr


# ---------------------------------------------------------------------------
# closed form and general expression
# ---------------------------------------------------------------------------


def test_homogeneous_zero_correlation():
    assert equicorrelation_expected_dispersion(1000, 0.0) == pytest.approx(0.999, rel=1e-14)


def test_homogeneous_values_match_linear_form():
    # (1 - 1/n)(1 - rho) sigma^2
    assert equicorrelation_expected_dispersion(1000, 0.4) == pytest.approx(0.5994, rel=1e-12)
    assert equicorrelation_expected_dispersion(1000, -1.0) == pytest.approx(1.998, rel=1e-12)
    assert equicorrelation_expected_dispersion(2, -1.0) == pytest.approx(1.0, rel=1e-14)
    assert equicorrelation_expected_dispersion(1000, 1.0) == 0.0


def test_homogeneous_sigma_scaling():
    base = equicorrelation_expected_dispersion(50, 0.3, sigma=1.0)
    assert equicorrelation_expected_dispersion(50, 0.3, sigma=2.0) == pytest.approx(
        4.0 * base, rel=1e-14
    )


@settings(max_examples=60)
@given(
    st.integers(min_value=2, max_value=400),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.05, max_value=5.0),
)
def test_general_form_collapses_to_closed_form(n, rho, sigma):
    spec = CorrelationSpec.equicorrelated(n, rho, sigma)
    general = expected_dispersion(spec)
    closed = equicorrelation_expected_dispersion(n, rho, sigma)
    assert general == pytest.approx(closed, rel=1e-12, abs=1e-14)


def test_expected_dispersion_is_pure_algebra_for_infeasible_rho():
    # evaluates even where no actual correlation matrix exists
    spec = CorrelationSpec.equicorrelated(1000, -0.6)
    assert expected_dispersion(spec) == pytest.approx(1.5984, rel=1e-12)


def test_expected_dispersion_heterogeneous_identity_matrix():
    # diag correlation: E V = mean(sigma^2) - mean(sigma^2)/n + var of means
    sigmas = np.array([1.0, 2.0, 3.0])
    means = np.array([1.0, 2.0, 3.0])
    spec = CorrelationSpec(
        n=3, means=means, sigmas=sigmas, structure=FullMatrix(np.eye(3))
    )
    # (14/3) - (14/9) + (14/3 - 4) = 34/9
    assert expected_dispersion(spec) == pytest.approx(34.0 / 9.0, rel=1e-14)


def test_expected_dispersion_mean_shift_invariant():
    rng = np.random.default_rng(21)
    corr = random_correlation(rng, 5)
    sigmas = rng.uniform(0.5, 2.0, 5)
    means = rng.uniform(-1.0, 1.0, 5)
    base = expected_dispersion(CorrelationSpec(5, means, sigmas, FullMatrix(corr)))
    shifted = expected_dispersion(
        CorrelationSpec(5, means + 7.0, sigmas, FullMatrix(corr))
    )
    assert shifted == pytest.approx(base, rel=1e-10)


def test_expected_dispersion_decreasing_in_rho():
    values = [
        expected_dispersion(CorrelationSpec.equicorrelated(100, rho))
        for rho in np.linspace(-1.0, 1.0, 21)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bounds_hold_on_random_psd_matrices():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        corr = random_correlation(rng, n)
        spec = CorrelationSpec.with_matrix(corr)
        value = expected_dispersion(spec)
        lo, hi = dispersion_bounds(n)
        assert lo <= value <= hi


def test_feasible_expected_dispersion_is_at_most_one():
    # m = 0, sigma = 1: E[V] = 1 - 1'R1/n^2, and 1'R1 >= 0 for every PSD R
    rng = np.random.default_rng(78)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        spec = CorrelationSpec.with_matrix(random_correlation(rng, n))
        assert expected_dispersion(spec) <= 1.0 + 1e-12
    for n in (2, 3, 10, 1000):
        spec = CorrelationSpec.equicorrelated(n, -1.0 / (n - 1))
        assert expected_dispersion(spec) == pytest.approx(1.0, rel=1e-12)
        assert expected_dispersion(CorrelationSpec.with_matrix(spec.correlation_matrix())) == (
            pytest.approx(1.0, rel=1e-12))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        CorrelationSpec(
            n=3,
            means=np.zeros(2),
            sigmas=np.ones(3),
            structure=Equicorrelation(0.0),
        )
    with pytest.raises(DimensionMismatch):
        CorrelationSpec(
            n=3,
            means=np.zeros(3),
            sigmas=np.ones(3),
            structure=FullMatrix(np.eye(4)),
        )


def test_full_matrix_validation():
    bad = np.array([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        FullMatrix(bad)
    with pytest.raises(ValueError):
        FullMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]))
    with pytest.raises(ValueError):
        FullMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_specs_compare_by_value():
    spec = CorrelationSpec.equicorrelated(3, 0.2, 1.0)
    assert spec == CorrelationSpec.equicorrelated(3, 0.2, 1.0)
    assert spec != CorrelationSpec.equicorrelated(3, 0.2, 2.0)
    m = np.array([[1.0, 0.3], [0.3, 1.0]])
    assert FullMatrix(m) == FullMatrix(m.copy()) and FullMatrix(m) != FullMatrix(np.eye(2))
    assert CorrelationSpec.with_matrix(m) == CorrelationSpec.with_matrix(m.copy())
    assert CorrelationSpec.with_matrix(m) != CorrelationSpec.with_matrix(np.eye(2))
    assert CorrelationSpec.with_matrix(m) != CorrelationSpec.with_matrix(m, sigmas=[1.0, 2.0])


def test_equicorrelation_range_validation():
    with pytest.raises(ValueError):
        Equicorrelation(1.2)


# ---------------------------------------------------------------------------
# limits and bounds
# ---------------------------------------------------------------------------


def test_limit_equicorrelated_family():
    assert limit_dispersion(EquicorrelatedFamily(rho=0.5)) == pytest.approx(0.5)
    assert limit_dispersion(EquicorrelatedFamily(rho=1.0)) == 0.0
    assert limit_dispersion(EquicorrelatedFamily(rho=-1.0)) == pytest.approx(2.0)
    assert limit_dispersion(EquicorrelatedFamily(rho=0.0, sigma=2.0)) == pytest.approx(4.0)
    # a common nonzero mean contributes nothing to dispersion in the limit
    assert limit_dispersion(EquicorrelatedFamily(rho=0.5, mean=3.0)) == pytest.approx(0.5)


def test_limit_is_large_n_limit_of_closed_form():
    family = EquicorrelatedFamily(rho=0.3, sigma=1.5)
    finite = [
        equicorrelation_expected_dispersion(n, 0.3, 1.5) for n in (10, 100, 10000)
    ]
    lim = limit_dispersion(family)
    gaps = [abs(v - lim) for v in finite]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_limit_from_term_limits():
    terms = TermLimits(
        avg_variance=1.0, avg_pairwise_cov=0.3, avg_sq_mean=0.5, avg_mean=0.5
    )
    assert limit_dispersion(terms) == pytest.approx(1.0 - 0.3 + 0.5 - 0.25)


def test_limit_unknown_family():
    with pytest.raises(NoLimit):
        limit_dispersion({"rho": 0.5})  # type: ignore[arg-type]


def test_dispersion_bounds():
    assert dispersion_bounds(1000) == (0.0, pytest.approx(1.998))
    assert dispersion_bounds(2) == (0.0, 1.0)
    with pytest.raises(ValueError):
        dispersion_bounds(1)


# ---------------------------------------------------------------------------
# exact variance of the dispersion
# ---------------------------------------------------------------------------


def test_dispersion_variance_closed_form():
    # V ~ (1 - rho) sigma^2 chi^2_{n-1} / n, so Var[V] = 2 (1 - rho)^2 sigma^4 (n - 1) / n^2
    assert equicorrelation_dispersion_variance(10, 0.0) == pytest.approx(0.18, rel=1e-14)
    assert equicorrelation_dispersion_variance(50, 0.3, 2.0) == pytest.approx(
        2 * 0.7**2 * 16 * 49 / 2500, rel=1e-14)
    assert equicorrelation_dispersion_variance(1000, 1.0) == 0.0
    assert equicorrelation_dispersion_variance(1, 0.5) == 0.0


def test_dispersion_variance_ratio_from_ten_to_a_hundred_stocks():
    ratio = equicorrelation_dispersion_variance(10, 0.2) / equicorrelation_dispersion_variance(
        100, 0.2)
    assert ratio == pytest.approx(100 / 11, rel=1e-12)
    assert round(ratio, 2) == 9.09


def test_dispersion_variance_validates_like_the_mean():
    with pytest.raises(ValueError):
        equicorrelation_dispersion_variance(0, 0.0)
    with pytest.raises(ValueError):
        equicorrelation_dispersion_variance(10, 1.5)


def _trace_law(spec):
    """Var[V] = 2 tr((A Sigma)^2) + 4 m^T A Sigma A m with A = (I - J/n)/n, term by term."""
    n, m = spec.n, spec.means
    a = (np.eye(n) - np.full((n, n), 1.0 / n)) / n
    a_sigma = a @ spec.covariance_matrix()
    return float(2 * np.trace(a_sigma @ a_sigma) + 4 * m @ a_sigma @ a @ m)


def _spread_spec(n, structure, seed):
    rng = np.random.default_rng(seed)
    return CorrelationSpec(n=n, means=rng.normal(0.0, 1.0, n),
                           sigmas=rng.uniform(0.1, 3.0, n), structure=structure)


@pytest.mark.parametrize("rho", [-1.0 / 29, -0.02, 0.0, 0.4, 1.0],
                         ids=["bound", "-0.02", "0.0", "0.4", "1.0"])
def test_equicorrelation_dispersion_variance_is_the_dense_law(rho):
    # the O(n) form against the dense form of the same matrix, and both
    # against the trace formula written out
    spec = _spread_spec(30, Equicorrelation(rho), 31)
    dense = CorrelationSpec.with_matrix(spec.correlation_matrix(), spec.sigmas, spec.means)
    assert dispersion_variance(spec) == pytest.approx(dispersion_variance(dense), rel=1e-12)
    assert dispersion_variance(spec) == pytest.approx(_trace_law(spec), rel=1e-12)


def test_full_matrix_dispersion_variance_is_the_trace_law():
    rng = np.random.default_rng(41)
    for n in (2, 3, 17, 60):
        spec = _spread_spec(n, FullMatrix(random_correlation(rng, n)), n)
        assert dispersion_variance(spec) == pytest.approx(_trace_law(spec), rel=1e-12)


@pytest.mark.parametrize("n, rho, sigma, mean", [
    (1, 0.5, 1.0, 0.0), (2, -1.0, 1.5, 0.7), (10, 0.0, 1.0, 0.0),
    (50, 0.3, 2.0, -3.0), (12, -0.05, 1.5, 2.0), (1000, 1.0, 1.0, 0.0),
])
def test_dispersion_variance_of_a_homogeneous_spec_is_the_closed_form(n, rho, sigma, mean):
    spec = CorrelationSpec.equicorrelated(n, rho, sigma, mean)
    assert dispersion_variance(spec) == pytest.approx(
        equicorrelation_dispersion_variance(n, rho, sigma), rel=1e-12, abs=1e-300)


def test_expected_dispersion_leaves_no_residue_at_full_correlation():
    # equal sigmas at rho = 1 once left about 1e-14 of rounding in the general form
    spec = CorrelationSpec.equicorrelated(131, 1.0, 4.726949994276382)
    assert expected_dispersion(spec) == pytest.approx(0.0, abs=1e-14)
