import concurrent.futures
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossdisp import (
    CorrelationSpec,
    NotPSD,
    NumericalError,
    SimConfig,
    TooFewStocks,
    ZeroReps,
    dispersion_values,
    dispersion_variance,
    expected_dispersion,
    sample_gaussian_matrix,
    simulate_dispersion,
    validate_feasibility,
    variance_decay_study,
)
import crossdisp.cli as cli_module
import crossdisp.simulate as simulate_module
from crossdisp.simulate import CHUNK_BYTES, REPLICATION_BLOCK
from crossdisp.theory import Equicorrelation, FullMatrix

from conftest import homogeneous_variance


# ---------------------------------------------------------------------------
# feasibility gate
# ---------------------------------------------------------------------------


def test_feasibility_equicorrelation_bound():
    assert validate_feasibility(CorrelationSpec.equicorrelated(1000, 0.0)).feasible
    assert validate_feasibility(CorrelationSpec.equicorrelated(1000, 0.8)).feasible
    # rho = -1/(n-1) sits exactly on the boundary
    boundary = CorrelationSpec.equicorrelated(5, -0.25)
    report = validate_feasibility(boundary)
    assert report.feasible
    assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-14)
    # anything below is not a correlation matrix
    bad = validate_feasibility(CorrelationSpec.equicorrelated(1000, -0.6))
    assert not bad.feasible
    assert bad.min_eigenvalue < 0.0
    assert "bound" in bad.detail


def test_feasibility_full_matrix():
    ok = CorrelationSpec.with_matrix(np.array([[1.0, 0.9], [0.9, 1.0]]))
    assert validate_feasibility(ok).feasible
    # symmetric, unit diagonal, entries in range, yet indefinite
    m = np.array(
        [
            [1.0, 0.9, -0.9],
            [0.9, 1.0, 0.9],
            [-0.9, 0.9, 1.0],
        ]
    )
    report = validate_feasibility(CorrelationSpec.with_matrix(m))
    assert not report.feasible


def test_simulate_rejects_infeasible():
    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(1000, -0.6), reps=10, seed=0)
    with pytest.raises(NotPSD):
        simulate_dispersion(cfg)


# off-diagonals -0.5 - delta put the smallest correlation eigenvalue at -2 delta,
# so the gate's -1e-10 lies between delta = 4e-11 and 6e-11; at n = 5 the
# equicorrelation bound is -1/4 and the smallest eigenvalue 1 + 4 rho
_VERDICT_CASES = {
    **{f"full-delta={delta:g}": (FullMatrix(np.array([[1.0, -0.5 - delta, -0.5 - delta],
                                                      [-0.5 - delta, 1.0, -0.5 - delta],
                                                      [-0.5 - delta, -0.5 - delta, 1.0]])),
                                 delta < 5e-11)
       for delta in (0.0, 2e-11, 4e-11, 6e-11, 1e-10, 1e-9)},
    **{f"equi-rho={rho!r}": (Equicorrelation(rho), rho >= -0.25 - 2.5e-11)
       for rho in (-0.2, -0.25, -0.25 - 1e-11, -0.25 - 1e-9, -0.3)},
}


@pytest.mark.parametrize("spread", [0.0, 0.5], ids=["one-sigma", "several-sigmas"])
@pytest.mark.parametrize("sigma", [1e-6, 1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("case", sorted(_VERDICT_CASES))
def test_every_entry_point_takes_the_gate_verdict(case, sigma, spread):
    structure, feasible = _VERDICT_CASES[case]
    n = 3 if isinstance(structure, FullMatrix) else 5
    sigmas = sigma * (1.0 + spread * np.arange(n))
    spec = CorrelationSpec(n=n, means=np.zeros(n), sigmas=sigmas, structure=structure)
    report = validate_feasibility(spec)
    assert report.feasible is feasible
    entry_points = [
        lambda: sample_gaussian_matrix(spec, np.random.default_rng(0), 4),
        lambda: simulate_dispersion(SimConfig(spec=spec, reps=4, seed=0)),
    ]
    for call in entry_points:
        if feasible:
            call()
        else:
            with pytest.raises(NotPSD) as raised:
                call()
            assert str(raised.value) == report.detail


def test_zero_reps():
    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(10, 0.0), reps=0, seed=0)
    with pytest.raises(ZeroReps):
        simulate_dispersion(cfg)


@pytest.mark.parametrize("sigma", [1e100, 1e200, 1.7976931348623157e308])
def test_dispersion_outside_the_doubles_raises(sigma):
    # V_N grows as sigma^2 and its variance as sigma^4: one of them overflows
    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(40, 0.5, sigma), reps=40, seed=0)
    with pytest.raises(NumericalError, match="outside the range of a double"):
        simulate_dispersion(cfg, workers=2)


def test_seed_must_be_uint64():
    spec = CorrelationSpec.equicorrelated(10, 0.0)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, reps=10, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, reps=10, seed=2**64)


# ---------------------------------------------------------------------------
# sampling correctness
# ---------------------------------------------------------------------------


_SIGMAS, _MEANS = [1.0, 2.0, 0.5], [0.0, 1.0, -1.0]


@pytest.mark.parametrize("structure", [
    FullMatrix(np.array([[1.0, 0.5, -0.2], [0.5, 1.0, 0.1], [-0.2, 0.1, 1.0]])),
    Equicorrelation(-0.5),  # the bound -1/(n-1): every cross-section sums to a constant
    Equicorrelation(-0.3),
    Equicorrelation(0.0),
    Equicorrelation(0.6),
    Equicorrelation(1.0),
], ids=["full", "equi--0.5", "equi--0.3", "equi-0.0", "equi-0.6", "equi-1.0"])
def test_sample_covariance_matches_spec(structure):
    spec = CorrelationSpec(n=3, means=_MEANS, sigmas=_SIGMAS, structure=structure)
    rng = np.random.default_rng(202)
    rows = 100_000
    x = sample_gaussian_matrix(spec, rng, rows)
    emp = np.cov(x, rowvar=False, ddof=0)
    tol = 16.0 / math.sqrt(rows)
    assert np.max(np.abs(emp - spec.covariance_matrix())) < tol
    assert np.max(np.abs(x.mean(axis=0) - spec.means)) < tol


def test_sample_vector_shape():
    spec = CorrelationSpec.equicorrelated(7, 0.5)
    x = sample_gaussian_matrix(spec, np.random.default_rng(0), 1)[0]
    assert x.shape == (7,)


def test_perfect_positive_correlation_kills_dispersion():
    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(100, 1.0), reps=200, seed=3)
    res = simulate_dispersion(cfg)
    assert np.max(np.abs(res.per_rep)) <= 1e-12
    assert res.mean_vn <= 1e-12


def test_two_stocks_fully_anticorrelated_are_antithetic():
    spec = CorrelationSpec.equicorrelated(2, -1.0, sigma=1.5, mean=0.7)
    x = sample_gaussian_matrix(spec, np.random.default_rng(5), 1000)
    # X1 + X2 == 2m exactly up to rounding
    assert np.max(np.abs(x.sum(axis=1) - 1.4)) < 1e-12


def test_mean_matches_analytic_within_four_se():
    spec = CorrelationSpec.equicorrelated(50, 0.2)
    res = simulate_dispersion(SimConfig(spec=spec, reps=4000, seed=7))
    assert abs(res.mean_vn - expected_dispersion(spec)) < 4.0 * res.se_vn


def test_sigma_doubling_scales_dispersion_by_exactly_four():
    # power-of-two scaling is exact in binary floating point
    lo = SimConfig(spec=CorrelationSpec.equicorrelated(20, 0.3, 1.0), reps=500, seed=99)
    hi = SimConfig(spec=CorrelationSpec.equicorrelated(20, 0.3, 2.0), reps=500, seed=99)
    a = simulate_dispersion(lo)
    b = simulate_dispersion(hi)
    assert np.array_equal(b.per_rep, 4.0 * a.per_rep)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_seed_same_result():
    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(30, 0.1), reps=300, seed=42)
    r1 = simulate_dispersion(cfg)
    r2 = simulate_dispersion(cfg)
    assert r1.mean_vn == r2.mean_vn
    assert np.array_equal(r1.per_rep, r2.per_rep)


def test_different_seed_different_result():
    spec = CorrelationSpec.equicorrelated(30, 0.1)
    r1 = simulate_dispersion(SimConfig(spec=spec, reps=300, seed=1))
    r2 = simulate_dispersion(SimConfig(spec=spec, reps=300, seed=2))
    assert r1.mean_vn != r2.mean_vn


def test_worker_count_never_changes_values():
    # reps ends in a partial block, and three or four tasks deal the blocks unevenly
    assert REPLICATION_BLOCK < 5000 and 5000 % REPLICATION_BLOCK
    for spec in (CorrelationSpec.equicorrelated(3, -0.4),
                 _spread_spec(5, Equicorrelation(-0.2), 1),
                 _spread_spec(4, _full_matrix(4, 2), 3)):
        cfg = SimConfig(spec=spec, reps=5000, seed=11)
        serial = simulate_dispersion(cfg, workers=1)
        for workers in (3, 4):
            threaded = simulate_dispersion(cfg, workers=workers)
            assert np.array_equal(serial.per_rep, threaded.per_rep)
            assert serial.mean_vn == threaded.mean_vn
            assert serial.se_vn == threaded.se_vn


def _draws(seed, block):
    return simulate_module._block_rng(seed, block).standard_normal(16)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_block_streams_are_a_pure_function_of_seed_and_block(seed):
    neighbour = seed - 1 if seed else seed + 1
    for block in (0, 1, 1000):
        first = _draws(seed, block)
        assert np.array_equal(first, _draws(seed, block))
        assert not np.array_equal(first, _draws(seed, block + 1))
        assert not np.array_equal(first, _draws(neighbour, block))


@pytest.mark.parametrize("reps", [4096, 2 * REPLICATION_BLOCK + 1])
def test_two_workers_reduce_chunks_on_two_threads(reps, monkeypatch):
    # each thread waits at the barrier on its first chunk, so one thread
    # running every block would break it rather than pass
    barrier = threading.Barrier(2, timeout=30)
    idents = []
    reduce = simulate_module.dispersion_values

    def recording(chunk):
        ident = threading.get_ident()
        if ident not in idents:
            idents.append(ident)
            barrier.wait()
        return reduce(chunk)

    monkeypatch.setattr(simulate_module, "dispersion_values", recording)
    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(3, 0.1), reps=reps, seed=5)
    pooled = simulate_dispersion(cfg, workers=2)
    assert len(idents) == 2
    monkeypatch.setattr(simulate_module, "dispersion_values", reduce)
    serial = simulate_dispersion(cfg, workers=1)
    assert np.array_equal(pooled.per_rep, serial.per_rep)


# ---------------------------------------------------------------------------
# result structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec, workers", [
    (CorrelationSpec.equicorrelated(10, 0.0), 1),  # homogeneous: draws reduced directly
    (CorrelationSpec(n=10, means=np.zeros(10), sigmas=np.linspace(1.0, 2.0, 10),
                     structure=Equicorrelation(0.3)), 1),
    (CorrelationSpec(n=4, means=np.zeros(4), sigmas=np.ones(4),
                     structure=FullMatrix(np.eye(4))), 2),
], ids=["homogeneous", "heterogeneous", "full-matrix"])
def test_per_rep_always_matches_mean_and_variance(spec, workers):
    kept = simulate_dispersion(SimConfig(spec=spec, reps=2050, seed=0), workers=workers)
    assert kept.per_rep.shape == (2050,) and not kept.per_rep.flags.writeable
    assert kept.mean_vn == pytest.approx(float(kept.per_rep.mean()), rel=1e-15)
    assert kept.var_vn == pytest.approx(float(kept.per_rep.var(ddof=1)), rel=1e-12)
    assert kept.se_vn == pytest.approx(math.sqrt(kept.var_vn / 2050), rel=1e-15)


def test_sim_results_compare_by_value():
    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(8, 0.2), reps=40, seed=5)
    assert simulate_dispersion(cfg) == simulate_dispersion(cfg)
    assert simulate_dispersion(cfg) != simulate_dispersion(replace(cfg, seed=6))


def test_single_rep_has_no_spread_estimate():
    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(10, 0.0), reps=1, seed=0)
    res = simulate_dispersion(cfg)
    assert math.isfinite(res.mean_vn)
    assert math.isnan(res.se_vn)
    assert math.isnan(res.var_vn)


def test_variance_decay_with_universe_size():
    study = variance_decay_study(
        rho=0.2, sigma=1.0, n_list=[10, 100], reps=2000, seed=1729
    )
    # var of V_N shrinks roughly like 1/n; allow a generous band around 10x
    ratio = study[10].var_vn / study[100].var_vn
    assert 5.0 < ratio < 20.0
    for n, res in study.items():
        assert res.config.spec.n == n


@pytest.mark.parametrize(
    "n, rho, sigma, mean",
    [(50, 0.3, 1.5, 0.0), (10, 0.0, 0.5, 0.0), (20, -0.04, 1.0, 0.0), (40, 0.6, 2.5, -7.0)],
    # a case names its mean only where it is not 0
    ids=["50-0.3-1.5", "10-0.0-0.5", "20--0.04-1.0", "40-0.6-2.5-mean-7.0"],
)
def test_simulated_variance_matches_the_exact_law(n, rho, sigma, mean):
    reps = 20000
    spec = CorrelationSpec.equicorrelated(n, rho, sigma, mean)
    res = simulate_dispersion(SimConfig(spec=spec, reps=reps, seed=20261018))
    exact = homogeneous_variance(n, rho, sigma)
    # V = c X with X ~ chi^2_k: Var[V] = 2 k c^2 and its fourth central
    # moment is 12 k (k + 4) c^4, which sets the spread of the sample variance
    k, c = n - 1, (1.0 - rho) * sigma**2 / n
    assert exact == pytest.approx(2 * k * c**2, rel=1e-12)
    mu4 = 12 * k * (k + 4) * c**4
    se = math.sqrt((mu4 - exact**2 * (reps - 3) / (reps - 1)) / reps)
    assert abs(res.var_vn - exact) < 5.0 * se


def regularized_lower_gamma(a, x):
    """P(a, x) for a > 0 and each x > 0: the series where x < a + 1, else one minus
    the continued fraction for Q(a, x) by modified Lentz (Numerical Recipes 6.2)."""
    x = np.asarray(x, dtype=np.float64)
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    front = np.exp(a * np.log(x) - x - math.lgamma(a))
    out = np.empty_like(x)
    low = x < a + 1.0
    term = np.full(np.count_nonzero(low), 1.0 / a)
    total = term.copy()
    for i in range(1, 1000):
        term *= x[low] / (a + i)
        total += term
        if np.all(term < total * eps):
            break
    out[low] = front[low] * total
    b = x[~low] + 1.0 - a
    c = np.full_like(b, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        h *= d * c
        if np.all(np.abs(d * c - 1.0) < eps):
            break
    out[~low] = 1.0 - front[~low] * h
    return out


def finite_sum_lower_gamma(a, y):
    """P(a, y) for a whole or half-integer a, from its finite sum: one minus (for a
    half-integer, erf(sqrt(y)) minus) the sum of y^j e^-y / Gamma(j + 1) over the
    j = a - 1, a - 2, ... that are at least 0."""
    start = a - math.floor(a)
    head = 1.0 if start == 0.0 else math.erf(math.sqrt(y))
    return head - math.fsum(math.exp((start + j) * math.log(y) - y - math.lgamma(start + j + 1))
                            for j in range(int(a - start)))


def ks_statistic(sample, cdf):
    """sqrt(m) times the one-sample Kolmogorov-Smirnov distance of ``sample`` from ``cdf``."""
    u = cdf(np.sort(sample))
    m = u.size
    i = np.arange(1, m + 1)
    return math.sqrt(m) * max(np.max(i / m - u), np.max(u - (i - 1) / m))


@pytest.mark.parametrize("a", [0.5, 1.0, 5.0, 14.5, 15.0])
def test_regularized_lower_gamma_matches_its_finite_sums(a):
    # both branches: the series below a + 1 and the continued fraction above it
    ys = np.linspace(0.05, 4.0 * a + 20.0, 400)
    want = [finite_sum_lower_gamma(a, y) for y in ys.tolist()]
    np.testing.assert_allclose(regularized_lower_gamma(a, ys), want, rtol=0.0, atol=1e-13)


KS_CRITICAL_1PCT = 1.628  # sqrt(m) D exceeds it with probability 1% under the law


def test_homogeneous_dispersion_follows_the_chi_square_law():
    # N V / ((1 - rho) sigma^2) ~ chi^2_{N-1}, whose CDF is P((N - 1) / 2, x / 2).
    # At this seed sqrt(m) D is 0.913 for the exact law, 5.18 for draws scaled
    # by 1.01 and 14.2 for draws at rho + 0.02
    n, rho, sigma, reps, seed = 30, 0.3, 1.5, 100_000, 20261020

    def statistic(per_rep):
        x = n * per_rep / ((1.0 - rho) * sigma**2)
        return ks_statistic(x, lambda v: regularized_lower_gamma((n - 1) / 2.0, v / 2.0))

    def per_rep(draw_rho):
        spec = CorrelationSpec.equicorrelated(n, draw_rho, sigma)
        return simulate_dispersion(SimConfig(spec=spec, reps=reps, seed=seed)).per_rep

    exact = per_rep(rho)
    assert statistic(exact) < KS_CRITICAL_1PCT
    # the test has the power to reject a 1% scale error and a 0.02 error in rho
    assert statistic(1.01 * exact) > KS_CRITICAL_1PCT
    assert statistic(per_rep(rho + 0.02)) > KS_CRITICAL_1PCT


def imhof_cdf(spec, q):
    """P(V <= q) at each q, for V = x^T A x, x ~ N(m, Sigma), A = (I - J/n)/n, by
    Imhof's (1961) inversion. With Sigma = L L^T (Cholesky), V = (z + c)^T B (z + c)
    for z ~ N(0, I), B = L^T A L and c = L^-1 m: a sum of lam_j (w_j + d_j)^2 over B's
    eigenvalues lam_j, with w = P^T z standard normal and d = P^T c for B's
    eigenvectors P. Then F(q) = 1/2 - (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du,
    theta(u) = sum_j (arctan(lam_j u) + d_j^2 lam_j u / (1 + lam_j^2 u^2)) / 2 - q u / 2,
    rho(u) = prod_j (1 + lam_j^2 u^2)^(1/4) exp(sum_j (d_j lam_j u)^2 / (1 + lam_j^2 u^2) / 2),
    by Simpson's rule in units of E[V], up to where Imhof's bound puts the tail below 1e-9."""
    n = spec.n
    low = np.linalg.cholesky(spec.covariance_matrix())
    lam, vecs = np.linalg.eigh(low.T @ ((np.eye(n) - 1.0 / n) / n) @ low)
    d2 = (vecs.T @ np.linalg.solve(low, spec.means)) ** 2
    keep = lam > 1e-12 * lam.max()  # the common direction adds nothing
    lam, d2 = lam[keep], d2[keep]
    mean = lam.sum() + lam @ d2
    lam = lam / mean
    # the tail past u_max is below 2 / (r u_max^(r/2) prod lam^(1/2)) for r eigenvalues
    r = lam.size
    u_max = math.exp((math.log(2.0 / r) - 0.5 * np.log(lam).sum() + 9 * math.log(10)) / (r / 2))
    steps = 2 * math.ceil(u_max / 0.2)
    u = np.linspace(0.0, u_max, steps + 1)[1:]
    lu = np.outer(u, lam)
    theta = ((np.arctan(lu) + d2 * lu / (1.0 + lu**2)) / 2).sum(axis=1)
    g = np.exp(-(np.log1p(lu**2) / 4 + d2 * lu**2 / (1.0 + lu**2) / 2).sum(axis=1)) / u
    weights = np.where(np.arange(1, steps + 1) % 2, 4.0, 2.0) * (u_max / steps / 3.0)
    weights[-1] /= 2.0
    q = np.asarray(q, dtype=np.float64) / mean
    # at u = 0 the integrand is its limit (E[V] - q) / 2, with weight step / 3
    integral = (1.0 - q) / 2.0 * (u_max / steps / 3.0)
    for rows in np.array_split(np.arange(q.size), max(1, q.size // 256)):
        integral[rows] += (np.sin(theta - np.outer(q[rows], u) / 2.0) * g) @ weights
    return 0.5 - integral / math.pi


def test_imhof_cdf_is_the_chi_square_law_for_one_sigma_and_mean():
    n, rho, sigma = 30, 0.3, 1.5
    q = np.linspace(0.2, 4.0, 400)
    want = regularized_lower_gamma((n - 1) / 2.0, n * q / ((1.0 - rho) * sigma**2) / 2.0)
    got = imhof_cdf(CorrelationSpec.equicorrelated(n, rho, sigma, mean=0.7), q)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
    # with several sigmas and means the law's mean, the area above the CDF, is the
    # closed form's, so the means enter the law as they should
    spec = _spread_spec(n, Equicorrelation(rho), 17)
    mean = expected_dispersion(spec)
    q = np.linspace(0.0, 8.0 * mean, 2001)
    above = 1.0 - imhof_cdf(spec, q)
    assert above[-1] < 1e-9
    assert float(np.sum((above[1:] + above[:-1]) / 2.0 * np.diff(q))) == pytest.approx(
        mean, rel=1e-9)


def test_equicorrelated_dispersion_with_several_sigmas_and_means_follows_the_exact_law():
    # one-sample KS of per_rep against Imhof's CDF for the one-factor transform. At this
    # seed sqrt(m) D is 0.782 for the exact law, 3.91 for draws scaled by 1.01 and 3.91
    # for draws at rho + 0.02
    n, rho, reps, seed = 30, 0.3, 50_000, 20261020

    def per_rep(draw_rho):
        spec = _spread_spec(n, Equicorrelation(draw_rho), 17)
        return simulate_dispersion(SimConfig(spec=spec, reps=reps, seed=seed)).per_rep

    exact, shifted = per_rep(rho), per_rep(rho + 0.02)
    q = np.linspace(0.0, 1.02 * max(exact.max(), shifted.max()), 1001)
    law = imhof_cdf(_spread_spec(n, Equicorrelation(rho), 17), q)

    def statistic(sample):
        return ks_statistic(sample, lambda v: np.interp(v, q, law))

    assert statistic(exact) < KS_CRITICAL_1PCT
    # the test has the power to reject a 1% scale error and a 0.02 error in rho
    assert statistic(1.01 * exact) > KS_CRITICAL_1PCT
    assert statistic(shifted) > KS_CRITICAL_1PCT


def _random_correlation(n, spec_seed, shift=0.0):
    """A seeded positive-definite correlation matrix from three random factors, with
    ``shift`` added to every off-diagonal entry."""
    loadings = np.random.default_rng(spec_seed).normal(0.0, 0.6, (n, 3))
    cov = loadings @ loadings.T + np.eye(n)
    scale = 1.0 / np.sqrt(np.diag(cov))
    corr = cov * np.outer(scale, scale) + shift
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return corr


def test_full_matrix_dispersion_with_several_sigmas_and_means_follows_the_exact_law():
    # one-sample KS of per_rep against Imhof's CDF, whose Cholesky factor is independent
    # of the sampler's eigh. At this seed sqrt(m) D is 1.09 for the exact law, 3.72 for
    # draws scaled by 1.01 and 6.49 for draws with every correlation raised by 0.02
    n, reps, seed = 30, 200_000, 20261020

    def spec(shift):
        base = _spread_spec(n, Equicorrelation(0.0), 23)
        return CorrelationSpec(n=n, means=base.means, sigmas=base.sigmas,
                               structure=FullMatrix(_random_correlation(n, 29, shift)))

    def per_rep(shift):
        return simulate_dispersion(SimConfig(spec=spec(shift), reps=reps, seed=seed)).per_rep

    exact, shifted = per_rep(0.0), per_rep(0.02)
    q = np.linspace(0.0, 1.02 * max(exact.max(), shifted.max()), 1001)
    law = imhof_cdf(spec(0.0), q)

    def statistic(sample):
        return ks_statistic(sample, lambda v: np.interp(v, q, law))

    assert statistic(exact) < KS_CRITICAL_1PCT
    # the test has the power to reject a 1% scale error and a 0.02 error in the correlations
    assert statistic(1.01 * exact) > KS_CRITICAL_1PCT
    assert statistic(shifted) > KS_CRITICAL_1PCT


def test_cli_single_rho_dispersion_follows_the_chi_square_law(monkeypatch, capsys):
    # the SimResult that `simulate --rho` computes from its own spec and seed. At this
    # seed sqrt(m) D is 1.10 for the exact law, 4.01 for draws scaled by 1.01 and
    # 10.1 for the run at rho + 0.02
    n, rho, sigma, reps = 30, 0.3, 1.5, 50_000
    results = []

    def recording(config, workers=1):
        results.append(simulate_dispersion(config, workers=workers))
        return results[-1]

    monkeypatch.setattr(cli_module, "simulate_dispersion", recording)
    for r in (rho, rho + 0.02):
        argv = ["simulate", "--n", str(n), "--m-reps", str(reps), "--rho", repr(r),
                "--sigma", repr(sigma), "--seed", "7"]
        assert cli_module.main(argv) == cli_module.EXIT_OK
    capsys.readouterr()

    def statistic(per_rep):
        x = n * per_rep / ((1.0 - rho) * sigma**2)
        return ks_statistic(x, lambda v: regularized_lower_gamma((n - 1) / 2.0, v / 2.0))

    exact, shifted = (result.per_rep for result in results)
    assert statistic(exact) < KS_CRITICAL_1PCT
    assert statistic(1.01 * exact) > KS_CRITICAL_1PCT
    assert statistic(shifted) > KS_CRITICAL_1PCT


# threads: how many run the blocks; one is the caller's own, and then no pool starts
@pytest.mark.parametrize("workers, blocks, threads", [(8, 2, 2), (5, 1, 1), (2, 3, 2)])
def test_pool_has_no_more_threads_than_blocks(workers, blocks, threads, monkeypatch):
    requested = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            requested.append(max_workers)
            # never start more than two threads, whatever was asked
            super().__init__(max_workers=min(max_workers, 2))

    # simulate_dispersion imports the pool from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(3, 0.1),
                    reps=(blocks - 1) * REPLICATION_BLOCK + 1, seed=5)
    pooled = simulate_dispersion(cfg, workers=workers)
    assert requested == ([threads] if threads > 1 else [])
    serial = simulate_dispersion(cfg, workers=1)
    assert np.array_equal(pooled.per_rep, serial.per_rep)


@pytest.mark.parametrize("reps, workers, pooled", [(100, 2, False), (100, 1, False),
                                                    (2048, 2, True)])
def test_only_a_run_of_two_blocks_or_more_imports_the_pool(reps, workers, pooled):
    # in a fresh interpreter, since this one has imported concurrent.futures already
    src = os.path.dirname(os.path.dirname(simulate_module.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, crossdisp.cli; "
            f"code = crossdisp.cli.main(['simulate', '--n', '50', '--m-reps', '{reps}', "
            f"'--workers', '{workers}']); "
            "print(code, 'concurrent.futures' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"0 {pooled}\n"


# ---------------------------------------------------------------------------
# chunked blocks against the whole-block sampler
# ---------------------------------------------------------------------------


def _whole_block_per_rep(config):
    """Per-replication values as the unchunked sampler computed them: each
    block's normals drawn in one standard_normal call and transformed at once."""
    spec = config.spec
    if isinstance(spec.structure, Equicorrelation):
        rho = spec.structure.rho
        w = math.sqrt(1.0 - rho)
        b = rho / (math.sqrt(max(0.0, 1.0 + (spec.n - 1) * rho)) + w)

        def transform(z):
            mixed = w * z + b * z.sum(axis=1, keepdims=True)
            return spec.means + spec.sigmas * mixed
    else:
        root = simulate_module._symmetric_sqrt(spec)

        def transform(z):
            return spec.means + z @ root

    values = np.empty(config.reps)
    for start in range(0, config.reps, REPLICATION_BLOCK):
        stop = min(start + REPLICATION_BLOCK, config.reps)
        rng = simulate_module._block_rng(config.seed, start // REPLICATION_BLOCK)
        z = rng.standard_normal((stop - start, spec.n))
        values[start:stop] = dispersion_values(transform(z))
    return values


def _chunk_rows(draws):
    return max(1, CHUNK_BYTES // (8 * draws))


_ONE_ROW_N = CHUNK_BYTES // 16 + 1  # rows hold n draws: from here a chunk is one row
_DRAW_BUDGET = 2**21  # normals per example, which keeps the reference's block small


def _boundary_reps(boundary, draws):
    """Replications just around a chunk or block edge, capped at the draw budget."""
    rows = _chunk_rows(draws)
    reps = {"one": 1, "chunk-1": rows - 1, "chunk+1": rows + 1,
            "block+1": REPLICATION_BLOCK + 1}[boundary]
    return max(1, min(reps, _DRAW_BUDGET // draws))


_BOUNDARIES = st.sampled_from(["one", "chunk-1", "chunk+1", "block+1"])


def _spread_spec(n, structure, spec_seed):
    rng = np.random.default_rng(spec_seed)
    return CorrelationSpec(n=n, means=rng.normal(0.0, 1.0, n),
                           sigmas=rng.uniform(0.1, 3.0, n), structure=structure)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, _ONE_ROW_N), boundary=_BOUNDARIES, rho=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**64 - 1), spec_seed=st.integers(0, 2**32 - 1))
@example(n=_ONE_ROW_N, boundary="chunk+1", rho=0.5, seed=1, spec_seed=1)
@example(n=1000, boundary="block+1", rho=0.3, seed=2, spec_seed=2)
@example(n=7, boundary="chunk+1", rho=-1.0, seed=3, spec_seed=3)
def test_chunked_one_factor_path_equals_whole_blocks(n, boundary, rho, seed, spec_seed):
    # every equicorrelation with differing sigmas and means; rho below the
    # bound -1/(n-1) is moved onto it
    assert _chunk_rows(_ONE_ROW_N) == 1 < _chunk_rows(_ONE_ROW_N - 1)
    spec = _spread_spec(n, Equicorrelation(max(rho, -1.0 / (n - 1))), spec_seed)
    config = SimConfig(spec=spec, reps=_boundary_reps(boundary, n), seed=seed)
    reference = _whole_block_per_rep(config)
    for workers in (1, 2):
        chunked = simulate_dispersion(config, workers=workers)
        assert np.array_equal(chunked.per_rep, reference)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, _ONE_ROW_N), boundary=_BOUNDARIES, rho=st.floats(-1.0, 0.99),
       sigma=st.floats(0.25, 4.0), mean=st.floats(-5.0, 5.0), seed=st.integers(0, 2**64 - 1))
@example(n=_ONE_ROW_N, boundary="chunk+1", rho=0.5, sigma=0.5, mean=-2.0, seed=1)
@example(n=1000, boundary="block+1", rho=0.3, sigma=1.5, mean=0.7, seed=2)
@example(n=2, boundary="chunk-1", rho=0.99, sigma=0.25, mean=5.0, seed=3)
@example(n=9, boundary="chunk+1", rho=-1.0, sigma=2.0, mean=-1.0, seed=4)
def test_homogeneous_path_matches_the_cross_sections(n, boundary, rho, sigma, mean, seed):
    # one sigma and one mean: the values come from the draws alone, scaled by
    # (1 - rho) sigma^2, and the reference builds every cross-section. Its
    # rounding grows with |mean| / sigma and 1 / sqrt(1 - rho) and is not
    # relative to each value (in a small universe two draws can nearly
    # coincide), so the gap is measured against the scale of V_N. rho below
    # the bound -1/(n-1) is moved onto it.
    rho = max(rho, -1.0 / (n - 1))
    spec = CorrelationSpec.equicorrelated(n, rho, sigma, mean)
    config = SimConfig(spec=spec, reps=_boundary_reps(boundary, n), seed=seed)
    reference = _whole_block_per_rep(config)
    serial = simulate_dispersion(config, workers=1)
    threaded = simulate_dispersion(config, workers=2)
    assert np.array_equal(serial.per_rep, threaded.per_rep)
    assert np.max(np.abs(serial.per_rep - reference)) <= 1e-12 * (1.0 - rho) * sigma**2


@pytest.mark.parametrize("rho, sigma", [(1.0, 1.0), (1.0, 1e200), (0.5, 1e-200)])
def test_zero_scale_gives_exact_zeros_without_drawing(rho, sigma, monkeypatch):
    # (1 - rho) sigma^2 is 0 at rho = 1, whatever sigma, and when sigma^2 underflows
    def no_stream(seed, block):
        raise AssertionError("a constant cross-section needs no draws")

    monkeypatch.setattr(simulate_module, "_block_rng", no_stream)
    spec = CorrelationSpec.equicorrelated(1000, rho, sigma, mean=3.0)
    config = SimConfig(spec=spec, reps=REPLICATION_BLOCK + 1, seed=4)
    for workers in (1, 2):
        res = simulate_dispersion(config, workers=workers)
        assert np.array_equal(res.per_rep, np.zeros(config.reps))
        assert (res.mean_vn, res.var_vn, res.se_vn) == (0.0, 0.0, 0.0)


def test_one_stock_has_no_dispersion_to_simulate():
    for rho in (0.5, 1.0):
        config = SimConfig(spec=CorrelationSpec.equicorrelated(1, rho), reps=10, seed=0)
        with pytest.raises(TooFewStocks):
            simulate_dispersion(config)


def _full_matrix(n, matrix_seed):
    factors = np.random.default_rng(matrix_seed).normal(size=(n, 3))
    cov = factors @ factors.T + np.diag(np.full(n, 0.5))
    scale = 1.0 / np.sqrt(np.diag(cov))
    corr = np.clip(cov * scale[:, None] * scale[None, :], -1.0, 1.0)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return FullMatrix(corr)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 120), boundary=_BOUNDARIES, seed=st.integers(0, 2**64 - 1),
       spec_seed=st.integers(0, 2**32 - 1), matrix_seed=st.integers(0, 2**32 - 1))
def test_chunked_general_path_matches_whole_blocks_to_rounding(n, boundary, seed, spec_seed,
                                                                matrix_seed):
    # a full matrix: a row-chunked z @ root may round differently in the last bits
    spec = _spread_spec(n, _full_matrix(n, matrix_seed), spec_seed)
    config = SimConfig(spec=spec, reps=_boundary_reps(boundary, n), seed=seed)
    reference = _whole_block_per_rep(config)
    serial = simulate_dispersion(config, workers=1)
    threaded = simulate_dispersion(config, workers=2)
    assert np.array_equal(serial.per_rep, threaded.per_rep)
    assert np.max(np.abs(serial.per_rep - reference) / reference) <= 1e-13


def _quadratic_form_cumulants(spec):
    """Var[V] and the fourth cumulant of V = x^T A x, x ~ N(m, Sigma), A = (I - J/n)/n:
    kappa_r = 2^(r-1) (r-1)! (tr((A Sigma)^r) + r m^T (A Sigma)^(r-1) A m). Var[V] is
    kappa_2, the exact law in the theory module."""
    n, m = spec.n, spec.means
    a = (np.eye(n) - np.full((n, n), 1.0 / n)) / n
    a_sigma = a @ spec.covariance_matrix()
    a_sigma_2 = a_sigma @ a_sigma
    kappa4 = 48 * np.trace(a_sigma_2 @ a_sigma_2) + 192 * m @ a_sigma_2 @ a_sigma @ a @ m
    return dispersion_variance(spec), float(kappa4)


@pytest.mark.parametrize("structure", [
    Equicorrelation(-1.0 / 29), Equicorrelation(-0.02), Equicorrelation(0.0),
    Equicorrelation(0.4), _full_matrix(30, 5),
], ids=["equi-bound", "equi--0.02", "equi-0.0", "equi-0.4", "full"])
def test_simulated_variance_matches_the_exact_law_for_any_spec(structure):
    # Var[V] = 2 tr((A Sigma)^2) + 4 m^T A Sigma A m, with differing sigmas and means
    reps = 20000
    spec = _spread_spec(30, structure, 17)
    res = simulate_dispersion(SimConfig(spec=spec, reps=reps, seed=20261019))
    exact, kappa4 = _quadratic_form_cumulants(spec)
    assert abs(res.mean_vn - expected_dispersion(spec)) < 5.0 * res.se_vn
    mu4 = kappa4 + 3 * exact**2
    se = math.sqrt((mu4 - exact**2 * (reps - 3) / (reps - 1)) / reps)
    assert abs(res.var_vn - exact) < 5.0 * se


def test_homogeneous_law_is_the_quadratic_form_law():
    spec = CorrelationSpec.equicorrelated(12, -0.05, 1.5, mean=2.0)
    exact, _ = _quadratic_form_cumulants(spec)
    assert exact == pytest.approx(homogeneous_variance(12, -0.05, 1.5), rel=1e-12)


@pytest.mark.parametrize("many_sigmas", [False, True], ids=["one-sigma", "many-sigmas"])
def test_equicorrelation_needs_no_eigendecomposition(many_sigmas, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("equicorrelation has a closed-form square root")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    n = 8
    for rho in (-1.0 / (n - 1), -0.1, 0.0, 0.5, 1.0):
        spec = (_spread_spec(n, Equicorrelation(rho), 6) if many_sigmas
                else CorrelationSpec.equicorrelated(n, rho, 2.0, mean=1.0))
        config = SimConfig(spec=spec, reps=REPLICATION_BLOCK + 1, seed=9)
        assert math.isfinite(simulate_dispersion(config, workers=2).mean_vn)
        assert sample_gaussian_matrix(spec, np.random.default_rng(9), 10).shape == (10, n)


def _simulate_peak(spec, reps, workers):
    tracemalloc.start()
    try:
        simulate_dispersion(SimConfig(spec=spec, reps=reps, seed=8), workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_simulate_peak_memory_is_chunks_plus_values():
    spec = CorrelationSpec.equicorrelated(1000, 0.5)
    spec_bytes = spec.means.nbytes + spec.sigmas.nbytes
    # one untraced call first, so one-time allocations stay out of the peaks
    simulate_dispersion(SimConfig(spec=spec, reps=10, seed=8), workers=2)
    for reps in (8192, 16 * REPLICATION_BLOCK):
        # a homogeneous spec builds no samples: a chunk's draws and the variance
        # step's deviations, about 2x CHUNK_BYTES a worker, however many blocks
        # each worker runs
        bound = 3 * 2 * CHUNK_BYTES + 8 * reps + spec_bytes
        assert _simulate_peak(spec, reps, workers=2) <= bound
    # one worker, so that the peak does not hang on how two threads' chunks overlap
    small, large = (_simulate_peak(spec, reps, workers=1)
                    for reps in (8192, 16 * REPLICATION_BLOCK))
    assert abs(large - small) <= 64 * 1024 + 8 * 8192
