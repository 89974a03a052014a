import math
import threading
import tracemalloc

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
    equicorrelation_dispersion_variance,
    expected_dispersion,
    sample_gaussian_matrix,
    sample_gaussian_vector,
    simulate_dispersion,
    validate_feasibility,
    variance_decay_study,
)
import crossdisp.simulate as simulate_module
from crossdisp.simulate import CHUNK_BYTES, REPLICATION_BLOCK
from crossdisp.theory import Equicorrelation, FullMatrix


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
    x = sample_gaussian_vector(spec, np.random.default_rng(0))
    assert x.shape == (7,)


def test_perfect_positive_correlation_kills_dispersion():
    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(100, 1.0), reps=200, seed=3)
    res = simulate_dispersion(cfg, keep_per_rep=True)
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
    a = simulate_dispersion(lo, keep_per_rep=True)
    b = simulate_dispersion(hi, keep_per_rep=True)
    assert np.array_equal(b.per_rep, 4.0 * a.per_rep)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_seed_same_result():
    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(30, 0.1), reps=300, seed=42)
    r1 = simulate_dispersion(cfg, keep_per_rep=True)
    r2 = simulate_dispersion(cfg, keep_per_rep=True)
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
        serial = simulate_dispersion(cfg, workers=1, keep_per_rep=True)
        for workers in (3, 4):
            threaded = simulate_dispersion(cfg, workers=workers, keep_per_rep=True)
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
    pooled = simulate_dispersion(cfg, workers=2, keep_per_rep=True)
    assert len(idents) == 2
    monkeypatch.setattr(simulate_module, "dispersion_values", reduce)
    serial = simulate_dispersion(cfg, workers=1, keep_per_rep=True)
    assert np.array_equal(pooled.per_rep, serial.per_rep)


# ---------------------------------------------------------------------------
# result structure
# ---------------------------------------------------------------------------


def test_per_rep_only_on_request():
    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(10, 0.0), reps=50, seed=0)
    assert simulate_dispersion(cfg).per_rep is None
    kept = simulate_dispersion(cfg, keep_per_rep=True)
    assert kept.per_rep is not None
    assert kept.per_rep.shape == (50,)
    assert kept.mean_vn == pytest.approx(float(kept.per_rep.mean()), rel=1e-15)
    assert kept.var_vn == pytest.approx(float(kept.per_rep.var(ddof=1)), rel=1e-12)
    assert kept.se_vn == pytest.approx(math.sqrt(kept.var_vn / 50), rel=1e-15)


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
    exact = equicorrelation_dispersion_variance(n, rho, sigma)
    # V = c X with X ~ chi^2_k: Var[V] = 2 k c^2 and its fourth central
    # moment is 12 k (k + 4) c^4, which sets the spread of the sample variance
    k, c = n - 1, (1.0 - rho) * sigma**2 / n
    assert exact == pytest.approx(2 * k * c**2, rel=1e-12)
    mu4 = 12 * k * (k + 4) * c**4
    se = math.sqrt((mu4 - exact**2 * (reps - 3) / (reps - 1)) / reps)
    assert abs(res.var_vn - exact) < 5.0 * se


@pytest.mark.parametrize("workers, blocks, expected", [(8, 2, 2), (5, 1, 1), (2, 3, 2)])
def test_pool_has_no_more_threads_than_blocks(workers, blocks, expected, monkeypatch):
    requested = []

    class RecordingPool(simulate_module.ThreadPoolExecutor):
        def __init__(self, max_workers):
            requested.append(max_workers)
            # never start more than two threads, whatever was asked
            super().__init__(max_workers=min(max_workers, 2))

    monkeypatch.setattr(simulate_module, "ThreadPoolExecutor", RecordingPool)
    cfg = SimConfig(spec=CorrelationSpec.equicorrelated(3, 0.1),
                    reps=(blocks - 1) * REPLICATION_BLOCK + 1, seed=5)
    pooled = simulate_dispersion(cfg, workers=workers, keep_per_rep=True)
    assert requested == [expected]
    serial = simulate_dispersion(cfg, workers=1, keep_per_rep=True)
    assert np.array_equal(pooled.per_rep, serial.per_rep)


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
        chunked = simulate_dispersion(config, workers=workers, keep_per_rep=True)
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
    serial = simulate_dispersion(config, workers=1, keep_per_rep=True)
    threaded = simulate_dispersion(config, workers=2, keep_per_rep=True)
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
        res = simulate_dispersion(config, workers=workers, keep_per_rep=True)
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
    serial = simulate_dispersion(config, workers=1, keep_per_rep=True)
    threaded = simulate_dispersion(config, workers=2, keep_per_rep=True)
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
    assert exact == pytest.approx(equicorrelation_dispersion_variance(12, -0.05, 1.5), rel=1e-12)


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
