"""Seeded Monte Carlo for the cross-sectional dispersion of Gaussian returns.

Replications are drawn from counter-based Philox substreams: replication
r lives in block r // REPLICATION_BLOCK, and each block's stream starts
at a counter derived only from (seed, block index). Every replication's
draws are therefore a pure function of the seed and its own index, so
results are bit-identical no matter how many workers execute the blocks
or in which order they finish.

Inside a block, the stream is walked in chunks of rows holding about
CHUNK_BYTES of draws; each chunk is drawn, transformed and reduced to
its dispersions before the next is drawn. numpy fills normals in stream
order, so consecutive chunk draws equal one whole-block draw bit for bit:
the one-factor path gives the same values as drawing the block at once,
and a row-chunked ``z @ root`` may differ from it only in the last bits.
Each block refills one draw buffer and one sample buffer in place, so
memory is about three chunks per worker (draws, samples and the variance
step's deviations) plus 8 bytes per replication, and the n x n square
root on the general path, whatever the replication count. Reusing the
buffers also keeps the allocator from handing pages back to the system
and faulting them in again on every chunk.

Sampling honors the declared correlation structure exactly. Nonnegative
equicorrelation uses the one-factor construction

    X_i = m_i + sigma_i (sqrt(rho) Z + sqrt(1 - rho) eps_i),

anything else goes through a symmetric square root of the covariance
matrix. Infeasible structures (smallest correlation eigenvalue below
-1e-10) are rejected before any sampling happens.

A homogeneous universe (nonnegative equicorrelation with one sigma and
one mean, which is what the CLI and ``variance_decay_study`` build) is
never turned into cross-sections. Its common term m + sigma sqrt(rho) Z
is the same for every stock and cancels in the variance:

    V_N = (1 - rho) sigma^2 Var_i(eps_i).

So each chunk's idiosyncratic draws are reduced straight from the draw
buffer, and the values are scaled by (1 - rho) sigma^2 once all blocks
are done. Rows still hold n + 1 draws, so every replication reads the
same stream as on the one-factor path, and the values agree with the
cross-section's to rounding. This path holds two chunks per worker, the
draws and the variance step's deviations. A zero scale (rho = 1, or a
scale that underflows) gives exact zeros and draws nothing.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NotPSD, NumericalError, TooFewStocks, ZeroReps
from .panel import FloatArray, dispersion_values
from .theory import CorrelationSpec, Equicorrelation

REPLICATION_BLOCK = 4096
CHUNK_BYTES = 2**20  # bytes of standard-normal draws in one chunk of a block
FEASIBILITY_TOL = 1e-10
_MAX_SEED = 2**64


@dataclass(frozen=True)
class SimConfig:
    """One simulation request: universe spec, replication count, 64-bit seed."""

    spec: CorrelationSpec
    reps: int
    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class SimResult:
    """Replication summary: mean, standard error and variance of the
    per-replication dispersion, plus the generating config. se_vn is
    sqrt(var_vn / reps)."""

    mean_vn: float
    se_vn: float
    var_vn: float
    config: SimConfig
    per_rep: FloatArray | None = None


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    min_eigenvalue: float
    detail: str


def validate_feasibility(spec: CorrelationSpec, tol: float = FEASIBILITY_TOL) -> FeasibilityReport:
    """Check that the correlation structure is realizable.

    Equicorrelation is feasible iff rho >= -1/(n-1); full matrices are
    checked through their smallest eigenvalue, with negative eigenvalues
    above -tol treated as rounding and clipped to zero at sampling time.
    """
    smallest = spec.min_correlation_eigenvalue()
    if smallest >= -tol:
        return FeasibilityReport(True, smallest, "feasible")
    if isinstance(spec.structure, Equicorrelation):
        bound = -1.0 / (spec.n - 1) if spec.n > 1 else -1.0
        detail = (
            f"equicorrelation rho={spec.structure.rho} below the realizable "
            f"bound -1/(n-1) = {bound} for n={spec.n}"
        )
    else:
        detail = f"correlation matrix has eigenvalue {smallest} < -{tol}"
    return FeasibilityReport(False, smallest, detail)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _symmetric_sqrt(spec: CorrelationSpec, tol: float = FEASIBILITY_TOL) -> FloatArray:
    cov = spec.covariance_matrix()
    eigvals, eigvecs = np.linalg.eigh(cov)
    scale = max(1.0, float(eigvals[-1]))
    if eigvals[0] < -tol * scale:
        raise NotPSD(f"covariance eigenvalue {eigvals[0]} is negative beyond tolerance")
    rooted = np.sqrt(np.clip(eigvals, 0.0, None))
    return (eigvecs * rooted) @ eigvecs.T


def _make_sampler(spec: CorrelationSpec):
    """Build (draws_per_row, transform) where transform(z, out) writes the
    correlated samples for a (rows, draws_per_row) standard-normal matrix z
    into the (rows, n) matrix out and returns it."""
    means = spec.means
    sigmas = spec.sigmas
    structure = spec.structure
    if isinstance(structure, Equicorrelation) and structure.rho >= 0.0:
        w_common = math.sqrt(structure.rho)
        w_idio = math.sqrt(1.0 - structure.rho)

        def one_factor(z: FloatArray, out: FloatArray) -> FloatArray:
            # m + sigma (w_common Z + w_idio eps) in place, rounded as the plain formula is
            np.multiply(z[:, 1:], w_idio, out=out)
            out += w_common * z[:, :1]
            out *= sigmas
            out += means
            return out

        return spec.n + 1, one_factor

    root = _symmetric_sqrt(spec)

    def general(z: FloatArray, out: FloatArray) -> FloatArray:
        np.matmul(z, root, out=out)
        out += means
        return out

    return spec.n, general


def sample_gaussian_vector(spec: CorrelationSpec, rng: np.random.Generator) -> FloatArray:
    """One correlated Gaussian cross-section drawn from ``rng``."""
    return sample_gaussian_matrix(spec, rng, 1)[0]


def sample_gaussian_matrix(
    spec: CorrelationSpec, rng: np.random.Generator, rows: int
) -> FloatArray:
    """Stack of ``rows`` independent cross-sections, one per row."""
    draws, transform = _make_sampler(spec)
    return transform(rng.standard_normal((rows, draws)), np.empty((rows, spec.n)))


# ---------------------------------------------------------------------------
# dispersion simulation
# ---------------------------------------------------------------------------


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # Counter blocks are 2**128 draws apart; no stream can cross into the next.
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, block, 0]))


def _idiosyncratic_scale(spec: CorrelationSpec) -> float | None:
    """(1 - rho) sigma^2 for a homogeneous one-factor spec, else None.

    It overflows to inf rather than raising, so an out-of-range dispersion
    ends in the NumericalError of ``simulate_dispersion``.
    """
    structure = spec.structure
    if not (isinstance(structure, Equicorrelation) and structure.rho >= 0.0):
        return None
    sigma, mean = spec.sigmas[0], spec.means[0]
    if np.any(spec.sigmas != sigma) or np.any(spec.means != mean):
        return None
    idio_sigma = math.sqrt(1.0 - structure.rho) * float(sigma)
    return idio_sigma * idio_sigma


def simulate_dispersion(
    config: SimConfig,
    workers: int = 1,
    keep_per_rep: bool = False,
) -> SimResult:
    """Monte Carlo estimate of the expected cross-sectional dispersion.

    Draws ``config.reps`` independent cross-sections and computes the
    population variance of each via the panel module; a homogeneous
    one-factor spec reduces only its idiosyncratic draws (module
    docstring). The feasibility gate runs first and infeasible structures
    raise NotPSD; fewer than two stocks raise TooFewStocks, and a mean or
    variance outside the range of a double raises NumericalError.
    ``workers`` only sets how many threads execute the replication
    blocks; it never changes the result.
    """
    if config.reps < 1:
        raise ZeroReps(config.reps)
    report = validate_feasibility(config.spec)
    if not report.feasible:
        raise NotPSD(report.detail)
    spec = config.spec
    if spec.n < 2:
        raise TooFewStocks(spec.n, 2)
    scale = _idiosyncratic_scale(spec)
    if scale is None:
        draws, transform = _make_sampler(spec)
    else:
        draws, transform = spec.n + 1, None
    rows = max(1, CHUNK_BYTES // (8 * draws))
    reps = config.reps
    values = np.empty(reps, dtype=np.float64)

    def run_block(block: int) -> None:
        start = block * REPLICATION_BLOCK
        stop = min(start + REPLICATION_BLOCK, reps)
        rng = _block_rng(config.seed, block)
        # one draw buffer per block, and one sample buffer on the cross-section
        # paths, refilled chunk by chunk
        z = np.empty((min(rows, stop - start), draws))
        x = None if transform is None else np.empty((len(z), spec.n))
        with np.errstate(over="ignore", invalid="ignore"):  # checked once all blocks are done
            for lo in range(start, stop, rows):
                size = min(rows, stop - lo)
                rng.standard_normal(out=z[:size])
                chunk = z[:size, 1:] if transform is None else transform(z[:size], x[:size])
                values[lo:lo + size] = dispersion_values(chunk)

    n_blocks = (reps + REPLICATION_BLOCK - 1) // REPLICATION_BLOCK
    if scale == 0.0:
        values.fill(0.0)  # every cross-section is constant
    elif workers > 1:
        with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
            list(pool.map(run_block, range(n_blocks)))
    else:
        for block in range(n_blocks):
            run_block(block)

    with np.errstate(over="ignore", invalid="ignore"):
        if scale is not None:
            values *= scale
        mean_vn = float(values.mean())
        var_vn = float(values.var(ddof=1)) if reps > 1 else float("nan")
    if not (math.isfinite(mean_vn) and (reps == 1 or math.isfinite(var_vn))):
        raise NumericalError("simulated mean_vn or var_vn is outside the range of a double")
    se_vn = math.sqrt(var_vn / reps) if reps > 1 else float("nan")
    return SimResult(
        mean_vn=mean_vn,
        se_vn=se_vn,
        var_vn=var_vn,
        config=config,
        per_rep=values if keep_per_rep else None,
    )


def spawn_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent 64-bit child seeds of ``seed``, for runs that share no draws."""
    return [
        int(child.generate_state(1, np.uint64)[0])
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


def variance_decay_study(
    rho: float,
    sigma: float,
    n_list: list[int],
    reps: int,
    seed: int,
    workers: int = 1,
) -> dict[int, SimResult]:
    """Simulated dispersion for a range of universe sizes.

    Each n gets an independent child seed derived from ``seed``, so the
    per-size estimates share nothing. The steady shrinkage of var_vn with
    n is the self-averaging check: cross-sectional dispersion of a
    homogeneous universe concentrates around its expectation.
    """
    out: dict[int, SimResult] = {}
    for n, child_seed in zip(n_list, spawn_seeds(seed, len(n_list))):
        spec = CorrelationSpec.equicorrelated(n, rho, sigma)
        out[n] = simulate_dispersion(
            SimConfig(spec=spec, reps=reps, seed=child_seed), workers=workers
        )
    return out

