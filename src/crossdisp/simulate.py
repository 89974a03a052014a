"""Seeded Monte Carlo for the cross-sectional dispersion of Gaussian returns.

Replications are drawn from SFC64 streams keyed by SeedSequence:
replication r lives in block r // REPLICATION_BLOCK (1024 replications),
and each block's stream is seeded by SeedSequence(seed, spawn_key=(block,)),
a function of (seed, block index) alone. Every replication's draws are
therefore a pure function of the seed and its own index, so results are
bit-identical no matter how many workers execute the blocks or in which
order they finish. With ``workers`` > 1 the blocks are dealt round-robin
to min(workers, blocks) pool tasks, so a run of more than one block
already uses more than one thread.

Inside a block, the stream is walked in chunks of rows of n draws
holding about CHUNK_BYTES; each chunk is drawn, transformed and reduced
to its dispersions before the next is drawn. numpy fills normals in
stream order, so consecutive chunk draws equal one whole-block draw bit
for bit: equicorrelation gives the same values as drawing the block at
once, and a row-chunked ``z @ root`` may differ from it only in the last
bits. Each task allocates one draw buffer and refills it in place for
every chunk of every block it runs, which also keeps the allocator from
handing pages back and faulting them in again. Memory is about two
chunks per worker (draws and the variance step's deviations; a full
matrix adds its samples and its n x n square root) plus 8 bytes per
replication for ``SimResult.per_rep``, whatever the replication count.

Sampling honors the declared correlation structure exactly. An
equicorrelation matrix R has the closed-form symmetric square root

    R^(1/2) = sqrt(1 - rho) I + b J,  b = rho / (sqrt(1 + (n - 1) rho) + sqrt(1 - rho)),

at every feasible rho, so its cross-sections are formed in place, in
O(n) per row, as X_i = m_i + sigma_i (sqrt(1 - rho) z_i + b sum_j z_j).
A full matrix goes through an eigendecomposition of its covariance.
Infeasible structures (smallest correlation eigenvalue below -1e-10) are
rejected by one gate, before anything is drawn and whatever the sigmas:
both entry points take their sampling plan from ``_make_sampler``.

A homogeneous universe (equicorrelation with one sigma and one mean,
which is what the CLI and ``variance_decay_study`` build) is never
turned into cross-sections. Its common term m + sigma b sum_j z_j is the
same for every stock and cancels in the variance:

    V_N = (1 - rho) sigma^2 Var_i(z_i).

So each chunk's draws are reduced straight from the draw buffer, and the
values are scaled by (1 - rho) sigma^2 once all blocks are done; they
agree with the cross-section's to rounding. A zero scale (rho = 1, or a
scale that underflows) gives exact zeros and draws nothing.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NotPSD, NumericalError, TooFewStocks, ZeroReps
from .panel import CHUNK_BYTES, FloatArray, _doubles, _eq_by_value, _freeze, dispersion_values
from .theory import CorrelationSpec, Equicorrelation

REPLICATION_BLOCK = 1024
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
    per-replication dispersion ``per_rep`` (a read-only array), plus the
    generating config. se_vn is sqrt(var_vn / reps)."""

    mean_vn: float
    se_vn: float
    var_vn: float
    config: SimConfig
    per_rep: FloatArray
    __eq__ = _eq_by_value

    def __post_init__(self) -> None:
        _freeze(self, per_rep=np.float64)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    min_eigenvalue: float
    detail: str


def validate_feasibility(spec: CorrelationSpec) -> FeasibilityReport:
    """Check that the correlation structure is realizable.

    Equicorrelation is feasible iff rho >= -1/(n-1); full matrices are
    checked through their smallest eigenvalue, with negative eigenvalues
    above -FEASIBILITY_TOL treated as rounding and clipped to zero at sampling time.
    """
    smallest = spec.min_correlation_eigenvalue()
    if smallest >= -FEASIBILITY_TOL:
        return FeasibilityReport(True, smallest, "feasible")
    if isinstance(spec.structure, Equicorrelation):
        bound = -1.0 / (spec.n - 1) if spec.n > 1 else -1.0
        detail = (
            f"equicorrelation rho={spec.structure.rho} below the realizable "
            f"bound -1/(n-1) = {bound} for n={spec.n}"
        )
    else:
        detail = f"correlation matrix has eigenvalue {smallest} < -{FEASIBILITY_TOL}"
    return FeasibilityReport(False, smallest, detail)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _symmetric_sqrt(spec: CorrelationSpec) -> FloatArray:
    eigvals, eigvecs = np.linalg.eigh(spec.covariance_matrix())
    rooted = np.sqrt(np.clip(eigvals, 0.0, None))
    return (eigvecs * rooted) @ eigvecs.T


def _make_sampler(spec: CorrelationSpec):
    """The sampling plan of ``spec``, (transform, scale), behind the one
    feasibility gate: an infeasible spec raises NotPSD with the detail of
    ``validate_feasibility``. transform(z) turns a (rows, n) standard-normal
    matrix z into correlated samples; equicorrelation overwrites z in place
    and returns it, a full matrix returns a new matrix. scale is
    (1 - rho) sigma^2 for a homogeneous equicorrelated spec, whose draws
    need no transform, else None; it overflows to inf rather than raising,
    so an out-of-range dispersion ends in a NumericalError."""
    report = validate_feasibility(spec)
    if not report.feasible:
        raise NotPSD(report.detail)
    means = spec.means
    sigmas = spec.sigmas
    structure = spec.structure
    if isinstance(structure, Equicorrelation):
        rho = structure.rho
        # R^(1/2) = w I + b J: R has eigenvalue 1 - rho, and 1 + (n - 1) rho
        # along the all-ones direction
        w = math.sqrt(1.0 - rho)
        b = rho / (math.sqrt(max(0.0, 1.0 + (spec.n - 1) * rho)) + w)

        def equicorrelated(z: FloatArray) -> FloatArray:
            # m + sigma (w z + b sum(z)), rounded as the plain formula is
            common = z.sum(axis=1, keepdims=True)
            common *= b
            z *= w
            z += common
            z *= sigmas
            z += means
            return z

        homogeneous = np.all(sigmas == sigmas[0]) and np.all(means == means[0])
        idio_sigma = w * float(sigmas[0])
        return equicorrelated, idio_sigma * idio_sigma if homogeneous else None

    root = _symmetric_sqrt(spec)

    def general(z: FloatArray) -> FloatArray:
        x = z @ root
        x += means
        return x

    return general, None


def sample_gaussian_matrix(
    spec: CorrelationSpec, rng: np.random.Generator, rows: int
) -> FloatArray:
    """Stack of ``rows`` independent cross-sections, one per row; an
    infeasible spec raises NotPSD before anything is drawn."""
    transform, _ = _make_sampler(spec)
    return transform(rng.standard_normal((rows, spec.n)))


# ---------------------------------------------------------------------------
# dispersion simulation
# ---------------------------------------------------------------------------


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # SeedSequence hashes (seed, block) into the SFC64 state, so the streams
    # of neighbouring blocks or seeds share no structure
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(block,)))
    )


def simulate_dispersion(config: SimConfig, workers: int = 1) -> SimResult:
    """Monte Carlo estimate of the expected cross-sectional dispersion.

    Draws ``config.reps`` independent cross-sections and computes the
    population variance of each via the panel module; a homogeneous
    equicorrelated spec reduces its draws directly (module docstring).
    The feasibility gate runs first and infeasible structures raise
    NotPSD; fewer than two stocks raise TooFewStocks, and a mean or
    variance outside the range of a double raises NumericalError.
    ``workers`` only sets how many threads execute the replication
    blocks; it never changes the result.
    """
    if config.reps < 1:
        raise ZeroReps(config.reps)
    spec = config.spec
    transform, scale = _make_sampler(spec)
    if spec.n < 2:
        raise TooFewStocks(spec.n, 2)
    rows = max(1, CHUNK_BYTES // (8 * spec.n))
    reps = config.reps
    values = _doubles(reps)

    n_blocks = (reps + REPLICATION_BLOCK - 1) // REPLICATION_BLOCK
    tasks = max(1, min(workers, n_blocks))

    def run_task(task: int) -> None:
        # one draw buffer for the task, refilled chunk by chunk in every block
        z = np.empty((min(rows, REPLICATION_BLOCK, reps), spec.n))
        with np.errstate(over="ignore", invalid="ignore"):  # checked once all blocks are done
            for block in range(task, n_blocks, tasks):
                start = block * REPLICATION_BLOCK
                stop = min(start + REPLICATION_BLOCK, reps)
                rng = _block_rng(config.seed, block)
                for lo in range(start, stop, rows):
                    size = min(rows, stop - lo)
                    rng.standard_normal(out=z[:size])
                    chunk = z[:size] if scale is not None else transform(z[:size])
                    values[lo:lo + size] = dispersion_values(chunk)

    if scale == 0.0:
        values.fill(0.0)  # every cross-section is constant
    elif workers > 1:
        with ThreadPoolExecutor(max_workers=tasks) as pool:
            list(pool.map(run_task, range(tasks)))
    else:
        run_task(0)

    with np.errstate(over="ignore", invalid="ignore"):
        if scale is not None:
            values *= scale
        mean_vn = float(values.mean())
        var_vn = float(values.var(ddof=1)) if reps > 1 else float("nan")
    if not (math.isfinite(mean_vn) and (reps == 1 or math.isfinite(var_vn))):
        raise NumericalError("simulated mean_vn or var_vn is outside the range of a double")
    se_vn = math.sqrt(var_vn / reps) if reps > 1 else float("nan")
    values.setflags(write=False)  # so that SimResult adopts it
    return SimResult(
        mean_vn=mean_vn,
        se_vn=se_vn,
        var_vn=var_vn,
        config=config,
        per_rep=values,
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

