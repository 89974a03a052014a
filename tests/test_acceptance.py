"""End-to-end checks of the shipped guarantees, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every randomized check uses a frozen seed, so verdicts are reproducible
bit for bit.
"""

import datetime as dt
import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from crossdisp import (
    CorrelationSpec,
    Equicorrelation,
    FullMatrix,
    NonFiniteVariance,
    NotPSD,
    SimConfig,
    bubble_panel,
    cross_sectional_moments,
    detect_extremes,
    dispersion_series,
    expected_dispersion,
    hill_estimator,
    normalize_panel,
    pairwise_dispersion,
    pareto_variance,
    simulate_dispersion,
    survival_curve,
    survival_value,
    tail_series,
    validate_feasibility,
    variance_decay_study,
)
from crossdisp.tails import KPolicy, LOCAL_MINIMUM

from conftest import pareto_grid

# reference table for a 1000-stock universe, 100 replications
PRINTED_MEAN_VN = {
    -1.0: 1.997,
    -0.8: 1.808,
    -0.6: 1.595,
    -0.4: 1.393,
    -0.2: 1.199,
    0.0: 0.999,
    0.2: 0.797,
    0.4: 0.603,
    0.6: 0.400,
    0.8: 0.199,
}
PRINT_TOL = 0.015


def verdict(tag: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"{tag}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{tag}{suffix}"


def test_c01_correlation_table_reproduction():
    started = time.time()
    feasible = [0.0, 0.2, 0.4, 0.6, 0.8]
    children = np.random.SeedSequence(20240817).spawn(len(feasible))
    worst_print = 0.0
    worst_z = 0.0
    for rho, child in zip(feasible, children):
        seed = int(child.generate_state(1, np.uint64)[0])
        spec = CorrelationSpec.equicorrelated(1000, rho)
        res = simulate_dispersion(SimConfig(spec=spec, reps=100, seed=seed))
        worst_print = max(worst_print, abs(res.mean_vn - PRINTED_MEAN_VN[rho]))
        worst_z = max(worst_z, abs(res.mean_vn - expected_dispersion(spec)) / res.se_vn)
    elapsed = time.time() - started
    verdict(
        "c01 correlation table reproduction",
        worst_print < PRINT_TOL and worst_z < 4.0 and elapsed < 30.0,
        f"max |mean - printed| {worst_print:.4f} < {PRINT_TOL}, "
        f"max z {worst_z:.2f} < 4, {elapsed:.1f}s",
    )


def test_c02_full_correlation_degenerates():
    spec = CorrelationSpec.equicorrelated(1000, 1.0)
    res = simulate_dispersion(SimConfig(spec=spec, reps=100, seed=20240817))
    verdict(
        "c02 rho=1 collapses dispersion",
        res.mean_vn <= 1e-10,
        f"mean {res.mean_vn:.2e} <= 1e-10",
    )


def test_c03_infeasible_rows_fall_back_to_closed_form():
    rhos = [-1.0, -0.8, -0.6, -0.4, -0.2]
    worst = 0.0
    rejected = 0
    for rho in rhos:
        spec = CorrelationSpec.equicorrelated(1000, rho)
        assert not validate_feasibility(spec).feasible
        worst = max(worst, abs(expected_dispersion(spec) - PRINTED_MEAN_VN[rho]))
        try:
            simulate_dispersion(SimConfig(spec=spec, reps=2, seed=0))
        except NotPSD:
            rejected += 1
    verdict(
        "c03 infeasible rho handled analytically",
        worst < PRINT_TOL and rejected == len(rhos),
        f"max |analytic - printed| {worst:.4f} < {PRINT_TOL}, "
        f"sampler rejected {rejected}/{len(rhos)}",
    )


def test_c04_pairwise_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        x = scale * rng.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 3.0), n)
        a = pairwise_dispersion(x)
        b = cross_sectional_moments(x).variance
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    verdict(
        "c04 pairwise-difference identity",
        worst < 1e-10,
        f"max rel diff {worst:.2e} < 1e-10 over 1000 vectors",
    )


def _random_spec(rng: np.random.Generator) -> CorrelationSpec:
    n = int(rng.integers(2, 9))
    means = rng.uniform(-1.0, 1.0, n)
    sigmas = rng.uniform(0.3, 2.0, n)
    if rng.random() < 0.5:
        rho = float(rng.uniform(-1.0 / (n - 1), 1.0))
        return CorrelationSpec(n, means, sigmas, structure=Equicorrelation(rho))
    a = rng.standard_normal((n, n + 2))
    cov = a @ a.T + 1e-6 * np.eye(n)
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return CorrelationSpec(n, means, sigmas, structure=FullMatrix(corr))


def test_c05_simulated_mean_matches_formula():
    kids = np.random.SeedSequence(20250819).spawn(21)
    rng = np.random.default_rng(kids[0])
    worst_z = 0.0
    for child in kids[1:]:
        spec = _random_spec(rng)
        assert validate_feasibility(spec).feasible
        seed = int(child.generate_state(1, np.uint64)[0])
        res = simulate_dispersion(SimConfig(spec=spec, reps=1_000_000, seed=seed))
        worst_z = max(worst_z, abs(res.mean_vn - expected_dispersion(spec)) / res.se_vn)
    verdict(
        "c05 simulation matches moment formula",
        worst_z < 4.0,
        f"max z {worst_z:.2f} < 4 over 20 random universes, 1e6 reps each",
    )


def test_c06_hill_recovers_known_exponents():
    # deterministic oracle on a Pareto quantile grid
    grid_alpha = hill_estimator(pareto_grid(1000, 2.5), 100).alpha
    grid_ok = abs(grid_alpha - 2.5569515932168203) < 1e-12 * 2.56

    k, n = 1000, 100_000
    counts = {}
    for alpha in (1.5, 2.5, 4.0):
        children = np.random.SeedSequence([424242, int(alpha * 10)]).spawn(100)
        tol = 3.0 * alpha / np.sqrt(k)
        hits = 0
        for child in children:
            rng = np.random.default_rng(child)
            x = 1.0 + rng.pareto(alpha, n)
            if abs(hill_estimator(x, k).alpha - alpha) <= tol:
                hits += 1
        counts[alpha] = hits
    verdict(
        "c06 tail exponent recovery",
        grid_ok and all(h >= 99 for h in counts.values()),
        f"grid oracle diff {abs(grid_alpha - 2.5569515932168203):.1e}, "
        f"coverage {counts} (>=99/100 each)",
    )


def test_c07_pareto_variance_formula():
    exact = pareto_variance(3.0) == 0.75
    raised = 0
    for alpha in (2.0, 1.0, 0.5):
        try:
            pareto_variance(alpha)
        except NonFiniteVariance:
            raised += 1
    grid = np.linspace(2.05, 30.0, 300)
    values = [pareto_variance(a) for a in grid]
    monotone = all(u > v for u, v in zip(values, values[1:]))
    verdict(
        "c07 heavy-tail variance formula",
        exact and raised == 3 and monotone,
        f"exact at alpha=3: {exact}, raised {raised}/3 below 2, "
        f"strictly decreasing above 2: {monotone}",
    )


def test_c08_survival_function_definition():
    alphabet = (0.5, 1.0, 2.5)
    probes = np.array([0.25, 0.5, 0.75, 1.0, 1.75, 2.5, 3.0])
    checked = 0
    exact = True
    for size in range(1, 7):
        for tup in itertools.product(alphabet, repeat=size):
            xs = np.array(tup)
            curve = survival_curve(xs)
            evaluated = curve.evaluate(probes)
            for z, ev in zip(probes, evaluated):
                brute = sum(1 for v in tup if v > z) / size
                exact = exact and survival_value(xs, z) == brute and ev == brute
            checked += 1
    rng = np.random.default_rng(8)
    for _ in range(200):
        xs = rng.lognormal(0.0, 1.0, int(rng.integers(1, 51)))
        zs = np.concatenate([xs, rng.uniform(0.0, 5.0, 5)])
        curve = survival_curve(xs)
        for z in zs:
            brute = int(np.sum(xs > z)) / xs.size
            exact = exact and survival_value(xs, z) == brute and curve.evaluate(z) == brute
        checked += 1
    verdict(
        "c08 survival function counts strict exceedances",
        exact and checked == 1092 + 200,
        f"{checked} cross-sections, exhaustive over 3-letter alphabets to size 6",
    )


def test_c09_dispersion_concentrates_with_size():
    study = variance_decay_study(rho=0.2, sigma=1.0, n_list=[10, 100], reps=2000, seed=1729)
    ratio = study[10].var_vn / study[100].var_vn
    verdict(
        "c09 dispersion noise shrinks with universe size",
        5.0 < ratio < 20.0,
        f"var ratio n=10 vs n=100: {ratio:.2f} in (5, 20)",
    )


def test_c10_synthetic_bubble_timeline():
    started = time.time()
    panel = bubble_panel()
    boost_start = panel.dates[150]
    boost_end = panel.dates[260]
    limit = boost_end + dt.timedelta(days=10)
    ok = True
    details = []
    for row in (0, 40, 80):
        ref = panel.dates[row]
        perf = normalize_panel(panel, ref)
        disp = dispersion_series(perf)
        peak = disp.dates[int(np.nanargmax(disp.variance))]
        tails = tail_series(perf, KPolicy())
        events = detect_extremes(tails.alpha, 20, dates=perf.dates)
        minima = [
            e for e in events
            if e.kind == LOCAL_MINIMUM and boost_start <= e.date <= limit
        ]
        ok = ok and boost_start <= peak <= limit and len(minima) >= 1
        details.append(f"ref {ref}: peak {peak}, {len(minima)} tail minima in window")
    elapsed = time.time() - started
    verdict(
        "c10 bubble timing recovered",
        ok and elapsed < 60.0,
        "; ".join(details) + f"; {elapsed:.1f}s",
    )


def test_c11_cli_determinism(tmp_path):
    base = [
        sys.executable, "-m", "crossdisp", "simulate", "--table", "rho-sweep",
        "--n", "200", "--m-reps", "40", "--seed", "99", "--format", "csv",
    ]
    outs = []
    files = []
    for i, extra in enumerate(([], [], ["--workers", "4"])):
        path = tmp_path / f"run{i}.csv"
        proc = subprocess.run(
            base + ["--out", str(path)] + extra,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
        files.append(path.read_bytes())
    verdict(
        "c11 command line output is reproducible",
        outs[0] == outs[1] == outs[2] and files[0] == files[1] == files[2],
        "stdout and written files byte-identical across reruns and worker counts",
    )
