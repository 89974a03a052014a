"""Benchmark workloads: seeded inputs, CLI arguments and output checks.

Every panel comes from ``crossdisp.synthetic.bubble_panel`` with the
workload seed and a boosted cohort of 10% of the stocks; the boost window
sits at the same fractions of the panel length as in the ROADMAP baseline
(boost from 40% to 60% of the days, reversion over the next 12%).

Each check compares the CLI's output with a reference computed here with
plain numpy from the float64 panel. The CSV the CLI reads round-trips
those doubles exactly (shortest-repr floats), so the tolerances below
only absorb a change of summation order inside the program, never a
change of input.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

K_FRACTION = 0.10  # the CLI's default --k-fraction
MIN_N = 10  # the CLI's default KPolicy.min_n
RTOL = 1e-9
ATOL = 1e-15
SAMPLE_DATES = 12  # Hill checks per reference date
SAMPLE_KS = 40  # k,alpha rows checked in a Hill sweep
SIGMA = 1.0  # the CLI's default --sigma


def panel_params(n_stocks: int, n_days: int) -> dict[str, int]:
    return {
        "n_stocks": n_stocks,
        "n_boosted": n_stocks // 10,
        "n_days": n_days,
        "boost_start": n_days * 40 // 100,
        "boost_end": n_days * 60 // 100,
        "reversion_days": n_days * 12 // 100,
    }


def make_panel(params: dict[str, int], seed: int):
    from crossdisp.synthetic import bubble_panel

    return bubble_panel(seed=seed, **params)


@dataclass
class Run:
    """One run's generated input, as the workload's argv and checks need it."""

    seed: int
    dates: tuple[dt.date, ...] = ()
    prices: np.ndarray | None = None
    panel_path: Path | None = None
    panel_digest: str | None = None


# ---------------------------------------------------------------------------
# numpy references
# ---------------------------------------------------------------------------


def performance(prices: np.ndarray, row: int) -> np.ndarray:
    """Rows from ``row`` on, divided by the prices at ``row`` (drop-at-ref)."""
    ref = prices[row]
    keep = np.isfinite(ref)
    return prices[row:, keep] / ref[keep]


def dispersion_reference(values: np.ndarray):
    """Per-row mean, population variance and count of present values."""
    count = np.isfinite(values).sum(axis=1)
    with np.errstate(invalid="ignore"):
        return np.nanmean(values, axis=1), np.nanvar(values, axis=1), count


def hill_alpha(ordered: np.ndarray, k: int) -> float | None:
    """Plain Hill formula on an ascending sample; None when degenerate."""
    n = ordered.size
    mean_log_excess = float(np.mean(np.log(ordered[n - k:] / ordered[n - k - 1])))
    return None if mean_log_excess == 0.0 else 1.0 / mean_log_excess


def hill_reference(row: np.ndarray) -> tuple[float, int, int] | None:
    """(alpha, k, n) the per-date tail series should report, or None for a gap."""
    x = np.sort(row[np.isfinite(row)])
    n = x.size
    if n < MIN_N:
        return None
    k = min(max(math.ceil(K_FRACTION * n), 1), n - 1)
    alpha = hill_alpha(x, k)
    return None if alpha is None else (alpha, k, n)


def sample_indices(n: int, count: int) -> list[int]:
    return sorted({int(round(i)) for i in np.linspace(0, n - 1, min(count, n))})


def _num(cell: Any) -> float:
    return math.nan if cell in ("", None) else float(cell)


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=RTOL, atol=ATOL, equal_nan=True)
    )


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[:1]} is not {header}")
    return rows[1:]


def check_series(
    what: str,
    values: np.ndarray,
    dates: tuple[dt.date, ...],
    disp_rows: list[tuple[str, Any, Any, Any]],
    tail_rows: list[tuple[str, Any, Any, Any, Any]],
) -> list[str]:
    """Dispersion on every date and Hill on a sample of dates for one
    reference date. Rows are (date, mean, variance, count) and
    (date, alpha, k, n, method), with None or '' for undefined cells."""
    problems: list[str] = []
    want_dates = [d.isoformat() for d in dates]
    if [r[0] for r in disp_rows] != want_dates:
        return [f"{what}: dispersion dates differ from the panel's"]
    if [r[0] for r in tail_rows] != want_dates:
        return [f"{what}: tail dates differ from the panel's"]
    mean, var, count = dispersion_reference(values)
    if not _close(np.array([_num(r[1]) for r in disp_rows]), mean):
        problems.append(f"{what}: dispersion mean differs from the reference")
    if not _close(np.array([_num(r[2]) for r in disp_rows]), var):
        problems.append(f"{what}: dispersion variance differs from the reference")
    if [int(r[3]) for r in disp_rows] != count.tolist():
        problems.append(f"{what}: dispersion count differs from the reference")
    for i in sample_indices(len(dates), SAMPLE_DATES):
        want = hill_reference(values[i])
        row = tail_rows[i]
        if want is None:
            if row[1] not in ("", None):
                problems.append(f"{what}: {row[0]} should be a tail gap")
            continue
        alpha, k, n = want
        if row[1] in ("", None) or not _close(np.array(_num(row[1])), np.array(alpha)):
            problems.append(f"{what}: {row[0]} alpha {row[1]} is not {alpha!r}")
        elif (int(row[2]), int(row[3]), row[4]) != (k, n, "hill"):
            problems.append(f"{what}: {row[0]} k/n/method {row[2:]} is not {(k, n, 'hill')}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A fixed CLI invocation over a seeded input, with its output check.

    ``outputs`` names the files (under the invocation's directory) whose
    bytes, after stdout, make up the invocation's output for the
    determinism check. ``variants`` are extra argument lists that must
    produce byte-identical output; they are run once and left out of the
    timings.
    """

    name: str
    panel: dict[str, int] | None
    threads: int = 1
    outputs: tuple[str, ...] = ()
    params: dict[str, Any] = field(default_factory=dict)

    def argv(self, run: Run, out: Path) -> list[str]:
        raise NotImplementedError

    def variants(self, run: Run) -> list[list[str]]:
        return []

    def check(self, run: Run, out: Path, stdout: bytes) -> list[str]:
        raise NotImplementedError


class AnalyzeWide(Workload):
    def argv(self, run, out):
        return ["analyze", str(run.panel_path), "--tref", run.dates[0].isoformat(),
                "--format", "csv", "--out", str(out / "analyze")]

    def check(self, run, out, stdout):
        disp = _read_csv(out / "analyze.dispersion.csv", ["date", "mean", "variance", "count"])
        tail = _read_csv(out / "analyze.tail.csv", ["date", "alpha", "k", "n", "method"])
        _read_csv(out / "analyze.extremes.csv", ["date", "kind", "value", "window"])
        return check_series("analyze", performance(run.prices, 0), run.dates, disp, tail)


class SweepTall(Workload):
    def argv(self, run, out):
        years = f"{run.dates[0].year}-{run.dates[-1].year}"
        return ["sweep", str(run.panel_path), "--years", years, "--out", str(out / "sweep.json")]

    def check(self, run, out, stdout):
        doc = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        first_rows: dict[int, int] = {}
        for i, when in enumerate(run.dates):
            first_rows.setdefault(when.year, i)
        rows = sorted(first_rows.values())
        series = doc.get("series", [])
        if doc.get("meta", {}).get("kind") != "sweep":
            return ["sweep: report kind is not 'sweep'"]
        if [e["ref_date"] for e in series] != [run.dates[r].isoformat() for r in rows]:
            return ["sweep: reference dates are not the first day of each year"]
        problems: list[str] = []
        for row, entry in zip(rows, series):
            disp = [(r["date"], r["mean"], r["variance"], r["count"]) for r in entry["dispersion"]]
            tail = [(r["date"], r["alpha"], r["k"], r["n"], r["method"]) for r in entry["tail"]]
            problems += check_series(f"sweep {entry['ref_date']}",
                                     performance(run.prices, row), run.dates[row:], disp, tail)
        return problems


class SurvivalHill(Workload):
    def argv(self, run, out):
        return ["survival", str(run.panel_path), "--tref", run.dates[0].isoformat(),
                "--date", run.dates[-1].isoformat(), "--hill-sweep", str(out / "hill.csv"),
                "--out", str(out / "survival.csv")]

    def check(self, run, out, stdout):
        x = np.sort(performance(run.prices, 0)[-1])
        n = x.size
        problems: list[str] = []
        steps = _read_csv(out / "survival.csv", ["z", "survival"])
        zs = np.unique(x)
        surv = (n - np.searchsorted(x, zs, side="right")) / n
        got = np.array([[_num(c) for c in r] for r in steps]).reshape(-1, 2)
        if not (_close(got[:, 0], zs) and _close(got[:, 1], surv)):
            problems.append("survival: step points differ from the reference")
        hill = _read_csv(out / "hill.csv", ["k", "alpha"])
        if [int(r[0]) for r in hill] != list(range(1, n)):
            return problems + [f"survival: hill sweep k column is not 1..{n - 1}"]
        for i in sample_indices(len(hill), SAMPLE_KS):
            k, alpha = int(hill[i][0]), _num(hill[i][1])
            want = hill_alpha(x, k)
            if want is None or not _close(np.array(alpha), np.array(want)):
                problems.append(f"survival: hill k={k} alpha {alpha!r} is not {want!r}")
        return problems


class SimulateRho(Workload):
    def _argv(self, run, workers):
        p = self.params
        return ["simulate", "--n", str(p["n"]), "--m-reps", str(p["m_reps"]),
                "--table", "rho-sweep", "--seed", str(run.seed), "--workers", str(workers)]

    def argv(self, run, out):
        return self._argv(run, self.threads)

    def variants(self, run):
        return [self._argv(run, 1)]

    def check(self, run, out, stdout):
        n, reps = self.params["n"], self.params["m_reps"]
        lines = stdout.decode("utf-8").splitlines()
        if not lines or lines[0] != f"n={n} reps={reps} sigma={SIGMA!r} seed={run.seed}":
            return [f"simulate: unexpected first line {lines[:1]}"]
        rows = [line.split() for line in lines[2:]]
        grid = [i / 5.0 - 1.0 for i in range(11)]
        if [round(float(r[0]), 1) for r in rows] != [round(r, 1) for r in grid]:
            return ["simulate: rho column is not -1.0, -0.8, ..., 1.0"]
        problems: list[str] = []
        for rho, (_, mean_s, se_s, expected_s, source) in zip(grid, rows):
            closed = (1.0 - 1.0 / n) * (1.0 - rho) * SIGMA * SIGMA
            # stdout keeps 7 significant digits; at rho=1 every draw's
            # dispersion is 0 up to rounding of the row mean.
            printed = 1e-6 * abs(closed) + 1e-12 * SIGMA * SIGMA
            mean, expected = float(mean_s), float(expected_s)
            if abs(expected - closed) > printed:
                problems.append(f"simulate: rho={rho:.1f} expected {expected} is not {closed!r}")
            if rho < -1.0 / (n - 1):
                if source != "analytic" or se_s != "-" or abs(mean - closed) > printed:
                    problems.append(f"simulate: rho={rho:.1f} should be the analytic closed form")
            elif source != "simulated":
                problems.append(f"simulate: rho={rho:.1f} should be simulated")
            elif abs(mean - closed) > 5.0 * float(se_s) + printed:
                problems.append(f"simulate: rho={rho:.1f} mean {mean} is more than 5 se from {closed!r}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        AnalyzeWide(
            name="analyze-wide",
            panel=panel_params(1200, 750),
            outputs=("analyze.dispersion.csv", "analyze.tail.csv", "analyze.extremes.csv"),
        ),
        SweepTall(
            name="sweep-tall",
            panel=panel_params(50, 5000),
            outputs=("sweep.json",),
        ),
        SurvivalHill(
            name="survival-hill",
            panel=panel_params(16000, 40),
            outputs=("survival.csv", "hill.csv"),
        ),
        SimulateRho(
            name="simulate-rho",
            panel=None,
            threads=2,
            params={"n": 1000, "m_reps": 8192},
        ),
    )
}
