"""crossdisp CLI benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One run alternates set-ups and CLI
invocations for S seconds, so that both are sampled over the whole run:

1. Set-up: a fresh interpreter imports crossdisp, generates the
   workload's panel from the seed and writes it as CSV. Every set-up of
   the run must write the same bytes. ``setup_s`` is the median of the
   set-ups' spawn-to-exit times.
2. After the first set-up, the checked invocation of ``python -m
   crossdisp`` (with PYTHONPATH=src), whose output is compared with a
   numpy reference, plus any variant that must give the same bytes
   (simulate at --workers 1). The variants are not timed.
3. Then one set-up and one timed invocation after the other, in a closed
   loop with one client, until S seconds have passed since the start
   (at least MIN_CYCLES of each). Every output must be byte-identical to
   the checked one. ``wall_s`` and ``cpu_s`` are means over the timed
   invocations, the checked one included.
   Each timed sample is scaled to a reference host speed by ``probe``,
   timed before the first spawn and after every spawn.
4. With --trace 1, one more invocation through bench/tracer.py, which
   wraps each layer's functions and yields the per-layer metrics.

A single-threaded workload's run, set-up included, is pinned to one CPU.
Every process above is spawned through the helper bench/launch.py.

The last line of stdout is the JSON result; the lines before it give the
provenance, the timing samples and, when traced, the layer table. The same
report is written to .bench_work/results/. Inputs are generated afresh in
every run and deleted at its end, so no input is reused across commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from tracer import summarize
from workloads import WORKLOADS, Run, make_panel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_CYCLES = 4  # set-ups and timed invocations a run makes at least
PROBE_LOOPS = 2_000_000
PROBE_REF_S = 0.09  # the probe's CPU time at the reference host speed
INVOKE_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0  # stop starting timed invocations after this long
CLI = [sys.executable, "-m", "crossdisp"]


@dataclass
class Invocation:
    argv: list[str]
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int | None = None
    digest: str = ""
    output_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One thread per invocation except the simulator's own pool.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Launcher:
    """The spawn helper bench/launch.py as a co-process, through which the
    harness starts every measured process.

    A child's ``ru_maxrss`` starts at its parent's peak RSS, so the helper
    is started while the harness is still small (after its imports, about
    34 MB with numpy; any crossdisp run peaks well above that) and before
    it generates panels or checks outputs.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def spawn(self, cmd: list[str], stdout: Path, stderr: Path,
              timeout: float = INVOKE_TIMEOUT_S) -> dict:
        """Run ``cmd`` to completion; return its wall_s, exit_code, cpu_s and
        maxrss_kb."""
        request = {"cmd": cmd, "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": timeout, "env": child_env(), "cwd": str(ROOT)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawn helper exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def probe() -> float:
    """CPU seconds of a fixed pure-Python loop: how fast the host runs
    this process's CPU right now."""
    t0 = time.process_time()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.process_time() - t0


def invoke(launcher: Launcher, workload, prefix: list[str], argv: list[str],
           out: Path) -> Invocation:
    """One invocation writing into the existing directory ``out``; reads
    back its stdout and output files."""
    inv = Invocation(argv=argv)
    done = launcher.spawn(prefix + argv, out / "stdout", out / "stderr")
    inv.wall_s, inv.exit_code, inv.cpu_s = done["wall_s"], done["exit_code"], done["cpu_s"]
    inv.rss_mb = done["maxrss_kb"] / 1024.0  # ru_maxrss is in KiB on Linux
    if inv.exit_code != 0:
        tail = (out / "stderr").read_bytes().decode("utf-8", "replace").strip().splitlines()
        inv.problems.append(f"exit code {inv.exit_code}: {tail[-1] if tail else ''}")
        return inv
    digest = hashlib.sha256()
    for name in ("stdout",) + workload.outputs:
        path = out / name
        if not path.is_file():
            inv.problems.append(f"missing output {name}")
            continue
        data = path.read_bytes()
        digest.update(name.encode() + b"\0" + data)
        inv.output_bytes += len(data)
    inv.digest = digest.hexdigest()
    return inv


class Ledger:
    """Every invocation a run attempts. A failure is a non-zero exit, a
    failed output check, or output that cannot be vouched for by the
    checked invocation: different bytes, or the checked one failed.
    ``failed / attempted`` is the run's failed fraction."""

    def __init__(self) -> None:
        self.invocations: list[Invocation] = []

    def record(self, inv: Invocation, reference: Invocation | None = None) -> Invocation:
        if inv.ok and reference is not None:
            if not reference.ok:
                inv.problems.append("the checked invocation failed")
            elif inv.digest != reference.digest:
                inv.problems.append("output bytes differ from the checked invocation")
        self.invocations.append(inv)
        return inv

    def failed(self) -> list[Invocation]:
        return [i for i in self.invocations if not i.ok]

    def lines(self) -> list[str]:
        failed = self.failed()
        return [f"failed_frac {len(failed)}/{len(self.invocations)}"] + [
            f"FAILED {' '.join(i.argv[:1])}: {'; '.join(i.problems[:5])}" for i in failed
        ]

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        failed = self.failed()
        return {
            "correct": not failed,
            "attempted": len(self.invocations),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def provenance(workload, run, check: Invocation) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history to ask
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": run.seed,
        "panel": workload.panel,
        "params": workload.params,
        "threads": workload.threads,
        "argv": check.argv,
        "csv_bytes": run.panel_path.stat().st_size if run.panel_path else 0,
        "matrix_bytes": int(run.prices.nbytes) if run.prices is not None else 0,
        "output_bytes": check.output_bytes,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
    }


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, better) in BENCHMARK.json order; values come from layer_metrics.
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("io.load_price_panel.s", "s", "lower"),
    ("io.load_price_panel.mb_per_s", "MB/s", "higher"),
    ("io.load_price_panel.rss_growth_mb", "MB", "lower"),
    ("io.tref_sweep.s", "s", "lower"),
    ("io.tref_sweep.self_s", "s", "lower"),
    ("panel.normalize_panel.s", "s", "lower"),
    ("panel.normalize_panel.calls", "count", "lower"),
    ("panel.dispersion_series.s", "s", "lower"),
    ("tails.tail_series.s", "s", "lower"),
    ("tails.tail_series.dates", "count", "higher"),
    ("tails.tail_series.estimated_frac", "ratio", "higher"),
    ("io.write_report.s", "s", "lower"),
    ("io.write_report.self_s", "s", "lower"),
    ("io.render_report.s", "s", "lower"),
    ("io.render_report.mb", "MB", "lower"),
    ("tails.detect_extremes.s", "s", "lower"),
    ("tails.detect_extremes.events", "count", "higher"),
    ("panel.survival_curve.s", "s", "lower"),
    ("tails.hill_k_sweep.s", "s", "lower"),
    ("tails.hill_k_sweep.k_per_s", "1/s", "higher"),
    ("tails.hill_k_sweep.estimated_frac", "ratio", "higher"),
    ("simulate.validate_feasibility.s", "s", "lower"),
    ("simulate.simulate_dispersion.s", "s", "lower"),
    ("simulate.simulate_dispersion.self_s", "s", "lower"),
    ("simulate.simulate_dispersion.draws_per_s", "1/s", "higher"),
    ("simulate.simulate_dispersion.parallel_eff", "ratio", "higher"),
    ("simulate.dispersion_values.s", "s", "lower"),
    ("synthetic.bubble_panel.s", "s", "lower"),
    ("io.write_price_panel.s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(table: dict, traced_wall: float, untraced_wall: float,
                  setup_reports: list[dict]) -> dict[str, float]:
    """Per-layer metric values from a trace summary. A layer the run did not
    call (or that no longer exists) reads 0."""

    def get(layer: str, key: str = "s") -> float:
        return table.get(layer, {}).get(key, 0.0)

    def count(layer: str, key: str) -> float:
        return table.get(layer, {}).get("counts", {}).get(key, 0)

    def setup_median(key: str) -> float:
        return statistics.median(r[key] for r in setup_reports)

    load_s = get("io.load_price_panel")
    sim_s = get("simulate.simulate_dispersion")
    sim_calls = get("simulate.simulate_dispersion", "calls")
    workers = _ratio(count("simulate.simulate_dispersion", "workers"), sim_calls)
    return {
        "cli.import_s": setup_median("import_s"),
        "cli.self_s": get("cli.main", "self_s"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "io.load_price_panel.s": load_s,
        "io.load_price_panel.mb_per_s": _ratio(count("io.load_price_panel", "bytes") / 1e6, load_s),
        "io.load_price_panel.rss_growth_mb": get("io.load_price_panel", "rss_growth_kb") / 1024.0,
        "io.tref_sweep.s": get("io.tref_sweep"),
        "io.tref_sweep.self_s": get("io.tref_sweep", "self_s"),
        "panel.normalize_panel.s": get("panel.normalize_panel"),
        "panel.normalize_panel.calls": get("panel.normalize_panel", "calls"),
        "panel.dispersion_series.s": get("panel.dispersion_series"),
        "tails.tail_series.s": get("tails.tail_series"),
        "tails.tail_series.dates": count("tails.tail_series", "dates"),
        "tails.tail_series.estimated_frac": _ratio(
            count("tails.tail_series", "estimated"), count("tails.tail_series", "dates")),
        "io.write_report.s": get("io.write_report"),
        "io.write_report.self_s": get("io.write_report", "self_s"),
        "io.render_report.s": get("io.render_report"),
        "io.render_report.mb": count("io.render_report", "chars") / 1e6,
        "tails.detect_extremes.s": get("tails.detect_extremes"),
        "tails.detect_extremes.events": count("tails.detect_extremes", "events"),
        "panel.survival_curve.s": get("panel.survival_curve"),
        "tails.hill_k_sweep.s": get("tails.hill_k_sweep"),
        "tails.hill_k_sweep.k_per_s": _ratio(count("tails.hill_k_sweep", "tried"),
                                             get("tails.hill_k_sweep")),
        "tails.hill_k_sweep.estimated_frac": _ratio(
            count("tails.hill_k_sweep", "estimated"), count("tails.hill_k_sweep", "tried")),
        "simulate.validate_feasibility.s": get("simulate.validate_feasibility"),
        "simulate.simulate_dispersion.s": sim_s,
        "simulate.simulate_dispersion.self_s": get("simulate.simulate_dispersion", "self_s"),
        "simulate.simulate_dispersion.draws_per_s": _ratio(
            count("simulate.simulate_dispersion", "values"), sim_s),
        "simulate.simulate_dispersion.parallel_eff": _ratio(
            get("simulate.simulate_dispersion", "cpu_s"), sim_s * workers),
        "simulate.dispersion_values.s": get("simulate.dispersion_values"),
        "synthetic.bubble_panel.s": setup_median("bubble_panel_s"),
        "io.write_price_panel.s": setup_median("write_price_panel_s"),
    }


def layer_table_lines(table: dict, missing: list[str], traced_wall: float) -> list[str]:
    """One line per layer; ``share`` is its total time over the traced
    invocation's spawn-to-exit time."""
    lines = [f"{'layer':<32} {'calls':>6} {'total_s':>9} {'self_s':>9} {'cpu_s':>9} "
             f"{'share':>6}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["s"]):
        lines.append(f"{name:<32} {row['calls']:>6} {row['s']:>9.4f} "
                     f"{row['self_s']:>9.4f} {row['cpu_s']:>9.4f} "
                     f"{_ratio(row['s'], traced_wall):>6.1%}")
    if missing:
        lines.append("missing wrap points: " + ", ".join(missing))
    return lines


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def set_up(launcher: Launcher, workload, run, rundir: Path, i: int) -> tuple[float, dict]:
    """One set-up child; returns its spawn-to-exit time and its step timings.
    Every set-up of a run must write the same panel bytes."""
    path = run.panel_path or rundir / "no-input"
    cmd = [sys.executable, str(BENCH / "make_input.py"), str(run.seed), str(path),
           json.dumps(workload.panel)]
    log = rundir / f"setup-{i}"
    done = launcher.spawn(cmd, log.with_suffix(".out"), log.with_suffix(".err"))
    if done["exit_code"] != 0:
        err = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"set-up exited with {done['exit_code']}:\n{err}")
    report = json.loads(log.with_suffix(".out").read_text().splitlines()[-1])
    if run.panel_path:
        digest = hashlib.sha256(run.panel_path.read_bytes()).hexdigest()
        if run.panel_digest is None:
            run.panel_digest = digest
        elif digest != run.panel_digest:
            raise RuntimeError("the same seed wrote different panels")
    return done["wall_s"], report


def bench(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    started = time.perf_counter()
    workload = WORKLOADS[workload_name]
    cpus = os.sched_getaffinity(0)
    if workload.threads == 1:
        # Every process of a single-threaded run, children included, stays
        # on one CPU: on a small shared host the cores' speeds drift apart,
        # and samples that hop between them spread wider.
        os.sched_setaffinity(0, {max(cpus)})
    rundir = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)

    def fresh(name: str) -> Path:
        out = rundir / name
        out.mkdir()
        return out

    ledger = Ledger()
    launcher = Launcher()
    try:
        run = Run(seed=seed)
        if workload.panel is not None:
            run.panel_path = rundir / "panel.csv"

        # Cycle 0: a set-up, then the checked invocation and its untimed
        # variants. Later cycles alternate one set-up and one timed
        # invocation until S seconds have passed, so both metrics sample
        # the whole run rather than one part of it each.
        #
        # The host's speed changes for seconds to minutes at a time, which
        # no run is long enough to average out. So a probe is timed before
        # the first spawn and after every spawn, and each timed sample is
        # scaled to the reference speed by the mean of the two probes
        # around it.
        probes = [probe()]

        def speed_factor() -> float:
            """Scale to the reference speed for the spawn that just ended."""
            probes.append(probe())
            return PROBE_REF_S / statistics.fmean(probes[-2:])

        setup_walls, setup_scaled, setup_reports = [], [], []

        def timed_set_up() -> None:
            wall, report = set_up(launcher, workload, run, rundir, len(setup_walls))
            setup_walls.append(wall)
            setup_scaled.append(wall * speed_factor())
            setup_reports.append(report)

        timed: list[Invocation] = []
        factors: list[float] = []  # each timed invocation's scale to the reference speed

        def timed_invoke(inv: Invocation) -> None:
            timed.append(inv)
            factors.append(speed_factor())

        timed_set_up()
        if workload.panel is not None:
            panel = make_panel(workload.panel, seed)
            run.dates, run.prices = panel.dates, panel.prices

        out = fresh("check")
        check = ledger.record(invoke(launcher, workload, CLI, workload.argv(run, out), out))
        timed_invoke(check)
        if check.ok:
            try:
                check.problems += workload.check(run, out, (out / "stdout").read_bytes())
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                check.problems.append(f"output unreadable: {exc!r}")
        for i, argv in enumerate(workload.variants(run)):
            ledger.record(invoke(launcher, workload, CLI, argv, fresh(f"variant-{i}")), check)
            probes.append(probe())

        def more() -> bool:
            now = time.perf_counter()
            if now - started > RUN_BUDGET_S:
                return False
            return len(timed) < MIN_CYCLES or now - started < seconds

        while more():
            timed_set_up()
            if not more():
                break
            out = fresh(f"timed-{len(timed)}")
            timed_invoke(ledger.record(
                invoke(launcher, workload, CLI, workload.argv(run, out), out), check))
            shutil.rmtree(out)

        walls = [i.wall_s for i in timed]
        # The mean, not the median: over a closed loop it is the reciprocal
        # of throughput, and when the host switches between a fast and a
        # slow speed it moves in proportion to the time spent slow, where a
        # median jumps from one speed to the other.
        wall_s = statistics.fmean(walls)
        lines = [
            "provenance " + json.dumps(provenance(workload, run, check)),
            f"setup_s samples {[round(w, 4) for w in setup_walls]}",
            f"wall_s samples (n={len(walls)}) {[round(w, 4) for w in walls]}",
            f"wall_s mean {wall_s:.4f}, q1/median/q3 "
            + "/".join(f"{q:.4f}" for q in quartiles(walls)),
            f"probe_s samples {[round(p, 4) for p in probes]} (reference {PROBE_REF_S} s)",
        ]
        if trace:
            out = fresh("traced")
            spans_path = rundir / "spans.json"
            prefix = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--"]
            traced = ledger.record(
                invoke(launcher, workload, prefix, workload.argv(run, out), out), check)
            spans = {"spans": [], "missing": []}
            if spans_path.is_file():
                spans = json.loads(spans_path.read_text())
            table = summarize(spans["spans"])
            metrics = layer_metrics(table, traced.wall_s, wall_s, setup_reports)
            units = {name: unit for name, unit, _ in PER_LAYER}
            lines += layer_table_lines(table, spans["missing"], traced.wall_s)
            lines.append(f"tracing overhead {metrics['trace.overhead_s']:.4f} s (traced "
                         f"{traced.wall_s:.4f} s, untraced mean {wall_s:.4f} s)")
        else:
            metrics = {
                "wall_s": statistics.fmean(i.wall_s * f for i, f in zip(timed, factors)),
                "cpu_s": statistics.fmean(i.cpu_s * f for i, f in zip(timed, factors)),
                "peak_rss_mb": statistics.median(i.rss_mb for i in timed),
                "setup_s": statistics.median(setup_scaled),
            }
            units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    finally:
        launcher.close()
        shutil.rmtree(rundir, ignore_errors=True)
        os.sched_setaffinity(0, cpus)

    lines += ledger.lines()
    return ledger.result(metrics, units), lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crossdisp" / "__init__.py").is_file():
        print(f"bench: no crossdisp sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("seed must be non-negative")
    result, lines = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"lines": lines, "result": result}, indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
