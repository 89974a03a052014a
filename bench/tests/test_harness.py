"""Tests of the benchmark harness itself (not of crossdisp).

    PYTHONPATH=src python3 -m pytest bench/tests -q

They stay out of tier-1 because the repository's pytest ``testpaths`` is
``tests/``. Each CLI invocation here uses a tiny panel, so the module runs
in a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run as harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Run, make_panel, panel_params  # noqa: E402

TINY = {
    "analyze-wide": {"panel": panel_params(40, 120)},
    "sweep-tall": {"panel": panel_params(20, 800)},
    "survival-hill": {"panel": panel_params(300, 40)},
    "simulate-rho": {"params": {"n": 50, "m_reps": 600}},
}


def tiny(name: str):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "cpu_start": 0.0, "cpu_end": 0.0, "rss_start_kb": 0, "rss_end_kb": 0,
            "counts": {}}


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a, as pool threads do
        span("g", 2.0, 3.0, parent=1),
        span("c", 9.0, 12.0, parent=0),  # only [9, 10] lies inside root
    ]
    # root: 10 - |[1, 6] u [9, 10]| = 4; a: 3 - 1 = 2; leaves keep their length
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    table = tracer.summarize(spans)
    assert table["root"]["s"] == pytest.approx(10.0)
    assert table["root"]["self_s"] == pytest.approx(4.0)


def test_covered_merges_touching_and_nested_intervals():
    assert tracer.covered([(0, 2), (2, 3), (0.5, 1)], 0, 10) == pytest.approx(3.0)
    assert tracer.covered([], 0, 10) == 0.0
    assert tracer.covered([(5, 6)], 0, 1) == 0.0


def test_pool_thread_spans_hang_under_the_open_main_thread_span():
    t = tracer.Tracer()
    work = t.wrap(lambda x: x * 2)
    root = t.open("root")
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(work, range(4))) == [0, 2, 4, 6]
    t.close(root)
    children = [s for s in t.spans if s["parent"] == root]
    assert len(children) == 4
    assert all(s["end"] >= s["start"] for s in t.spans)
    assert {s["thread"] for s in children} != {threading.get_ident()}


def test_missing_wrap_point_is_reported_not_raised():
    t = tracer.Tracer()
    t.install([("crossdisp.cli", "no_such_function")])
    assert t.missing == ["crossdisp.cli.no_such_function"]


# ---------------------------------------------------------------------------
# output checks on tiny panels
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def launcher():
    helper = harness.Launcher()
    yield helper
    helper.close()


def run_once(launcher, workload, tmp_path: Path,
             seed: int = 7) -> tuple[Run, harness.Invocation, Path]:
    run = Run(seed=seed)
    if workload.panel is not None:
        from crossdisp.io import write_price_panel

        panel = make_panel(workload.panel, seed)
        run.dates, run.prices = panel.dates, panel.prices
        run.panel_path = tmp_path / "panel.csv"
        write_price_panel(panel, run.panel_path)
    out = tmp_path / "out"
    out.mkdir()
    inv = harness.invoke(launcher, workload, harness.CLI, workload.argv(run, out), out)
    assert inv.ok, inv.problems
    return run, inv, out


def corrupt_first_number(path: Path, column: int) -> None:
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[column] = repr(float(cells[column]) * (1 + 1e-6))
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(TINY))
def test_reference_check_accepts_the_cli_and_rejects_a_changed_value(name, tmp_path, launcher):
    workload = tiny(name)
    run, inv, out = run_once(launcher, workload, tmp_path)
    stdout = (out / "stdout").read_bytes()
    assert workload.check(run, out, stdout) == []

    if name == "analyze-wide":
        corrupt_first_number(out / "analyze.dispersion.csv", 2)
    elif name == "survival-hill":
        corrupt_first_number(out / "survival.csv", 0)
    elif name == "sweep-tall":
        doc = json.loads((out / "sweep.json").read_text())
        doc["series"][0]["dispersion"][1]["mean"] *= 1 + 1e-6
        (out / "sweep.json").write_text(json.dumps(doc))
    else:
        lines = stdout.decode().splitlines()
        cells = lines[-2].split()  # rho=0.8, a simulated row
        cells[1] = f"{float(cells[1]) * 2:.6e}"
        lines[-2] = "  ".join(cells)
        stdout = ("\n".join(lines) + "\n").encode()
    assert workload.check(run, out, stdout) != []


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------


def test_failing_invocation_counts_in_failed_frac(tmp_path, launcher):
    workload = tiny("analyze-wide")
    run, good, _ = run_once(launcher, workload, tmp_path)
    ledger = harness.Ledger()
    ledger.record(good)
    broken = Run(seed=run.seed, dates=run.dates, prices=run.prices,
                 panel_path=tmp_path / "absent.csv")
    out = tmp_path / "bad"
    out.mkdir()
    bad = ledger.record(
        harness.invoke(launcher, workload, harness.CLI, workload.argv(broken, out), out), good)
    assert bad.exit_code == 2 and not bad.ok
    result = ledger.result({"wall_s": 1.0}, {"wall_s": "s"})
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)


def test_output_that_differs_from_the_checked_one_is_a_failure():
    ledger = harness.Ledger()
    first = ledger.record(harness.Invocation(argv=["x"], digest="a"))
    ledger.record(harness.Invocation(argv=["x"], digest="b"), first)
    ledger.record(harness.Invocation(argv=["x"], digest="a"), first)
    result = ledger.result({}, {})
    assert (result["attempted"], result["failed"]) == (3, 1)


def test_output_equal_to_a_failed_check_is_a_failure():
    ledger = harness.Ledger()
    first = ledger.record(harness.Invocation(argv=["x"], digest="a", problems=["wrong"]))
    ledger.record(harness.Invocation(argv=["x"], digest="a"), first)
    result = ledger.result({}, {})
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 2, False)


def test_peak_rss_is_the_childs_own_not_the_harness_peak(tmp_path):
    helper = harness.Launcher()
    try:
        grown = b"\1" * (200 << 20)  # the harness peaks after the helper started
        del grown
        done = helper.spawn([sys.executable, "-c", "pass"], tmp_path / "out", tmp_path / "err")
    finally:
        helper.close()
    assert done["exit_code"] == 0
    assert done["maxrss_kb"] < 150 << 10


# ---------------------------------------------------------------------------
# whole runs report exactly the metrics BENCHMARK.json declares
# ---------------------------------------------------------------------------


def declared():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def test_per_layer_table_matches_benchmark_json():
    _, per_layer = declared()
    assert [(m["name"], m["unit"], m["better"]) for m in per_layer] == list(harness.PER_LAYER)


@pytest.mark.parametrize("name,trace", [("analyze-wide", True), ("simulate-rho", False),
                                        ("simulate-rho", True)])
def test_whole_run_is_correct_and_reports_every_declared_metric(name, trace, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name))
    result, lines = harness.bench(name, seed=3, seconds=0, trace=trace)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= harness.MIN_CYCLES
    end_to_end, per_layer = declared()
    wanted = per_layer if trace else end_to_end
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    busy = {
        "analyze-wide": ["io.load_price_panel.s", "tails.tail_series.s",
                         "tails.detect_extremes.s", "synthetic.bubble_panel.s"],
        "simulate-rho": ["simulate.simulate_dispersion.s", "simulate.dispersion_values.s",
                         "simulate.simulate_dispersion.parallel_eff"],
    }[name] if trace else list(result["metrics"])
    assert all(result["metrics"][m]["value"] > 0 for m in busy)


def test_times_are_scaled_to_the_reference_host_speed(monkeypatch):
    # A host running the probe at half the reference speed halves every
    # reported time; the raw samples are printed unscaled.
    name = "simulate-rho"
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name))
    monkeypatch.setattr(harness, "probe", lambda: 2 * harness.PROBE_REF_S)
    result, lines = harness.bench(name, seed=3, seconds=0, trace=False)
    assert result["correct"], lines
    raw = {}
    for line in lines:
        key, _, rest = line.partition(" samples ")
        if key in ("setup_s", "wall_s"):
            raw[key] = json.loads(rest[rest.index("["):])
    metrics = result["metrics"]
    assert metrics["wall_s"]["value"] == pytest.approx(statistics.fmean(raw["wall_s"]) / 2,
                                                       rel=1e-3)
    assert metrics["setup_s"]["value"] == pytest.approx(statistics.median(raw["setup_s"]) / 2,
                                                        rel=1e-3)
