import datetime as dt
import errno
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import crossdisp
from crossdisp import CorrelationSpec, PricePanel, write_price_panel
from crossdisp.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, RHO_GRID, main
from crossdisp.panel import CHUNK_BYTES

from conftest import d


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(
        "date,A,B,C\n"
        "2020-01-02,10,10,10\n"
        "2020-01-03,5,15,25\n"
        "2020-01-06,6,18,20\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def wide_csv(tmp_path):
    # 12 stocks so the tail estimator engages (needs a 10-stock cross-section)
    rng = np.random.default_rng(314)
    n_days, n_stocks = 6, 12
    prices = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, (n_days, n_stocks)), axis=0))
    panel = PricePanel(
        dates=tuple(d("2020-01-02") + dt.timedelta(days=i) for i in range(n_days)),
        tickers=tuple(f"S{i:02d}" for i in range(n_stocks)),
        prices=prices,
    )
    path = tmp_path / "wide.csv"
    write_price_panel(panel, path)
    return str(path)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_usage():
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["analyze"]) == EXIT_USAGE
    assert main(["simulate", "--bogus"]) == EXIT_USAGE
    assert main(["simulate", "--seed", "-3"]) == EXIT_USAGE


def test_help_is_success(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "usage" in capsys.readouterr().out


def test_exit_data_absent_ref(small_csv, capsys):
    code = main(["analyze", small_csv, "--tref", "1999-01-01"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("crossdisp:")
    assert "1999-01-01" in err


def test_exit_data_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.csv"), "--tref", "2020-01-02"]) == EXIT_DATA


def test_exit_data_bad_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("date,A\n2020-01-02,-5\n", encoding="utf-8")
    assert main(["analyze", str(path), "--tref", "2020-01-02"]) == EXIT_DATA
    assert "line 2" in capsys.readouterr().err


def test_analyze_reads_a_leading_byte_order_mark(small_csv, tmp_path, capsys):
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(small_csv).read_bytes())
    assert main(["analyze", small_csv, "--tref", "2020-01-02", "--window", "1"]) == EXIT_OK
    plain = capsys.readouterr().out
    assert main(["analyze", str(marked), "--tref", "2020-01-02", "--window", "1"]) == EXIT_OK
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize(
    "tail, message",
    [
        (b"2022-01-01,1\xff,2\n", "not UTF-8"),
        (b'2022-01-01,"' + b"9" * 200_000 + b"\n", "malformed CSV"),
    ],
)
def test_exit_data_unreadable_text(tail, message, tmp_path, capsys):
    # the bad bytes sit past the first read buffer, so they surface mid-stream
    good = "".join(f"{d('2020-01-01') + dt.timedelta(days=i)},10,20\n" for i in range(600))
    path = tmp_path / "bad.csv"
    path.write_bytes(f"date,A,B\n{good}".encode() + tail)
    assert main(["analyze", str(path), "--tref", "2020-01-01"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("crossdisp: cannot read") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "p.csv", "--tref", "2020-01-02", "--k-fraction", "1.5"],
        ["analyze", "p.csv", "--tref", "2020-01-02", "--k-fraction", "0"],
        ["sweep", "p.csv", "--trefs", "2020-01-02", "--k-fraction", "1"],
        ["sweep", "p.csv", "--trefs", "2020-01-02", "--k-fraction", "nan"],
        ["analyze", "p.csv", "--tref", "2020-01-02", "--window", "0"],
        ["simulate", "--rho", "2"],
        ["simulate", "--rho", "-1.5"],
        ["simulate", "--rho", "nan"],
        ["simulate", "--sigma", "0"],
        ["simulate", "--sigma", "-1"],
        ["simulate", "--sigma", "inf"],
        ["simulate", "--sigma", "nan"],
        ["sweep", "p.csv", "--trefs", ","],
        ["sweep", "p.csv", "--trefs", ""],
        ["sweep", "p.csv", "--years", "2008-1998"],
        ["simulate", "--workers", "0"],
        ["simulate", "--workers", "-1"],
    ],
)
def test_exit_usage_out_of_range_argument(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("crossdisp ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["analyze", "p.csv", "--tref"], ["sweep", "p.csv", "--trefs"]])
@pytest.mark.parametrize("text", ["20200102", "2020-W01-4"])
def test_dates_are_read_only_as_yyyy_mm_dd(argv, text, capsys):
    # Python 3.11's date.fromisoformat reads both spellings, 3.10's neither
    assert main([*argv, text]) == EXIT_USAGE
    assert capsys.readouterr().err.endswith(f": not an ISO date: {text!r}\n")


def test_analyze_csv_to_stdout_is_a_usage_error(small_csv, capsys):
    # the CSV form of an analysis is one file per table
    assert main(["analyze", small_csv, "--tref", "2020-01-02", "--format", "csv"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("crossdisp: error: ")


@pytest.mark.parametrize("argv, head", [
    (["analyze", "--tref", "2020-01-02", "--window", "2"], '{\n  "meta": {'),
    (["survival", "--tref", "2020-01-02", "--date", "2020-01-05"], "z,survival\n"),
    (["survival", "--tref", "2020-01-02", "--date", "2020-01-05", "--format", "json"],
     '{\n  "meta": {'),
    (["sweep", "--trefs", "2020-01-02,2020-01-04", "--format", "csv"],
     "ref_date,date,mean,variance,count,alpha,k\n"),
    (["sweep", "--trefs", "2020-01-02,2020-01-04"], '{\n  "meta": {'),
], ids=["analyze-json", "survival-csv", "survival-json", "sweep-csv", "sweep-json"])
def test_stdout_gets_the_out_file_bytes(argv, head, wide_csv, tmp_path, capsysbinary):
    # stdout and --out take the same exit, write_report, so they get the same bytes
    argv = [argv[0], wide_csv, *argv[1:]]
    out = tmp_path / "report.out"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert capsysbinary.readouterr().out == b""
    assert main(argv) == EXIT_OK
    assert main([*argv, "--out", ""]) == EXIT_OK  # an empty --out is stdout too
    stdout = capsysbinary.readouterr().out
    assert stdout.startswith(head.encode())
    assert stdout == 2 * out.read_bytes()


def test_several_table_csv_to_stdout_raises_before_the_first_byte(small_csv, capsys):
    report = crossdisp.analyze_panel(crossdisp.load_price_panel(small_csv), d("2020-01-02"),
                                     "drop-at-ref", crossdisp.KPolicy(), 1)
    with pytest.raises(TypeError):
        crossdisp.write_report(report, None, "csv")
    assert capsys.readouterr().out == ""


def test_reversed_year_range_is_named(capsys):
    # and so is a year list with no year in it
    for years, message in [("2000,2008-1998", "empty year range 2008-1998"),
                           (",", "no years given")]:
        assert main(["sweep", "p.csv", "--years", years]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument --years: {message}")


@pytest.mark.parametrize("years, item", [("abc", "abc"), ("2004-", "2004-"),
                                         ("2004, x-2005", "x-2005")])
def test_a_year_that_is_not_an_integer_is_named(years, item, capsys):
    assert main(["sweep", "p.csv", "--years", years]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"argument --years: not a year or year range: {item!r}")


def test_trefs_items_are_stripped_as_years_items_are(wide_csv, capsys):
    assert main(["sweep", wide_csv, "--trefs", "2020-01-02,2020-01-04"]) == EXIT_OK
    want = capsys.readouterr().out
    assert main(["sweep", wide_csv, "--trefs", " 2020-01-02, 2020-01-04 ,"]) == EXIT_OK
    assert capsys.readouterr().out == want


def test_huge_year_range_exits_without_expanding_it(small_csv, capsys):
    tracemalloc.start()
    try:
        code = main(["sweep", small_csv, "--years", "2020,1-1000000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_DATA
    assert capsys.readouterr().err == "crossdisp: no trading days in year 1\n"
    assert peak < 1024 * 1024


@pytest.fixture(scope="module")
def big_panel(tmp_path_factory):
    """A 4.8 MB price matrix (1000 dates, 600 stocks, 5% missing): over four chunks."""
    rng = np.random.default_rng(3)
    prices = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, (1000, 600)), axis=0))
    prices[1:][rng.random((999, 600)) < 0.05] = np.nan
    panel = PricePanel(tuple(d("2000-01-03") + dt.timedelta(days=i) for i in range(1000)),
                       tuple(f"S{i}" for i in range(600)), prices)
    path = tmp_path_factory.mktemp("big") / "panel.csv"
    write_price_panel(panel, path)
    return str(path), panel


@pytest.mark.parametrize("command", ["analyze", "sweep", "survival"])
def test_peak_memory_is_the_price_matrix_and_a_few_chunks(command, big_panel, tmp_path):
    path, panel = big_panel
    first, middle, last = (panel.dates[i].isoformat() for i in (0, 500, -1))
    argv = {
        "analyze": ["analyze", path, "--tref", first],
        "sweep": ["sweep", path, "--trefs", f"{first},{middle}"],
        "survival": ["survival", path, "--tref", first, "--date", last,
                     "--hill-sweep", str(tmp_path / "hill.csv")],
    }[command]
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    nbytes = panel.prices.nbytes
    assert nbytes > 4 * CHUNK_BYTES
    # the price matrix, up to twice its rows while ingest grows it, and a few chunks of
    # performances; a whole performance matrix takes the peak to 3.0x the prices
    assert peak <= 2 * nbytes + 3 * CHUNK_BYTES


def test_exit_data_tiny_universe(capsys):
    assert main(["simulate", "--n", "1"]) == EXIT_DATA


def test_exit_data_window_too_large(small_csv, capsys):
    # the default window assumes a long series; short panels must shrink it
    assert main(["analyze", small_csv, "--tref", "2020-01-02"]) == EXIT_DATA
    assert "window" in capsys.readouterr().err


def test_exit_numeric_infeasible(capsys):
    code = main(["simulate", "--n", "1000", "--rho", "-0.6", "--m-reps", "5"])
    assert code == EXIT_NUMERIC
    assert "crossdisp:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_stdout_sections(small_csv, capsys):
    assert main(["analyze", small_csv, "--tref", "2020-01-02", "--window", "1"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"meta", "dispersion", "tail", "extremes"}
    assert doc["meta"]["ref_date"] == "2020-01-02"
    assert [row["date"] for row in doc["dispersion"]] == [
        "2020-01-02",
        "2020-01-03",
        "2020-01-06",
    ]
    assert doc["dispersion"][0]["variance"] == 0.0
    assert doc["dispersion"][0]["mean"] == 1.0


def test_analyze_known_dispersion(small_csv, capsys):
    main(["analyze", small_csv, "--tref", "2020-01-02", "--window", "1"])
    doc = json.loads(capsys.readouterr().out)
    values = np.array([0.5, 1.5, 2.5])
    assert doc["dispersion"][1]["variance"] == pytest.approx(values.var(), rel=1e-15)
    assert doc["dispersion"][1]["mean"] == pytest.approx(1.5, rel=1e-15)


def test_analyze_out_file(small_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", small_csv, "--tref", "2020-01-02", "--window", "1",
                 "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["meta"]["kind"] == "analysis"


def test_analyze_csv_out_fans_out(wide_csv, tmp_path):
    out = tmp_path / "report.csv"
    code = main(["analyze", wide_csv, "--tref", "2020-01-02", "--window", "2",
                 "--out", str(out), "--format", "csv"])
    assert code == EXIT_OK
    assert (tmp_path / "report.dispersion.csv").exists()
    assert (tmp_path / "report.tail.csv").exists()
    assert (tmp_path / "report.extremes.csv").exists()


def test_analyze_tail_engages_on_wide_panel(wide_csv, capsys):
    main(["analyze", wide_csv, "--tref", "2020-01-02", "--window", "2"])
    doc = json.loads(capsys.readouterr().out)
    later = doc["tail"][1:]
    assert all(row["k"] == 2 for row in later)
    assert all(row["alpha"] is None or row["alpha"] > 0 for row in later)


# ---------------------------------------------------------------------------
# survival
# ---------------------------------------------------------------------------


def test_survival_known_cross_section(small_csv, capsys):
    code = main(["survival", small_csv, "--tref", "2020-01-02", "--date", "2020-01-03"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == [
        "z,survival",
        "0.5,0.6666666666666666",
        "1.5,0.3333333333333333",
        "2.5,0.0",
    ]


def test_survival_at_reference_date_is_single_step(small_csv, capsys):
    main(["survival", small_csv, "--tref", "2020-01-02", "--date", "2020-01-02"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == ["z,survival", "1.0,0.0"]


def test_survival_date_before_reference_date_names_both(small_csv, capsys):
    # 2020-01-02 is in the panel, but not in the performance panel from 2020-01-03
    code = main(["survival", small_csv, "--tref", "2020-01-03", "--date", "2020-01-02"])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "crossdisp: date 2020-01-02 is before the reference date 2020-01-03\n")


def test_survival_hill_sweep_file(wide_csv, tmp_path, capsys):
    sweep_path = tmp_path / "hill.csv"
    code = main(["survival", wide_csv, "--tref", "2020-01-02", "--date", "2020-01-05",
                 "--hill-sweep", str(sweep_path)])
    assert code == EXIT_OK
    lines = sweep_path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "k,alpha"
    assert len(lines) > 2
    for row in lines[1:]:
        k, alpha = row.split(",")
        assert 1 <= int(k) <= 11
        assert float(alpha) > 0


def test_survival_hill_sweep_unwritable_path(wide_csv, tmp_path, capsys):
    code = main(["survival", wide_csv, "--tref", "2020-01-02", "--date", "2020-01-05",
                 "--hill-sweep", str(tmp_path / "missing" / "hill.csv")])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("crossdisp: cannot write")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# atomic outputs
# ---------------------------------------------------------------------------

OUTPUTS = {
    "analyze --out": (["analyze", "--tref", "2020-01-02", "--window", "2", "--out", "report.json"],
                      ["report.json"]),
    "analyze csv fan-out": (["analyze", "--tref", "2020-01-02", "--window", "2",
                             "--format", "csv", "--out", "report.csv"],
                            ["report.dispersion.csv", "report.tail.csv", "report.extremes.csv"]),
    "survival --hill-sweep": (["survival", "--tref", "2020-01-02", "--date", "2020-01-05",
                               "--hill-sweep", "hill.csv"], ["hill.csv"]),
}


def output_argv(case, panel, out_dir):
    """The case's argv with the panel inserted and output names under out_dir."""
    argv, written = OUTPUTS[case]
    argv = [str(out_dir / a) if a.endswith((".json", ".csv")) else a for a in argv]
    return [argv[0], panel, *argv[1:]], [out_dir / name for name in written]


def failing_replace(src, dst):
    raise OSError(errno.EIO, os.strerror(errno.EIO), str(dst))


class HalfWrite:
    """A file that takes half of the text, then reports a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def fileno(self):
        return self.handle.fileno()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("case", sorted(OUTPUTS))
@pytest.mark.parametrize("failure", ["replace", "write"])
def test_failed_write_keeps_the_old_output(case, failure, wide_csv, tmp_path, monkeypatch,
                                           capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv, targets = output_argv(case, wide_csv, out_dir)
    for target in targets:
        target.write_bytes(b"old bytes\n")
    if failure == "replace":
        monkeypatch.setattr(os, "replace", failing_replace)
    else:
        monkeypatch.setattr("crossdisp.io.open", lambda *a, **k: HalfWrite(open(*a, **k)),
                            raising=False)
    assert main(argv) == EXIT_DATA
    assert all(target.read_bytes() == b"old bytes\n" for target in targets)
    assert sorted(os.listdir(out_dir)) == sorted(t.name for t in targets)
    err = capsys.readouterr().err
    assert err.startswith("crossdisp: cannot write ") and err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(OUTPUTS))
def test_new_output_mode_follows_the_umask(case, wide_csv, tmp_path):
    argv, targets = output_argv(case, wide_csv, tmp_path)
    old_umask = os.umask(0o027)
    try:
        assert main(argv) == EXIT_OK
    finally:
        os.umask(old_umask)
    assert [stat.S_IMODE(t.stat().st_mode) for t in targets] == [0o640] * len(targets)


def test_replaced_output_keeps_its_mode(wide_csv, tmp_path):
    argv, (target,) = output_argv("analyze --out", wide_csv, tmp_path)
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o600)
    assert main(argv) == EXIT_OK
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert json.loads(target.read_text(encoding="utf-8"))["meta"]["kind"] == "analysis"


@pytest.mark.parametrize("case", sorted(OUTPUTS))
def test_read_only_output_is_left_as_it_was(case, wide_csv, tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv, targets = output_argv(case, wide_csv, out_dir)
    for target in targets:
        target.write_bytes(b"old bytes\n")
        target.chmod(0o444)
    if os.geteuid() == 0:
        # root may write any file: deny it, as a user without the permission is
        monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert main(argv) == EXIT_DATA
    assert all(target.read_bytes() == b"old bytes\n" for target in targets)
    assert all(stat.S_IMODE(t.stat().st_mode) == 0o444 for t in targets)
    assert sorted(os.listdir(out_dir)) == sorted(t.name for t in targets)
    err = capsys.readouterr().err
    assert err.startswith(f"crossdisp: cannot write {targets[0]}: ")
    assert f"Permission denied: '{targets[0]}'" in err


def test_symlinked_output_is_written_in_place(wide_csv, tmp_path):
    argv, (link,) = output_argv("analyze --out", wide_csv, tmp_path)
    real = tmp_path / "real.json"
    real.write_text("old\n", encoding="utf-8")
    link.symlink_to(real)
    assert main(argv) == EXIT_OK
    assert link.is_symlink()
    assert json.loads(real.read_text(encoding="utf-8"))["meta"]["kind"] == "analysis"


# ---------------------------------------------------------------------------
# failed writes to stdout
# ---------------------------------------------------------------------------


def crossdisp_process(argv, unbuffered, **kwargs):
    """``python -m crossdisp`` started on ``argv``, with stdout block-buffered
    as in a shell unless ``unbuffered``; stderr is a pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = os.path.dirname(os.path.dirname(crossdisp.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "crossdisp", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **kwargs)


def assert_failed_stdout(proc):
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_DATA
    assert err.startswith("crossdisp: cannot write <stdout>: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    return err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_sweep_into_a_closed_pipe(unbuffered, tmp_path):
    rng = np.random.default_rng(5)
    panel = PricePanel(
        dates=tuple(d("2004-01-01") + dt.timedelta(days=i) for i in range(1000)),
        tickers=tuple(f"S{i:02d}" for i in range(12)),
        prices=np.exp(rng.normal(0.0, 0.1, (1000, 12))),
    )
    path = tmp_path / "long.csv"
    write_price_panel(panel, path)
    # about 590 KB of JSON, far past a 64 KiB pipe buffer: the reader is gone first
    proc = crossdisp_process(["sweep", str(path), "--years", "2004-2006"], unbuffered,
                             stdout=subprocess.PIPE)
    assert proc.stdout.read(1) == "{"
    proc.stdout.close()
    assert "Broken pipe" in assert_failed_stdout(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_simulate_into_a_full_device(unbuffered):
    with open("/dev/full", "w") as full:
        proc = crossdisp_process(["simulate", "--n", "4", "--m-reps", "10"], unbuffered,
                                 stdout=full)
        assert "No space left on device" in assert_failed_stdout(proc)


class FullStdout:
    """A stdout that takes nothing: every write reports a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "4", "--m-reps", "2"],
    ["analyze", "PANEL", "--tref", "2020-01-02", "--window", "2"],
    ["survival", "PANEL", "--tref", "2020-01-02", "--date", "2020-01-05"],
])
def test_failed_stdout_write_is_a_data_error(argv, wide_csv, monkeypatch, capsys):
    argv = [wide_csv if a == "PANEL" else a for a in argv]
    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (
        "crossdisp: cannot write <stdout>: [Errno 28] No space left on device\n")


# ---------------------------------------------------------------------------
# results outside the range of a double, and requests too large for memory
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("first, second", [("1e300", "1e-300"), ("1e-300", "1e300")])
@pytest.mark.parametrize("argv", [["analyze", "--window", "1"],
                                  ["survival", "--date", "2001-01-02"]])
def test_performance_outside_the_doubles_is_a_data_error(first, second, argv, tmp_path,
                                                         capsys):
    path = tmp_path / "extreme.csv"
    path.write_text(f"date,A,B,C\n2001-01-01,{first},1,2\n2001-01-02,{second},2,3\n"
                    "2001-01-03,1,3,4\n", encoding="utf-8")
    assert main([argv[0], str(path), "--tref", "2001-01-01", *argv[1:]]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("crossdisp: performance of A on 2001-01-02 against 2001-01-01 "
                            "is outside the range of a double\n")


@pytest.mark.parametrize("sigma", ["1e100", "1e300"])
@pytest.mark.parametrize("table", [[], ["--table", "rho-sweep"]])
def test_simulated_dispersion_outside_the_doubles_is_a_numerical_error(sigma, table, capsys):
    argv = ["simulate", "--n", "40", "--m-reps", "40", "--sigma", sigma, *table]
    assert main(argv) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("crossdisp: ") and captured.err.count("\n") == 1
    assert captured.err.endswith(" is outside the range of a double\n")


# The first two ask numpy for 8 PiB, which fails at once and allocates nothing;
# a smaller oversized request could be granted by overcommit and then filled.
# The others ask for 2**60 doubles or more, more bytes than numpy can address,
# which numpy refuses with ValueError, not MemoryError.
@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "4", "--m-reps", "1125899906842624"],
    ["simulate", "--n", "1125899906842624", "--m-reps", "2"],
    ["simulate", "--n", "4", "--m-reps", "1152921504606846976"],
    ["simulate", "--n", "100000000000000000000", "--m-reps", "1"],
    ["simulate", "--m-reps", "100000000000000000000"],
])
def test_out_of_memory_is_a_data_error(argv, capsys):
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("crossdisp: out of memory: ")
    count = max(int(arg) for arg in argv if arg.isdigit())
    fragment = "8.00 PiB" if count < 2**60 else f"{count} doubles are more than numpy can address"
    assert captured.err.count("\n") == 1 and fragment in captured.err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_analytic_only_prints_closed_form(capsys):
    code = main(["simulate", "--n", "1000", "--rho", "-0.6", "--analytic-only"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "1.598400e+00" in out
    assert "analytic" in out


def test_analytic_only_builds_no_correlation_spec(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("--analytic-only built an n-long CorrelationSpec")

    monkeypatch.setattr(CorrelationSpec, "equicorrelated", refuse)
    # 10**20 doubles are more than numpy can address, but nothing is allocated
    for n, table in product(["10000000", "100000000000000000000"], ([], ["--table", "rho-sweep"])):
        argv = ["simulate", "--n", n, "--analytic-only", *table]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.count("analytic") == (11 if table else 1)


@pytest.mark.parametrize("extra", [[], ["--analytic-only"]])
def test_simulate_needs_a_replication_with_or_without_simulating(extra, capsys):
    assert main(["simulate", "--n", "5", "--m-reps", "-3", *extra]) == EXIT_DATA
    assert capsys.readouterr() == ("", "crossdisp: need at least 1 replication, got -3\n")
    # the universe size is checked first
    assert main(["simulate", "--n", "1", "--m-reps", "0", *extra]) == EXIT_DATA
    assert capsys.readouterr().err == "crossdisp: universe size must be at least 2\n"


def test_simulate_full_correlation_kills_dispersion(tmp_path):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--n", "100", "--rho", "1.0", "--m-reps", "50",
                 "--seed", "3", "--out", str(out), "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["series"][0]["mean_vn"] <= 1e-10
    assert doc["series"][0]["source"] == "simulated"


def test_simulate_rho_sweep_table(capsys):
    code = main(["simulate", "--table", "rho-sweep", "--n", "50", "--m-reps", "10",
                 "--seed", "5"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("n=50 reps=10")
    rows = lines[2:]
    assert len(rows) == len(RHO_GRID) == 11
    # rho below -1/(n-1) cannot be sampled and falls back to the closed form
    for row, rho in zip(rows, RHO_GRID):
        source = row.split()[-1]
        assert source == ("analytic" if rho < -1.0 / 49 else "simulated")


def test_one_replication_prints_an_undefined_se_as_a_dash(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--n", "3", "--m-reps", "1", "--seed", "2",
                 "--out", str(out), "--format", "json"]) == EXIT_OK
    row = capsys.readouterr().out.strip().split("\n")[2].split()
    # rho, mean_vn, se_vn, expected, source: no spread from a single replication
    assert row[2] == "-" and row[4] == "simulated"
    assert json.loads(out.read_text(encoding="utf-8"))["series"][0]["se_vn"] is None


def test_simulate_table_out_csv(tmp_path):
    out = tmp_path / "table.csv"
    main(["simulate", "--table", "rho-sweep", "--n", "20", "--m-reps", "10",
          "--seed", "5", "--analytic-only", "--out", str(out), "--format", "csv"])
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "rho,mean_vn,se_vn,expected,source"
    assert len(lines) == 12
    assert all(row.endswith("analytic") for row in lines[1:])


def test_simulate_table_out_csv_rho_column_is_the_decimal_grid(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["simulate", "--table", "rho-sweep", "--n", "20", "--m-reps", "10",
                 "--out", str(out), "--format", "csv"]) == EXIT_OK
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "-1.0", "-0.8", "-0.6", "-0.4", "-0.2", "0.0", "0.2", "0.4", "0.6", "0.8", "1.0"]


@pytest.mark.parametrize("rho, printed", [("0.25", "0.25"), ("-0.0001", "-0.0001"),
                                          ("1e-05", "1e-05")])
def test_simulate_stdout_prints_rho_as_given(rho, printed, capsys):
    assert main(["simulate", "--n", "20", "--rho", rho, "--analytic-only"]) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[2]
    assert row.split()[0] == printed
    assert row.startswith(f"{printed:>6}  ")


def test_simulate_stdout_grid_rows_keep_their_width(capsys):
    assert main(["simulate", "--table", "rho-sweep", "--n", "20",
                 "--analytic-only"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row[:8] for row in rows] == [f"{rho:>6.1f}  " for rho in RHO_GRID]


def test_simulate_deterministic_stdout(capsys):
    args = ["simulate", "--table", "rho-sweep", "--n", "20", "--m-reps", "10",
            "--seed", "5"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert main(args + ["--workers", "4"]) == EXIT_OK
    threaded = capsys.readouterr().out
    assert threaded == first


def test_simulate_seed_changes_output(capsys):
    main(["simulate", "--n", "20", "--m-reps", "10", "--seed", "5"])
    a = capsys.readouterr().out
    main(["simulate", "--n", "20", "--m-reps", "10", "--seed", "6"])
    b = capsys.readouterr().out
    assert a != b


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_requires_refs(small_csv):
    assert main(["sweep", small_csv]) == EXIT_USAGE
    assert main(["sweep", small_csv, "--trefs", "2020-01-02", "--years", "2020"]) == EXIT_USAGE


def test_sweep_matches_analyze(wide_csv, capsys):
    assert main(["analyze", wide_csv, "--tref", "2020-01-03", "--window", "2"]) == EXIT_OK
    analyze_doc = json.loads(capsys.readouterr().out)
    assert main(["sweep", wide_csv, "--trefs", "2020-01-03"]) == EXIT_OK
    sweep_doc = json.loads(capsys.readouterr().out)
    entry = sweep_doc["series"][0]
    assert entry["ref_date"] == "2020-01-03"
    assert entry["dispersion"] == analyze_doc["dispersion"]
    assert entry["tail"] == analyze_doc["tail"]


def test_sweep_by_years(tmp_path, capsys):
    path = tmp_path / "multi.csv"
    path.write_text(
        "date,A,B\n"
        "2019-01-07,10,20\n"
        "2019-06-03,12,21\n"
        "2020-01-06,11,24\n"
        "2020-07-01,13,22\n",
        encoding="utf-8",
    )
    assert main(["sweep", str(path), "--years", "2019-2020"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert [e["ref_date"] for e in doc["series"]] == ["2019-01-07", "2020-01-06"]
    assert main(["sweep", str(path), "--years", "2021"]) == EXIT_DATA
    assert capsys.readouterr().err == "crossdisp: no trading days in year 2021\n"


def test_sweep_out_csv(wide_csv, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", wide_csv, "--trefs", "2020-01-02,2020-01-04",
                 "--out", str(out), "--format", "csv"])
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "ref_date,date,mean,variance,count,alpha,k"
    # 6 dates for the first ref + 4 for the second
    assert len(lines) == 11


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "crossdisp", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout
    assert "analyze" in proc.stdout
