"""Property test of the command line: whatever the arguments and the panel
bytes, ``cli.main`` returns a documented exit code and explains a failure in
one line, never with a traceback, and leaves no temporary file behind."""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crossdisp.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

PANEL = "panel.csv"
OUT = "out.csv"
HILL = "hill.csv"

STARTS = (dt.date(1, 1, 1), dt.date(2000, 12, 20), dt.date(9999, 12, 2))  # 30 days fit
EXTREME_PRICES = ("1e300", "1e-300", "4.9e-324", "1.7976931348623157e308")
ODD_PRICES = ("", " 5 ", "1_0", "+4", "\u0661\u0662")  # missing, or read by float()
BAD_PRICES = ("0", "-1", "nan", "inf", "x", "1e309", "\ufeff3", '"')


@st.composite
def panels(draw) -> tuple[bytes, list[str]]:
    """A small panel CSV and its dates: edge dates and prices and, in a
    corrupted panel, bad cells, truncated and ragged rows, a byte-order mark
    anywhere or random bytes."""
    corrupt = draw(st.integers(0, 3)) == 0
    if corrupt and draw(st.booleans()):
        return draw(st.binary(max_size=200)), []
    n_stocks = draw(st.integers(1, 12))
    first = draw(st.sampled_from(STARTS))
    days = draw(st.permutations(range(draw(st.integers(0, 30)))))
    dates = [str(first + dt.timedelta(days=day)) for day in days]

    extreme = draw(st.integers(0, 2)) == 0

    def price() -> str:
        kind = draw(st.integers(0, 19))
        if kind == 0 and corrupt:
            return draw(st.sampled_from(BAD_PRICES))
        if kind == 1 and extreme:
            return draw(st.sampled_from(EXTREME_PRICES))
        if kind == 2:
            return draw(st.sampled_from(ODD_PRICES))
        return repr(draw(st.floats(min_value=0.5, max_value=200.0)))

    lines = [",".join(["date", *(f"S{i}" for i in range(n_stocks))])]
    for when in dates:
        row = [when, *(price() for _ in range(n_stocks))]
        shape = draw(st.integers(0, 9)) if corrupt else 9
        if shape == 0:
            row = row[: draw(st.integers(0, len(row) - 1))]  # truncated
        elif shape == 1:
            row.append(price())  # ragged
        elif shape == 2:
            row[0] = draw(st.sampled_from(dates))  # perhaps a duplicate date
        lines.append(",".join(row))
    data = "\n".join(lines).encode() + b"\n" * draw(st.integers(0, 1))
    if corrupt and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xef\xbb\xbf" + data[at:]
    return data, sorted(dates)


def optional(draw, flag: str, values: st.SearchStrategy[str]) -> list[str]:
    return [flag, draw(values)] if draw(st.booleans()) else []


# each validator's limits and the values just past them, valid values first
K_FRACTIONS = st.sampled_from(["0.1", "5e-324", "0.9999999999999999", "0", "-0", "1", "nan"])
WINDOWS = st.sampled_from(["1", "2", "3", "15", "0", "-1"])
RHOS = st.sampled_from(["0", "-0.5", "0.999", "-1", "1", "-1.0000000000000002",
                        "1.0000000000000002", "nan"])
SIGMAS = st.sampled_from(["1", "5e-324", "1e70", "1e154", "1e300", "1.7976931348623157e308",
                          "0", "inf", "nan", "-1"])
SEEDS = st.sampled_from(["0", "18446744073709551615", "-1", "18446744073709551616"])
WORKERS = st.sampled_from(["1", "2", "0", "-1"])
SIZES = st.sampled_from(["40", "2", "1", "0", "-1"])

@st.composite
def runs(draw) -> tuple[list[str], bytes]:
    """An argv for ``main`` with ``PANEL``, ``OUT`` and ``HILL`` as file names,
    and the panel's bytes."""
    data, dates = draw(panels())
    when = st.sampled_from(dates) if dates and draw(st.integers(0, 9)) else st.sampled_from(
        ["0001-01-01", "9999-12-31", "2001-01-01", "2001-13-01"])
    command = draw(st.sampled_from(["analyze", "survival", "simulate", "sweep"]))
    if command == "simulate":
        argv = [command, *optional(draw, "--n", SIZES), *optional(draw, "--m-reps", SIZES),
                *optional(draw, "--rho", RHOS), *optional(draw, "--sigma", SIGMAS),
                *optional(draw, "--seed", SEEDS), *optional(draw, "--workers", WORKERS),
                *draw(st.sampled_from([[], ["--table", "rho-sweep"]])),
                *draw(st.sampled_from([[], ["--analytic-only"]]))]
    elif command == "sweep":
        year = int((draw(when) if dates else "2001")[:4])
        years = st.sampled_from([f"{year}", f"{year}", f"{year - 1}-{year}", f"{year}-{year + 1}",
                                 "1", "9999", "0-1", "9998-10000"])
        refs = (["--trefs", ",".join(draw(st.lists(when, min_size=1, max_size=3)))]
                if draw(st.booleans()) else ["--years", draw(years)])
        argv = [command, PANEL, *refs, *optional(draw, "--k-fraction", K_FRACTIONS)]
    else:
        argv = [command, PANEL, "--tref", draw(when)]
        if command == "analyze":
            # the default window needs more than 40 dates
            argv += [*optional(draw, "--k-fraction", K_FRACTIONS), "--window", draw(WINDOWS)]
        else:
            argv += ["--date", draw(when), *optional(draw, "--hill-sweep", st.just(HILL))]
        argv += optional(draw, "--policy", st.sampled_from(["drop-at-ref", "complete-only"]))
    argv += [*optional(draw, "--out", st.just(OUT)),
             *optional(draw, "--format", st.sampled_from(["csv", "json"]))]
    return argv, data


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
def test_every_run_ends_with_a_documented_exit(run):
    argv, data = run
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, PANEL), "wb") as handle:
            handle.write(data)
        argv = [os.path.join(tmp, a) if a in (PANEL, OUT, HILL) else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        left = os.listdir(tmp)
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)
    assert "Traceback" not in err
    if code == EXIT_OK:
        assert err == ""
    elif code == EXIT_USAGE:
        assert ": error: " in err.splitlines()[-1]
    else:
        assert err.startswith("crossdisp: ") and err.count("\n") == 1 and err.endswith("\n")
    assert not [name for name in left if name.endswith(".tmp")]
