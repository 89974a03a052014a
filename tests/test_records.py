"""Records that hold arrays compare by value and are unhashable, and importing the
CLI starts no thread pool machinery."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import crossdisp
from crossdisp import (
    CorrelationSpec,
    DispersionSeries,
    HillSweep,
    PerformancePanel,
    PricePanel,
    SimConfig,
    SurvivalCurve,
    TailSeries,
    simulate_dispersion,
)
from crossdisp.panel import _eq_by_value
from crossdisp.theory import FullMatrix

from conftest import d

DATES = (d("2020-01-02"), d("2020-01-03"))

# each record type built from one float: equal floats give equal records, built apart,
# and NaN sits in every array that may hold it
RECORDS = {
    "PricePanel": lambda x: PricePanel(DATES, ("A", "B"), [[1.0, np.nan], [2.0, x]]),
    "PerformancePanel": lambda x: PerformancePanel(DATES[0], DATES, ("A", "B"),
                                                   [[1.0, np.nan], [2.0, x]]),
    "SurvivalCurve": lambda x: SurvivalCurve([1.0, x]),
    "DispersionSeries": lambda x: DispersionSeries(DATES, [1.0, x], [np.nan, 0.5], [1, 2]),
    "HillSweep": lambda x: HillSweep([1, 2], [1.5, x]),
    "TailSeries": lambda x: TailSeries(DATES, [np.nan, x], [0, 1], [3, 12]),
    "SimResult": lambda x: simulate_dispersion(
        SimConfig(CorrelationSpec.equicorrelated(3, 0.2), reps=2, seed=int(x))),
    "FullMatrix": lambda x: FullMatrix([[1.0, x / 10.0], [x / 10.0, 1.0]]),
    "CorrelationSpec": lambda x: CorrelationSpec.with_matrix(np.eye(2), sigmas=[1.0, x]),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_holding_arrays_compares_by_value_and_is_unhashable(name):
    make = RECORDS[name]
    record = make(3.0)
    assert type(record).__dataclass_params__.eq is False  # no generated __eq__ or __hash__
    assert type(record).__eq__ is _eq_by_value
    assert record == record and record == make(3.0) and not record != make(3.0)
    assert record != make(4.0)
    others = [other(3.0) for other_name, other in RECORDS.items() if other_name != name]
    assert all(record != other for other in others)
    assert record != dataclasses.astuple(record)
    with pytest.raises(TypeError):
        hash(record)


def test_importing_the_cli_imports_no_thread_pool():
    # only simulate --workers above 1 starts a pool, and it imports one there
    src = os.path.dirname(os.path.dirname(crossdisp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, crossdisp.cli; "
            "print(sorted({'concurrent.futures', 'logging', 'queue'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
