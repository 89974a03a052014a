"""Golden output digests: what the commands write, pinned.

Each case is one command line, run through ``cli.main`` in process with the
working directory at a fresh directory that holds the input panels, so every
path is relative and no machine path reaches a message. A case pins its exit
code and the SHA-256 of its stdout, its stderr and each file it writes. A
deliberate byte change is an edit of ``GOLDEN`` (the failure message prints
the new entry); an accidental one fails here, naming the command line and the
output that differs. An output that carries Hill alphas is pinned at 10
significant digits (``ALPHA_OUTPUTS``).
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pytest

from crossdisp import PricePanel, bubble_panel, write_price_panel
from crossdisp.cli import main

from conftest import make_gappy_panel, make_tiny_panel


def _inputs() -> dict[str, PricePanel]:
    bubble = bubble_panel(n_stocks=30, n_boosted=5, n_days=800, boost_start=300,
                          boost_end=400, reversion_days=100, seed=7)
    return {
        "tiny.csv": make_tiny_panel(),
        "gappy.csv": make_gappy_panel(),
        # 2004-01-02 to 2006-03-11, rounded so that the last bits of np.exp on one
        # machine or another cannot move the file
        "bubble.csv": PricePanel(bubble.dates, bubble.tickers, np.round(bubble.prices, 4)),
    }


# command line -> exit code and the SHA-256 of stdout, stderr and each written file
GOLDEN: dict[str, dict[str, int | str]] = {
    "analyze tiny.csv --tref 2003-01-02 --window 1": {
        "exit": 0,
        "stdout": "41c1eb29b02bd2c912e08350643468232e477928edd45375f9dc38faf35885d9",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "analyze gappy.csv --tref 2003-01-02 --window 1": {
        "exit": 0,
        "stdout": "41c1eb29b02bd2c912e08350643468232e477928edd45375f9dc38faf35885d9",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "analyze gappy.csv --tref 2003-01-02 --window 1 --policy complete-only --format json --out g.json": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "g.json": "e6bfc59e7a19d76233f4e79abde031a15ea06eb99103c973a0f84029778c61a4",
    },
    "analyze bubble.csv --tref 2004-01-02 --out a.json": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a.json": "e4cd11e04277697f0444f0228250aa1db836dfed221f8a544bd73acf0ebddeda",
    },
    "analyze bubble.csv --tref 2004-06-01 --k-fraction 0.2 --window 5 --format csv --out a.csv": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a.dispersion.csv": "965ad7694ce1d8dbbc5b072d85fa72c69adb42a2963f6f77e1d7aef27c8b2e54",
        "a.extremes.csv": "68e086558efd6f759272df0b58b7337f2138071c6d58af0c87b83458cf2c3d65",
        "a.tail.csv": "4a8873c7fc42082b5abb47421d6c9c6d08ae9719e9f50784e573b72d744e9378",
    },
    "analyze bubble.csv --tref 2005-01-03 --window 3": {
        "exit": 0,
        "stdout": "3397668f3850c5caec1464c065b21c802b9ce163d1a5f7db35d8d69d921aaa5e",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "sweep bubble.csv --years 2004-2006 --out s.json": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "s.json": "76580a29f67a9c6a4167c3d13da5b450ea49daab8b913126da8f5e8c0217bd67",
    },
    "sweep bubble.csv --trefs 2004-01-02,2005-03-01 --format csv --out s.csv": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "s.csv": "afb111bba5f387f4f868c4bc2fa8aca24781293d13cd94c5b887563cfbe5c30c",
    },
    "sweep bubble.csv --years 2005": {
        "exit": 0,
        "stdout": "46a69606ce6078af6de3c71cc20858971004a20863b298499af9706d7204a3b0",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "sweep gappy.csv --trefs 2003-01-02,2003-01-03 --format csv": {
        "exit": 0,
        "stdout": "2aef3bcd655949765b6d4f36e65a09d2e504764fc396c771f6e6355adddbe41a",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "survival bubble.csv --tref 2004-01-02 --date 2004-11-15 --hill-sweep h.csv": {
        "exit": 0,
        "stdout": "23b1bac1a4e4bdb4209a69bfb18dc2d74e8b321792235ca5dd1ecc035c53f567",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "h.csv": "b7a39e4da10a8dedf18ed083405b837bfd083c9e9e59b417cb88074b2a6ea16f",
    },
    "survival bubble.csv --tref 2004-06-01 --date 2005-02-01 --hill-sweep h.csv --format json --out c.json": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "c.json": "f6cdbd2bfc03b28c437202be8cba676428db187787fe491dc4918431ec318c97",
        "h.csv": "e7ff5e469e4cb6190811a12079f0df0c2940699eefb5aff7e516eabfe1cf67fe",
    },
    "survival tiny.csv --tref 2003-01-02 --date 2003-01-06": {
        "exit": 0,
        "stdout": "81dde196de5417d720d233294daa6e217e27745632c6773dbf74813d5cb679d5",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "survival gappy.csv --tref 2003-01-03 --date 2003-01-06 --format json": {
        "exit": 0,
        "stdout": "b10bc1557cd39e67cfa2de968126cbf9e90b496ec10b9c98e2eabc7999d194cd",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "simulate --n 10 --m-reps 100 --rho 0.3 --seed 1": {
        "exit": 0,
        "stdout": "35f67cb161a274fea510b80c02f5a0c0d1b6707339dbb96d6c6b3b9ae9f4ecf1",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "simulate --n 10 --m-reps 2048 --seed 1 --workers 1 --out r.json": {
        "exit": 0,
        "stdout": "c73e70eb971e5b853b3d1ad0c79cb4e3d4c0de854b48bc54a9a73026cfd76a2a",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "r.json": "a790595a4228c0ade06bad9ec9f94e1772af59b49e5d4acab3e92003084d7970",
    },
    "simulate --n 10 --m-reps 2048 --seed 1 --workers 2 --out r.json": {
        "exit": 0,
        "stdout": "c73e70eb971e5b853b3d1ad0c79cb4e3d4c0de854b48bc54a9a73026cfd76a2a",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "r.json": "a790595a4228c0ade06bad9ec9f94e1772af59b49e5d4acab3e92003084d7970",
    },
    "simulate --n 20 --m-reps 1500 --table rho-sweep --seed 3 --workers 1 --format csv --out r.csv": {
        "exit": 0,
        "stdout": "c968c848e5a210312b993820b620b3979a3ff6a661c51b4d56fda9ffe5bb1b85",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "r.csv": "c52b5a33cb4e82e844e9a9e062c40c1ec4582c5715629afdcae1f4299453a1fd",
    },
    "simulate --n 20 --m-reps 1500 --table rho-sweep --seed 3 --workers 2 --format csv --out r.csv": {
        "exit": 0,
        "stdout": "c968c848e5a210312b993820b620b3979a3ff6a661c51b4d56fda9ffe5bb1b85",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "r.csv": "c52b5a33cb4e82e844e9a9e062c40c1ec4582c5715629afdcae1f4299453a1fd",
    },
    "simulate --n 50 --table rho-sweep --analytic-only --sigma 2.5 --out r.json": {
        "exit": 0,
        "stdout": "59b821cf38213e6650fb0803b20c35968675befcebbb3e57d30f5d7c0a66740d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "r.json": "322ebfaa0928a753a608685d03cb839ceded529cb35310fc7fead63c4c5d3f67",
    },
    "simulate --n 5 --m-reps 1 --seed 2": {
        "exit": 0,
        "stdout": "cee906afbb72183736fbd9a27a2ee5a243aa89745e1fc70029e1e8c0ef2dcb48",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "simulate --n 10 --rho -0.5": {
        "exit": 3,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "d3e11cd4634f5ada9479a33bf366f8ab6c93138850995eb5ee55e1ec40102ca8",
    },
    "simulate --n 10 --sigma 1e200 --analytic-only": {
        "exit": 3,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "90b4a9a6568c1835065667ffbc27b30b48b894e207a7a0a96f923791b54c49f5",
    },
    "survival tiny.csv --tref 2003-01-02 --date 2003-01-06 --hill-sweep h.csv": {
        "exit": 0,
        "stdout": "81dde196de5417d720d233294daa6e217e27745632c6773dbf74813d5cb679d5",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "h.csv": "d7f8260e6d80529ca8d56eab109fad0537d7d932a75048916a3214ba6063bb11",
    },
    "analyze missing.csv --tref 2003-01-02": {
        "exit": 2,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "2e51b22ad1f831425659cf775930940160e35e2e7f97fa9288e8701a2ef7d461",
    },
    "analyze tiny.csv --tref 1999-01-01": {
        "exit": 2,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "c2ad37f9ea3b7611edbb733b3f92ca0bdb090f3b9a58948b114bb586d67e6881",
    },
    # the default window (20) needs more than 40 dates: the tiny panel's 3 end the run
    "analyze tiny.csv --tref 2003-01-02": {
        "exit": 2,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "09d17f81420f688783a4a8067bbf291612f67e9f678896824b3e788164e9c2f1",
    },
    "sweep bubble.csv --years 1990-2004": {
        "exit": 2,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "63dcd633f1b626e4d256e8d4055a19e655f0852d3173e80ea95c457e646b85a3",
    },
    "simulate --n 1": {
        "exit": 2,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "577b8229f975a09834bafc84680d770a1e0370beb0393353c3354cd82f4fa55c",
    },
    "survival tiny.csv --tref 2003-01-03 --date 2003-01-02": {
        "exit": 2,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "4bf90b0a90523f1019d58887e40abd517102e24bfe5c874674fa1342009f3777",
    },
    "analyze tiny.csv --tref 2003-01-02 --format csv": {
        "exit": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "ddb6cc8a105482d3cfb66491c2f7f12e257f2a48bce21c7a1b3f655dfe76a103",
    },
    "simulate --rho 2": {
        "exit": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "839506ca7bd0de1c6a12856f53fa4b89d2110745dcaba40a35e1e891b9f56905",
    },
    "sweep bubble.csv": {
        "exit": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "2c15d64a20ac2d7574a63914eec0c5616823ba02bc7217c12d1e53ae0e44eb8f",
    },
    "survival bubble.csv --tref 2004-01-02 --date 2004-11-15 --hill-sweep h.csv --out ./h.csv": {
        "exit": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "6a88e739ee048a3cc50865bfe822f06af465633e4fbd8bb1830f960e1ce20e46",
    },
    "simulate --n 10 --table rho-sweep --rho 0.5": {
        "exit": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "99c28d07a2ad3070589ccbd16d9af75a4522fd99a5ba7a17a35212652ae202c6",
    },
}


# The outputs that carry Hill alphas, by command line. An alpha sums np.log1p and np.log
# terms (tails._hill_sums), and numpy picks the float64 code of those at run time: its own
# kernels or SVML on a CPU with AVX512, libm elsewhere. The two differ in the last bit or
# two. With NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" (numpy 2.4 names), 130
# of about 13,300 decimals in these outputs moved, by 4.3e-16 at most relative, and no other
# output moved. These outputs are pinned with every decimal rounded to 10 significant
# digits; a move that small crosses a rounding boundary with odds of about 4e-6 a decimal.
ALPHA_OUTPUTS: dict[str, set[str]] = {
    "analyze bubble.csv --tref 2004-01-02 --out a.json": {"a.json"},
    "analyze bubble.csv --tref 2004-06-01 --k-fraction 0.2 --window 5 --format csv --out a.csv":
        {"a.extremes.csv", "a.tail.csv"},
    "analyze bubble.csv --tref 2005-01-03 --window 3": {"stdout"},
    "sweep bubble.csv --years 2004-2006 --out s.json": {"s.json"},
    "sweep bubble.csv --trefs 2004-01-02,2005-03-01 --format csv --out s.csv": {"s.csv"},
    "sweep bubble.csv --years 2005": {"stdout"},
    "survival bubble.csv --tref 2004-01-02 --date 2004-11-15 --hill-sweep h.csv": {"h.csv"},
    "survival bubble.csv --tref 2004-06-01 --date 2005-02-01 --hill-sweep h.csv --format json --out c.json":
        {"h.csv"},
    "survival tiny.csv --tref 2003-01-02 --date 2003-01-06 --hill-sweep h.csv": {"h.csv"},
}

_DECIMAL = re.compile(rb"-?\d+\.\d+(?:e[-+]\d+)?|-?\d+e[-+]\d+")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rounded(data: bytes) -> bytes:
    return _DECIMAL.sub(lambda number: b"%.10g" % float(number[0]), data)


@pytest.fixture(scope="module")
def input_bytes(tmp_path_factory) -> dict[str, bytes]:
    folder = tmp_path_factory.mktemp("inputs")
    panels = _inputs()
    for name, panel in panels.items():
        write_price_panel(panel, folder / name)
    return {name: (folder / name).read_bytes() for name in panels}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_command_output_is_byte_identical(argv, input_bytes, tmp_path, monkeypatch, capsys):
    for name, data in input_bytes.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
    code = main(argv.split())
    out, err = capsys.readouterr()
    outputs = {"stdout": out.encode(), "stderr": err.encode()}
    for name in sorted(set(os.listdir(tmp_path)) - set(input_bytes)):
        outputs[name] = (tmp_path / name).read_bytes()
    rounded = ALPHA_OUTPUTS.get(argv, set())
    got: dict[str, int | str] = {"exit": code}
    for name, data in outputs.items():
        got[name] = _sha(_rounded(data) if name in rounded else data)
    want = GOLDEN[argv]
    differs = sorted(key for key in got.keys() | want.keys() if got.get(key) != want.get(key))
    assert not differs, f"crossdisp {argv}: {', '.join(differs)} differ; now {got!r}"


def test_every_alpha_output_is_a_golden_output():
    assert all(names <= GOLDEN[argv].keys() for argv, names in ALPHA_OUTPUTS.items())
