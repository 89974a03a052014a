"""Set-up child: a fresh-interpreter import of crossdisp, then one
workload's panel generated and written as CSV.

    python3 bench/make_input.py SEED PANEL.csv PARAMS_JSON

PARAMS_JSON holds the ``bubble_panel`` arguments, or ``null`` for a
workload without a panel (then only the import happens). Prints one JSON
line with the time of each step. The harness times the whole process
from spawn to exit as ``setup_s``.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    seed, path, params = int(argv[0]), argv[1], json.loads(argv[2])
    t0 = time.perf_counter()
    import crossdisp.cli  # noqa: F401  the import every CLI run pays
    from crossdisp.io import write_price_panel

    from workloads import make_panel

    t1 = time.perf_counter()
    timings = {"import_s": t1 - t0, "bubble_panel_s": 0.0, "write_price_panel_s": 0.0}
    if params is not None:
        panel = make_panel(params, seed)
        t2 = time.perf_counter()
        write_price_panel(panel, path)
        timings["bubble_panel_s"] = t2 - t1
        timings["write_price_panel_s"] = time.perf_counter() - t2
    print(json.dumps(timings))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
