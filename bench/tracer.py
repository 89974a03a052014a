"""Traced single CLI run, and the span arithmetic the harness applies to it.

Run as a script, this file is the child of a traced run:

    python3 bench/tracer.py SPANS.json -- analyze panel.csv --tref ...

It imports ``crossdisp.cli`` in a fresh interpreter, wraps the public
functions at the names through which the CLI calls them, runs
``crossdisp.cli.main(argv)`` and writes every span to SPANS.json when main
returns. A wrap point whose function no longer exists is listed as
missing instead of failing the run. Spans live in memory until then, so
the only cost inside the measured program is a clock read, a CPU-time
read and a ``getrusage`` at each boundary.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import threading
import time
from typing import Any, Callable

# (module, attribute) pairs wrapped in the traced child. The CLI calls
# every layer through its own module namespace; tref_sweep and
# write_report reach normalize/dispersion/tail/render through the io
# namespace, and the simulator's pool threads call dispersion_values
# through the simulate namespace. A span is named after the module that
# defines the function, unless a third element names it: the pool
# threads' dispersion_values is the simulator's variance step.
WRAP_POINTS = (
    ("crossdisp.cli", "load_price_panel"),
    ("crossdisp.cli", "normalize_panel"),
    ("crossdisp.cli", "dispersion_series"),
    ("crossdisp.cli", "tail_series"),
    ("crossdisp.cli", "detect_extremes"),
    ("crossdisp.cli", "survival_curve"),
    ("crossdisp.cli", "hill_k_sweep"),
    ("crossdisp.cli", "render_report"),
    ("crossdisp.cli", "write_report"),
    ("crossdisp.cli", "tref_sweep"),
    ("crossdisp.cli", "validate_feasibility"),
    ("crossdisp.cli", "simulate_dispersion"),
    ("crossdisp.io", "normalize_panel"),
    ("crossdisp.io", "dispersion_series"),
    ("crossdisp.io", "tail_series"),
    ("crossdisp.io", "render_report"),
    ("crossdisp.simulate", "dispersion_values", "simulate.dispersion_values"),
)

ROOT = "cli.main"


def _layer_name(func: Callable[..., Any]) -> str:
    """``panel.normalize_panel`` for crossdisp.panel.normalize_panel."""
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


# Work counters recorded at a span's end, keyed by layer name. Each gets
# (args, kwargs, result); a counter that no longer fits the function's
# signature is dropped rather than failing the traced run.
def _count_load(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _count_tail_series(args, kwargs, result):
    return {
        "dates": len(result.dates),
        "estimated": sum(e is not None for e in result.estimates),
    }


def _count_render(args, kwargs, result):
    return {"chars": len(result)}


def _count_extremes(args, kwargs, result):
    return {"events": len(result)}


def _count_hill_sweep(args, kwargs, result):
    k_values = args[1] if len(args) > 1 else kwargs.get("k_values")
    tried = len(k_values) if k_values is not None else len(args[0]) - 1
    return {"tried": tried, "estimated": len(result)}


def _count_simulate(args, kwargs, result):
    config = args[0]
    workers = args[1] if len(args) > 1 else kwargs.get("workers", 1)
    return {"values": config.reps * config.spec.n, "workers": workers}


COUNTERS = {
    "io.load_price_panel": _count_load,
    "tails.tail_series": _count_tail_series,
    "io.render_report": _count_render,
    "tails.detect_extremes": _count_extremes,
    "tails.hill_k_sweep": _count_hill_sweep,
    "simulate.simulate_dispersion": _count_simulate,
}


class Tracer:
    """In-memory span recorder.

    A span is a dict with name, start, end (perf_counter seconds), parent
    (index into ``spans`` or -1), thread, process CPU seconds and peak RSS
    at both ends, and the layer's counters. A span opened on a thread with
    no open span of its own, such as a pool worker, takes the innermost
    span open on the main thread as its parent.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        span = {
            "name": name,
            "parent": parent,
            "thread": threading.get_ident(),
            "cpu_start": time.process_time(),
            "rss_start_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "start": time.perf_counter(),
        }
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int, counts: dict[str, Any] | None = None) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["cpu_end"] = time.process_time()
        span["rss_end_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        span["counts"] = counts or {}
        self._stack().pop()

    def wrap(self, func: Callable[..., Any], name: str | None = None) -> Callable[..., Any]:
        name = name or _layer_name(func)
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = self.open(name)
            counts = None
            try:
                result = func(*args, **kwargs)
                if counter is not None:
                    try:
                        counts = counter(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, OSError):
                        counts = None
                return result
            finally:
                self.close(index, counts)

        return traced

    def install(self, points=WRAP_POINTS) -> None:
        for module_name, attr, *name in points:
            module = importlib.import_module(module_name)
            func = getattr(module, attr, None)
            if not callable(func):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(func, *name))


# ---------------------------------------------------------------------------
# span arithmetic (used by the harness on the written spans)
# ---------------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[dict[str, Any]]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start"], span["end"]))
    return [
        (s["end"] - s["start"]) - covered(kids, s["start"], s["end"])
        for s, kids in zip(spans, children)
    ]


def summarize(spans: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Per layer name: calls, total (inclusive) seconds, self seconds,
    process CPU seconds, peak-RSS growth and summed counters.

    Spans of one layer on several threads add up, so a layer run by two
    pool threads at once can report more seconds than wall time passed.
    CPU time is the whole process's while the span was open, so it too
    counts twice for spans that overlap on two threads.
    """
    table: dict[str, dict[str, Any]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            span["name"],
            {"calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0,
             "rss_growth_kb": 0, "counts": {}},
        )
        row["calls"] += 1
        row["s"] += span["end"] - span["start"]
        row["self_s"] += own
        row["cpu_s"] += span["cpu_end"] - span["cpu_start"]
        row["rss_growth_kb"] += span["rss_end_kb"] - span["rss_start_kb"]
        for key, value in span["counts"].items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return table


# ---------------------------------------------------------------------------
# traced child
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <crossdisp arguments>", file=sys.stderr)
        return 1
    spans_path, cli_argv = argv[0], argv[2:]
    cli = importlib.import_module("crossdisp.cli")
    tracer = Tracer()
    tracer.install()
    code = None
    root = tracer.open(ROOT)
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.close(root)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"exit_code": code,
                       "missing": tracer.missing, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
