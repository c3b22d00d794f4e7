"""Shared helpers for the benchmark harness.

Every paper bench regenerates one table or figure of the paper: it
prints the rows (visible with ``pytest benchmarks/ -s``) and also
writes them to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can
cite stable artifacts.  Those outputs are deterministic, so a rerun
rewrites them byte for byte.

The microbenches emit machine-dependent timings instead: a
``microbench_<name>.txt`` table and a machine-readable
``BENCH_<name>.json``.  They go to ``$BENCH_JSON_DIR`` when it is set
and to the gitignored ``bench-out/`` at the repository root otherwise,
never to ``benchmarks/results/``: the committed ``BENCH_*.json`` copies
there are the regression baselines the CI ``bench-track`` job compares
fresh runs against (see :mod:`benchmarks.compare_baseline`), so a plain
test run must not overwrite them.  Refresh a baseline on purpose with
``BENCH_JSON_DIR=benchmarks/results``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Directory where rendered tables/figures are persisted.
RESULTS_DIR = Path(__file__).parent / "results"

#: Default home of fresh microbench outputs (gitignored).
BENCH_OUT_DIR = Path(__file__).parent.parent / "bench-out"


def bench_output_dir() -> Path:
    """Where microbench outputs go: ``$BENCH_JSON_DIR`` or ``bench-out/``."""
    directory = Path(os.environ.get("BENCH_JSON_DIR") or BENCH_OUT_DIR)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def save_artifact(name: str, text: str) -> Path:
    """Print a rendered table and persist it under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n=== {name} ===\n{text}\n")
    return path


def save_bench_text(name: str, text: str) -> Path:
    """Print a microbench table and persist it as ``<name>.txt`` in
    :func:`bench_output_dir`."""
    path = bench_output_dir() / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n=== {name} ===\n{text}\n")
    return path


def save_bench_json(name: str, metrics: dict) -> Path:
    """Persist one bench's metrics as ``BENCH_<name>.json``.

    ``metrics`` maps metric name to a dict with ``value`` plus optional
    ``higher_is_better`` (default ``True``), ``informational`` (skip
    the regression gate — for wall-clock numbers that depend on the
    machine) and ``floor`` (absolute lower bound, gated regardless of
    the baseline).  Deterministic, machine-independent metrics are the
    ones worth gating.
    """
    path = bench_output_dir() / f"BENCH_{name}.json"
    payload = {"bench": name, "metrics": metrics}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Alignment runs take seconds; calibrated multi-round timing would
    multiply bench wall-clock for no extra information.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
