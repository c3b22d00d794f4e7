"""Shared helpers for the benchmark harness.

Every paper bench regenerates one table or figure of the paper: it
prints the rows (visible with ``pytest benchmarks/ -s``) and also
writes them to ``benchmarks/results/<name>.txt`` as stable, citable
artifacts.  Those outputs are deterministic, so a rerun rewrites them
byte for byte.  The ``test_microbench_*`` files write nothing: they
pin deterministic work counters and same-process speed ratios, and
``perfbench/`` measures performance end to end.
"""

from __future__ import annotations

from pathlib import Path

#: Directory where rendered tables/figures are persisted.
RESULTS_DIR = Path(__file__).parent / "results"


def save_artifact(name: str, text: str) -> Path:
    """Print a rendered table and persist it under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n=== {name} ===\n{text}\n")
    return path


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Alignment runs take seconds; calibrated multi-round timing would
    multiply bench wall-clock for no extra information.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
