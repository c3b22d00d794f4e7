"""Machine pace: a fixed reference kernel timed next to the program.

The benchmark runs on small shared VMs whose CPU speed changes by up to
about 2x, in phases from seconds to minutes.  A CPU-bound op's time, and
its CPU time, move with that speed, so ten runs made at different times
can spread wider than any useful bound.  The benchmark therefore times a
fixed kernel, which is its own code and never the program's, between the
program's ops, and reports CPU-bound times at the kernel's nominal pace:

    scaled time = measured time * REFERENCE_MS / kernel time

A change to the program moves the measured time and not the kernel's, so
it shows in full; a change in the machine's speed moves both and mostly
cancels.  The speed changes within seconds, so an in-process op is scaled
by a sample taken right before it.  The kernel's time is the CPU time of
its thread, not its wall time: a sampler process next to a server is
often made to wait for a CPU, and that wait is not the machine's pace.

The kernel does what the program's hot loops do: tuple-keyed dict inserts
and lookups, float arithmetic and a sort in the interpreter, and C-level
work on records (pickle and JSON round trips, as in snapshot load and WAL
decode) and on numpy arrays.  With the C-level part, its time tracked the
program's better than with the interpreter part alone.  The garbage
collector is off while it runs, so the size of the program's heap does
not change its time.

Usage as a sampler process: ``python3 perfbench/pace.py SECONDS EVERY OUT``
runs the kernel RUNS_PER_SAMPLE times every EVERY seconds for SECONDS and
writes each run's time to OUT as a JSON list.  The HTTP workloads use it, so that the kernel shares
no interpreter, and no GIL, with the load generator's client threads.
"""

from __future__ import annotations

import gc
import json
import pickle
import statistics
import sys
import time
from pathlib import Path
from typing import List

import numpy

#: The kernel's nominal CPU time (ms): about its typical time on a 2-vCPU
#: Intel Xeon VM.  Scaled times read in ms (or s) of such a machine at
#: that pace.
REFERENCE_MS = 12.5

#: Sizes of the kernel's parts: a dict of _KEYS tuple keys, and _RECORDS
#: small records round-tripped through pickle and JSON _ROUNDS times.
#: They add little to the peak memory of the process the kernel runs in.
_KEYS, _RECORDS, _ROUNDS = 10_000, 300, 3

_RECORD_LIST = [
    {"left": f"p{i}a", "right": f"q{i}a", "score": i * 0.001, "tags": (i, i + 1)}
    for i in range(_RECORDS)
]


def reference_ms() -> float:
    """Run the reference kernel once; the CPU time it took, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        table = {}
        for i in range(_KEYS):
            table[(i % 997, i)] = i * 0.5
        total = 0.0
        for (bucket, _i), value in table.items():
            total += value * bucket
        for i in range(0, _KEYS, 3):
            total -= table[(i % 997, i)]
        ranked = sorted(table.values(), reverse=True)
        for _ in range(_ROUNDS):
            records = pickle.loads(pickle.dumps(_RECORD_LIST, protocol=5))
            records = json.loads(json.dumps(records))
        array = numpy.arange(2 * _KEYS, dtype=float)
        for _ in range(40):
            array = numpy.sqrt(array * 1.0001 + 1.0)
        order = numpy.argsort(-array)
        elapsed = time.thread_time() - started
    finally:
        if enabled:
            gc.enable()
    # Keep every result live, so no part of the work can be skipped.
    if total != total or not ranked or len(records) != _RECORDS or order[0] < 0:
        raise RuntimeError("reference kernel went wrong")
    return elapsed * 1000.0


#: Kernel runs in a row per pace sample.
RUNS_PER_SAMPLE = 3


class Pace:
    """Pace samples taken over a window, each the mean of ``runs`` kernel
    runs in a row.  A sample's factor, REFERENCE_MS over it, multiplies a
    time measured next to it (and divides a rate)."""

    def __init__(self, runs: int = RUNS_PER_SAMPLE) -> None:
        self.runs = runs
        self.samples: List[float] = []

    def sample(self) -> float:
        value = sum(reference_ms() for _ in range(self.runs)) / self.runs
        self.samples.append(value)
        return value

    def factor(self) -> float:
        """The factor of the window: REFERENCE_MS over the median sample.
        A few kernel runs in a window take two or three times as long as
        the rest, and the mean would follow them."""
        if not self.samples:
            raise RuntimeError("no pace samples")
        return REFERENCE_MS / statistics.median(self.samples)

    def factors(self) -> List[float]:
        """The factor of each sample."""
        return [REFERENCE_MS / value for value in self.samples]


def _sampler(seconds: float, every: float, out: str) -> int:
    pace = Pace(runs=1)
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        for _ in range(RUNS_PER_SAMPLE):
            pace.sample()
        time.sleep(every)
    Path(out).write_text(json.dumps(pace.samples), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(_sampler(float(sys.argv[1]), float(sys.argv[2]), sys.argv[3]))
