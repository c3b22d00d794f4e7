"""Micro-benchmark: ingest throughput through the coalescing batcher.

The streaming subsystem's headline number: on the 1 %-delta family
fixture, a burst of small deltas through the WAL + coalescing batcher
(``repro.service.stream``) must sustain **≥ 3× the deltas/second** of
the one-synchronous-POST-per-delta path, *at equal per-delta
durability*:

* the per-delta snapshot path (one engine apply per delta, made
  durable without a log: ``snapshot_every=1``) pays one warm
  convergence **and one O(corpus) state snapshot** per delta — the
  snapshot being its only durability between restarts;
* the streaming path pays one O(delta) fsync'd WAL append per delta —
  the same crash-durability point — and one warm fixpoint over the
  whole coalesced burst.

Both paths run on the same resident service against the same uniform
family corpus, alternating over :data:`ROUNDS` bursts with the *best*
round counting for each path (as in the incremental bench: a single
scheduler stall on a noisy machine must not decide the ratio).  The
wall-clock throughputs are machine-dependent: the in-test assertion is
skipped under ``BENCH_RELAX_WALLCLOCK=1`` (the CI bench-track mode, as
in the parallel bench) and the JSON ``floor`` keeps gating the
best-of-rounds value, which the ~7× measured margin over the 3×
requirement protects.  The *work* metrics — batches flushed, engine
batches, warm passes, pairs touched — are deterministic and
baseline-gated by ``benchmarks/compare_baseline.py``.  Score equality
of the final state against a cold realign is asserted here too, so
the throughput cannot be bought with wrong answers.
"""

from __future__ import annotations

import os
import time

from helpers import save_bench_json, save_bench_text
from repro.core.aligner import align
from repro.core.config import ParisConfig
from repro.datasets.incremental import family_addition, family_pair
from repro.service import AlignmentService, Delta
from repro.service.stream import DeltaBatcher, WriteAheadLog

#: Families in the base corpus (3 instances, 8 facts each).
BASE_FAMILIES = 200

#: Families per delta — 1 % of the base corpus.
DELTA_FAMILIES = BASE_FAMILIES // 100

#: Deltas per burst (each path ingests one burst per round).
BURST = 8

#: Alternating rounds per path; the best round counts.
ROUNDS = 3

#: Required throughput advantage of the batcher over one-POST-per-delta.
MIN_SPEEDUP = 3.0

#: Required score equality against a cold realign of the final corpus.
SCORE_TOLERANCE = 1e-9


def burst_deltas(first_family: int) -> list:
    deltas = []
    for step in range(BURST):
        add1, add2 = family_addition(first_family + step * DELTA_FAMILIES, DELTA_FAMILIES)
        deltas.append(Delta(add1=tuple(add1), add2=tuple(add2)))
    return deltas


def test_batcher_throughput_vs_one_post_per_delta(tmp_path):
    left, right = family_pair(BASE_FAMILIES)
    service = AlignmentService.cold_start(left, right, ParisConfig())
    state_dir = tmp_path / "state"
    wal = WriteAheadLog(tmp_path / "wal.ndjson")

    next_family = BASE_FAMILIES
    sequence = 0
    passes_single = 0
    pairs_before = service.total_pairs_touched
    single_rounds = []
    batched_rounds = []
    batches = 0
    for _round in range(ROUNDS):
        # The per-delta snapshot path: one engine apply per delta plus
        # the snapshot that is its only durability without a log
        # (snapshot_every=1).
        singles = burst_deltas(next_family)
        next_family += BURST * DELTA_FAMILIES
        started = time.perf_counter()
        for delta in singles:
            report = service.apply_delta(delta)
            passes_single += report.passes
            service.snapshot(state_dir)
        single_rounds.append(time.perf_counter() - started)

        # The same burst shape through WAL + coalescing batcher: one
        # fsync'd append per delta, one warm fixpoint per burst.
        batched = burst_deltas(next_family)
        next_family += BURST * DELTA_FAMILIES
        batcher = DeltaBatcher(service, wal=wal, max_batch=BURST, max_lag=0.25)
        started = time.perf_counter()
        for delta in batched:
            sequence += 1
            batcher.submit(delta, source="bench", seq=sequence)
        batcher.start()
        assert batcher.flush(timeout=300)
        batched_rounds.append(time.perf_counter() - started)
        batches += batcher.stats()["batches"]
        batcher.close()
    wal.close()

    single_seconds = min(single_rounds)
    batched_seconds = min(batched_rounds)
    single_rate = BURST / single_seconds
    batched_rate = BURST / batched_seconds
    speedup = batched_rate / single_rate
    pairs_touched = service.total_pairs_touched - pairs_before

    # Correctness first: the mixed stream must land on the cold fixpoint.
    final_families = next_family
    reference = align(*family_pair(final_families), ParisConfig(score_stationarity=True))
    difference = service.state.store.max_difference(reference.instances)

    rows = [
        f"base corpus:        {BASE_FAMILIES} families x 2 sides "
        f"({8 * BASE_FAMILIES * 2} triples)",
        f"burst:              {BURST} deltas x {DELTA_FAMILIES} families "
        f"({8 * DELTA_FAMILIES * 2} triples each, "
        f"{DELTA_FAMILIES / BASE_FAMILIES:.1%} of corpus), "
        f"{ROUNDS} rounds per path",
        f"one-POST-per-delta: {single_seconds:8.3f} s best of "
        f"{[f'{seconds:.3f}' for seconds in single_rounds]} "
        f"({single_rate:6.1f} deltas/s, snapshot per delta)",
        f"batcher (WAL'd):    {batched_seconds:8.3f} s best of "
        f"{[f'{seconds:.3f}' for seconds in batched_rounds]} "
        f"({batched_rate:6.1f} deltas/s, fsync per delta)",
        f"throughput gain:    {speedup:8.1f} x ({batches} batches for "
        f"{ROUNDS * BURST} batched deltas)",
        f"max score diff:     {difference:.3e} (tolerance {SCORE_TOLERANCE:.0e})",
    ]
    save_bench_text("microbench_stream", "\n".join(rows))
    save_bench_json(
        "stream",
        {
            # Deterministic metrics: gated against the committed
            # baseline by benchmarks/compare_baseline.py (CI bench-track).
            "batches": {"value": batches, "higher_is_better": False},
            "pairs_touched_batched": {
                "value": pairs_touched,
                "higher_is_better": False,
            },
            "warm_passes_single": {
                "value": passes_single,
                "higher_is_better": False,
            },
            # Wall-clock metrics: machine-dependent; the acceptance
            # floor on the (best-of-rounds) speedup is gated regardless
            # of the baseline.
            "speedup": {
                "value": speedup,
                "higher_is_better": True,
                "informational": True,
                "floor": MIN_SPEEDUP,
            },
            "single_deltas_per_sec": {
                "value": single_rate,
                "higher_is_better": True,
                "informational": True,
            },
            "batched_deltas_per_sec": {
                "value": batched_rate,
                "higher_is_better": True,
                "informational": True,
            },
        },
    )

    assert difference <= SCORE_TOLERANCE, (
        f"batched ingest diverged from the cold realign by {difference:.3e}"
    )
    assert batches == ROUNDS, (
        f"each burst should coalesce into one batch: {batches} batches "
        f"for {ROUNDS} bursts"
    )
    if os.environ.get("BENCH_RELAX_WALLCLOCK") == "1":
        # bench-track mode: record the curve + JSON artifact, but skip
        # the wall-clock assertion — shared CI runners stall
        # unpredictably (same policy as the parallel bench); the JSON
        # floor still gates the best-of-rounds value.
        return
    assert speedup >= MIN_SPEEDUP, (
        f"expected the batcher to ingest >= {MIN_SPEEDUP}x faster than "
        f"one-POST-per-delta, got {speedup:.1f}x "
        f"({single_rate:.1f} vs {batched_rate:.1f} deltas/s)"
    )


def test_stream_smoke(tmp_path):
    """CI smoke: tiny corpus, equality through the batcher only."""
    left, right = family_pair(12)
    service = AlignmentService.cold_start(left, right, ParisConfig())
    batcher = DeltaBatcher(
        service, wal=WriteAheadLog(tmp_path / "wal.ndjson"), max_batch=4, max_lag=0.2
    )
    for step in range(3):
        add1, add2 = family_addition(12 + step, 1)
        batcher.submit(Delta(add1=tuple(add1), add2=tuple(add2)), source="s", seq=step + 1)
    batcher.start()
    assert batcher.flush(timeout=120)
    batcher.close()
    reference = align(*family_pair(15), ParisConfig(score_stationarity=True))
    assert service.state.store.max_difference(reference.instances) <= SCORE_TOLERANCE
