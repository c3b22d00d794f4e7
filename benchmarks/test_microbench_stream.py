"""Micro-benchmark: the work of coalesced ingest, pinned.

On the 1 %-delta family fixture, one resident service ingests
alternating bursts of small deltas two ways: one ``apply_delta`` per
delta (a warm fixpoint each), and the same burst shape through the
WAL + coalescing batcher (``repro.service.stream``), which pays one
fsync'd append per delta and one warm fixpoint per burst.

The work counters are deterministic, so they are pinned exactly:
batches flushed (one per burst), warm passes of the one-by-one
applies, and pairs touched over the whole stream.  A change that makes
ingest do more work fails here; one that makes it do less updates the
pin.  Score equality of the final state against a cold realign is
asserted too, so no counter can be bought with wrong answers.  Ingest
latency and throughput are measured end to end by ``perfbench/``.
"""

from __future__ import annotations

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

#: Alternating rounds per path.
ROUNDS = 3

#: Required score equality against a cold realign of the final corpus.
SCORE_TOLERANCE = 1e-9

#: Pinned work: warm passes of the one-by-one applies, and pairs
#: touched over all ``2 * ROUNDS * BURST`` deltas.
WARM_PASSES_SINGLE = 48
PAIRS_TOUCHED = 1728


def burst_deltas(first_family: int) -> list:
    deltas = []
    for step in range(BURST):
        add1, add2 = family_addition(first_family + step * DELTA_FAMILIES, DELTA_FAMILIES)
        deltas.append(Delta(add1=tuple(add1), add2=tuple(add2)))
    return deltas


def test_batcher_throughput_vs_one_post_per_delta(tmp_path):
    left, right = family_pair(BASE_FAMILIES)
    service = AlignmentService.cold_start(left, right, ParisConfig())
    wal = WriteAheadLog(tmp_path / "wal.ndjson")

    next_family = BASE_FAMILIES
    sequence = 0
    passes_single = 0
    batches = 0
    pairs_before = service.total_pairs_touched
    for _round in range(ROUNDS):
        # One engine apply per delta.
        for delta in burst_deltas(next_family):
            passes_single += service.apply_delta(delta).passes
        next_family += BURST * DELTA_FAMILIES

        # The same burst shape through WAL + coalescing batcher: one
        # fsync'd append per delta, one warm fixpoint per burst.
        batcher = DeltaBatcher(service, wal=wal, max_batch=BURST, max_lag=0.25)
        for delta in burst_deltas(next_family):
            sequence += 1
            batcher.submit(delta, source="bench", seq=sequence)
        next_family += BURST * DELTA_FAMILIES
        batcher.start()
        assert batcher.flush(timeout=300)
        batches += batcher.stats()["batches"]
        batcher.close()
    wal.close()
    pairs_touched = service.total_pairs_touched - pairs_before

    # Correctness first: the mixed stream must land on the cold fixpoint.
    reference = align(*family_pair(next_family), ParisConfig(score_stationarity=True))
    difference = service.state.store.max_difference(reference.instances)
    assert difference <= SCORE_TOLERANCE, (
        f"batched ingest diverged from the cold realign by {difference:.3e}"
    )
    assert batches == ROUNDS, (
        f"each burst should coalesce into one batch: {batches} batches "
        f"for {ROUNDS} bursts"
    )
    work = (passes_single, pairs_touched)
    assert work == (WARM_PASSES_SINGLE, PAIRS_TOUCHED), (
        f"(warm passes single, pairs touched) moved from "
        f"{(WARM_PASSES_SINGLE, PAIRS_TOUCHED)} to {work}"
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
