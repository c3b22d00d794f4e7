"""Micro-benchmark: delta-update latency vs. full realignment.

The headline numbers of the incremental alignment service: on the
disconnected family fixture (:mod:`repro.datasets.incremental`), a
1 %-of-triples delta absorbed through the warm-start fixpoint must be

* **≥ 5× faster** than a cold realignment of the updated corpus,
* **≥ 5× fewer pairs touched** than the store holds — the
  frontier-proportional bookkeeping guarantee of the copy-on-write
  overlay path (store writes + restricted-view updates, counted by
  :class:`repro.core.store.OverlayStore`), and
* score-equal to the cold run within 1e-9.

All three are asserted here (the equality also independently in
``tests/test_warm_start.py``).  The delta's work counters — pairs
touched, warm passes, dirty instances — are deterministic, so they are
pinned exactly (``PAIRS_TOUCHED``, ``WARM_PASSES``, ``DIRTY_INSTANCES``):
a change that makes a delta do more work fails here, and one that makes
it do less updates the pin.

The speedup and pairs-touched assertions are algorithmic (work skipped,
not cores used), so they hold on any machine; the fixture is sized to
keep the bench inside tier-1 runtime.
"""

from __future__ import annotations

import time

from repro.core.aligner import align
from repro.core.config import ParisConfig
from repro.datasets.incremental import family_addition, family_pair
from repro.service import AlignmentService, Delta

#: Families in the base corpus (3 instances, 8 facts each).
BASE_FAMILIES = 400

#: Families per delta — 1 % of the base corpus.
DELTA_FAMILIES = BASE_FAMILIES // 100

#: Successive deltas measured; the *minimum* warm latency counts, so a
#: single scheduler stall on a noisy machine cannot fail the ratio.
WARM_ROUNDS = 3

#: Required advantage of the warm path over a cold realign.
MIN_SPEEDUP = 5.0

#: Required advantage of pairs touched per delta over the store size.
MIN_PAIRS_RATIO = 5.0

#: Required score equality between warm state and cold realign.
SCORE_TOLERANCE = 1e-9

#: Pinned work of the worst delta: pairs touched, warm passes, dirty
#: instances.
PAIRS_TOUCHED = 72
WARM_PASSES = 2
DIRTY_INSTANCES = 12


def test_incremental_delta_vs_cold_realign():
    left, right = family_pair(BASE_FAMILIES)
    service = AlignmentService.cold_start(left, right, ParisConfig())
    assert service.state.converged

    warm_rounds = []
    pairs_touched_rounds = []
    last_report = None
    for round_index in range(WARM_ROUNDS):
        add_left, add_right = family_addition(
            BASE_FAMILIES + round_index * DELTA_FAMILIES, DELTA_FAMILIES
        )
        delta = Delta(add1=tuple(add_left), add2=tuple(add_right))
        started = time.perf_counter()
        last_report = service.apply_delta(delta)
        warm_rounds.append(time.perf_counter() - started)
        pairs_touched_rounds.append(last_report.pairs_touched)
        assert last_report.converged
    warm_seconds = min(warm_rounds)
    pairs_touched = max(pairs_touched_rounds)

    final_families = BASE_FAMILIES + WARM_ROUNDS * DELTA_FAMILIES
    cold_left, cold_right = family_pair(final_families)
    started = time.perf_counter()
    reference = align(cold_left, cold_right, ParisConfig(score_stationarity=True))
    cold_seconds = time.perf_counter() - started
    assert reference.converged

    difference = service.state.store.max_difference(reference.instances)
    speedup = cold_seconds / warm_seconds
    store_pairs = len(service.state.store)
    pairs_ratio = store_pairs / pairs_touched

    assert difference <= SCORE_TOLERANCE, (
        f"warm-start scores diverged from cold realign by {difference:.3e}"
    )
    work = (pairs_touched, last_report.passes, last_report.dirty)
    assert work == (PAIRS_TOUCHED, WARM_PASSES, DIRTY_INSTANCES), (
        f"(pairs touched, warm passes, dirty instances) per delta moved from "
        f"{(PAIRS_TOUCHED, WARM_PASSES, DIRTY_INSTANCES)} to {work}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x over cold realign, got {speedup:.1f}x "
        f"(cold {cold_seconds:.3f}s vs warm {warm_seconds:.3f}s)"
    )
    assert pairs_ratio >= MIN_PAIRS_RATIO, (
        f"warm pass bookkeeping is not frontier-proportional: touched "
        f"{pairs_touched} pairs against a {store_pairs}-pair store "
        f"({pairs_ratio:.1f}x, expected >= {MIN_PAIRS_RATIO}x fewer)"
    )


def test_incremental_smoke():
    """CI smoke: tiny corpus, equality only (no timing assertions)."""
    left, right = family_pair(20)
    service = AlignmentService.cold_start(left, right, ParisConfig())
    add_left, add_right = family_addition(20, 1)
    report = service.apply_delta(Delta(add1=tuple(add_left), add2=tuple(add_right)))
    assert report.converged
    reference = align(*family_pair(21), ParisConfig(score_stationarity=True))
    assert service.state.store.max_difference(reference.instances) <= SCORE_TOLERANCE
