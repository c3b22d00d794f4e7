"""Replica smoke: one in-process replica tails a segmented WAL and
reaches the primary's scores within 1e-9; attach fills its relation
caches from one kernel sweep at least ``ATTACH_FLOOR`` times faster
than the dict sweep.

Both sides of that ratio run in one process on the same box, so, like
the kernel floor of ``test_microbench_core.py``, it survives noisy
runners.  Replica bootstrap and tail throughput are measured end to end
by ``perfbench/`` (the ``replica_catchup`` workload).
"""

from __future__ import annotations

import gc
import time

from repro.core.config import ParisConfig
from repro.core.incremental import IncrementalRelationPass
from repro.datasets.incremental import family_addition, family_pair
from repro.service import AlignmentService, Delta
from repro.service.replica import ReplicaNode
from repro.service.stream import WriteAheadLog

#: Families per delta.
DELTA_FAMILIES = 16

#: Required score equality of the replica against the primary.
SCORE_TOLERANCE = 1e-9

#: Kernel-vs-dict floor for building both relation caches of an attach
#: (the kernel's build included).  The kernel measures about 2.3x here;
#: 1.5x leaves slack for hostile hardware.
ATTACH_FLOOR = 1.5

#: Families of the attach fixture: the ``replica_catchup`` corpus.
ATTACH_FAMILIES = 300


def test_replica_smoke(tmp_path):
    """CI smoke: tiny corpus, one in-process replica, equality through
    the segmented WAL."""
    left, right = family_pair(10)
    primary = AlignmentService.cold_start(left, right, ParisConfig())
    state_dir = tmp_path / "state"
    primary.snapshot(state_dir)
    wal = WriteAheadLog(state_dir / "wal.ndjson", segment_bytes=1024)
    for step in range(2):
        add1, add2 = family_addition(150 + step * DELTA_FAMILIES, DELTA_FAMILIES)
        delta = Delta(add1=tuple(add1), add2=tuple(add2))
        offset = wal.append(delta, "bench", step + 1)
        primary.apply_delta(delta, wal_offset=offset)
    replica = ReplicaNode(state_dir, batch=4)
    replica.catch_up(primary.state.wal_offset)
    difference = replica.service.state.store.max_difference(primary.state.store)
    assert difference <= SCORE_TOLERANCE
    wal.close()


def test_attach_relation_caches_from_one_kernel():
    """Both directions' relation caches, as attach builds them: from one
    kernel (built inside the timing) against the dict sweep, best of 3
    each, with equal matrices."""
    left, right = family_pair(ATTACH_FAMILIES)
    service = AlignmentService.cold_start(left, right, ParisConfig())
    state, aligner, config = service.state, service.aligner, service.state.config
    view = aligner.make_view(service._view_maintainer.view_store)

    def caches(kernel):
        return [
            IncrementalRelationPass(
                first,
                second,
                view,
                truncation_threshold=config.theta,
                max_pairs=config.max_pairs_per_relation,
                reverse=reverse,
                bootstrap_theta=config.theta,
                kernel=kernel,
            )
            for first, second, reverse in (
                (state.ontology1, state.ontology2, False),
                (state.ontology2, state.ontology1, True),
            )
        ]

    seconds = {"dict": [], "kernel": []}
    for _round in range(3):
        gc.collect()
        started = time.perf_counter()
        expected = caches(None)
        seconds["dict"].append(time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        got = caches(aligner.new_kernel())
        seconds["kernel"].append(time.perf_counter() - started)
        assert [list(cache.matrix.items()) for cache in got] == [
            list(cache.matrix.items()) for cache in expected
        ]
    speedup = min(seconds["dict"]) / min(seconds["kernel"])
    assert speedup >= ATTACH_FLOOR, (
        f"kernel-built relation caches only {speedup:.2f}x over the dict sweep "
        f"(floor {ATTACH_FLOOR}x; dict {min(seconds['dict']):.4f}s, "
        f"kernel {min(seconds['kernel']):.4f}s)"
    )
