"""Replica smoke: one in-process replica tails a segmented WAL and
reaches the primary's scores within 1e-9.

Replica bootstrap and tail throughput are measured end to end by
``perfbench/`` (the ``replica_catchup`` workload).
"""

from __future__ import annotations

from repro.core.config import ParisConfig
from repro.datasets.incremental import family_addition, family_pair
from repro.service import AlignmentService, Delta
from repro.service.replica import ReplicaNode
from repro.service.stream import WriteAheadLog

#: Families per delta.
DELTA_FAMILIES = 16

#: Required score equality of the replica against the primary.
SCORE_TOLERANCE = 1e-9


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
