"""Micro-benchmark: aggregate read throughput under concurrent writes.

The replication subsystem's headline number: a fleet of **3 read
replica processes** tailing the primary's WAL must serve **≥ 2× the
aggregate HTTP reads/second** of a single node, while the same write
load runs concurrently:

* the single-node path is ``repro serve`` as-is: every
  ``GET /pair`` is handled in the write process and waits on the one
  engine lock whenever a warm pass is absorbing a delta — under
  back-to-back writes the lock is held almost continuously;
* the replicated path sends the same writes to the same primary, while
  reads go to 3 ``repro replica`` processes.  A replica coalesces its
  whole backlog into one warm pass per poll (fewer, shorter lock
  holds), its reads never compete with the primary's write work for a
  lock or an interpreter, and a reader blocked on one replica's apply
  does not stall the other two.

Both paths boot the same corpus from the same CLI, apply the same
deltas, and count reads only while their writer is running; rounds
alternate and the best round counts per path.  The wall-clock ratio is
machine-dependent twice over: shared runners stall (the in-test
assertion is skipped under ``BENCH_RELAX_WALLCLOCK=1``, the CI
bench-track mode), and the scale-out claim itself needs a core per
process — on fewer than :data:`MIN_CORES_FOR_SPEEDUP` cores
replication strictly adds CPU for the same logical writes, so the
curve is recorded without a floor (the same policy as the parallel
microbench's core gate).  On capable machines the JSON ``floor`` gates
the best-of-rounds value regardless of baseline.  The *work* metrics —
records replicated, replica count — are deterministic and
baseline-gated by ``benchmarks/compare_baseline.py``.  Replica
equivalence is asserted each round (every replica's full alignment
equals the primary's within 1e-9 once caught up), so the throughput
cannot be bought with wrong answers.

After the contention rounds, a mixed-query phase measures the
paginated read surface per shape (single pair, full cursor page-walk,
top-k, entity neighborhood, ``If-None-Match`` revalidation) against
one caught-up, write-idle replica; the per-shape rates are recorded as
additional informational series in ``BENCH_replica.json`` alongside
the original single-pair numbers.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time
from pathlib import Path

import pytest

from helpers import save_bench_json, save_bench_text
from repro.client import request
from repro.datasets.incremental import family_addition, family_pair
from repro.rdf import ntriples
from repro.service import Delta
from repro.testing import fetch_json, spawn, stop, wait_ready

#: Families in the base corpus (3 instances, 8 facts each).
BASE_FAMILIES = 150

#: Families per delta (bigger deltas → longer warm passes → the engine
#: lock is what single-node readers actually contend with).
DELTA_FAMILIES = 16

#: Deltas POSTed during each measured window.
WRITES = 30

#: Alternating measurement rounds per path; the best round counts.
ROUNDS = 2

#: Read replica processes (and reader threads — one per replica in the
#: replicated path, the same number against the single node).
REPLICAS = 3

#: Required aggregate read-throughput advantage of 3 replicas.
MIN_SPEEDUP = 2.0

#: The claim is about scale-out: the primary and every replica process
#: need a core of their own before aggregate throughput can exceed the
#: single node (on fewer cores, replication strictly *adds* CPU work
#: for the same logical writes — the curve is recorded but the ratio
#: is a scheduling artifact, exactly as in the parallel microbench).
MIN_CORES_FOR_SPEEDUP = REPLICAS + 1

#: Required score equality of every replica against the primary.
SCORE_TOLERANCE = 1e-9

def round_deltas(round_index: int) -> list:
    """The same write workload for both paths of one round."""
    deltas = []
    base = BASE_FAMILIES + round_index * WRITES * DELTA_FAMILIES
    for step in range(WRITES):
        add1, add2 = family_addition(base + step * DELTA_FAMILIES, DELTA_FAMILIES)
        deltas.append(Delta(add1=tuple(add1), add2=tuple(add2)))
    return deltas


def measure_round(primary_url: str, read_urls: list, deltas: list) -> float:
    """POST the deltas back-to-back while reader threads hammer
    ``GET /pair`` on ``read_urls``; returns aggregate reads/second
    during the write window."""
    finished = threading.Event()
    go = threading.Barrier(len(read_urls) + 1)
    counts = [0] * len(read_urls)

    def reader(index: int, url: str) -> None:
        target = url + "/pair/p0a/q0a"
        go.wait()
        reads = 0
        while not finished.is_set():
            try:
                reads += request(target)[0] == 200
            except OSError:  # pragma: no cover
                pass  # mid-window hiccups just cost the round reads
        counts[index] = reads

    threads = [
        threading.Thread(target=reader, args=(index, url), daemon=True)
        for index, url in enumerate(read_urls)
    ]
    for thread in threads:
        thread.start()
    go.wait()
    started = time.perf_counter()
    for delta in deltas:
        fetch_json(primary_url + "/delta", delta.to_json(), timeout=300)
    elapsed = time.perf_counter() - started
    finished.set()
    for thread in threads:
        thread.join(timeout=60)
    return sum(counts) / elapsed


def await_catch_up(primary_url: str, replica_urls: list, seconds: float = 300.0):
    head = fetch_json(primary_url + "/stats")[0]["wal_offset"]
    deadline = time.monotonic() + seconds
    for url in replica_urls:
        while fetch_json(url + "/stats")[0]["wal_offset"] < head:
            assert time.monotonic() < deadline, f"{url} never caught up to {head}"
            time.sleep(0.2)
    return head


def alignment_map(url: str) -> dict:
    payload = fetch_json(url + "/alignment?threshold=0.001")[0]
    return {
        (pair["left"], pair["right"]): pair["probability"]
        for pair in payload["pairs"]
    }


def assert_alignments_match(primary_url: str, replica_urls: list) -> float:
    reference = alignment_map(primary_url)
    worst = 0.0
    for url in replica_urls:
        candidate = alignment_map(url)
        assert candidate.keys() == reference.keys()
        for key, probability in reference.items():
            difference = abs(candidate[key] - probability)
            worst = max(worst, difference)
            assert difference <= SCORE_TOLERANCE, (key, difference)
    return worst


#: Requests per query shape in the mixed-read measurement.
SHAPE_REQUESTS = 40


def measure_query_shapes(url: str) -> dict:
    """Sequential requests/second per read shape of the paginated
    read path (``GET /alignment`` and friends), against one node at a
    stable state.  Complements the single-pair contention series: the
    pair read measures lock contention under writes, these measure the
    per-shape cost of the secondary-index surface."""

    def rate(fn, count: int = SHAPE_REQUESTS) -> float:
        fn()  # warm the connection / index snapshot path once
        started = time.perf_counter()
        for _ in range(count):
            fn()
        return count / (time.perf_counter() - started)

    def page_walk() -> None:
        cursor = None
        while True:
            suffix = f"&cursor={cursor}" if cursor else ""
            payload = fetch_json(url + "/alignment?limit=200" + suffix)[0]
            cursor = payload["next_cursor"]
            if cursor is None:
                return

    etag = request(url + "/alignment?top=1")[1].get("ETag")

    def revalidate() -> None:
        status = request(url + "/alignment", headers={"If-None-Match": etag})[0]
        assert status == 304, status

    return {
        "pair": rate(lambda: fetch_json(url + "/pair/p0a/q0a")[0]),
        "page_walk": rate(page_walk, count=5),
        "top": rate(lambda: fetch_json(url + "/alignment?top=10")[0]),
        "entity": rate(lambda: fetch_json(url + "/alignment?entity=p0a")[0]),
        "revalidate": rate(revalidate),
    }


def serve_args(work: Path, state_dir: Path) -> list:
    return [
        "serve",
        str(work / "left.nt"),
        str(work / "right.nt"),
        "--state-dir", str(state_dir),
        "--wal-segment-bytes", str(1 << 16),
        "--max-lag-ms", "1",
        "--snapshot-every", "0",
    ]


def test_replica_read_throughput_vs_single_node(tmp_path):
    left, right = family_pair(BASE_FAMILIES)
    ntriples.write_ntriples(left, tmp_path / "left.nt")
    ntriples.write_ntriples(right, tmp_path / "right.nt")

    single_rates = []
    replicated_rates = []
    records_replicated = 0
    worst_difference = 0.0
    shape_rates = {}

    # Path A — single node: reads and writes share one process.
    single = spawn(*serve_args(tmp_path, tmp_path / "single-state"), stderr=subprocess.DEVNULL)
    single_url = single.url
    try:
        wait_ready(single)
        for round_index in range(ROUNDS):
            single_rates.append(
                measure_round(
                    single_url, [single_url] * REPLICAS, round_deltas(round_index)
                )
            )
    finally:
        stop(single)

    # Path B — the same writes into a fresh primary, reads across 3
    # replica processes tailing its WAL on shared storage.
    primary_state = tmp_path / "primary-state"
    primary = spawn(*serve_args(tmp_path, primary_state), stderr=subprocess.DEVNULL)
    primary_url = primary.url
    nodes = [primary]
    try:
        wait_ready(primary)
        for _ in range(REPLICAS):
            nodes.append(
                spawn(
                    "replica", str(primary_state),
                    "--poll-ms", "20",
                    "--replica-batch", "4096",
                    stderr=subprocess.DEVNULL,
                )
            )
        replica_urls = [node.url for node in nodes[1:]]
        for node in nodes[1:]:
            wait_ready(node)
        for round_index in range(ROUNDS):
            replicated_rates.append(
                measure_round(primary_url, replica_urls, round_deltas(round_index))
            )
            head = await_catch_up(primary_url, replica_urls)
            records_replicated += REPLICAS * WRITES
            assert head == (round_index + 1) * WRITES
        worst_difference = assert_alignments_match(primary_url, replica_urls)
        # Mixed query shapes against one caught-up, write-idle replica:
        # the per-shape cost of the paginated read surface.
        shape_rates = measure_query_shapes(replica_urls[0])
    finally:
        for node in nodes:
            stop(node)

    single_rate = max(single_rates)
    replicated_rate = max(replicated_rates)
    speedup = replicated_rate / single_rate
    cores = os.cpu_count() or 1

    rows = [
        f"(cpu cores: {cores})",
        f"base corpus:      {BASE_FAMILIES} families x 2 sides "
        f"({8 * BASE_FAMILIES * 2} triples)",
        f"write load:       {WRITES} deltas x {DELTA_FAMILIES} families per "
        f"round ({DELTA_FAMILIES * 8 * 2} triples each), "
        f"{ROUNDS} rounds per path",
        f"readers:          {REPLICAS} HTTP reader threads",
        f"single node:      {single_rate:8.0f} reads/s best of "
        f"{[f'{rate:.0f}' for rate in single_rates]}",
        f"3 replicas:       {replicated_rate:8.0f} reads/s best of "
        f"{[f'{rate:.0f}' for rate in replicated_rates]}",
        f"aggregate gain:   {speedup:8.1f} x",
        f"records shipped:  {records_replicated} "
        f"({REPLICAS} replicas x {WRITES} writes x {ROUNDS} rounds)",
        f"max score diff:   {worst_difference:.3e} "
        f"(tolerance {SCORE_TOLERANCE:.0e})",
        "mixed query shapes (one idle replica, requests/s; page_walk "
        "counts full walks):",
        *(
            f"  {shape:12s}  {shape_rate:8.0f} /s"
            for shape, shape_rate in shape_rates.items()
        ),
    ]
    save_bench_text("microbench_replica", "\n".join(rows))
    save_bench_json(
        "replica",
        {
            # Deterministic metrics: gated against the committed
            # baseline by benchmarks/compare_baseline.py (CI bench-track).
            "replicas": {"value": REPLICAS},
            "records_replicated": {"value": records_replicated},
            # Wall-clock metrics: machine-dependent.  The acceptance
            # floor on the best-of-rounds speedup applies only on a
            # quiet machine with a core per process: below the core
            # floor the ratio is a scheduling artifact, and under
            # BENCH_RELAX_WALLCLOCK (CI bench-track on shared runners)
            # the repo's standing policy is to record wall-clock
            # curves, never gate on them (see the parallel bench).
            "read_speedup": {
                "value": speedup,
                "higher_is_better": True,
                "informational": True,
                **(
                    {"floor": MIN_SPEEDUP}
                    if cores >= MIN_CORES_FOR_SPEEDUP
                    and os.environ.get("BENCH_RELAX_WALLCLOCK") != "1"
                    else {}
                ),
            },
            "single_reads_per_sec": {
                "value": single_rate,
                "higher_is_better": True,
                "informational": True,
            },
            "replicated_reads_per_sec": {
                "value": replicated_rate,
                "higher_is_better": True,
                "informational": True,
            },
            # Per-shape read rates (wall-clock, informational like the
            # series above; `page_walk` counts whole cursor walks).
            **{
                f"reads_{shape}_per_sec": {
                    "value": shape_rate,
                    "higher_is_better": True,
                    "informational": True,
                }
                for shape, shape_rate in shape_rates.items()
            },
        },
    )

    assert records_replicated == REPLICAS * WRITES * ROUNDS
    if os.environ.get("BENCH_RELAX_WALLCLOCK") == "1":
        # bench-track mode: record the curve + JSON artifact, but skip
        # the in-test wall-clock assertion — shared CI runners stall
        # unpredictably (same policy as the parallel and stream
        # benches); on machines meeting the core floor, the JSON floor
        # still gates the best-of-rounds value.
        return
    if cores >= MIN_CORES_FOR_SPEEDUP:
        assert speedup >= MIN_SPEEDUP, (
            f"expected {REPLICAS} replicas to serve >= {MIN_SPEEDUP}x the "
            f"single node's aggregate reads/s under concurrent writes, got "
            f"{speedup:.1f}x ({single_rate:.0f} vs {replicated_rate:.0f} reads/s)"
        )
    else:
        pytest.skip(
            f"speedup assertion needs >= {MIN_CORES_FOR_SPEEDUP} cores "
            f"(one per process), machine has {cores}; curve recorded"
        )


def test_replica_smoke(tmp_path):
    """CI smoke: tiny corpus, one in-process replica, equality through
    the segmented WAL."""
    from repro.core.config import ParisConfig
    from repro.service import AlignmentService
    from repro.service.replica import ReplicaNode
    from repro.service.stream import WriteAheadLog

    left, right = family_pair(10)
    primary = AlignmentService.cold_start(left, right, ParisConfig())
    state_dir = tmp_path / "state"
    primary.snapshot(state_dir)
    wal = WriteAheadLog(state_dir / "wal.ndjson", segment_bytes=1024)
    for sequence, delta in enumerate(round_deltas(0)[:2], start=1):
        offset = wal.append(delta, "bench", sequence)
        primary.apply_delta(delta, wal_offset=offset)
    replica = ReplicaNode(state_dir, batch=4)
    replica.catch_up(primary.state.wal_offset)
    difference = replica.service.state.store.max_difference(primary.state.store)
    assert difference <= SCORE_TOLERANCE
    wal.close()
