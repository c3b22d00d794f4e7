"""End-to-end demo of multi-replica serving.

Boots the full replication topology as subprocesses — a primary
(``repro serve --wal-segment-bytes``), two read replicas
(``repro replica``: one tailing the shared state directory, one log
shipping over HTTP), and the read router (``repro route``) — then
exercises the whole contract from the outside: a write POSTed to the
*router* lands on the primary, both replicas converge to it (polled
via their ``/stats`` WAL offsets), bounded-staleness reads
(``?min_offset=``) are honored, a SIGKILLed replica is ejected while
reads keep flowing, and after a clean shutdown ``repro wal compact``
shrinks the log without breaking a fresh replica bootstrap.  The CI
service-smoke job runs this script verbatim and asserts its exit code.

Run with::

    PYTHONPATH=src python examples/replica_demo.py
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.datasets.incremental import family_pair
from repro.rdf import ntriples
from repro.testing import (
    Fleet,
    family_delta,
    fetch_json,
    scrape,
    spawn,
    stop,
    wait_json,
    wait_ready,
)

BASE_FAMILIES = 30
WRITES = 4


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-replica-demo-") as workdir:
        work = Path(workdir)
        left, right = family_pair(BASE_FAMILIES)
        ntriples.write_ntriples(left, work / "left.nt")
        ntriples.write_ntriples(right, work / "right.nt")
        state_dir = work / "state"

        with Fleet() as fleet:
            primary = fleet.spawn(
                "serve", str(work / "left.nt"), str(work / "right.nt"),
                "--state-dir", str(state_dir),
                "--wal-segment-bytes", "2048",
                "--wal-group-commit-ms", "2",
                "--max-lag-ms", "20",
                "--snapshot-every", "0",
            )
            primary_url = primary.url
            replicas = []
            health = wait_ready(primary)
            print("primary up:", health["role"], health["status"])
            assert health["role"] == "primary" and health["matched_left"] > 0

            # Replica 1 tails the shared state directory; replica 2
            # bootstraps and ships the log over HTTP — both transports
            # converge to the same engine state.
            replicas.append(
                fleet.spawn(
                    "replica", str(state_dir),
                    "--state-dir", str(work / "replica1-state"),
                    "--poll-ms", "20",
                )
            )
            replicas.append(
                fleet.spawn(
                    "replica", primary_url,
                    "--poll-ms", "20",
                )
            )
            replica_urls = [replica.url for replica in replicas]
            for replica in replicas:
                health = wait_ready(replica)
                assert health["role"] == "replica", health
            print("replicas up (file tail + http log shipping)")

            router = fleet.spawn(
                "route",
                "--primary", primary_url,
                "--replica", replica_urls[0],
                "--replica", replica_urls[1],
                "--check-interval-ms", "200",
            )
            router_url = router.url
            health = wait_ready(router)
            assert health["role"] == "router", health
            deadline = time.monotonic() + 60
            while wait_json(router_url + "/healthz")[0]["replicas_healthy"] < 2:
                assert time.monotonic() < deadline
                time.sleep(0.2)
            print("router up, both replicas in rotation")

            # Writes go through the router and land on the primary.
            for step in range(WRITES):
                report, _ = fetch_json(
                    router_url + f"/delta?source=demo&seq={step + 1}",
                    family_delta(BASE_FAMILIES + step).to_json(),
                )
                assert report["converged"], report
            primary_offset = wait_json(primary_url + "/stats")[0]["wal_offset"]
            assert primary_offset == WRITES
            print(f"wrote {WRITES} deltas through the router")

            # Both replicas converge to the primary's WAL offset.
            deadline = time.monotonic() + 60
            for url in replica_urls:
                while True:
                    stats, _ = wait_json(url + "/stats")
                    if stats["wal_offset"] >= WRITES:
                        break
                    assert time.monotonic() < deadline, stats
                    time.sleep(0.2)
            print("both replicas caught up to offset", WRITES)

            # Bounded-staleness read through the router: only a replica
            # at the write's offset may answer.
            pair, _ = wait_json(
                router_url
                + f"/pair/p{BASE_FAMILIES}a/q{BASE_FAMILIES}a?min_offset={WRITES}"
            )
            assert pair["probability"] > 0.9, pair
            print("read-your-writes via ?min_offset OK")

            # The write volume rotated the WAL into sealed segments
            # (no snapshot has covered them yet: --snapshot-every 0).
            live_wal_files = list(state_dir.glob("wal*.ndjson"))
            live_size = sum(path.stat().st_size for path in live_wal_files)
            assert len(live_wal_files) > 1, "expected sealed WAL segments"
            print(
                f"live WAL: {len(live_wal_files)} segment files, "
                f"{live_size} bytes"
            )

            # The file-tail replica resumed each fetch from its cursor:
            # rotation keeps a cursor valid, and only a rotation or a
            # compaction (none has run yet) may cost it a full walk.
            rotations = len(live_wal_files) - 1
            fallbacks = scrape(replica_urls[0]).get("repro_wal_resume_fallbacks_total", 0)
            assert fallbacks <= rotations, (fallbacks, rotations)
            print(f"file-tail cursor: {fallbacks:.0f} fallbacks over {rotations} rotations")

            # Kill one replica outright; the router ejects it and keeps
            # serving reads from the survivor.
            replicas[1].proc.kill()
            replicas[1].proc.wait(timeout=30)
            deadline = time.monotonic() + 60
            while wait_json(router_url + "/healthz")[0]["replicas_healthy"] != 1:
                assert time.monotonic() < deadline
                time.sleep(0.2)
            for step in range(WRITES):
                name = BASE_FAMILIES + step
                pair, _ = wait_json(router_url + f"/pair/p{name}a/q{name}a")
                assert pair["probability"] > 0.9, pair
            print("replica killed; reads still served")
        # Replica 2 was SIGKILLed on purpose above; everything else
        # must exit 0 on SIGTERM.
        codes = [node.proc.returncode for node in (router, replicas[0], primary)]
        assert codes == [0, 0, 0], f"expected 3 clean shutdowns, got {codes}"

        # The shutdown snapshot covers the whole WAL, and the serve
        # process compacts automatically after snapshotting: the sealed
        # segments are already gone and the log shrank on disk.
        size_after = sum(
            path.stat().st_size for path in state_dir.glob("wal*.ndjson")
        )
        assert size_after < live_size, (live_size, size_after)
        assert len(list(state_dir.glob("wal-*.ndjson"))) == 0
        print(f"auto-compaction at shutdown: {live_size} -> {size_after} bytes")

        # The offline tool is idempotent over the already-compacted log.
        compact = subprocess.run(
            [sys.executable, "-m", "repro", "wal", "compact",
             "--state-dir", str(state_dir)],
        )
        assert compact.returncode == 0
        print("offline `repro wal compact` OK (idempotent)")

        # ...and a fresh replica still bootstraps from what remains.
        fresh = spawn("replica", str(state_dir), "--poll-ms", "20")
        try:
            fresh_url = fresh.url
            stats, _ = wait_json(fresh_url + "/stats")
            assert stats["wal_offset"] == WRITES, stats
            name = BASE_FAMILIES + WRITES - 1
            pair, _ = wait_json(f"{fresh_url}/pair/p{name}a/q{name}a")
            assert pair["probability"] > 0.9, pair
            print("fresh bootstrap after compaction OK")
        finally:
            assert stop(fresh) == 0
    print("replica demo OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
