"""End-to-end demo of streaming delta ingestion.

Boots ``repro serve --watch`` as a subprocess on a generated
fixture, appends NDJSON deltas to the watched file, polls ``GET
/stats`` until the applied WAL offset catches up with the appended
one, asserts the new pairs converged via ``GET /pair``, exercises the
idempotent-redelivery path over HTTP, and SIGTERMs cleanly — the full
source → WAL → batcher → engine pipeline from the outside.  The CI
service-smoke job runs this script verbatim and asserts its exit code.

Run with::

    PYTHONPATH=src python examples/stream_demo.py
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.datasets.incremental import family_pair
from repro.rdf import ntriples
from repro.testing import family_delta, fetch_json, spawn, stop, wait_json, wait_ready

BASE_FAMILIES = 40
STREAMED_DELTAS = 3


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-stream-demo-") as workdir:
        work = Path(workdir)
        left, right = family_pair(BASE_FAMILIES)
        ntriples.write_ntriples(left, work / "left.nt")
        ntriples.write_ntriples(right, work / "right.nt")
        watch = work / "deltas.ndjson"

        server = spawn(
            "serve",
            str(work / "left.nt"),
            str(work / "right.nt"),
            "--state-dir",
            str(work / "state"),
            "--watch",
            str(watch),
            "--max-batch",
            "16",
            "--max-lag-ms",
            "50",
            "--snapshot-every",
            "0",  # durability comes from the WAL
        )
        base = server.url
        try:
            health = wait_ready(server)
            print("service up:", health)
            assert health["status"] == "ok" and health["matched_left"] > 0

            # Append a burst of NDJSON deltas to the watched file —
            # no HTTP involved; the tailer picks them up.
            with watch.open("a", encoding="utf-8") as stream:
                for step in range(STREAMED_DELTAS):
                    delta = family_delta(BASE_FAMILIES + step)
                    stream.write(json.dumps(delta.to_json()) + "\n")
            print(f"appended {STREAMED_DELTAS} deltas to {watch.name}")

            # Poll /stats until the applied WAL offset catches up.
            deadline = time.monotonic() + 60
            while True:
                stats, _ = wait_json(base + "/stats")
                ingest = stats["ingest"]
                if (
                    ingest["wal_appended"] >= STREAMED_DELTAS
                    and stats["wal_offset"] == ingest["wal_appended"]
                    and ingest["queue_depth"] == 0
                ):
                    break
                assert time.monotonic() < deadline, stats
                time.sleep(0.2)
            print("stats after catch-up:", stats)
            assert ingest["accepted"] == STREAMED_DELTAS
            assert stats["pairs_touched_total"] > 0
            assert stats["deltas_applied"] <= STREAMED_DELTAS  # coalescing

            # Every streamed family converged.
            for step in range(STREAMED_DELTAS):
                left_name = f"p{BASE_FAMILIES + step}a"
                right_name = f"q{BASE_FAMILIES + step}a"
                pair, _ = wait_json(f"{base}/pair/{left_name}/{right_name}")
                assert pair["probability"] > 0.9, pair
            print("all streamed pairs converged")

            # HTTP writers share the same queue — with idempotent
            # redelivery via per-source sequence numbers.
            delta = family_delta(BASE_FAMILIES + STREAMED_DELTAS)
            report, _ = fetch_json(base + "/delta?source=demo&seq=1", delta.to_json())
            assert report["converged"], report
            duplicate, _ = fetch_json(base + "/delta?source=demo&seq=1", delta.to_json())
            assert duplicate == {"duplicate": True, "source": "demo", "seq": 1}
            print("idempotent redelivery OK")
        finally:
            code = stop(server)
        print("server exited with", code)
        assert code == 0, f"expected clean shutdown, got exit code {code}"
        # The shutdown snapshot recorded the fully-applied WAL offset.
        assert (work / "state" / "wal.ndjson").exists()
        assert (work / "state" / "LATEST").read_text().strip() != "0"
    print("stream demo OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
