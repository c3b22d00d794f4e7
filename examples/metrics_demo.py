"""End-to-end demo of the observability surface.

Boots the three serving roles as subprocesses — a primary
(``repro serve``), one read replica (``repro replica``) and the
read router (``repro route``) — pushes a few deltas and reads through
the router, then scrapes ``GET /metrics`` from *all three* roles and
cross-checks the core series against each role's ``GET /stats``:

* the exposition parses (``# HELP``/``# TYPE`` + samples, Prometheus
  text content type) on every role;
* the primary's ``repro_wal_appended_offset`` equals its ``/stats``
  WAL offset, and the caught-up replica's ``repro_wal_applied_offset``
  equals the primary's;
* ``repro_deltas_applied_total`` matches ``/stats`` ``deltas_applied``;
* ``repro_request_duration_seconds`` recorded the ``/pair`` and
  ``/delta`` traffic this script generated;
* the router reports both backends healthy and routed reads.

The CI service-smoke job runs this script verbatim and asserts its
exit code.  Run with::

    PYTHONPATH=src python examples/metrics_demo.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.datasets.incremental import family_pair
from repro.rdf import ntriples
from repro.testing import Fleet, family_delta, fetch_json, scrape, wait_json, wait_ready

BASE_FAMILIES = 20
WRITES = 3


def series_sum(series: dict, prefix: str) -> float:
    return sum(value for key, value in series.items() if key.startswith(prefix))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-metrics-demo-") as workdir:
        work = Path(workdir)
        left, right = family_pair(BASE_FAMILIES)
        ntriples.write_ntriples(left, work / "left.nt")
        ntriples.write_ntriples(right, work / "right.nt")
        state_dir = work / "state"

        with Fleet() as fleet:
            primary = fleet.spawn(
                "--log-format", "json",
                "serve", str(work / "left.nt"), str(work / "right.nt"),
                "--state-dir", str(state_dir),
                "--max-lag-ms", "20",
                "--snapshot-every", "0",
            )
            primary_url = primary.url
            health = wait_ready(primary)
            assert health["role"] == "primary", health
            # The healthz payload carries the durability picture.
            assert health["wal"]["appended_offset"] == 0
            assert health["degraded"] is None

            replica = fleet.spawn(
                "--log-format", "json",
                "replica", primary_url, "--poll-ms", "20",
            )
            replica_url = replica.url
            assert wait_ready(replica)["role"] == "replica"
            router = fleet.spawn(
                "--log-format", "json",
                "route", "--primary", primary_url, "--replica", replica_url,
                "--check-interval-ms", "200",
            )
            router_url = router.url
            assert wait_ready(router)["role"] == "router"
            deadline = time.monotonic() + 60
            while wait_json(router_url + "/healthz")[0]["replicas_healthy"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.2)
            print("all three roles up")

            # Before any write the profile is the cold fixpoint's tree.
            cold_profile = wait_json(primary_url + "/stats")[0]["last_align_profile"]
            assert cold_profile["span"] == "align.cold", cold_profile
            assert any(
                child["span"] == "pass.instance"
                for child in cold_profile.get("children", ())
            ), cold_profile

            for step in range(WRITES):
                report, _ = fetch_json(
                    router_url + f"/delta?source=demo&seq={step + 1}",
                    family_delta(BASE_FAMILIES + step).to_json(),
                )
                assert report["converged"], report
            for step in range(WRITES):
                name = BASE_FAMILIES + step
                pair, _ = wait_json(router_url + f"/pair/p{name}a/q{name}a")
                assert pair["probability"] > 0.9, pair
            deadline = time.monotonic() + 60
            while wait_json(replica_url + "/stats")[0]["wal_offset"] < WRITES:
                assert time.monotonic() < deadline
                time.sleep(0.2)
            print(f"wrote {WRITES} deltas, replica caught up")

            # --- primary: WAL offsets and engine counters vs /stats ---
            primary_stats, _ = wait_json(primary_url + "/stats")
            primary_metrics = scrape(primary_url)
            assert primary_metrics["repro_wal_appended_offset"] == WRITES
            assert primary_metrics["repro_wal_durable_offset"] == WRITES
            assert (
                primary_metrics["repro_wal_appended_offset"]
                == primary_stats["wal_offset"]
            )
            assert (
                primary_metrics["repro_deltas_applied_total"]
                == primary_stats["deltas_applied"]
            )
            assert (
                primary_metrics["repro_instance_pairs"]
                == primary_stats["instance_pairs"]
            )
            assert primary_metrics["repro_batcher_accepted_total"] == WRITES
            # The /delta POSTs and /metrics GET hit the request histogram.
            assert series_sum(
                primary_metrics, 'repro_request_duration_seconds_count{method="POST",route="/delta"'
            ) == WRITES
            # Each applied delta ran a warm pass; the live profile now
            # shows the incremental fixpoint's tree.
            assert primary_stats["last_align_profile"]["span"] == "align.warm"
            print("primary /metrics consistent with /stats")

            # --- replica: applied offset converged to the primary's ---
            replica_metrics = scrape(replica_url)
            assert replica_metrics["repro_wal_applied_offset"] == WRITES
            assert (
                replica_metrics["repro_wal_applied_offset"]
                == primary_metrics["repro_wal_appended_offset"]
            )
            assert replica_metrics["repro_replica_records_applied_total"] == WRITES
            assert replica_metrics["repro_replica_lag_records"] == 0
            assert series_sum(
                replica_metrics, 'repro_request_duration_seconds_count{method="GET",route="/pair"'
            ) > 0
            print("replica /metrics consistent with the primary's offsets")

            # --- router: backend health and routed traffic ---
            router_metrics = scrape(router_url)
            healthy = [
                value
                for key, value in router_metrics.items()
                if key.startswith("repro_router_backend_healthy")
            ]
            assert healthy and all(value == 1.0 for value in healthy), healthy
            assert router_metrics["repro_router_reads_routed_total"] >= WRITES
            assert router_metrics["repro_router_writes_forwarded_total"] == WRITES
            print("router /metrics shows healthy backends and routed traffic")
        codes = [node.proc.returncode for node in fleet.nodes]
        assert codes == [0] * len(codes), f"expected clean shutdowns, got {codes}"
    print("metrics demo OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
