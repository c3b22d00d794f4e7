"""End-to-end demo of delta provenance and the staleness SLO surface.

Boots the three serving roles as subprocesses — a primary
(``repro serve``), one read replica (``repro replica``) and the
read router (``repro route``) — then pushes a delta through the router
with an explicit ``X-Request-Id`` and follows it through the whole
pipeline:

* every role echoes the request id back (exactly once) on its
  responses;
* ``GET /provenance?trace=`` reconstructs the delta's stage timeline
  on the primary (ingest → enqueue → durable → applied → notified)
  and on the replica (shipped stamps + its own ``replica_applied``),
  each monotone;
* ``repro trace URL TRACE_ID --replicas ... --json`` merges the fleet
  into one time-sorted timeline containing both the primary's
  ``applied`` and the replica's ``replica_applied``;
* the stage histograms (``repro_delta_stage_seconds``) are non-empty
  for all four legs — ``ingest_to_durable`` / ``durable_to_applied`` /
  ``applied_to_notified`` on the primary, ``applied_to_replica`` on
  the replica — and the freshness gauges
  (``repro_freshness_seconds``) report a real age for the stages that
  fired.

The CI service-smoke job runs this script verbatim and asserts its
exit code.  Run with::

    PYTHONPATH=src python examples/provenance_demo.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.datasets.incremental import family_pair
from repro.rdf import ntriples
from repro.testing import Fleet, family_delta, fetch_json, scrape, wait_json, wait_ready

BASE_FAMILIES = 20
WRITES = 3

PRIMARY_STAGES = ("ingest", "enqueue", "durable", "applied", "notified")


def assert_monotone(timeline: dict, stages) -> None:
    stamped = [timeline[s] for s in stages if s in timeline]
    assert stamped == sorted(stamped), timeline


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-provenance-demo-") as workdir:
        work = Path(workdir)
        left, right = family_pair(BASE_FAMILIES)
        ntriples.write_ntriples(left, work / "left.nt")
        ntriples.write_ntriples(right, work / "right.nt")

        with Fleet() as fleet:
            primary = fleet.spawn(
                "--log-format", "json",
                "serve", str(work / "left.nt"), str(work / "right.nt"),
                "--state-dir", str(work / "state"),
                "--max-lag-ms", "20",
                "--snapshot-every", "0",
            )
            primary_url = primary.url
            wait_ready(primary)
            health, headers = fetch_json(
                primary_url + "/healthz", headers={"X-Request-Id": "boot-probe"}
            )
            assert health["role"] == "primary", health
            assert headers.get_all("X-Request-Id") == ["boot-probe"], headers

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
            print("all three roles up, request ids echoed")

            # --- write through the router with explicit request ids ---
            traces = []
            for step in range(WRITES):
                trace = f"prov-demo-{step}"
                report, headers = fetch_json(
                    router_url + f"/delta?source=demo&seq={step + 1}",
                    family_delta(BASE_FAMILIES + step).to_json(),
                    headers={"X-Request-Id": trace},
                )
                assert report["converged"], report
                # One echo — the router's own, not stacked on the
                # primary's.
                assert headers.get_all("X-Request-Id") == [trace], headers
                traces.append(trace)
            deadline = time.monotonic() + 60
            while wait_json(replica_url + "/stats")[0]["wal_offset"] < WRITES:
                assert time.monotonic() < deadline
                time.sleep(0.2)
            print(f"wrote {WRITES} traced deltas, replica caught up")

            # --- per-role timelines -------------------------------------
            trace = traces[0]
            primary_view, _ = wait_json(
                primary_url + f"/provenance?trace={trace}"
            )
            assert primary_view["found"] and primary_view["role"] == "primary"
            for stage in ("ingest", "enqueue", "durable", "applied"):
                assert stage in primary_view["timeline"], primary_view
            assert_monotone(primary_view["timeline"], PRIMARY_STAGES)

            replica_view, _ = wait_json(
                replica_url + f"/provenance?trace={trace}"
            )
            assert replica_view["found"] and replica_view["role"] == "replica"
            assert "replica_applied" in replica_view["timeline"], replica_view
            assert "ingest" in replica_view["timeline"], replica_view
            print("primary and replica timelines reconstructed and monotone")

            # --- the merged fleet view: repro trace ---------------------
            merged = json.loads(
                subprocess.check_output(
                    [
                        sys.executable, "-m", "repro", "trace",
                        primary_url, trace,
                        "--replicas", replica_url, "--json",
                    ],
                ).decode("utf-8")
            )
            stages = [row["stage"] for row in merged["timeline"]]
            timestamps = [row["ts"] for row in merged["timeline"]]
            assert timestamps == sorted(timestamps), merged
            assert stages.index("ingest") < stages.index("applied"), stages
            assert "replica_applied" in stages, stages
            roles = {row["stage"]: row["role"] for row in merged["timeline"]}
            assert roles["applied"] == "primary", roles
            assert roles["replica_applied"] == "replica", roles
            print("repro trace merged the fleet into one timeline:", stages)

            # --- stage histograms + freshness gauges --------------------
            primary_metrics = scrape(primary_url)
            for leg in ("ingest_to_durable", "durable_to_applied",
                        "applied_to_notified"):
                count = primary_metrics[
                    f'repro_delta_stage_seconds_count{{stage="{leg}"}}'
                ]
                assert count >= WRITES, (leg, count)
            replica_metrics = scrape(replica_url)
            assert replica_metrics[
                'repro_delta_stage_seconds_count{stage="applied_to_replica"}'
            ] >= WRITES
            assert primary_metrics['repro_freshness_seconds{stage="applied"}'] >= 0
            assert replica_metrics[
                'repro_freshness_seconds{stage="replica_applied"}'
            ] >= 0
            # A stage this role never witnesses reports -1, not a lie.
            assert primary_metrics[
                'repro_freshness_seconds{stage="replica_applied"}'
            ] == -1
            print("all four stage-histogram legs populated, freshness live")
        codes = [node.proc.returncode for node in fleet.nodes]
        assert codes == [0] * len(codes), f"expected clean shutdowns, got {codes}"
    print("provenance demo OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
