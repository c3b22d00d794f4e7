"""End-to-end demo of fleet correctness auditing.

Boots a three-node fleet — a primary (``repro serve``) and the
read router as subprocesses, plus **two in-process read replicas**
(so one of them can be corrupted from inside, which no HTTP surface
allows) — writes through the router, then:

* ``repro doctor PRIMARY --replicas A B --json`` reports the clean
  fleet consistent (exit 0): every node at the same WAL offset holds
  the *identical* 64-bit state digest, and each node's ``verify=1``
  self-check passes;
* the router's ``GET /fleet`` agrees;
* one replica's resident state is then corrupted in-process (one
  assignment score flipped in both the maintained assignment and the
  equivalence store, leaving the incremental digest stale — the shape
  of silent memory corruption);
* the corrupted node's **own background auditor** catches it within
  one interval: ``repro_audit_mismatch_total`` rises and its
  ``/healthz`` latches ``degraded`` with the offending pair;
* ``repro doctor`` (exit 1) names exactly that node ``DIVERGED`` —
  the other replica and the primary stay ``ok`` — and localizes the
  split to the first divergent pair via binary search over
  entity-range sub-digests.

The CI service-smoke job runs this script verbatim and asserts its
exit code.  Run with::

    PYTHONPATH=src python examples/audit_demo.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path

from repro.datasets.incremental import family_pair
from repro.rdf import ntriples
from repro.service.audit import StateAuditor
from repro.service.replica import ReplicaNode
from repro.service.server import build_server
from repro.testing import (
    Fleet,
    family_delta,
    fetch_json,
    scrape,
    serve_in_thread,
    wait_json,
    wait_ready,
)

BASE_FAMILIES = 20
WRITES = 3


def run_doctor(primary_url: str, replica_urls: list) -> tuple:
    argv = [sys.executable, "-m", "repro", "doctor", primary_url, "--json"]
    for url in replica_urls:
        argv += ["--replicas", url]
    completed = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    return completed.returncode, json.loads(completed.stdout)


def in_process_replica(primary_url: str, stack: ExitStack):
    """One replica the demo can reach into: node + auditor + served URL,
    all torn down when ``stack`` closes.

    ``full_every=1`` makes every cycle recompute the full digest, so
    coherent assignment+store corruption (which the sampled row check
    cannot see — both resident copies agree) is caught within one
    interval.
    """
    node = ReplicaNode(primary_url, batch=8).start()
    stack.callback(node.stop)
    auditor = StateAuditor(
        lambda: node.service,
        interval_ms=200,
        sample=8,
        full_every=1,
        role="replica",
    )
    node.auditor = auditor
    server = build_server(None, "127.0.0.1", 0, replica=node, auditor=auditor)
    url = stack.enter_context(serve_in_thread(server))
    auditor.start()
    stack.callback(auditor.stop)
    return node, auditor, url


def corrupt(service) -> str:
    """Flip one pair's score in assignment *and* store, leaving the
    incremental digest stale — silent in-process state corruption."""
    with service.lock:
        entity, (counterpart, probability) = next(
            iter(service._assignment12.items())
        )
        corrupted = probability * 0.5
        service._assignment12[entity] = (counterpart, corrupted)
        service.state.store.set(entity, counterpart, corrupted)
    return entity.name


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-audit-demo-") as workdir:
        work = Path(workdir)
        left, right = family_pair(BASE_FAMILIES)
        ntriples.write_ntriples(left, work / "left.nt")
        ntriples.write_ntriples(right, work / "right.nt")

        with Fleet() as fleet, ExitStack() as in_process:
            primary = fleet.spawn(
                "--log-format", "json",
                "serve", str(work / "left.nt"), str(work / "right.nt"),
                "--state-dir", str(work / "state"),
                "--max-lag-ms", "20",
                "--snapshot-every", "0",
                "--audit-interval-ms", "200",
            )
            primary_url = primary.url
            assert wait_ready(primary)["role"] == "primary"
            replicas = [in_process_replica(primary_url, in_process) for _ in range(2)]
            replica_urls = [url for _node, _auditor, url in replicas]
            for url in replica_urls:
                assert wait_json(url + "/healthz")[0]["role"] == "replica"
            router = fleet.spawn(
                "--log-format", "json",
                "route", "--primary", primary_url,
                "--replica", replica_urls[0], "--replica", replica_urls[1],
                "--check-interval-ms", "200",
            )
            router_url = router.url
            assert wait_ready(router)["role"] == "router"
            print("fleet up: primary + 2 replicas + router")

            # --- write through the router, let the fleet converge -----
            for step in range(WRITES):
                report, _ = fetch_json(
                    router_url + f"/delta?source=demo&seq={step + 1}",
                    family_delta(BASE_FAMILIES + step).to_json(),
                )
                assert report["converged"], report
            deadline = time.monotonic() + 60
            for url in replica_urls:
                while wait_json(url + "/stats")[0]["wal_offset"] < WRITES:
                    assert time.monotonic() < deadline
                    time.sleep(0.2)
            print(f"wrote {WRITES} deltas through the router, replicas caught up")

            # --- clean fleet: doctor and /fleet agree ------------------
            code, verdict = run_doctor(primary_url, replica_urls)
            assert code == 0, verdict
            assert verdict["consistent"] is True, verdict
            assert all(n["verdict"] == "ok" for n in verdict["nodes"]), verdict
            digests = {n["digest"] for n in verdict["nodes"]}
            assert len(digests) == 1, verdict
            fleet_report, _ = wait_json(router_url + "/fleet")
            assert fleet_report["consistent"] is True and fleet_report["divergent"] == []
            print(f"doctor: clean fleet, one digest {digests.pop()} on all 3 nodes")

            # --- corrupt one replica in-process ------------------------
            bad_url = replica_urls[1]
            bad_node, bad_auditor, _url = replicas[1]
            bad_entity = corrupt(bad_node.service)
            deadline = time.monotonic() + 30
            while bad_auditor.mismatches == 0:
                assert time.monotonic() < deadline, "auditor never caught it"
                time.sleep(0.05)
            health, _ = wait_json(bad_url + "/healthz")
            assert health["status"] == "degraded", health
            assert "audit mismatch" in health["degraded"], health
            metrics = scrape(bad_url)
            assert metrics['repro_audit_mismatch_total{kind="digest"}'] >= 1
            stats, _ = wait_json(bad_url + "/stats")
            assert stats["audit"]["last_mismatch"]["kind"] == "digest", stats
            print(
                f"corrupted pair of {bad_entity!r} on {bad_url}: its own "
                "auditor flagged it within one interval, /healthz degraded"
            )

            # --- doctor names exactly the corrupted node ---------------
            code, verdict = run_doctor(primary_url, replica_urls)
            assert code == 1, verdict
            assert verdict["consistent"] is False, verdict
            by_url = {n["url"]: n for n in verdict["nodes"]}
            assert by_url[primary_url]["verdict"] == "ok", verdict
            assert by_url[replica_urls[0]]["verdict"] == "ok", verdict
            assert by_url[bad_url]["verdict"] == "DIVERGED", verdict
            pair = by_url[bad_url]["first_divergent_pair"]
            assert pair is not None and pair["left"] == bad_entity, verdict
            assert pair["primary"]["probability"] != pair["node"]["probability"]
            print(
                "doctor: DIVERGENCE DETECTED on exactly the corrupted node, "
                f"first divergent pair ({pair['left']}, {pair['node']['right']})"
            )
        codes = [node.proc.returncode for node in fleet.nodes]
        assert codes == [0] * len(codes), f"expected clean shutdowns, got {codes}"
    print("audit demo OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
