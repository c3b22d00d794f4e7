"""End-to-end demo of the incremental alignment service.

Boots ``repro serve`` as a subprocess on a generated fixture, pushes a
delta batch over HTTP, queries the pair it creates, and shuts the
server down cleanly — the full life of a living-KB alignment in ~30
lines of client code.  The CI service-smoke job runs this script
verbatim and asserts its exit code.

Run with::

    PYTHONPATH=src python examples/serve_demo.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.datasets.incremental import family_addition, family_pair
from repro.rdf import ntriples
from repro.service.delta import Delta, triple_to_json
from repro.testing import fetch_json, spawn, stop, wait_json, wait_ready

BASE_FAMILIES = 40


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-demo-") as workdir:
        work = Path(workdir)
        left, right = family_pair(BASE_FAMILIES)
        ntriples.write_ntriples(left, work / "left.nt")
        ntriples.write_ntriples(right, work / "right.nt")

        server = spawn(
            "serve",
            str(work / "left.nt"),
            str(work / "right.nt"),
            "--state-dir",
            str(work / "state"),
        )
        base = server.url
        try:
            health = wait_ready(server)
            print("service up:", health)
            assert health["status"] == "ok" and health["matched_left"] > 0

            # Push one new family to both sides as a delta batch.
            add_left, add_right = family_addition(BASE_FAMILIES, 1)
            delta = Delta(add1=tuple(add_left), add2=tuple(add_right))
            report, _ = fetch_json(base + "/delta", delta.to_json())
            print("delta absorbed:", report)
            assert report["version"] == 1 and report["converged"]
            assert report["applied_add"] == len(add_left) + len(add_right)

            # The new family's persons must now be matched, strongly.
            new_left = add_left[0].subject.name
            new_right = new_left.replace("p", "q", 1)
            pair, _ = wait_json(f"{base}/pair/{new_left}/{new_right}")
            print("pair after delta:", pair)
            assert pair["probability"] > 0.9, pair
            assert pair["best_counterpart_of_left"]["right"] == new_right

            alignment, _ = wait_json(base + "/alignment?threshold=0.5")
            assert len(alignment["pairs"]) == (BASE_FAMILIES + 1) * 3
            print(f"alignment holds {len(alignment['pairs'])} pairs above 0.5")

            # Sanity-check the wire codec round-trips.
            assert Delta.from_json(delta.to_json()).to_json() == delta.to_json()
            assert triple_to_json(add_left[0])["subject"] == new_left
        finally:
            code = stop(server)
        print("server exited with", code)
        assert code == 0, f"expected clean shutdown, got exit code {code}"
        assert (work / "state" / "LATEST").read_text().strip() == "1"
    print("serve demo OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
