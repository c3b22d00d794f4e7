"""End-to-end demo of the production read path.

Boots ``repro serve`` as a subprocess, then walks the whole read
surface from plain client code: keyset pagination (concatenating
pages back into the full dump), top-k and per-entity neighborhood
queries, ``If-None-Match`` revalidation (a real 304 round-trip), and
one live ``/watch`` long-poll woken by a delta — exactly one
collapsed notification, deduped on re-poll.  The CI service-smoke job
runs this script verbatim and asserts its exit code.

Run with::

    PYTHONPATH=src python examples/read_path_demo.py
"""

from __future__ import annotations

import tempfile
import threading
import time
from pathlib import Path

from repro.client import request
from repro.datasets.incremental import family_addition, family_pair
from repro.rdf import ntriples
from repro.service.delta import Delta
from repro.testing import fetch_json, spawn, stop, wait_json, wait_ready

BASE_FAMILIES = 30


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-read-path-demo-") as workdir:
        work = Path(workdir)
        left, right = family_pair(BASE_FAMILIES)
        ntriples.write_ntriples(left, work / "left.nt")
        ntriples.write_ntriples(right, work / "right.nt")

        server = spawn(
            "serve",
            str(work / "left.nt"), str(work / "right.nt"),
            "--state-dir", str(work / "state"),
        )
        base = server.url
        try:
            wait_ready(server)

            # -- pagination: pages concatenate back into the dump ----
            dump, dump_headers = wait_json(base + "/alignment")
            etag = dump_headers["ETag"]
            print(f"full dump: {len(dump['pairs'])} pairs, ETag {etag}")
            walked, cursor, pages = [], None, 0
            while True:
                url = base + "/alignment?limit=25" + (
                    f"&cursor={cursor}" if cursor else ""
                )
                page, _headers = fetch_json(url)
                assert not page["changed_since_cursor"]
                walked.extend(page["pairs"])
                pages += 1
                cursor = page["next_cursor"]
                if cursor is None:
                    break
            assert walked == dump["pairs"], "page walk must equal the dump"
            print(f"walked {pages} pages back into the same {len(walked)} pairs")

            # -- top-k and entity neighborhood -----------------------
            top, _headers = fetch_json(base + "/alignment?top=3")
            assert top["pairs"] == dump["pairs"][:3]
            hood, _headers = fetch_json(base + "/alignment?entity=p0a")
            assert hood["best_counterpart_as_left"]["right"] == "q0a"
            print("top-3 and neighborhood of p0a agree with the dump")

            # -- HTTP caching: a real 304 round-trip -----------------
            status, revalidated, _body = request(
                base + "/alignment", headers={"If-None-Match": etag}
            )
            assert status == 304 and revalidated["ETag"] == etag
            print(f"revalidation: 304 Not Modified for {etag}")

            # -- one live watch notification -------------------------
            add_left, add_right = family_addition(BASE_FAMILIES, 1)
            watched = add_left[0].subject.name  # a person the delta touches
            result = {}

            def watch():
                result["note"] = fetch_json(
                    f"{base}/watch?entity={watched}&epsilon=0.05&timeout=60",
                    timeout=90,
                )[0]

            poller = threading.Thread(target=watch)
            poller.start()
            time.sleep(0.5)  # make sure the poll is parked first
            delta = Delta(add1=tuple(add_left), add2=tuple(add_right))
            report, _ = fetch_json(base + "/delta", delta.to_json())
            poller.join(timeout=90)
            note = result["note"]
            assert note and "timeout" not in note, note
            assert note["entity"] == watched and len(note["changes"]) == 1
            print(
                f"watch woke: {watched} -> "
                f"{note['changes'][0]['counterpart']} "
                f"p={note['changes'][0]['probability']:.3f} "
                f"(version {note['version']})"
            )
            # Re-polling past the delivered version dedups: timeout.
            replay, _h = fetch_json(
                f"{base}/watch?entity={watched}"
                f"&after={note['version']}&timeout=0.2"
            )
            assert replay["timeout"] is True
            print("re-poll past the delivered version: deduped (timeout)")

            # The delta also moved the ETag: the old validator is stale.
            status, fresh, _body = request(
                base + "/alignment", headers={"If-None-Match": etag}
            )
            assert status == 200 and fresh["ETag"] != etag
            assert report["version"] == 1
        finally:
            code = stop(server)
        assert code == 0, f"expected clean shutdown, got exit code {code}"
    print("read path demo OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
