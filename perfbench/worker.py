"""The process under test for the in-process workloads.

Usage: ``python3 perfbench/worker.py CONFIG.json RESULT.json``

``cold_align`` and ``replica_catchup`` call the program as a library.  They
run here, in a child of the benchmark, so that CPU time and peak memory
are the program's own and not the load generator's.  After a warm-up op,
ops run back to back (one closed-loop client) until ``seconds`` have
passed; the last op is allowed to finish.  The reported window is the sum
of the op times, so the garbage collection between ops is not in it.
A pace sample (``pace.py``) is taken before each op, outside its time,
once the previous op's garbage is collected.

The result also carries ``ready_at``, the monotonic clock once the
program's modules are imported.  With ``"setup_only": true`` in the config
the worker stops there, so the benchmark can time set-up several times.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from common import proc_peak_rss_mb  # noqa: E402
from pace import Pace  # noqa: E402
from tracer import attribute  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def cold_align_op(config):
    from repro.core.aligner import ParisAligner
    from repro.core.config import ParisConfig
    from repro.rdf import ntriples

    left = ntriples.read_ntriples(config["left"], name="left")
    right = ntriples.read_ntriples(config["right"], name="right")
    result = ParisAligner(left, right, ParisConfig()).align()
    return result, {"passes": len(result.iterations), "pairs": len(result.instances)}


def replica_op(config):
    from repro.service.replica import ReplicaNode

    node = ReplicaNode(config["state_dir"], batch=config["replica_batch"])
    while node.applied_offset < config["head"]:
        if node.poll_once() == 0:
            raise RuntimeError(f"replica stalled at offset {node.applied_offset}")
    return node, {"records": node.records_applied, "fetches": node.batches_applied}


def main(config_path: str, result_path: str) -> int:
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    workload = config["workload"]
    # The program is ready for its first op once its modules are imported;
    # the benchmark times set-up from the launch of this process to here.
    if workload == "cold_align":
        import repro.core.aligner  # noqa: F401
        import repro.rdf.ntriples  # noqa: F401
    else:
        import repro.service.replica  # noqa: F401
    ready_at = time.monotonic()
    if config.get("setup_only"):
        Path(result_path).write_text(json.dumps({"ready_at": ready_at}), encoding="utf-8")
        return 0
    tracer = layers.install(config["role"]) if config["trace"] else None
    run_op = cold_align_op if workload == "cold_align" else replica_op

    run_op(config)  # warm-up: imports, lazy set-up, allocator
    latencies, cpu_ms, counts, roots = [], [], [], []
    pace = Pace()
    if tracer is not None:
        tracer.enabled = True
    deadline = time.monotonic() + config["seconds"]
    while time.monotonic() < deadline or not latencies:
        # Each op starts from the heap a fresh batch run would see: the
        # previous op's garbage is collected before the clocks start.
        last = None
        gc.collect()
        pace.sample()
        cpu0 = _cpu_s()
        t0 = time.monotonic()
        if tracer is not None:
            last, info = tracer.call("op", run_op, (config,), {})
            roots.append(tracer.spans[-1])
        else:
            last, info = run_op(config)
        latencies.append((time.monotonic() - t0) * 1000.0)
        cpu_ms.append((_cpu_s() - cpu0) * 1000.0)
        counts.append(info)
    if tracer is not None:
        tracer.enabled = False

    out = {
        "ready_at": ready_at,
        "latencies_ms": latencies,
        "counts": counts,
        "window_s": sum(latencies) / 1000.0,
        "cpu_ms": cpu_ms,
        "pace_ms": pace.samples,
        "peak_rss_mb": proc_peak_rss_mb(os.getpid()),
    }
    if workload == "cold_align":
        out["assignment"] = sorted(
            [left.name, right.name] for left, (right, _p) in last.assignment12.items()
        )
    else:
        from repro.obs.audit import digest_assignment, format_digest

        out["digest"] = format_digest(last.service.digests.digest)
        out["digest_recomputed"] = format_digest(
            digest_assignment(last.service._assignment12)
        )
    if tracer is not None:
        out["self_ms"] = attribute(roots, tracer.spans, {})
        out["span_attrs"] = _span_counts(tracer.spans)
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return 0


def _span_counts(spans):
    """Work counters the wrappers attached to spans, summed per span name,
    with ``<name>.n`` the number of spans that carried them."""
    totals = {}
    for span in spans:
        keys = [key for key in ("passes", "pairs_touched", "records") if key in span]
        if keys:
            totals[f"{span['name']}.n"] = totals.get(f"{span['name']}.n", 0) + 1
        for key in keys:
            totals[f"{span['name']}.{key}"] = totals.get(f"{span['name']}.{key}", 0) + span[key]
    return totals


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
