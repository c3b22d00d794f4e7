"""Which program calls a traced run wraps, per role.

Span names follow ``src/repro`` modules; each per-layer time metric is
``<span name>_ms``.  A target is ``module:attr`` or ``module:Class.attr``,
named where the caller looks it up: ``validate_delta`` is wrapped in the
two modules that imported it, the relation and class passes in
``repro.core.aligner``, which calls them.
"""

from __future__ import annotations

import time

from tracer import Tracer


def _warm(result):
    return {"passes": len(result.iterations), "pairs_touched": result.pairs_touched}


def _report(report):
    return {"pairs_touched": report.pairs_touched}


def _fetch(fetch):
    return {"records": len(fetch.records)}


def _request_id(args, _kwargs):
    return {"rid": args[0].headers.get("X-Request-Id")}


def _submit(_args, kwargs):
    return {"trace": kwargs.get("trace")}


def _batch(args, _kwargs):
    now = time.monotonic()
    batch = args[1]
    return {
        "traces": [pending.trace for pending in batch],
        "waits_ms": [(now - pending.enqueued_at) * 1000.0 for pending in batch],
    }


KERNEL = [
    ("repro.core.vectorized:VectorizedKernel.__init__", "core.vectorized.build"),
    ("repro.core.vectorized:VectorizedKernel.prepare_pass", "core.vectorized.prepare"),
    ("repro.core.vectorized:VectorizedKernel.score_ids", "core.vectorized.score"),
    ("repro.core.vectorized:VectorizedKernel.entries_for", "core.vectorized.merge"),
    ("repro.core.store:EquivalenceStore.update", "core.vectorized.merge"),
]

COLD = KERNEL + [
    ("repro.rdf.ntriples:read_ntriples", "rdf.ntriples.parse"),
    ("repro.core.aligner:ParisAligner.__init__", "core.aligner.init"),
    ("repro.core.aligner:ParisAligner.align", "core.aligner.align"),
    ("repro.core.aligner:parallel_subrelation_pass", "core.subrelations.relation_pass"),
    ("repro.core.aligner:subclass_pass", "core.subclasses.class_pass"),
]

ENGINE = KERNEL + [
    ("repro.core.aligner:ParisAligner.warm_align", "core.aligner.warm_align", None, _warm),
    ("repro.service.engine:AlignmentService.__init__", "service.engine.attach"),
    ("repro.service.engine:AlignmentService.apply_delta", "service.engine.apply", None,
     _report),
    ("repro.service.engine:validate_delta", "service.delta.decode"),
    ("repro.service.query:QueryIndex.apply_changes", "service.query.apply_changes"),
    ("repro.obs.audit:DigestMaintainer.apply", "obs.audit.digest_apply"),
    ("repro.service.subs:SubscriptionManager.publish", "service.subs.publish"),
] + [
    (f"repro.obs.provenance:ProvenanceRing.{method}", "obs.provenance.stamp")
    for method in ("admit", "register_record", "stamp_upto", "stamp_applied_upto",
                   "stamp_traces", "note_merge")
]

SERVER = ENGINE + [
    ("repro.service.server:AlignmentRequestHandler.do_POST", "service.server.post",
     _request_id),
    ("repro.service.server:AlignmentRequestHandler.do_GET", "service.server.get",
     _request_id),
    ("repro.service.delta:Delta.from_json", "service.delta.decode"),
    ("repro.service.stream.batcher:validate_delta", "service.delta.decode"),
    ("repro.service.stream.batcher:DeltaBatcher.submit", "service.stream.batcher.submit",
     _submit),
    ("repro.service.stream.batcher:DeltaBatcher._apply",
     "service.stream.batcher.apply_batch", _batch),
    ("repro.service.stream.wal:WriteAheadLog.append", "service.stream.wal.append"),
    ("repro.service.stream.wal:WriteAheadLog.sync", "service.stream.wal.sync"),
    ("repro.service.engine:AlignmentService.pair", "service.engine.pair"),
    ("repro.service.engine:AlignmentService.neighborhood", "service.engine.neighborhood"),
    ("repro.service.query:QueryIndex.page", "service.query.page"),
    ("repro.service.query:QueryIndex.top", "service.query.top"),
]

REPLICA = ENGINE + [
    ("repro.service.replica.node:ReplicaNode.__init__", "service.replica.init"),
    ("repro.service.replica.node:load_state", "service.state.load"),
    ("repro.service.replica.node:ReplicaNode.poll_once", "service.replica.poll"),
    ("repro.service.replica.follower:FileWalFollower.fetch", "service.replica.fetch", None,
     _fetch),
    ("repro.service.replica.node:compose_deltas", "service.delta.compose"),
]

ROLES = {"cold": COLD, "server": SERVER, "replica": REPLICA}


class _TracedOs:
    """Stands in for ``os`` inside the WAL module so its fsyncs get spans."""

    def __init__(self, real, tracer: Tracer) -> None:
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def fsync(self, fd):
        return self._tracer.call("service.stream.wal.fsync", self._real.fsync, (fd,), {})


def install(role: str) -> Tracer:
    """Install the wrappers of ``role``; returns the (disabled) tracer."""
    tracer = Tracer()
    for entry in ROLES[role]:
        target, name, *hooks = entry
        on_call = hooks[0] if hooks else None
        on_result = hooks[1] if len(hooks) > 1 else None
        tracer.wrap(target, name, on_call=on_call, on_result=on_result)
    if role == "server":
        import repro.service.stream.wal as wal_module

        wal_module.os = _TracedOs(wal_module.os, tracer)
    return tracer
