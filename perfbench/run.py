"""The repository's benchmark: four workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of ``cold_align``, ``ingest``, ``read_mixed``,
``replica_catchup`` (see ``perfbench/README.md`` for what each measures and
why).  ``BENCHMARK.json`` gates all but ``ingest``, whose figures move with
the machine's load more than its bounds allow; ``read_mixed``'s writer runs
the same write path.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced run.  ``all`` runs every workload untraced and traced and
adds the tracing overhead.  The exit code is 1 when an output check fails.
CPU-bound times are scaled to the reference pace of ``pace.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import io
import json
import random
import shutil
import statistics
import signal
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    ROOT,
    SRC,
    DeltaStream,
    child_env,
    fresh_request,
    free_port,
    get_json,
    machine_stamp,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    request,
    stop_process,
    wait_ready,
    write_family_fixture,
)
from pace import REFERENCE_MS, Pace  # noqa: E402
from tracer import Tracer, attribute, find, load_spans  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Load before the measured window starts (seconds).
WARMUP_S = 1.5
#: Seconds between pace samples while the HTTP workloads run.
PACE_EVERY_S = 1.0
#: yago_dbpedia_pair size for cold_align (the fixture's own world seed).
COLD_PERSONS, COLD_WORKS = 300, 150
#: F1 floor of the cold_align output check.
COLD_F1_FLOOR = 0.85
#: Family-fixture size behind the server and the replica workloads.
FAMILIES = 300
#: WAL records the replica catches up on, and records per fetch.
WAL_RECORDS, REPLICA_BATCH = 512, 256
#: Closed-loop writers of ``ingest``; open-loop write rate of ``read_mixed``.
INGEST_WRITERS, READ_MIXED_WRITES_PER_S = 2, 4.0
#: Server flags of the HTTP workloads: the flush timer is off (0 ms).
SERVE_FLAGS = ["--wal", "--snapshot-every", "0", "--max-lag-ms", "0"]
#: Query-shape mix of the read_mixed reader (weights).
READ_MIX = {"pair": 30, "entity": 20, "top": 15, "page": 20, "revalidate": 15}

E2E_UNITS = {
    "latency_mean_ms": "ms",
    "throughput_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
    "f1": "ratio",
    "setup_s": "s",
}

#: Per-layer self time (ms per op) of each traced span name.
LAYER_SPANS = [
    "e2e.uncovered",
    "rdf.ntriples.parse",
    "core.aligner.init",
    "core.aligner.align",
    "core.vectorized.build",
    "core.vectorized.prepare",
    "core.vectorized.score",
    "core.vectorized.merge",
    "core.subrelations.relation_pass",
    "core.subclasses.class_pass",
    "core.aligner.warm_align",
    "service.server.post",
    "service.server.get",
    "service.delta.decode",
    "service.delta.compose",
    "service.stream.batcher.submit",
    "service.stream.batcher.apply_batch",
    "service.stream.wal.append",
    "service.stream.wal.sync",
    "service.stream.wal.fsync",
    "service.engine.attach",
    "service.engine.apply",
    "service.query.apply_changes",
    "obs.audit.digest_apply",
    "service.subs.publish",
    "obs.provenance.stamp",
    "service.engine.pair",
    "service.engine.neighborhood",
    "service.query.page",
    "service.query.top",
    "service.replica.init",
    "service.state.load",
    "service.replica.poll",
    "service.replica.fetch",
]

#: Root spans: an in-process op, a client read or request, a client write.
ROOT_SPANS = ("op", "client.request", "client.write")

LAYER_UNITS = {f"{name}_ms": "ms" for name in LAYER_SPANS}
LAYER_UNITS.update({
    "core.aligner.passes": "count",
    "core.store.pairs": "count",
    "core.aligner.warm_passes": "count",
    "core.pairs_touched_per_delta": "count",
    "core.pairs_touched_per_record": "count",
    "service.stream.wal.fsyncs_per_delta": "count",
    "service.stream.wal.bytes_per_record": "bytes",
    "service.stream.batcher.queue_wait_ms": "ms",
    "service.stream.batcher.deltas_per_batch": "count",
    "service.replica.records_per_fetch": "count",
    "service.query.not_modified_ratio": "ratio",
    "service.server.client_gap_ms": "ms",
    "read.pair_ms": "ms",
    "read.entity_ms": "ms",
    "read.top_ms": "ms",
    "read.page_ms": "ms",
    "read.revalidate_ms": "ms",
    "traced.latency_p50_ms": "ms",
    "traced.latency_p99_ms": "ms",
    "traced.throughput_per_s": "1/s",
})

#: The per-layer metrics each workload's traced run must produce.  A layer
#: with no span (say, a wrapper its callers no longer go through) fails the
#: run rather than reading 0.  The JSON line carries every declared metric;
#: one a workload does not run reads 0.
_WRITE_LAYERS = [
    "e2e.uncovered_ms", "service.server.post_ms", "service.delta.decode_ms",
    "service.stream.batcher.submit_ms", "service.stream.batcher.apply_batch_ms",
    "service.stream.wal.append_ms", "service.stream.wal.sync_ms",
    "service.stream.wal.fsync_ms", "service.engine.apply_ms",
    "core.aligner.warm_align_ms", "service.query.apply_changes_ms",
    "obs.audit.digest_apply_ms", "service.subs.publish_ms", "obs.provenance.stamp_ms",
    "core.aligner.warm_passes", "core.pairs_touched_per_delta",
    "service.stream.wal.fsyncs_per_delta", "service.stream.wal.bytes_per_record",
    "service.stream.batcher.queue_wait_ms", "service.stream.batcher.deltas_per_batch",
]
TRACED_LAYERS = {
    "cold_align": [
        "e2e.uncovered_ms", "rdf.ntriples.parse_ms", "core.aligner.init_ms",
        "core.aligner.align_ms", "core.vectorized.build_ms", "core.vectorized.prepare_ms",
        "core.vectorized.score_ms", "core.vectorized.merge_ms",
        "core.subrelations.relation_pass_ms", "core.subclasses.class_pass_ms",
        "core.aligner.passes", "core.store.pairs",
    ],
    "ingest": _WRITE_LAYERS,
    "read_mixed": _WRITE_LAYERS + [
        "service.server.get_ms", "service.engine.pair_ms",
        "service.engine.neighborhood_ms", "service.query.page_ms", "service.query.top_ms",
        "service.query.not_modified_ratio", "service.server.client_gap_ms",
        "read.pair_ms", "read.entity_ms", "read.top_ms", "read.page_ms",
        "read.revalidate_ms",
    ],
    "replica_catchup": [
        "e2e.uncovered_ms", "service.replica.init_ms", "service.state.load_ms",
        "service.engine.attach_ms", "service.replica.poll_ms", "service.replica.fetch_ms",
        "service.delta.decode_ms", "service.delta.compose_ms", "service.engine.apply_ms",
        "core.aligner.warm_align_ms", "service.query.apply_changes_ms",
        "obs.audit.digest_apply_ms", "obs.provenance.stamp_ms",
        "core.aligner.warm_passes", "core.pairs_touched_per_record",
        "service.replica.records_per_fetch",
    ],
}


class Run:
    """What one workload run produced."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.checks = []  # (name, ok, detail)
        self.e2e = {}
        self.raw = {}  # unscaled figures, printed, not gated
        self.percentiles = {}  # printed, not gated
        self.layers = {}
        self.tables = []  # (title, {layer metric: self ms per op}, mean op ms)
        self.config = {"workload": workload, "seed": seed, "seconds": seconds,
                       "trace": trace}
        self.stamp = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _name, ok, _detail in self.checks)

    def latency(self, latencies_ms, window_s, work_units, cpu_s, factors,
                cpu_bound: bool) -> None:
        """The window's figures.  ``factors`` holds each op's pace factor
        (``pace.py``).  CPU time is scaled by them; so are latency and
        throughput when an op is one thread's CPU work (``cpu_bound``), and
        not when an op waits on a network timer or a disk."""
        # The machine's speed changes in phases of seconds to minutes, so
        # one run's op latencies fall into two modes.  A percentile jumps
        # from one mode to the other as the mix shifts; the mean moves in
        # proportion to it.  So the mean is gated and the percentiles are
        # printed.
        ops = len(latencies_ms)
        # The op-time-weighted mean factor of the window.
        factor = sum(ms * f for ms, f in zip(latencies_ms, factors)) / sum(latencies_ms)
        self.raw["latency_mean_ms"] = sum(latencies_ms) / ops
        self.raw["throughput_per_s"] = work_units / window_s
        self.raw["cpu_ms_per_op"] = cpu_s * 1000.0 / ops
        for q in (50, 75, 90, 99):
            self.percentiles[f"latency_p{q}_ms"] = percentile(latencies_ms, q)
        scale = factor if cpu_bound else 1.0
        self.e2e["latency_mean_ms"] = self.raw["latency_mean_ms"] * scale
        self.e2e["throughput_per_s"] = self.raw["throughput_per_s"] / scale
        self.e2e["cpu_ms_per_op"] = self.raw["cpu_ms_per_op"] * factor
        self.config.update(ops=ops, window_s=window_s, pace_factor=factor,
                           scaled="cpu, latency, throughput" if cpu_bound else "cpu")

    def setups(self, set_up) -> list:
        """Call ``set_up(rep)`` SETUP_REPS times; each returns ``(seconds,
        value)``.  ``setup_s`` is the median of the seconds, each scaled by
        the mean of the pace samples taken right before and after it.
        Returns the values."""
        pace = Pace()
        pace.sample()
        times, values = [], []
        for rep in range(SETUP_REPS):
            seconds, value = set_up(rep)
            times.append(seconds)
            values.append(value)
            pace.sample()
        factors = pace.factors()
        self.raw["setup_s"] = statistics.median(times)
        self.e2e["setup_s"] = statistics.median(
            seconds * (before + after) / 2
            for seconds, before, after in zip(times, factors, factors[1:]))
        return values


def family_f1(assignment12, families) -> float:
    """Instance F1 against the family fixture's gold (person a/b, city)."""
    from repro.evaluation.metrics import evaluate_instances
    from repro.evaluation.gold import GoldStandard

    pairs = set()
    for family in families:
        pairs.update({(f"p{family}a", f"q{family}a"), (f"p{family}b", f"q{family}b"),
                      (f"pcity{family}", f"qcity{family}")})
    return evaluate_instances(assignment12, GoldStandard(instance_pairs=pairs)).f1


def layer_times(run: Run, self_ms: dict, ops: int, title: str, mean_ms: float) -> None:
    """One "where an op's time goes" table.  A layer metric that an
    earlier table of the run already set keeps that table's value."""
    table = {}
    for name, total in self_ms.items():
        key = f"{'e2e.uncovered' if name in ROOT_SPANS else name}_ms"
        if key in LAYER_UNITS:
            table[key] = table.get(key, 0.0) + total / ops
    run.tables.append((title, table, mean_ms))
    for key, value in table.items():
        run.layers.setdefault(key, value)


# -- cold_align ----------------------------------------------------------------

def _cold_fixture(seed: int, directory: Path):
    """yago_dbpedia_pair at its own world seed; the workload seed shuffles
    the statement order of both N-Triples files."""
    from repro.datasets import yago_dbpedia_pair
    from repro.rdf import ntriples

    pair = yago_dbpedia_pair(num_persons=COLD_PERSONS, num_works=COLD_WORKS)
    rng = random.Random(seed)
    paths = []
    for side, ontology in (("left", pair.ontology1), ("right", pair.ontology2)):
        buffer = io.StringIO()
        ntriples.write_ntriples(ontology, buffer)
        lines = buffer.getvalue().splitlines(keepends=True)
        rng.shuffle(lines)
        path = directory / f"{side}.nt"
        path.write_text("".join(lines), encoding="utf-8")
        paths.append(path)
    return pair, paths


def pace_factors(out: dict) -> list:
    """The pace factor of each op a worker ran."""
    return [REFERENCE_MS / value for value in out["pace_ms"]]


def run_worker(config: dict, workdir: Path) -> dict:
    config_path = workdir / "worker-config.json"
    result_path = workdir / "worker-result.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(config_path), str(result_path)],
        env=child_env(),
    )
    try:
        code = proc.wait(timeout=170)
    finally:
        stop_process(proc)
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def cold_align(run: Run, workdir: Path) -> None:
    from repro.evaluation.metrics import evaluate_instances
    from repro.rdf.terms import Resource

    pair, (left, right) = _cold_fixture(run.seed, workdir)
    run.config.update(fixture="yago_dbpedia_pair", persons=COLD_PERSONS,
                      works=COLD_WORKS, left_instances=len(pair.ontology1.instances),
                      config="ParisConfig() workers=1")
    config = {"workload": "cold_align", "role": "cold", "left": str(left),
              "right": str(right), "seconds": run.seconds, "trace": run.trace}
    # Set-up is the batch process's start: the interpreter and the
    # program's imports, up to where parsing would begin.
    def set_up(_rep):
        started = time.monotonic()
        ready_at = run_worker({**config, "setup_only": True}, workdir)["ready_at"]
        return ready_at - started, None

    run.setups(set_up)
    out = run_worker(config, workdir)
    ops = len(out["latencies_ms"])
    run.attempted += ops + 1
    instances = len(pair.ontology1.instances)
    run.latency(out["latencies_ms"], out["window_s"], instances * ops,
                sum(out["cpu_ms"]) / 1000.0, pace_factors(out), cpu_bound=True)
    run.e2e["peak_rss_mb"] = out["peak_rss_mb"]
    assignment = {Resource(left_name): (Resource(right_name), 1.0)
                  for left_name, right_name in out["assignment"]}
    f1 = evaluate_instances(assignment, pair.gold).f1
    run.e2e["f1"] = f1
    run.check("f1_floor", f1 >= COLD_F1_FLOOR, f"F1 {f1:.4f} >= {COLD_F1_FLOOR}")
    distinct = {(count["passes"], count["pairs"]) for count in out["counts"]}
    run.check("passes_and_pairs_repeat", len(distinct) == 1,
              f"(passes, store pairs) over {ops} aligns: {sorted(distinct)}")
    if run.trace:
        layer_times(run, out["self_ms"], ops, "per align", run.raw["latency_mean_ms"])
        passes, pairs = next(iter(distinct))
        run.layers["core.aligner.passes"] = passes
        run.layers["core.store.pairs"] = pairs


# -- the server workloads --------------------------------------------------------

class Server:
    """``repro serve`` on the family fixture, in its own process."""

    def __init__(self, workdir: Path, fixture, trace: bool, name: str) -> None:
        self.state_dir = workdir / f"state-{name}"
        self.spans_path = workdir / f"spans-{name}.json"
        self.port = free_port()
        args = ["serve", str(fixture[0]), str(fixture[1]),
                "--state-dir", str(self.state_dir), "--port", str(self.port)]
        args += SERVE_FLAGS
        if trace:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(self.spans_path), "server", "--", *args]
        else:
            command = [sys.executable, "-m", "repro", *args]
        self.log = open(workdir / f"serve-{name}.log", "wb")
        self.proc = subprocess.Popen(command, env=child_env(), stdout=subprocess.DEVNULL,
                                     stderr=self.log)

    def ready(self) -> "Server":
        wait_ready(self.port, self.proc)
        return self

    def stop(self) -> int:
        try:
            return stop_process(self.proc)
        finally:
            self.log.close()


@contextlib.contextmanager
def serving(run: Run, workdir: Path):
    """Set up SETUP_REPS times (each from an empty state directory) and
    serve from the last one; ``setup_s`` is the median time to ready.
    The server is stopped on the way out, whatever happened."""
    fixture = write_family_fixture(workdir, FAMILIES)
    server = None

    def set_up(rep):
        nonlocal server
        if server is not None:
            server.stop()
            shutil.rmtree(server.state_dir, ignore_errors=True)
        started = time.monotonic()
        server = Server(workdir, fixture, run.trace, str(rep))
        server.ready()
        return time.monotonic() - started, None

    try:
        run.setups(set_up)
    except BaseException:
        if server is not None:
            server.stop()
        raise
    run.config.update(fixture="family_pair", families=FAMILIES,
                      serve_flags=" ".join(SERVE_FLAGS))
    try:
        yield server
    finally:
        server.stop()


def drive(server: Server, targets, window_start: float, seconds: float, workdir: Path):
    """Run the load threads to the end; the server's user and system CPU
    seconds from the window start on, and the pace sampled every
    PACE_EVERY_S meanwhile by a sampler process (``pace.py``)."""
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    time.sleep(max(0.0, window_start - time.monotonic()))
    user0, system0 = proc_cpu_s(server.proc.pid)
    samples_path = workdir / "pace.json"
    sampler = subprocess.Popen([sys.executable, str(HERE / "pace.py"), str(seconds),
                                str(PACE_EVERY_S), str(samples_path)])
    try:
        for thread in threads:
            thread.join()
        user1, system1 = proc_cpu_s(server.proc.pid)
        cpu_s = (user1 - user0, system1 - system0)
        if sampler.wait(timeout=seconds + 60) != 0:
            raise RuntimeError(f"pace sampler exited with code {sampler.returncode}")
    finally:
        stop_process(sampler)
    pace = Pace()
    pace.samples = json.loads(samples_path.read_text(encoding="utf-8"))
    return cpu_s, pace


def attribute_requests(run: Run, roots, server_spans, title: str) -> None:
    """Per-layer self times of the client requests and what served them."""
    self_ms = attribute(roots, roots + server_spans, server_links(roots, server_spans))
    mean_ms = sum(root["end"] - root["start"] for root in roots) * 1000.0 / len(roots)
    layer_times(run, self_ms, len(roots), title, mean_ms)


def post_delta(port: int, body: bytes, rid: str):
    return fresh_request(port, "POST", "/delta", body,
                         {"Content-Type": "application/json", "X-Request-Id": rid})


def finish_server(run: Run, server: Server, stream: DeltaStream) -> list:
    """Digest check against a cold realign of the final corpus; F1; spans."""
    from repro.obs.audit import digest_assignment, format_digest
    from repro.service import AlignmentService, load_state

    served = get_json(server.port, "/digest")["digest"]
    run.e2e["peak_rss_mb"] = proc_peak_rss_mb(server.proc.pid)
    code = server.stop()
    run.check("server_clean_exit", code == 0, f"exit code {code}")
    config = load_state(server.state_dir).config
    left, right = stream.corpus()
    cold = AlignmentService.cold_start(left, right, config)
    expected = format_digest(digest_assignment(cold._assignment12))
    run.check("digest_equals_cold_realign", served == expected,
              f"served {served} vs cold realign {expected}")
    run.e2e["f1"] = family_f1(cold._assignment12, list(range(stream.base)) + stream.live)
    if not run.trace:
        return []
    wal_bytes = sum(path.stat().st_size for path in server.state_dir.glob("wal*.ndjson"))
    head = json.loads(server.state_dir.joinpath("wal.ndjson").read_text(
        encoding="utf-8").splitlines()[-1])["offset"]
    run.layers["service.stream.wal.bytes_per_record"] = wal_bytes / head
    return load_spans(str(server.spans_path))


def server_links(client_spans, server_spans) -> dict:
    """Client request → server handler; queued delta → its batch."""
    by_rid = {span["rid"]: span["id"] for span in client_spans}
    by_trace = {span["trace"]: span["id"] for span in server_spans
                if span["name"] == "service.stream.batcher.submit"}
    links = {}
    for span in server_spans:
        if span.get("rid") in by_rid:
            links.setdefault(by_rid[span["rid"]], []).append(span["id"])
        for trace in span.get("traces", ()):
            if trace in by_trace:
                links.setdefault(by_trace[trace], []).append(span["id"])
    return links


def window_counters(run: Run, spans, start: float, end: float, acked: int) -> None:
    """Work counters of the server spans that started in the window."""
    fsyncs = find(spans, "service.stream.wal.fsync", start, end)
    run.layers["service.stream.wal.fsyncs_per_delta"] = len(fsyncs) / acked
    applies = find(spans, "service.engine.apply", start, end)
    run.layers["core.pairs_touched_per_delta"] = (
        sum(span["pairs_touched"] for span in applies) / acked)
    warm = find(spans, "core.aligner.warm_align", start, end)
    if warm:
        run.layers["core.aligner.warm_passes"] = (
            sum(span["passes"] for span in warm) / len(warm))
    batches = find(spans, "service.stream.batcher.apply_batch", start, end)
    waits = [wait for span in batches for wait in span["waits_ms"]]
    if batches:
        run.layers["service.stream.batcher.queue_wait_ms"] = sum(waits) / len(waits)
        run.layers["service.stream.batcher.deltas_per_batch"] = len(waits) / len(batches)


def ingest(run: Run, workdir: Path) -> None:
    with serving(run, workdir) as server:
        _ingest(run, server)


def _ingest(run: Run, server: Server) -> None:
    stream = DeltaStream(run.seed, FAMILIES)
    tracer = Tracer()
    tracer.enabled = run.trace
    samples = []  # (sent, acked, ok)
    window_start = time.monotonic() + WARMUP_S
    window_end = window_start + run.seconds

    def writer() -> None:
        while time.monotonic() < window_end:
            _kind, body = stream.next()
            rid = uuid.uuid4().hex
            sent = time.monotonic()
            try:
                status, _headers, _data = post_delta(server.port, body, rid)
                ok = status == 200
            except OSError:
                ok = False
            acked = time.monotonic()
            if sent >= window_start:
                samples.append((sent, acked, ok))
                tracer.record("client.request", sent, acked, rid=rid)

    cpu_s, pace = drive(server, [writer] * INGEST_WRITERS, window_start,
                        run.seconds, server.state_dir.parent)
    run.config.update(writers=INGEST_WRITERS, connection="fresh per request",
                      delta_mix="1-family add / whole-family retract; 1 in 10 "
                                "toggles a base family's marriage link")
    good = [(sent, acked) for sent, acked, ok in samples if ok]
    run.attempted += len(samples)
    run.failed += len(samples) - len(good)
    window_s = max(acked for _sent, acked in good) - window_start
    run.latency([(acked - sent) * 1000.0 for sent, acked in good], window_s,
                len(good), sum(cpu_s), [pace.factor()] * len(good), cpu_bound=False)
    run.config.update(server_user_s=cpu_s[0], server_system_s=cpu_s[1])
    server_spans = finish_server(run, server, stream)
    if run.trace:
        attribute_requests(run, tracer.spans, server_spans, "per delta")
        window_counters(run, server_spans, window_start, window_end, len(good))


def read_mixed(run: Run, workdir: Path) -> None:
    with serving(run, workdir) as server:
        _read_mixed(run, server)


def _read_mixed(run: Run, server: Server) -> None:
    stream = DeltaStream(run.seed, FAMILIES)
    rng = random.Random(run.seed)
    tracer = Tracer()
    tracer.enabled = run.trace
    reads = []  # (shape, sent, done, ok, status)
    writes = []  # (due, acked, ok)
    begin = time.monotonic()
    window_start = begin + WARMUP_S
    window_end = window_start + run.seconds
    shapes, weights = zip(*READ_MIX.items())

    def reader() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        cursor = None
        last_pair = None  # (path, etag)
        try:
            while time.monotonic() < window_end:
                shape = rng.choices(shapes, weights)[0]
                family = rng.randrange(FAMILIES)
                headers = {"X-Request-Id": uuid.uuid4().hex}
                if shape == "revalidate" and last_pair is None:
                    shape = "pair"
                if shape == "pair":
                    path = f"/pair/p{family}a/q{family}a"
                elif shape == "entity":
                    path = f"/alignment?entity=p{family}b"
                elif shape == "top":
                    path = "/alignment?top=10"
                elif shape == "page":
                    path = "/alignment?limit=50" + (f"&cursor={cursor}" if cursor else "")
                else:
                    path = last_pair[0]
                    headers["If-None-Match"] = last_pair[1]
                sent = time.monotonic()
                try:
                    status, response_headers, data = request(conn, "GET", path,
                                                             headers=headers)
                except OSError:
                    status, response_headers, data = 0, {}, b""
                    conn.close()
                done = time.monotonic()
                ok = _read_ok(shape, status, data)
                if ok and shape == "page":
                    cursor = json.loads(data)["next_cursor"]
                if ok and shape in ("pair", "revalidate"):
                    last_pair = (path, response_headers["ETag"])
                if sent >= window_start:
                    reads.append((shape, sent, done, ok, status))
                    tracer.record("client.request", sent, done, rid=headers["X-Request-Id"])
        finally:
            conn.close()

    def writer() -> None:
        # Open loop: each write is due on a fixed schedule, late or not.
        due = begin
        while due < window_end:
            time.sleep(max(0.0, due - time.monotonic()))
            _kind, body = stream.next()
            rid = uuid.uuid4().hex
            sent = time.monotonic()
            try:
                status, _headers, _data = post_delta(server.port, body, rid)
                ok = status == 200
            except OSError:
                ok = False
            acked = time.monotonic()
            if due >= window_start:
                writes.append((due, acked, ok))
                tracer.record("client.write", sent, acked, rid=rid)
            due += 1.0 / READ_MIXED_WRITES_PER_S

    cpu_s, pace = drive(server, [reader, writer], window_start, run.seconds,
                        server.state_dir.parent)
    run.config.update(reader="1 keep-alive connection, closed loop",
                      writes_per_s=READ_MIXED_WRITES_PER_S, read_mix=READ_MIX)
    good = [read for read in reads if read[3]]
    run.attempted += len(reads) + len(writes)
    run.failed += len(reads) - len(good) + sum(1 for write in writes if not write[2])
    window_s = max(read[2] for read in good) - window_start
    run.latency([(read[2] - read[1]) * 1000.0 for read in good], window_s, len(good),
                sum(cpu_s), [pace.factor()] * len(good), cpu_bound=False)
    run.config.update(server_user_s=cpu_s[0], server_system_s=cpu_s[1])
    run.config["write_lateness_p50_ms"] = percentile(
        [(acked - due) * 1000.0 for due, acked, _ok in writes], 50)
    server_spans = finish_server(run, server, stream)
    if not run.trace:
        return
    read_roots = [span for span in tracer.spans if span["name"] == "client.request"]
    write_roots = [span for span in tracer.spans if span["name"] == "client.write"]
    attribute_requests(run, read_roots, server_spans, "per read")
    # The writer's deltas run the write path; its layers are per delta.
    attribute_requests(run, write_roots, server_spans, "per delta of the writer")
    window_counters(run, server_spans, window_start, window_end,
                    sum(1 for write in writes if write[2]))
    for shape in READ_MIX:
        latencies = [(r[2] - r[1]) * 1000.0 for r in good if r[0] == shape]
        if latencies:
            run.layers[f"read.{shape}_ms"] = percentile(latencies, 50)
    revalidations = [r for r in good if r[0] == "revalidate"]
    if revalidations:
        run.layers["service.query.not_modified_ratio"] = (
            sum(1 for r in revalidations if r[4] == 304) / len(revalidations))
    handler = {span["rid"]: span for span in server_spans
               if span["name"] == "service.server.get"}
    gaps = [
        (root["end"] - root["start"]
         - (handler[root["rid"]]["end"] - handler[root["rid"]]["start"])) * 1000.0
        for root in read_roots if root["rid"] in handler
    ]
    run.layers["service.server.client_gap_ms"] = percentile(gaps, 50)


def _read_ok(shape: str, status: int, data: bytes) -> bool:
    """Output check of one read: status and a plausible body."""
    if shape == "revalidate":
        return status in (200, 304)
    if status != 200:
        return False
    payload = json.loads(data)
    if shape == "pair":
        return payload["probability"] >= 0.5
    if shape == "entity":
        return bool(payload["as_left"])
    if shape == "top":
        return len(payload["pairs"]) == 10
    return bool(payload["pairs"])


# -- replica_catchup --------------------------------------------------------------

def _primary(seed: int, state_dir: Path):
    """Cold-start a primary, snapshot it, write the seeded WAL and bring
    the primary to its head; returns the head digest."""
    from repro.core.config import ParisConfig
    from repro.datasets import family_pair
    from repro.obs.audit import format_digest
    from repro.service import AlignmentService
    from repro.service.delta import Delta
    from repro.service.stream import WriteAheadLog, replay_wal

    state_dir.mkdir(parents=True)
    left, right = family_pair(FAMILIES)
    primary = AlignmentService.cold_start(left, right, ParisConfig())
    primary.snapshot(state_dir)
    stream = DeltaStream(seed, FAMILIES)
    wal = WriteAheadLog(state_dir / "wal.ndjson")
    try:
        for seq in range(1, WAL_RECORDS + 1):
            _kind, body = stream.next()
            wal.append(Delta.from_json(json.loads(body)), "bench", seq, sync=False)
        wal.sync()
        replay_wal(primary, wal, max_batch=REPLICA_BATCH)
    finally:
        wal.close()
    families = list(range(FAMILIES)) + stream.live
    return format_digest(primary.digests.digest), family_f1(primary._assignment12, families)


def replica_catchup(run: Run, workdir: Path) -> None:
    def set_up(rep):
        state_dir = workdir / f"primary-{rep}"
        if rep:
            shutil.rmtree(workdir / f"primary-{rep - 1}")
        started = time.monotonic()
        head = _primary(run.seed, state_dir)
        return time.monotonic() - started, (state_dir, *head)

    state_dir, digest, f1 = run.setups(set_up)[-1]
    run.config.update(fixture="family_pair", families=FAMILIES, wal_records=WAL_RECORDS,
                      replica_batch=REPLICA_BATCH, follower="file (shared state dir)")
    out = run_worker({"workload": "replica_catchup", "role": "replica",
                      "state_dir": str(state_dir), "head": WAL_RECORDS,
                      "replica_batch": REPLICA_BATCH, "seconds": run.seconds,
                      "trace": run.trace}, workdir)
    ops = len(out["latencies_ms"])
    run.attempted += ops + 1
    run.latency(out["latencies_ms"], out["window_s"], WAL_RECORDS * ops,
                sum(out["cpu_ms"]) / 1000.0, pace_factors(out), cpu_bound=True)
    run.e2e["peak_rss_mb"] = out["peak_rss_mb"]
    run.e2e["f1"] = f1
    run.check("replica_digest_equals_primary", out["digest"] == digest,
              f"replica {out['digest']} vs primary {digest}")
    run.check("replica_digest_self_consistent", out["digest"] == out["digest_recomputed"],
              f"incremental {out['digest']} vs recomputed {out['digest_recomputed']}")
    records = {count["records"] for count in out["counts"]}
    run.check("every_op_reaches_head", records == {WAL_RECORDS},
              f"records applied per op: {sorted(records)}")
    if run.trace:
        layer_times(run, out["self_ms"], ops, "per catch-up", run.raw["latency_mean_ms"])
        attrs = out["span_attrs"]
        fetches = attrs.get("service.replica.fetch.n", 0)
        if fetches:
            run.layers["service.replica.records_per_fetch"] = (
                attrs["service.replica.fetch.records"] / fetches)
        run.layers["core.pairs_touched_per_record"] = (
            attrs.get("service.engine.apply.pairs_touched", 0) / (WAL_RECORDS * ops))
        if attrs.get("core.aligner.warm_align.n"):
            run.layers["core.aligner.warm_passes"] = (
                attrs["core.aligner.warm_align.passes"] / attrs["core.aligner.warm_align.n"])


WORKLOADS = {
    "cold_align": cold_align,
    "ingest": ingest,
    "read_mixed": read_mixed,
    "replica_catchup": replica_catchup,
}


# -- driver ------------------------------------------------------------------------

def execute(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(workload, seed, seconds, trace)
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{int(trace)}-{uuid.uuid4().hex[:8]}"
    workdir.mkdir(parents=True)
    try:
        run.stamp = machine_stamp(workdir)
        WORKLOADS[workload](run, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    if run.trace:
        missing = [name for name in TRACED_LAYERS[workload] if name not in run.layers]
        run.check("layers_traced", not missing,
                  f"no span for {missing}" if missing
                  else f"all {len(TRACED_LAYERS[workload])} layers of the workload")
        run.layers["traced.latency_p50_ms"] = run.percentiles["latency_p50_ms"]
        run.layers["traced.latency_p99_ms"] = run.percentiles["latency_p99_ms"]
        run.layers["traced.throughput_per_s"] = run.e2e["throughput_per_s"]
    return run


def render(run: Run) -> list:
    lines = [f"== {run.workload} (seed {run.seed}, {run.seconds:g} s, "
             f"{'traced' if run.trace else 'untraced'})",
             "machine: " + json.dumps(run.stamp, sort_keys=True),
             "config:  " + json.dumps(run.config, sort_keys=True)]
    for name, ok, detail in run.checks:
        lines.append(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    error_ratio = run.failed / max(run.attempted, 1)
    lines.append(f"{'error_ratio':<24} {error_ratio:>14.6f} ratio "
                 f"({run.failed}/{run.attempted})")
    if not run.trace:
        for name, unit in E2E_UNITS.items():
            lines.append(f"{name:<24} {run.e2e[name]:>14.4f} {unit}")
        for name, value in run.raw.items():
            if value != run.e2e[name]:
                lines.append(f"{name:<24} {value:>14.4f} {E2E_UNITS[name]} "
                             f"(unscaled, not gated; pace {REFERENCE_MS:g} ms)")
        for name, value in run.percentiles.items():
            lines.append(f"{name:<24} {value:>14.4f} ms (not gated; {run.config['ops']} ops)")
        return lines
    for title, table, mean_ms in run.tables:
        lines.append(f"where an op's time goes, {title} (self time in ms, and its share):")
        total = sum(table.values())
        for name, value in sorted(table.items(), key=lambda item: -item[1]):
            share = value / total * 100.0 if total else 0.0
            lines.append(f"  {name:<44} {value:>12.4f}  {share:5.1f}%")
        lines.append(f"  {'(sum of the rows)':<44} {total:>12.4f}")
        lines.append(f"  {'(mean traced latency)':<44} {mean_ms:>12.4f}")
    for name, unit in LAYER_UNITS.items():
        if not name.endswith("_ms") or name[:-3] not in LAYER_SPANS:
            if name in run.layers:
                lines.append(f"{name:<44} {run.layers[name]:>12.4f} {unit}")
    return lines


def result_json(run: Run) -> dict:
    if run.trace:
        metrics = {name: {"value": float(run.layers.get(name, 0.0)), "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": float(run.e2e[name]), "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    return {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so servers are stopped and the
    # work directory is removed on the way out.
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload != "all":
        run = execute(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(render(run)))
        if run.failed:
            print(f"{run.failed} of {run.attempted} ops failed", file=sys.stderr)
        print(json.dumps(result_json(run)))
        return 0 if run.correct and not run.failed else 1
    return run_all(args.seed, args.seconds)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, with the tracing overhead."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        plain = execute(workload, seed, seconds, False)
        traced = execute(workload, seed, seconds, True)
        print("\n".join(render(plain)))
        print("\n".join(render(traced)))
        for name in ("latency_p50_ms", "throughput_per_s"):
            with_trace, without = ({**run.e2e, **run.percentiles}[name]
                                   for run in (traced, plain))
            print(f"tracing overhead {workload} {name}: traced {with_trace:.4f} vs "
                  f"untraced {without:.4f} ({(with_trace / without - 1) * 100:+.1f}%)")
        for run in (plain, traced):
            correct = correct and run.correct
            attempted += run.attempted
            failed += run.failed
        for name, unit in E2E_UNITS.items():
            metrics[f"{workload}.{name}"] = {"value": plain.e2e[name], "unit": unit}
        print()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
