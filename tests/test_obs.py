"""Observability stack: metrics registry, exposition, logging, spans.

Covers the stdlib-only observability layer (:mod:`repro.obs`) bottom-up:
Prometheus text exposition (escaping, label ordering, histogram bucket
shape), registry get-or-create semantics, thread-safety of counters,
the structured text/JSON log formatters, span trees — and the HTTP
surface: a raw ``GET /metrics`` scrape against all three serving roles
(primary, replica, router) plus the shared access log.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import post_json, request
from repro.core.config import ParisConfig
from repro.datasets.incremental import family_pair
from repro.obs import REGISTRY, root_span, span
from repro.obs.logging import JsonFormatter, TextFormatter, setup_logging
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    escape_help,
    escape_label_value,
)
from repro.service import AlignmentService
from repro.service.replica import ReadRouter, ReplicaNode, build_router_server
from repro.service.server import build_server
from repro.testing import family_delta, serve_in_thread, serve_primary, url_of


# ----------------------------------------------------------------------
# exposition format
# ----------------------------------------------------------------------


class TestExposition:
    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_escapes_total", "x", labelnames=("path",))
        counter.inc(path='a\\b"c\nd')
        text = registry.render()
        assert 't_escapes_total{path="a\\\\b\\"c\\nd"} 1' in text

    def test_help_escaping(self):
        assert escape_help("a\\b\nc") == "a\\\\b\\nc"
        assert escape_label_value('x"y') == 'x\\"y'

    def test_label_ordering_is_declared_order(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "t_order_total", "x", labelnames=("method", "route", "status")
        )
        # kwargs in a different order must not change the series key.
        counter.inc(status=200, method="GET", route="/pair")
        counter.inc(route="/pair", status=200, method="GET")
        text = registry.render()
        assert 't_order_total{method="GET",route="/pair",status="200"} 2' in text

    def test_counter_renders_integers_without_decimal_point(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_ints_total", "x")
        counter.inc(3)
        assert "t_ints_total 3\n" in registry.render()

    def test_help_and_type_lines(self):
        registry = MetricsRegistry()
        registry.gauge("t_gauge", "A gauge.")
        text = registry.render()
        assert "# HELP t_gauge A gauge.\n" in text
        assert "# TYPE t_gauge gauge\n" in text
        assert text.endswith("\n")

    def test_families_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("t_zz_total", "z")
        registry.counter("t_aa_total", "a")
        text = registry.render()
        assert text.index("t_aa_total") < text.index("t_zz_total")

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("t_shared_total", "x")
        second = registry.counter("t_shared_total", "x")
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("t_kind_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("t_kind_total", "x")

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_neg_total", "x")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_callback_computed_at_scrape(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("t_cb", "x")
        value = {"v": 1.0}
        gauge.set_callback(lambda: value["v"])
        assert "t_cb 1\n" in registry.render()
        value["v"] = 7.5
        assert "t_cb 7.5\n" in registry.render()


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------


class TestHistogram:
    def test_default_buckets_strictly_increasing(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
        assert len(set(LATENCY_BUCKETS)) == len(LATENCY_BUCKETS)

    def test_invalid_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("t_bad_seconds", "x", buckets=(1.0, 1.0))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=0.0, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_bucket_counts_monotone_and_complete(self, observations):
        registry = MetricsRegistry()
        histogram = registry.histogram("t_mono_seconds", "x")
        for value in observations:
            histogram.observe(value)
        cumulative, total_sum, count = histogram.snapshot()
        # Cumulative bucket counts never decrease, and +Inf == count.
        assert cumulative == sorted(cumulative)
        assert len(cumulative) == len(histogram.buckets) + 1
        assert cumulative[-1] == count == len(observations)
        assert total_sum == pytest.approx(sum(observations), rel=1e-9, abs=1e-9)
        # Each cumulative bucket holds exactly the observations <= le.
        bounds = list(histogram.buckets) + [math.inf]
        for le, n in zip(bounds, cumulative):
            assert n == sum(1 for value in observations if value <= le)

    def test_exposition_shape(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "t_shape_seconds", "x", buckets=(0.1, 1.0), labelnames=("op",)
        )
        histogram.observe(0.05, op="a")
        histogram.observe(2.0, op="a")
        text = registry.render()
        assert 't_shape_seconds_bucket{op="a",le="0.1"} 1' in text
        assert 't_shape_seconds_bucket{op="a",le="1"} 1' in text
        assert 't_shape_seconds_bucket{op="a",le="+Inf"} 2' in text
        assert 't_shape_seconds_count{op="a"} 2' in text
        assert 't_shape_seconds_sum{op="a"} 2.05' in text


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------


class TestConcurrency:
    def test_concurrent_counter_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_race_total", "x", labelnames=("who",))
        threads, per_thread = 8, 2000

        def work(who):
            for _ in range(per_thread):
                counter.inc(who=who)
                counter.inc(who="shared")

        pool = [
            threading.Thread(target=work, args=(str(i % 2),)) for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.value(who="shared") == threads * per_thread
        assert counter.value(who="0") + counter.value(who="1") == threads * per_thread


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------


def make_record(event, **fields):
    record = logging.LogRecord(
        "repro.test", logging.INFO, __file__, 1, event, None, None
    )
    for key, value in fields.items():
        setattr(record, key, value)
    return record


class TestLogging:
    def test_json_formatter_emits_one_object_per_line(self):
        line = JsonFormatter().format(make_record("thing happened", a=1, b="x y"))
        payload = json.loads(line)
        assert payload["event"] == "thing happened"
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.test"
        assert payload["a"] == 1 and payload["b"] == "x y"
        assert payload["ts"].endswith("Z")

    def test_text_formatter_quotes_spaced_values(self):
        line = TextFormatter().format(make_record("boot", path="a b", n=3))
        assert "boot" in line and 'path="a b"' in line and "n=3" in line

    def test_setup_logging_is_idempotent(self):
        logger = logging.getLogger("repro")
        before = list(logger.handlers)
        try:
            setup_logging(level="warning", log_format="json")
            setup_logging(level="warning", log_format="json")
            assert len(logger.handlers) == 1
            assert logger.level == logging.WARNING
        finally:
            for handler in list(logger.handlers):
                logger.removeHandler(handler)
            for handler in before:
                logger.addHandler(handler)
            logger.setLevel(logging.NOTSET)
            logger.propagate = True

    def test_setup_logging_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            setup_logging(level="loud")


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_span_tree_nests_and_times(self):
        with root_span("outer", size=3) as outer:
            with span("inner", step=1):
                pass
            with span("inner", step=2) as second:
                second.annotate(extra="yes")
        tree = outer.to_dict()
        assert tree["span"] == "outer" and tree["size"] == 3
        assert tree["duration_s"] >= 0
        assert [child["span"] for child in tree["children"]] == ["inner", "inner"]
        assert tree["children"][1]["extra"] == "yes"

    def test_root_span_isolates_from_enclosing_tree(self):
        with root_span("a") as first:
            with root_span("b") as second:
                with span("leaf"):
                    pass
        assert "children" not in first.to_dict()
        assert [c["span"] for c in second.to_dict()["children"]] == ["leaf"]

    def test_spans_feed_the_duration_histogram(self):
        histogram = REGISTRY.get("repro_span_duration_seconds")
        _cumulative, _sum, before = histogram.snapshot(span="t.obs.probe")
        with span("t.obs.probe"):
            pass
        _cumulative, _sum, after = histogram.snapshot(span="t.obs.probe")
        assert after == before + 1


# ----------------------------------------------------------------------
# HTTP surface: /metrics on every role + the shared access log
# ----------------------------------------------------------------------


def scrape(server):
    _status, headers, body = request(url_of(server, "/metrics"))
    return body.decode("utf-8"), headers


def assert_valid_exposition(text):
    assert text.endswith("\n")
    for line in text.splitlines():
        assert line, "exposition must not contain blank lines"
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE "))
        else:
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample value parses as a float
            assert name_part.startswith("repro_")


class TestMetricsEndpoint:
    @pytest.fixture()
    def cluster(self, tmp_path):
        """Primary (WAL + stream) + one replica server + router."""
        left, right = family_pair(4)
        primary = AlignmentService.cold_start(left, right, ParisConfig())
        state_dir = tmp_path / "state"
        primary.snapshot(state_dir)
        options = {"max_batch": 8, "max_lag": 0.01}
        with serve_primary(primary, state_dir, options, snapshot_every=0) as primary_server:
            replica = ReplicaNode(state_dir, batch=8)
            replica_server = build_server(None, "127.0.0.1", 0, replica=replica)
            router = ReadRouter(
                url_of(primary_server), [url_of(replica_server)], check_interval=30.0
            )
            router_server = build_router_server(router)
            with serve_in_thread(replica_server), serve_in_thread(router_server):
                yield {
                    "primary": primary,
                    "primary_server": primary_server,
                    "replica": replica,
                    "replica_server": replica_server,
                    "router_server": router_server,
                }
            replica.stop()

    def test_all_three_roles_serve_valid_exposition(self, cluster):
        for role in ("primary_server", "replica_server", "router_server"):
            text, headers = scrape(cluster[role])
            assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
            assert_valid_exposition(text)
            # The shared request metrics exist on every role.
            assert "# TYPE repro_requests_total counter" in text
            assert "# TYPE repro_request_duration_seconds histogram" in text

    def test_request_metrics_count_scrapes(self, cluster):
        scrape(cluster["primary_server"])  # prime the /metrics series
        text, _headers = scrape(cluster["primary_server"])
        assert 'repro_requests_total{method="GET",route="/metrics",status="200"}' in text
        assert 'repro_request_duration_seconds_bucket{method="GET",route="/metrics"' in text

    def test_replica_applied_offset_converges_to_primary(self, cluster):
        primary, replica = cluster["primary"], cluster["replica"]
        # Write through the primary's HTTP surface so the WAL advances.
        status, report = post_json(
            url_of(cluster["primary_server"], "/delta"), family_delta(4).to_json()
        )
        assert status == 200 and report["converged"]
        replica.catch_up(primary.state.wal_offset)
        assert replica.applied_offset == primary.state.wal_offset
        # Both engines publish the same applied-offset gauge.
        gauge = REGISTRY.get("repro_wal_applied_offset")
        assert gauge.value() == primary.state.wal_offset

    def test_access_log_emits_request_fields(self, cluster):
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        handler = Capture()
        access = logging.getLogger("repro.access")
        access.addHandler(handler)
        # Without setup_logging the logger inherits the root's WARNING
        # threshold; open it up for the capture.
        previous_level = access.level
        access.setLevel(logging.INFO)
        try:
            request(url_of(cluster["primary_server"], "/healthz?source=s1&seq=4"))
            # The access line is emitted after the response flushes, so
            # the client can get here first: poll briefly for it.
            deadline = time.monotonic() + 10
            matching = []
            while not matching and time.monotonic() < deadline:
                matching = [
                    r for r in records if getattr(r, "path", None) == "/healthz"
                ]
                if not matching:
                    time.sleep(0.02)
        finally:
            access.removeHandler(handler)
            access.setLevel(previous_level)
        assert matching, "no access-log record for the request"
        record = matching[-1]
        assert record.getMessage() == "request"
        assert record.method == "GET" and record.status == 200
        assert record.source == "s1" and record.seq == "4"
        assert record.duration_ms >= 0 and record.bytes > 0
