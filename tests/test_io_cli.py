"""Unit tests for alignment persistence and the CLI."""

import pytest

from repro import align, load_result, save_result, write_sameas_links
from repro.cli import main
from repro.rdf import ntriples
from repro.rdf.terms import Relation


@pytest.fixture()
def result(tiny_pair):
    left, right = tiny_pair
    return align(left, right)


class TestSaveLoad:
    def test_round_trip_instances(self, result, tmp_path):
        save_result(result, tmp_path / "out")
        loaded = load_result(tmp_path / "out")
        assert {
            (l.name, r.name, round(p, 6)) for l, r, p in loaded.instances.items()
        } == {(l.name, r.name, round(p, 6)) for l, r, p in result.instances.items()}

    def test_round_trip_relations_and_classes(self, result, tmp_path):
        save_result(result, tmp_path / "out")
        loaded = load_result(tmp_path / "out")
        assert loaded.relations12.get(
            Relation("bornIn"), Relation("birthPlace")
        ) == pytest.approx(
            result.relations12.get(Relation("bornIn"), Relation("birthPlace")),
            abs=1e-6,
        )
        assert len(loaded.classes12) == len(result.classes12)

    def test_round_trip_metadata(self, result, tmp_path):
        save_result(result, tmp_path / "out")
        loaded = load_result(tmp_path / "out")
        assert loaded.left_name == result.left_name
        assert loaded.right_name == result.right_name
        assert loaded.converged == result.converged

    def test_assignment_recomputed(self, result, tmp_path):
        save_result(result, tmp_path / "out")
        loaded = load_result(tmp_path / "out")
        assert {
            (l.name, r.name) for l, (r, _p) in loaded.assignment12.items()
        } == {(l.name, r.name) for l, (r, _p) in result.assignment12.items()}

    def test_expected_files_written(self, result, tmp_path):
        directory = save_result(result, tmp_path / "out")
        names = {p.name for p in directory.iterdir()}
        assert {
            "instances.tsv", "assignment.tsv", "relations12.tsv",
            "relations21.tsv", "classes12.tsv", "classes21.tsv", "meta.tsv",
        } <= names


class TestSameAsExport:
    def test_links_written(self, result, tmp_path):
        path = tmp_path / "links.nt"
        count = write_sameas_links(result.assignment12, path)
        assert count == len(result.assignment12)
        content = path.read_text()
        assert "owl#sameAs" in content
        assert content.count("\n") == count

    def test_threshold_filters(self, result, tmp_path):
        path = tmp_path / "links.nt"
        count = write_sameas_links(result.assignment12, path, threshold=1.1)
        assert count == 0
        assert path.read_text() == ""


class TestCli:
    @pytest.fixture()
    def nt_files(self, tiny_pair, tmp_path):
        left, right = tiny_pair
        left_path = tmp_path / "left.nt"
        right_path = tmp_path / "right.nt"
        ntriples.write_ntriples(left, left_path)
        ntriples.write_ntriples(right, right_path)
        return str(left_path), str(right_path)

    def test_align_command(self, nt_files, tmp_path, capsys):
        left, right = nt_files
        out = tmp_path / "alignment"
        code = main(["align", left, right, "--out", str(out), "--print-pairs"])
        assert code == 0
        assert (out / "sameas.nt").exists()
        captured = capsys.readouterr()
        assert "p1" in captured.out  # printed pairs

    def test_align_with_options(self, nt_files, tmp_path):
        left, right = nt_files
        out = tmp_path / "alignment2"
        code = main([
            "align", left, right, "--out", str(out),
            "--similarity", "normalized", "--theta", "0.05",
            "--name-prior", "--max-iterations", "5",
        ])
        assert code == 0
        assert (out / "instances.tsv").read_text()

    def test_stats_command(self, nt_files, capsys):
        left, right = nt_files
        assert main(["stats", left, right]) == 0
        captured = capsys.readouterr()
        assert "#Instances" in captured.out

    def test_convert_command(self, nt_files, tmp_path, capsys):
        left, _right = nt_files
        target = tmp_path / "converted.tsv"
        assert main(["convert", left, str(target)]) == 0
        assert target.exists()
        # and back
        back = tmp_path / "back.nt"
        assert main(["convert", str(target), str(back)]) == 0
        assert back.read_text()

    @pytest.mark.parametrize("suffix", [".nt", ".tsv"])
    def test_convert_output_does_not_depend_on_the_hash_seed(self, tmp_path, suffix):
        """Each subject's objects and each class's members sit in sets
        whose order follows the salted str hash; the writers sort them,
        so two processes with different seeds write the same bytes."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.datasets import yago_dbpedia_pair

        pair = yago_dbpedia_pair(num_persons=40, num_works=20, seed=3)
        source = tmp_path / "left.nt"
        ntriples.write_ntriples(pair.ontology1, source)
        outputs = []
        for seed in ("1", "2"):
            target = tmp_path / f"out-{seed}{suffix}"
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(Path(repro.__file__).parent.parent), env.get("PYTHONPATH")])
            )
            subprocess.run(
                [sys.executable, "-m", "repro", "convert", str(source), str(target)],
                env=env, check=True, capture_output=True,
            )
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == pair.ontology1.num_facts + (
            pair.ontology1.num_type_statements
            + sum(1 for _edge in pair.ontology1.subclass_edges())
        )

    def test_align_output_does_not_depend_on_hash_seed_or_addresses(self, tmp_path):
        """Resources hash by identity, so sets of them iterate in
        allocation-address order, and literals and strings in salted
        hash order; two processes with different seeds still write the
        same output directory."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.datasets import yago_dbpedia_pair

        pair = yago_dbpedia_pair(num_persons=40, num_works=20, seed=5)
        left, right = tmp_path / "left.nt", tmp_path / "right.nt"
        ntriples.write_ntriples(pair.ontology1, left)
        ntriples.write_ntriples(pair.ontology2, right)
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"out-{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(Path(repro.__file__).parent.parent), env.get("PYTHONPATH")])
            )
            subprocess.run(
                [sys.executable, "-m", "repro", "align", str(left), str(right), "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert "instances.tsv" in outputs[0] and outputs[0]["instances.tsv"].count(b"\n") > 20

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["align", "/nonexistent.nt", "/nonexistent2.nt",
                  "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("bad.nt", "<a> <r> <b> .\n<s> <p .\n", "line 2: unterminated predicate <uri>"),
            ("bad.tsv", "a\tr\tb\nonly-two\tfields\n", "line 2: expected 3 tab-separated"),
        ],
    )
    def test_parse_errors_exit_with_path_and_line(self, tmp_path, name, text, message):
        bad = tmp_path / name
        bad.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(bad)])
        assert str(exc.value).startswith(f"error: {bad}: {message}")

    def test_unsupported_extension_errors(self, tmp_path):
        bad = tmp_path / "file.xyz"
        bad.write_text("")
        with pytest.raises(SystemExit):
            main(["stats", str(bad)])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestParallelOptionsWiring:
    """Subcommand argument wiring."""

    def test_retired_engine_flags_are_rejected(self):
        """Every pass has one route: no worker, shard or backend flags."""
        from repro.cli import build_parser

        for retired in ("--workers", "--shard-size", "--parallel-backend"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["align", "l.nt", "r.nt", retired, "1"])

    def test_demo_runs(self, capsys):
        assert main(["demo", "person"]) == 0
        captured = capsys.readouterr()
        assert "instances:" in captured.out

    def test_serve_parser(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--state-dir", "statedir", "--port", "0", "--host", "0.0.0.0"]
        )
        assert args.state_dir == "statedir"
        assert args.port == 0
        assert args.left is None and args.right is None
        assert args.handler.__name__ == "cmd_serve"

    def test_serve_without_inputs_or_snapshot_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve", "--state-dir", str(tmp_path / "empty")])

    def test_serve_streaming_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "l.nt", "r.nt", "--state-dir", "state",
                "--wal",
                "--watch", "deltas.ndjson",
                "--watch", "spool-dir",
                "--max-batch", "64",
                "--max-lag-ms", "25",
                "--max-queue", "512",
            ]
        )
        assert args.wal is True
        assert args.watch == ["deltas.ndjson", "spool-dir"]
        assert args.max_batch == 64
        assert args.max_lag_ms == 25.0
        assert args.max_queue == 512

    def test_serve_streaming_defaults_are_off(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "l.nt", "r.nt", "--state-dir", "state"]
        )
        assert args.wal is False and args.watch == []
        assert args.max_batch == 32
        assert args.max_lag_ms == 0.0  # flush as soon as the batcher is free
        assert args.max_queue == 256

    def test_replay_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["replay", "state/wal.ndjson", "--state-dir", "state", "--no-snapshot"]
        )
        assert args.wal == "state/wal.ndjson"
        assert args.state_dir == "state"
        assert args.no_snapshot is True
        assert args.handler.__name__ == "cmd_replay"

    def test_serve_wal_lifecycle_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "l.nt", "r.nt", "--state-dir", "state", "--wal",
                "--wal-segment-bytes", "65536",
                "--wal-group-commit-ms", "5",
            ]
        )
        assert args.wal_segment_bytes == 65536
        assert args.wal_group_commit_ms == 5.0
        defaults = build_parser().parse_args(
            ["serve", "l.nt", "r.nt", "--state-dir", "state"]
        )
        # Segmented by default: rotation bounds what a tailing replica
        # re-reads per poll and lets compaction reclaim covered history.
        assert defaults.wal_segment_bytes == 16 * 1024 * 1024
        assert defaults.wal_group_commit_ms == 0.0

    def test_replica_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "replica", "http://primary:8765",
                "--state-dir", "rep1", "--port", "0",
                "--poll-ms", "20", "--replica-batch", "64",
                "--snapshot-every", "5",
            ]
        )
        assert args.source == "http://primary:8765"
        assert args.state_dir == "rep1"
        assert args.poll_ms == 20.0
        assert args.replica_batch == 64
        assert args.snapshot_every == 5
        assert args.handler.__name__ == "cmd_replica"
        defaults = build_parser().parse_args(["replica", "statedir"])
        assert defaults.state_dir is None and defaults.port == 8766

    def test_route_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "route", "--primary", "http://p:8765",
                "--replica", "http://r1:8766", "--replica", "http://r2:8767",
                "--port", "0", "--check-interval-ms", "250",
            ]
        )
        assert args.primary == "http://p:8765"
        assert args.replica == ["http://r1:8766", "http://r2:8767"]
        assert args.check_interval_ms == 250.0
        assert args.handler.__name__ == "cmd_route"

    def test_watch_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "watch", "http://primary:8765",
                "--entity", "Elvis", "--epsilon", "0.05",
                "--after", "3", "--timeout", "10", "--count", "2",
            ]
        )
        assert args.url == "http://primary:8765"
        assert args.entity == "Elvis"
        assert args.epsilon == 0.05
        assert args.after == 3
        assert args.timeout == 10.0
        assert args.count == 2
        assert args.handler.__name__ == "cmd_watch"
        defaults = build_parser().parse_args(
            ["watch", "http://primary:8765", "--entity", "Elvis"]
        )
        assert defaults.epsilon == 0.0
        assert defaults.after is None
        assert defaults.timeout == 25.0
        assert defaults.count == 0

    def test_wal_compact_parser_and_run(self, tmp_path):
        from repro.cli import build_parser
        from repro.core.config import ParisConfig
        from repro.datasets.incremental import family_addition, family_pair
        from repro.service import AlignmentService, Delta
        from repro.service.stream import WriteAheadLog

        args = build_parser().parse_args(["wal", "compact", "--state-dir", "state"])
        assert args.state_dir == "state"
        assert args.handler.__name__ == "cmd_wal_compact"

        # End to end: rotated WAL + covering snapshot → segments gone.
        left, right = family_pair(4)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        wal = WriteAheadLog(tmp_path / "wal.ndjson", segment_bytes=400)
        for step in range(3):
            add1, add2 = family_addition(4 + step, 1)
            delta = Delta(add1=tuple(add1), add2=tuple(add2))
            service.apply_delta(delta, wal_offset=wal.append(delta, "w", step + 1))
        wal.close()
        service.snapshot(tmp_path)
        assert WriteAheadLog(tmp_path / "wal.ndjson", read_only=True).sealed_segments()
        size_before = sum(
            path.stat().st_size for path in tmp_path.glob("wal*.ndjson")
        )
        assert main(["wal", "compact", "--state-dir", str(tmp_path)]) == 0
        assert not WriteAheadLog(
            tmp_path / "wal.ndjson", read_only=True
        ).sealed_segments()
        size_after = sum(path.stat().st_size for path in tmp_path.glob("wal*.ndjson"))
        assert size_after < size_before
        # The remaining log still replays onto the snapshot cleanly.
        assert main(
            ["replay", str(tmp_path / "wal.ndjson"), "--state-dir", str(tmp_path)]
        ) == 0

    def test_replay_catches_up_a_stale_snapshot(self, tmp_path):
        """End-to-end offline recovery: snapshot + WAL suffix →
        caught-up snapshot whose scores match the full stream."""
        from repro.core.config import ParisConfig
        from repro.datasets.incremental import family_addition, family_pair
        from repro.service import AlignmentService, Delta, load_state
        from repro.service.stream import WriteAheadLog

        left, right = family_pair(4)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        service.snapshot(tmp_path)
        wal = WriteAheadLog(tmp_path / "wal.ndjson")
        add1, add2 = family_addition(4, 1)
        wal.append(Delta(add1=tuple(add1), add2=tuple(add2)), "writer", 1)
        wal.close()
        assert main(
            ["replay", str(tmp_path / "wal.ndjson"), "--state-dir", str(tmp_path)]
        ) == 0
        caught_up = load_state(tmp_path)
        assert caught_up.wal_offset == 1
        resumed = AlignmentService.from_state(caught_up)
        assert resumed.pair("p4a", "q4a")["probability"] > 0.9
        # Idempotent: a second replay finds nothing to do.
        assert main(
            ["replay", str(tmp_path / "wal.ndjson"), "--state-dir", str(tmp_path)]
        ) == 0
        assert load_state(tmp_path).version == caught_up.version


class TestCliMultiAndExplain:
    @pytest.fixture()
    def nt_files(self, tiny_pair, tmp_path):
        left, right = tiny_pair
        left_path = tmp_path / "left.nt"
        right_path = tmp_path / "right.nt"
        ntriples.write_ntriples(left, left_path)
        ntriples.write_ntriples(right, right_path)
        return str(left_path), str(right_path)

    def test_multi_command(self, nt_files, tmp_path, capsys):
        left, right = nt_files
        out = tmp_path / "clusters.tsv"
        assert main(["multi", left, right, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("confidence")
        assert len(lines) >= 3  # header + two clusters

    def test_multi_requires_two_files(self, nt_files, tmp_path):
        left, _right = nt_files
        with pytest.raises(SystemExit):
            main(["multi", left, "--out", str(tmp_path / "c.tsv")])

    def test_explain_command(self, nt_files, capsys):
        left, right = nt_files
        assert main(["explain", left, right, "p1", "x9"]) == 0
        captured = capsys.readouterr()
        assert "p1 ≡ x9" in captured.out
        assert "reported probability" in captured.out

    def test_explain_unmatched_pair(self, nt_files, capsys):
        left, right = nt_files
        assert main(["explain", left, right, "p1", "x7"]) == 0
        captured = capsys.readouterr()
        assert "evidence items: 0" in captured.out


class TestCliStatsUrlAndLogging:
    """`repro stats URL` (service scraping) and the global log flags."""

    def test_stats_url_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["stats", "http://127.0.0.1:8765", "--watch", "2", "--raw"]
        )
        assert args.files == ["http://127.0.0.1:8765"]
        assert args.watch == 2.0
        assert args.raw is True
        assert args.handler.__name__ == "cmd_stats"
        defaults = build_parser().parse_args(["stats", "a.nt"])
        assert defaults.watch is None and defaults.raw is False

    def test_log_flags_parse_and_default(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["--log-level", "debug", "--log-format", "json", "demo", "person"]
        )
        assert args.log_level == "debug" and args.log_format == "json"
        defaults = build_parser().parse_args(["demo", "person"])
        assert defaults.log_level == "info" and defaults.log_format == "text"

    def test_watch_and_raw_require_a_url(self, tiny_pair, tmp_path):
        from repro.rdf import ntriples as nt

        left, _right = tiny_pair
        path = tmp_path / "left.nt"
        nt.write_ntriples(left, path)
        with pytest.raises(SystemExit):
            main(["stats", str(path), "--raw"])
        with pytest.raises(SystemExit):
            main(["stats", str(path), "--watch", "1"])

    def test_mixing_url_and_files_errors(self):
        with pytest.raises(SystemExit):
            main(["stats", "http://127.0.0.1:1", "extra.nt"])

    @pytest.fixture()
    def live_server(self, tiny_pair, tmp_path):
        from repro.core.config import ParisConfig
        from repro.service import AlignmentService
        from repro.testing import serve_primary, url_of

        left, right = tiny_pair
        service = AlignmentService.cold_start(left, right, ParisConfig())
        with serve_primary(service, tmp_path) as server:
            yield url_of(server)

    def test_stats_url_pretty_prints_service_stats(self, live_server, capsys):
        import json as json_module

        assert main(["stats", live_server]) == 0
        captured = capsys.readouterr()
        payload = json_module.loads(captured.out)
        assert payload["status"] == "ok"
        assert "last_align_profile" in payload
        assert payload["last_align_profile"]["span"] == "align.cold"

    def test_stats_url_raw_scrapes_prometheus_text(self, live_server, capsys):
        assert main(["stats", live_server, "--raw"]) == 0
        captured = capsys.readouterr()
        assert "# TYPE repro_requests_total counter" in captured.out
        assert "repro_instance_pairs" in captured.out
