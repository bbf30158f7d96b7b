"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_value, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.command == "compare"
        assert args.schemes == "SRB,OPT,PRD(1),PRD(0.1)"
        assert args.events_out is None
        assert args.flight_recorder is None
        assert args.flight_recorder_size == 4096

    def test_events_flags(self):
        args = build_parser().parse_args([
            "events", "run.jsonl", "--kind", "probe", "--oid", "7",
            "--since", "2", "--until", "5", "--limit", "20",
        ])
        assert args.command == "events"
        assert args.kind == "probe" and args.oid == "7"
        assert args.since == 2.0 and args.until == 5.0
        assert args.chain is None

    def test_monitor_defaults_to_live_run(self):
        args = build_parser().parse_args(["monitor"])
        assert args.file is None
        assert args.interval == 1.0

    def test_diagnose_thresholds(self):
        args = build_parser().parse_args([
            "diagnose", "run.jsonl", "--probe-cascade-threshold", "3",
            "--ground-truth",
        ])
        assert args.probe_cascade_threshold == 3
        assert args.shrink_storm_threshold == 25
        assert args.ground_truth is True

    def test_figure_id(self):
        args = build_parser().parse_args(["figure", "7.5"])
        assert args.id == "7.5"

    def test_value_parsing(self):
        assert _parse_value("3") == 3
        assert _parse_value("0.5") == 0.5
        assert _parse_value("abc") == "abc"

    def test_speed_switches_are_gone(self, capsys):
        """No user-set option selects between paths that give the same
        results: the kernel backend, its row cutoff and the grid caches
        are fixed, and their fields and flags stay removed."""
        import dataclasses

        from repro.core import ServerConfig
        from repro.simulation import Scenario

        assert [f.name for f in dataclasses.fields(ServerConfig)] == [
            "grid_m", "space", "max_speed", "reachability_pushes",
            "steadiness", "batch_range_regions", "probe_timeout",
            "probe_retries", "probe_budget", "on_unknown_object",
            "degraded_max_speed",
        ]
        switches = {"enable_caches", "kernel_backend", "kernel_min_rows"}
        scenario_fields = {f.name for f in dataclasses.fields(Scenario)}
        assert not switches & scenario_fields
        assert len(scenario_fields) == 28
        for flag in (["--no-caches"], ["--kernel-backend", "python"],
                     ["--kernel-min-rows", "8"]):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(["compare", *flag])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_theorem(self, capsys):
        assert main(["theorem", "--samples", "20000"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 5.1 says" in out
        assert "Monte Carlo says" in out

    def test_compare_small(self, capsys):
        code = main([
            "compare", "--objects", "80", "--queries", "5",
            "--duration", "0.8", "--schemes", "SRB,OPT",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SRB" in out and "OPT" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "9.9"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_sweep_small(self, capsys):
        code = main([
            "sweep", "delay", "0,0.1",
            "--objects", "60", "--queries", "4", "--duration", "0.6",
            "--schemes", "SRB",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep over delay" in out

    def test_figure_small(self, capsys):
        code = main([
            "figure", "7.4b",
            "--objects", "60", "--queries", "4", "--duration", "0.6",
        ])
        assert code == 0
        assert "Fig 7.4b" in capsys.readouterr().out


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """One small instrumented compare run shared by the event-tooling
    tests: an event stream, a flight-recorder tail, and a metrics file."""
    root = tmp_path_factory.mktemp("events")
    paths = {
        "events": root / "events.jsonl",
        "flight": root / "flight.jsonl",
        "metrics": root / "metrics.json",
    }
    code = main([
        "compare", "--objects", "80", "--queries", "5",
        "--duration", "0.8", "--schemes", "SRB",
        "--events-out", str(paths["events"]),
        "--flight-recorder", str(paths["flight"]),
        "--flight-recorder-size", "200",
        "--metrics-out", str(paths["metrics"]),
    ])
    assert code == 0
    return paths


class TestEventTooling:
    def test_compare_streams_events_and_dumps_recorder(
        self, recorded_run, capsys
    ):
        assert recorded_run["events"].exists()
        assert recorded_run["flight"].exists()
        # The ring capacity bounds the flight-recorder tail; the sink
        # holds the full stream.
        flight_lines = len(recorded_run["flight"].read_text().splitlines())
        event_lines = len(recorded_run["events"].read_text().splitlines())
        assert flight_lines <= 200
        assert event_lines >= flight_lines
        capsys.readouterr()

    def test_events_filter_and_limit(self, recorded_run, capsys):
        code = main([
            "events", str(recorded_run["events"]),
            "--kind", "probe", "--limit", "3",
        ])
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert 0 < len(lines) <= 3
        assert all("probe" in line for line in lines)
        assert "events" in captured.err  # the "-- N of M events" summary

    def test_events_chain_replays_causality(self, recorded_run, capsys):
        import json as _json

        rows = [
            _json.loads(line)
            for line in recorded_run["events"].read_text().splitlines()
        ]
        probe = next(
            row for row in rows
            if row["kind"] == "probe" and row["cause"] is not None
        )
        code = main([
            "events", str(recorded_run["events"]),
            "--chain", str(probe["seq"]),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"#{probe['seq']}" in out
        assert f"#{probe['cause']}" in out

    def test_events_chain_unknown_seq_fails(self, recorded_run, capsys):
        code = main([
            "events", str(recorded_run["events"]), "--chain", "99999999",
        ])
        assert code == 1
        assert "no event with seq" in capsys.readouterr().err

    def test_events_missing_file(self, tmp_path, capsys):
        code = main(["events", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_monitor_replays_a_file(self, recorded_run, capsys):
        code = main([
            "monitor", str(recorded_run["events"]), "--interval", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "event timeline" in out
        assert "update" in out

    def test_diagnose_clean_run_exits_zero(self, recorded_run, capsys):
        code = main(["diagnose", str(recorded_run["events"])])
        assert code == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_diagnose_corrupted_replay_exits_nonzero(
        self, recorded_run, tmp_path, capsys
    ):
        import json as _json

        rows = [
            _json.loads(line)
            for line in recorded_run["events"].read_text().splitlines()
        ]
        victim = next(
            row for row in rows
            if row["kind"] == "safe_region" and row.get("region")
        )
        victim["pos"] = [victim["region"][2] + 1.0, victim["pos"][1]]
        corrupted = tmp_path / "corrupted.jsonl"
        corrupted.write_text(
            "".join(_json.dumps(row) + "\n" for row in rows)
        )
        code = main(["diagnose", str(corrupted)])
        assert code == 1
        assert "containment" in capsys.readouterr().out

    def test_stats_renders_timeseries_section(self, recorded_run, capsys):
        code = main(["stats", str(recorded_run["metrics"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "[timeseries]" in out
        assert "p50" in out and "p99" in out
