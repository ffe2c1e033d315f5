"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.mcse import System

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = REPO / "examples"
SEEDS_DIR = REPO / "tests" / "corpus" / "seeds"


@pytest.fixture()
def spec_file(tmp_path):
    spec = {
        "name": "demo",
        "relations": [{"kind": "queue", "name": "q", "capacity": 2}],
        "processors": [{"name": "cpu", "scheduling_duration": "1us"}],
        "functions": [
            {"name": "p", "priority": 2, "processor": "cpu",
             "script": [["loop", 3, [["execute", "2us"], ["write", "q", 1]]]]},
            {"name": "c", "priority": 1, "processor": "cpu",
             "script": [["loop", 3, [["read", "q"], ["execute", "1us"]]]]},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestRunCommand:
    def test_runs_spec(self, spec_file, capsys):
        assert main(["run", spec_file]) == 0
        out = capsys.readouterr().out
        assert "simulated 'demo'" in out

    def test_timeline_and_stats(self, spec_file, capsys):
        assert main(["run", spec_file, "--timeline", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out
        assert "activity" in out

    def test_duration_flag(self, spec_file, capsys):
        assert main(["run", spec_file, "--duration", "3us"]) == 0
        assert "t=3us" in capsys.readouterr().out

    def test_exports(self, spec_file, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        vcd = tmp_path / "out.vcd"
        jsonl = tmp_path / "out.jsonl"
        html = tmp_path / "out.html"
        assert main([
            "run", spec_file, "--svg", str(svg), "--vcd", str(vcd),
            "--jsonl", str(jsonl), "--html", str(html),
        ]) == 0
        assert svg.read_text().startswith("<svg")
        assert "$timescale" in vcd.read_text()
        assert jsonl.read_text().strip()
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_records_only_for_trace_outputs(self, spec_file, tmp_path,
                                            capsys, monkeypatch):
        run = System.run
        sinks = []

        def note_sink_and_run(system, *args, **kwargs):
            sinks.append(system.sim._emit)
            return run(system, *args, **kwargs)

        monkeypatch.setattr(System, "run", note_sink_and_run)
        assert main(["run", spec_file]) == 0
        assert capsys.readouterr().out == "simulated 'demo' to t=14us\n"
        assert main(["run", spec_file, "--stats"]) == 0
        stats = capsys.readouterr().out
        jsonl = tmp_path / "out.jsonl"
        assert main(["run", spec_file, "--stats", "--jsonl", str(jsonl)]) == 0
        traced = capsys.readouterr().out
        # --stats reads the functions' accumulators: no recorder attached
        assert [sink is None for sink in sinks] == [True, True, False]
        assert traced == stats + f"wrote {jsonl}\n"


class TestFig6Command:
    def test_reports_15us_reaction(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "reaction Clk -> Function_1: 15us" in out

    def test_threaded_engine(self, capsys):
        assert main(["fig6", "--engine", "threaded"]) == 0
        assert "15us" in capsys.readouterr().out


class TestMpeg2Command:
    def test_summary_printed(self, capsys):
        assert main(["mpeg2", "--frames", "4"]) == 0
        out = capsys.readouterr().out
        assert "MPEG-2 SoC: 18 tasks" in out
        assert "4/4 frames" in out


class TestCampaignCommand:
    def test_runs_and_summarises(self, capsys):
        assert main(["campaign", "--runs", "2", "--frames", "2",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 runs" in out
        assert "mean_e2e_us" in out
        assert "workers=2" in out

    def test_cache_hit_on_second_invocation(self, tmp_path, capsys):
        argv = ["campaign", "--runs", "3", "--frames", "2", "--workers", "2",
                "--cache", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache hits=0 misses=3" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache hits=3 misses=0" in second

    def test_json_export(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        assert main(["campaign", "--runs", "2", "--frames", "2",
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["runs"] == 2
        assert payload["stats"]["failed"] == 0
        assert "mean_e2e_us" in payload["metrics"]


class TestBatchRunCommand:
    def test_second_run_is_cached_and_compares_identical(self, tmp_path,
                                                         capsys):
        matrix = str(EXAMPLES / "utilization_matrix.json")
        cache = str(tmp_path / "cache")
        first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["batch-run", matrix, "--cache", cache,
                     "--out", first]) == 0
        assert "18/18 cells (0 cached" in capsys.readouterr().out
        assert main(["batch-run", matrix, "--cache", cache,
                     "--out", second]) == 0
        assert "18/18 cells (18 cached" in capsys.readouterr().out
        assert main(["compare", first, second]) == 0
        assert "identical" in capsys.readouterr().out


class TestFuzzCommand:
    def test_fixed_seed_finds_no_new_seeds_on_a_clean_tree(self, capsys):
        assert main(["fuzz", "--seed", "1", "--budget", "200", "--check",
                     "--json", "--no-write",
                     "--seeds-dir", str(SEEDS_DIR)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenarios"] == report["budget"] == 200
        assert report["scenarios_per_second"] > 0
        assert len(report["stream_sha256"]) == 64
        assert report["new_seeds"] == 0, [
            finding for finding in report["findings"] if finding["new"]
        ]

    def test_every_checked_in_seed_replays(self, capsys):
        assert main(["fuzz", "--replay", "--seeds-dir", str(SEEDS_DIR)]) == 0
        assert re.search(r"replayed [1-9]\d* seed\(s\), 0 mismatch\(es\)",
                         capsys.readouterr().out)


class TestSmpTargets:
    def test_global_edf_example_migrates(self, capsys):
        assert main(["run", str(EXAMPLES / "smp_global_edf.json"),
                     "--duration", "100ms", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "domain dom0 (global, global_edf)" in out
        assert re.search(r"[1-9][0-9]* migrations", out)

    def test_migration_overheads_render(self, tmp_path, capsys):
        svg, html = tmp_path / "smp.svg", tmp_path / "smp.html"
        assert main(["run", str(EXAMPLES / "smp_global_edf.json"),
                     "--duration", "2ms", "--timeline", "--svg", str(svg),
                     "--html", str(html)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^cpu\d .*M", out, re.MULTILINE)
        assert "<title>migration " in svg.read_text()
        assert "<title>migration " in html.read_text()

    def test_placement_miss_is_found_and_replays(self, capsys):
        assert main(["verify", "smp-miss", "--horizon", "20ms",
                     "--replay"]) == 1
        out = capsys.readouterr().out
        assert "verdict: violated" in out
        assert "RTS-V002" in out
        assert "place(dom0:job)" in out
        assert "replayed 1 choice(s)" in out


class TestCodegenCommand:
    def test_generates_files(self, spec_file, tmp_path, capsys):
        out = tmp_path / "gen"
        assert main(["codegen", spec_file, str(out)]) == 0
        assert (out / "app.c").exists()
        assert (out / "rtos_api.h").exists()
        assert "build with: cc" in capsys.readouterr().out


class TestParser:
    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["teleport"])

    def test_missing_spec_fails(self):
        with pytest.raises(SystemExit):
            main(["run"])


class TestUsageErrors:
    """Every subcommand reports a library error as one ``error:`` line on
    stderr and exit code 2, never a traceback."""

    @pytest.mark.parametrize("argv,message", [
        (["batch-run", "list.json"], "must be a JSON object"),
        (["compare", "plain.json", "plain.json"], "not a batch-run report"),
        (["corpus", "nosuch"], "unknown generator 'nosuch'"),
        (["campaign", "--runs", "0"], "need at least one run"),
        (["fuzz", "--budget", "-1"], "budget must be >= 1"),
        (["fuzz", "--replay", "--seeds-dir", "seeds"], "unreadable seed"),
        (["run", "bad-delay.json"], "script[0]: bad duration 'abc'"),
    ], ids=["batch-run-list", "compare-non-report", "corpus-unknown",
            "campaign-zero-runs", "fuzz-negative-budget",
            "fuzz-bad-seed", "run-bad-delay"])
    def test_one_line_and_exit_2(self, argv, message, tmp_path,
                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "bad-delay.json").write_text(json.dumps(
            {"functions": [{"name": "f", "script": [["delay", "abc"]]}]}
        ))
        (tmp_path / "plain.json").write_text('{"foo": 1}')
        (tmp_path / "seeds").mkdir()
        (tmp_path / "seeds" / "bad.json").write_text("not json")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err


class TestEmitJson:
    """One canonical JSON encoding shared by every subcommand and serve."""

    def test_stdout_default(self, capsys):
        from repro.jsonout import emit_json

        emit_json({"b": 1, "a": [2, 3]})
        out = capsys.readouterr().out
        assert out == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'

    def test_path_and_filelike_destinations(self, tmp_path):
        import io

        from repro.jsonout import emit_json

        path = tmp_path / "out.json"
        returned = emit_json({"z": 0, "a": 1}, str(path))
        buffer = io.StringIO()
        emit_json({"z": 0, "a": 1}, buffer)
        assert path.read_text() == buffer.getvalue() == returned + "\n"

    def test_key_order_is_stable(self):
        from repro.jsonout import emit_json

        import io

        first, second = io.StringIO(), io.StringIO()
        emit_json({"b": 1, "a": 2}, first)
        emit_json({"a": 2, "b": 1}, second)
        assert first.getvalue() == second.getvalue()

    def test_serve_responses_use_the_same_encoding(self):
        from repro.jsonout import emit_json
        from repro.serve.app import _encode_json

        payload = {"nested": {"b": 1, "a": 2}, "list": [1, 2]}
        import io

        buffer = io.StringIO()
        emit_json(payload, buffer)
        assert _encode_json(payload) == buffer.getvalue().encode()

    def test_lint_json_goes_through_emit_json(self, capsys):
        assert main(["lint", "fig6", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestServeParser:
    def test_defaults(self):
        from repro.cli import build_parser, cmd_serve

        args = build_parser().parse_args(["serve"])
        assert args.func is cmd_serve
        assert args.port == 8080
        assert args.workers == 2
        assert args.queue_size == 16
        assert args.cache == ".serve-cache"
        assert args.cache_max_entries == 1024
        assert not args.lax_lint

    def test_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--port", "0", "--workers", "4", "--rate", "2.5",
            "--no-cache", "--lax-lint", "--drain-timeout", "5",
        ])
        assert args.port == 0
        assert args.rate == 2.5
        assert args.no_cache and args.lax_lint
        assert args.drain_timeout == 5.0
