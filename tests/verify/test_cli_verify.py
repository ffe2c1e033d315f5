"""The ``pyrtos-sc verify`` command: verdicts, JSON, counterexample replay."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def hazard_file(tmp_path):
    from repro.workloads.fig6 import fig6_crossed_mutex_spec

    path = tmp_path / "hazard.json"
    path.write_text(json.dumps(fig6_crossed_mutex_spec()))
    return str(path)


class TestVerifyCommand:
    def test_fig6_verifies_clean(self, capsys):
        assert main(["verify", "fig6", "--horizon", "1ms"]) == 0
        out = capsys.readouterr().out
        assert "verdict: verified" in out

    def test_seeded_deadlock_exits_nonzero(self, capsys):
        assert main(["verify", "fig6-deadlock", "--horizon", "1ms"]) == 1
        out = capsys.readouterr().out
        assert "verdict: violated" in out
        assert "RTS-V001" in out
        assert "exec(Function_3)" in out  # the minimized witness choice

    def test_seeded_miss_from_json_file(self, hazard_file, capsys):
        assert main(["verify", hazard_file, "--horizon", "1ms"]) == 1
        assert "RTS-V001" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["verify", "fig6-miss", "--horizon", "1ms",
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "violated"
        assert payload["target"] == "fig6-miss"
        assert payload["violations"][0]["property"] == "RTS-V002"
        assert payload["counterexamples"][0]["choices"] == [1]
        assert payload["report"]["summary"]["errors"] >= 1

    def test_replay_exports_the_failing_trace(self, tmp_path, capsys):
        vcd = tmp_path / "failing.vcd"
        assert main(["verify", "fig6-deadlock", "--horizon", "1ms",
                     "--replay", "--vcd", str(vcd)]) == 1
        out = capsys.readouterr().out
        assert "replayed 1 choice(s)" in out
        assert "RTS-V001" in out.split("replayed", 1)[1]
        assert "$timescale" in vcd.read_text()

    def test_random_strategy(self, capsys):
        assert main(["verify", "fig6-deadlock", "--horizon", "1ms",
                     "--strategy", "random", "--runs", "40",
                     "--seed", "1"]) == 1
        assert "strategy=random" in capsys.readouterr().out

    def test_unknown_target_fails(self):
        with pytest.raises(SystemExit, match="unknown target"):
            main(["verify", "bogus"])


class TestUsageErrors:
    """A spec or option the command cannot use exits 2, not 1: exit 1 is
    the documented "violation found" code that CI gates on."""

    @pytest.fixture()
    def scriptless_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad",
            "processors": [{"name": "cpu"}],
            "functions": [{"name": "t0", "processor": "cpu"}],
        }))
        return str(path)

    @pytest.mark.parametrize("command", ("run", "lint", "verify"))
    def test_build_error_is_one_line_and_exit_2(self, command,
                                                scriptless_file, capsys):
        assert main([command, scriptless_file]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: function 't0' needs a behavior or a script\n"
        )
        assert "Traceback" not in captured.out

    @pytest.mark.parametrize("argv", (
        ["--depth", "-1"],
        ["--depth", "0"],
        ["--max-runs", "0"],
        ["--strategy", "random", "--runs", "0"],
    ))
    def test_bad_bounds_are_one_line_and_exit_2(self, argv, capsys):
        assert main(["verify", "fig6", "--horizon", "1ms"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_verdict_line_reports_symmetry_pruning(self, tmp_path, capsys):
        path = tmp_path / "twins.json"
        path.write_text(json.dumps({
            "name": "twins",
            "processors": [{"name": "cpu"}],
            "functions": [
                {"name": f"t{index}", "priority": 1, "processor": "cpu",
                 "script": [["execute", "5us..10us"]]}
                for index in range(3)
            ],
        }))
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: verified" in out
        assert "symmetry_pruned=" in out
        assert "symmetry_pruned=0)" not in out
