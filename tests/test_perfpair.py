"""Smoke test of ``tools/perfpair.py``, the paired A/B benchmark runner."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "perfpair.py")

ROW_KEYS = {"better", "unit", "base_median", "change_median",
            "base_quartiles", "change_quartiles", "base_iqr", "change_pct",
            "wins", "pairs", "gap_gt_base_iqr", "bound", "within_bound"}


def load_tool():
    spec = importlib.util.spec_from_file_location("perfpair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_aa_pair_on_the_working_tree(tmp_path):
    done = subprocess.run(
        [sys.executable, TOOL, "--base", ROOT, "--aa",
         "--workload", "verify_dfs", "--seed", "0", "--pairs", "1",
         "--seconds", "0.05"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert lines[2].startswith("| metric | base median")
    report = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = [m["name"] for m in json.load(handle)["end_to_end"]]
    assert list(report["metrics"]) == declared
    for row in report["metrics"].values():
        assert set(row) == ROW_KEYS
        assert row["pairs"] == 1
    assert report["first"] == ["base"]
    assert report["failed"] == {"base": 0, "change": 0}
    assert report["trace"]["identical"] is True
    assert report["trace"]["counts"]["verify.runs"][0] > 0


def test_summary_counts_wins_and_checks_the_bound():
    tool = load_tool()
    spec = {"name": "jobs_per_s", "unit": "1/s", "better": "higher",
            "bound": 0.25}
    row = tool.summarize(spec, [100, 104, 96, 100, 102],
                         [120, 118, 95, 121, 119])
    assert row["base_median"] == 100 and row["change_median"] == 119
    assert row["base_iqr"] == 2  # inclusive quartiles 100 and 102
    assert row["wins"] == 4 and row["gap_gt_base_iqr"]
    assert row["within_bound"]
    slower = tool.summarize(spec, [100, 100, 100], [70, 70, 70])
    assert slower["wins"] == 0 and not slower["within_bound"]
    latency = dict(spec, better="lower")
    assert tool.summarize(latency, [10, 10], [12, 12])["within_bound"]
    assert not tool.summarize(latency, [10, 10], [13, 13])["within_bound"]
