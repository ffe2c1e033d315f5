#!/usr/bin/env python3
"""Paired A/B measurement of two trees with the repository's benchmark.

    python tools/perfpair.py --base HEAD~1 --change . \\
        --workload corpus_sweep --seed 0 --pairs 10 --seconds 30

``--base`` and ``--change`` each name a git ref (exported with ``git
archive``) or a directory (copied).  Only ``src/``, ``perfbench/`` and
``BENCHMARK.json`` are taken, into a fresh temporary directory per
tree, without any ``__pycache__``.  ``--aa`` measures the base against
a second copy of itself: a noise control.

Each pair runs ``perfbench/run.py --trace 0`` once per tree, one after
the other; which tree goes first alternates from pair to pair.  Then
``--trace 1`` runs once per tree and every per-layer count is compared:
a pure speed-up leaves every count identical.

For each end-to-end metric of ``BENCHMARK.json`` the report gives both
medians and quartiles, the base IQR, how many pairs the change won,
whether the median gap exceeds the base IQR, and whether the change is
worse than the base beyond the metric's declared bound.  It prints a
Markdown table, then the whole report as one JSON line (the last line).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: What a benchmark run needs from a tree.
PARTS = ("src", "perfbench", "BENCHMARK.json")


def export_tree(source: str, dest: str) -> None:
    """Put ``PARTS`` of a directory or a git ref under ``dest``."""
    os.makedirs(dest)
    if os.path.isdir(source):
        ignore = shutil.ignore_patterns("__pycache__", "out")
        for part in PARTS:
            path = os.path.join(source, part)
            if os.path.isdir(path):
                shutil.copytree(path, os.path.join(dest, part),
                                ignore=ignore)
            else:
                shutil.copy2(path, os.path.join(dest, part))
        return
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", source, *PARTS],
        check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)


def run_bench(tree: str, workload: str, seed: int, seconds: float,
              trace: int) -> Dict[str, Any]:
    """One ``perfbench/run.py`` run; returns its result object."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                          text=True)
    if done.returncode != 0:
        raise SystemExit(f"perfpair: run.py in {tree} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> List[float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(spec: Dict[str, Any], base: List[float],
              change: List[float]) -> Dict[str, Any]:
    """Medians, quartiles, wins and the bound check of one metric."""
    lower = spec["better"] == "lower"
    base_q, change_q = quartiles(base), quartiles(change)
    base_median, change_median = base_q[1], change_q[1]
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    gap = change_median - base_median
    worse = gap if lower else -gap
    relative = worse / abs(base_median) if base_median else 0.0
    return {
        "better": spec["better"],
        "unit": spec["unit"],
        "base_median": base_median,
        "change_median": change_median,
        "base_quartiles": [base_q[0], base_q[2]],
        "change_quartiles": [change_q[0], change_q[2]],
        "base_iqr": base_q[2] - base_q[0],
        "change_pct": 100.0 * gap / base_median if base_median else 0.0,
        "wins": wins,
        "pairs": len(base),
        "gap_gt_base_iqr": abs(gap) > base_q[2] - base_q[0],
        "bound": spec["bound"],
        "within_bound": relative <= spec["bound"],
    }


def count_diff(base: Dict[str, Any], change: Dict[str, Any]) -> Dict:
    """Every per-layer count of two traced runs, and whether they match."""
    counts = {}
    for name, entry in base["metrics"].items():
        if entry["unit"] == "count":
            counts[name] = [entry["value"],
                            change["metrics"][name]["value"]]
    return {"identical": all(a == b for a, b in counts.values()),
            "counts": counts}


def markdown(report: Dict[str, Any]) -> str:
    lines = [
        f"`{report['workload']}` seed {report['seed']}, "
        f"{report['pairs']} pair(s) of {report['seconds']} s: "
        f"base `{report['base']}` vs change `{report['change']}`",
        "",
        "| metric | base median [q1, q3] | change median [q1, q3] | change "
        "| base IQR | wins | gap > base IQR | within bound |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name, row in report["metrics"].items():
        lines.append(
            f"| `{name}` | {row['base_median']:.4g} "
            f"[{row['base_quartiles'][0]:.4g}, "
            f"{row['base_quartiles'][1]:.4g}] | "
            f"{row['change_median']:.4g} "
            f"[{row['change_quartiles'][0]:.4g}, "
            f"{row['change_quartiles'][1]:.4g}] | "
            f"{row['change_pct']:+.1f}% | {row['base_iqr']:.4g} | "
            f"{row['wins']}/{row['pairs']} | "
            f"{'yes' if row['gap_gt_base_iqr'] else 'no'} | "
            f"{'yes' if row['within_bound'] else 'NO'} |")
    identity = report["trace"]
    lines += ["", f"failed: base {report['failed']['base']}, change "
              f"{report['failed']['change']}; traced counts identical: "
              f"{'yes' if identity['identical'] else 'NO'}"]
    for name, (a, b) in identity["counts"].items():
        if a != b:
            lines.append(f"- `{name}`: {a} -> {b}")
    return "\n".join(lines)


def measure(base_tree: str, change_tree: str, args: argparse.Namespace,
            metrics: List[Dict[str, Any]]) -> Dict[str, Any]:
    trees = {"base": base_tree, "change": change_tree}
    runs: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
    order = []
    for index in range(args.pairs):
        first = ("base", "change") if index % 2 == 0 else ("change", "base")
        order.append(first[0])
        for side in first:
            runs[side].append(run_bench(trees[side], args.workload,
                                        args.seed, args.seconds, 0))
    traced = {side: run_bench(tree, args.workload, args.seed,
                              args.seconds, 1)
              for side, tree in trees.items()}
    values = {side: {spec["name"]: [run["metrics"][spec["name"]]["value"]
                                    for run in runs[side]]
                     for spec in metrics}
              for side in runs}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "base": args.base,
        "change": args.base if args.aa else args.change,
        "first": order,
        "values": values,
        "metrics": {spec["name"]: summarize(spec,
                                            values["base"][spec["name"]],
                                            values["change"][spec["name"]])
                    for spec in metrics},
        "failed": {side: sum(run["failed"] for run in runs[side])
                   + traced[side]["failed"] for side in runs},
        "trace": count_diff(traced["base"], traced["change"]),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True,
                        help="git ref or directory of the base tree")
    parser.add_argument("--change",
                        help="git ref or directory of the changed tree")
    parser.add_argument("--aa", action="store_true",
                        help="measure the base against a copy of itself")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.aa == (args.change is not None):
        parser.error("give exactly one of --change and --aa")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    scratch = tempfile.mkdtemp(prefix="perfpair-")
    try:
        base_tree = os.path.join(scratch, "base")
        change_tree = os.path.join(scratch, "change")
        export_tree(args.base, base_tree)
        export_tree(args.base if args.aa else args.change, change_tree)
        with open(os.path.join(base_tree, "BENCHMARK.json")) as handle:
            metrics = json.load(handle)["end_to_end"]
        report = measure(base_tree, change_tree, args, metrics)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(markdown(report))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
