"""Verifier exploration scaling: states/second, dedup, depth growth.

Not a paper figure -- the calibration point for the :mod:`repro.verify`
bounded model checker.  The checker's practical reach is decided by two
numbers this harness pins down and emits as
``BENCH_verify_scaling.json``:

* **throughput** -- canonical states explored per second on a
  tie-and-interval workload (k equal-priority tasks, each with two
  5..10 us execution intervals, so schedules both branch and
  re-converge);
* **dedup leverage** -- the canonical-state hit-rate, which is what
  turns the exponential choice tree into the polynomial visited-state
  set (convergent interleavings are explored once);
* **symmetry leverage** -- the k tasks are copies of one template, so
  at each tie the explorer schedules one of them
  (``symmetry_pruned`` counts the rest).  The ``distinct`` series
  offsets each task's interval bound by its index: no two tasks are
  interchangeable there, so it measures dedup alone.

The harness also re-proves the two seeded hazards (the crossed-mutex
deadlock and the interval-driven deadline miss from
:mod:`repro.workloads.fig6`) and checks their minimized counterexamples
replay to the same violation -- a "speedup" that broke soundness fails
here, not in production::

    PYTHONPATH=src python benchmarks/bench_verify_scaling.py
    PYTHONPATH=src python benchmarks/bench_verify_scaling.py --smoke
"""

import argparse
import sys
import time

from _report import (
    check_envelope,
    check_fields,
    repo_root_path,
    report_meta,
    write_report,
)
from repro.kernel.time import MS
from repro.verify import replay_spec, verify_spec
from repro.workloads.fig6 import (
    fig6_crossed_mutex_spec,
    fig6_deadline_miss_spec,
)

SCHEMA_VERSION = 1


def interval_spec(tasks: int, distinct: bool = False) -> dict:
    """k same-priority tasks, two execution intervals each.

    Equal priorities make every scheduling decision a tie, and the
    interval endpoints multiply the schedules; crossing sums
    (5+10 == 10+5) make distinct prefixes converge, which is exactly
    what the canonical-state dedup must exploit.  ``distinct`` widens
    task i's interval to ``5us..(10+i)us``, so the tasks are no longer
    interchangeable.
    """
    def interval(index: int) -> str:
        return f"5us..{10 + index if distinct else 10}us"

    return {
        "name": f"interval{tasks}{'-distinct' if distinct else ''}",
        "relations": [],
        "processors": [{"name": "cpu"}],
        "functions": [
            {"name": f"t{index}", "priority": 1, "processor": "cpu",
             "script": [["execute", interval(index)]] * 2}
            for index in range(tasks)
        ],
    }


def _scaling_entry(tasks: int, rounds: int, distinct: bool = False) -> dict:
    best = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = verify_spec(interval_spec(tasks, distinct),
                             max_runs=100_000)
        wall = time.perf_counter() - started
        assert result.ok and result.complete, (tasks, result.verdict())
        if best is None or wall < best[0]:
            best = (wall, result)
    wall, result = best
    stats = result.stats
    return {
        "tasks": tasks,
        "runs": stats.runs,
        "choice_points": stats.choice_points,
        "states": stats.states,
        "dedup_hits": stats.dedup_hits,
        "dedup_hit_rate": round(stats.dedup_hit_rate, 4),
        "symmetry_pruned": stats.symmetry_pruned,
        "wall_s": round(wall, 6),
        "states_per_s": round(stats.states / wall, 1) if wall > 0 else 0.0,
        "complete": result.complete,
    }


def _seeded_entry(spec: dict, expected_property: str) -> dict:
    started = time.perf_counter()
    result = verify_spec(spec, horizon=1 * MS)
    wall = time.perf_counter() - started
    assert not result.ok, f"seeded hazard not found in {spec['name']}"
    counterexample = result.counterexample
    assert counterexample is not None
    assert counterexample.property_id == expected_property, counterexample
    _, _, outcome = replay_spec(spec, counterexample.choices, horizon=1 * MS)
    replayed = [v.property_id for v in outcome.violations]
    assert expected_property in replayed, (
        f"counterexample did not replay: {replayed}"
    )
    return {
        "spec": spec["name"],
        "property": counterexample.property_id,
        "runs": result.stats.runs,
        "counterexample_choices": list(counterexample.choices),
        "replays": True,
        "wall_s": round(wall, 6),
    }


def measure(smoke: bool = False, rounds: int = 3) -> dict:
    sizes = (2, 3) if smoke else (2, 3, 4, 5)
    scaling = [_scaling_entry(tasks, rounds) for tasks in sizes]
    distinct = [_scaling_entry(tasks, rounds, distinct=True)
                for tasks in sizes]
    # the dedup is the whole point: it must actually fire, and its
    # leverage must grow with the state space
    for series in (scaling, distinct):
        assert any(entry["dedup_hits"] > 0 for entry in series), series
        rates = [entry["dedup_hit_rate"] for entry in series]
        assert rates == sorted(rates), f"dedup leverage shrank: {rates}"

    seeded = {
        "deadlock": _seeded_entry(fig6_crossed_mutex_spec(), "RTS-V001"),
        "deadline_miss": _seeded_entry(
            fig6_deadline_miss_spec(), "RTS-V002"
        ),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": report_meta(smoke, rounds=rounds),
        "scaling": scaling,
        "distinct": distinct,
        "seeded": seeded,
    }


def validate_schema(payload: dict) -> None:
    """Assert the JSON shape downstream tooling (and CI) relies on."""
    check_envelope(payload, SCHEMA_VERSION)
    for series in ("scaling", "distinct"):
        rows = payload[series]
        assert isinstance(rows, list) and len(rows) >= 2, rows
        for entry in rows:
            check_fields(entry, (
                ("tasks", int),
                ("runs", int),
                ("choice_points", int),
                ("states", int),
                ("dedup_hits", int),
                ("dedup_hit_rate", (int, float)),
                ("symmetry_pruned", int),
                ("wall_s", (int, float)),
                ("states_per_s", (int, float)),
                ("complete", bool),
            ), context=f"{series} tasks={entry.get('tasks')}")
            assert 0.0 <= entry["dedup_hit_rate"] <= 1.0, entry
            assert entry["complete"], entry
        assert any(entry["dedup_hits"] > 0 for entry in rows), rows
    assert all(entry["symmetry_pruned"] == 0
               for entry in payload["distinct"]), payload["distinct"]
    seeded = payload["seeded"]
    assert set(seeded) == {"deadlock", "deadline_miss"}, seeded
    for label, entry in seeded.items():
        check_fields(entry, (
            ("spec", str),
            ("property", str),
            ("runs", int),
            ("counterexample_choices", list),
            ("replays", bool),
            ("wall_s", (int, float)),
        ), context=label)
        assert entry["replays"], entry
    assert seeded["deadlock"]["property"] == "RTS-V001"
    assert seeded["deadline_miss"]["property"] == "RTS-V002"


def default_output_path() -> str:
    return repo_root_path("BENCH_verify_scaling.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small task counts (CI schema check)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="measurement rounds per size (keep best)")
    parser.add_argument("--out", default=default_output_path(),
                        help="output JSON path")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")

    payload = measure(smoke=args.smoke, rounds=args.rounds)
    validate_schema(payload)
    write_report(payload, args.out)

    print(f"{'series':>9} {'tasks':>6} {'runs':>7} {'states':>8} "
          f"{'dedup':>7} {'sym_pruned':>11} {'states/s':>10}")
    for series in ("scaling", "distinct"):
        label = "identical" if series == "scaling" else series
        for entry in payload[series]:
            print(f"{label:>9} {entry['tasks']:>6} {entry['runs']:>7} "
                  f"{entry['states']:>8} {entry['dedup_hit_rate']:>6.1%} "
                  f"{entry['symmetry_pruned']:>11} "
                  f"{entry['states_per_s']:>10.0f}")
    for label, entry in payload["seeded"].items():
        print(f"seeded {label}: {entry['property']} in {entry['runs']} "
              f"run(s), counterexample {entry['counterexample_choices']} "
              "replays")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
