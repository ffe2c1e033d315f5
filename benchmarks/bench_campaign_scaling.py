"""Campaign-execution scaling: serial vs parallel vs cached.

Not a paper figure -- the exploration-throughput calibration point for
the :mod:`repro.campaign` subsystem.  The paper's stated purpose is
design-space exploration, so once the kernel is fast the binding
constraint is how many *runs per second* a campaign sustains.  This
harness runs the same seeded MPEG-2 Monte-Carlo grid (the paper's §5
case study) four ways and emits ``BENCH_campaign_scaling.json``:

* ``serial``    -- the in-process Runner, ``workers=1`` (baseline),
* ``workers_2`` / ``workers_4`` -- process-pool sharding,
* ``cache``     -- a cold cached run followed by a warm re-run of the
  identical grid, which must be served entirely from
  ``.campaign-cache``-style storage (hits == runs).

Every mode must aggregate *byte-identical* metric values -- the harness
asserts this, so a "speedup" that changed simulation results fails
loudly.  Parallel speedup is hardware-dependent (``meta.cpu_count`` is
recorded; a single-core container cannot exceed 1x)::

    PYTHONPATH=src python benchmarks/bench_campaign_scaling.py
    PYTHONPATH=src python benchmarks/bench_campaign_scaling.py --smoke
"""

import argparse
import functools
import os
import sys
import tempfile
import time

from _report import (
    check_envelope,
    check_fields,
    repo_root_path,
    report_meta,
    write_report,
)
from repro.campaign import monte_carlo, mpeg2_experiment

SCHEMA_VERSION = 1


def _campaign_values(campaign) -> dict:
    return {name: sample.values for name, sample in campaign.items()}


def _best_of(rounds, fn):
    best_wall, campaign = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        if wall < best_wall:
            best_wall, campaign = wall, result
    return best_wall, campaign


def measure(smoke: bool = False, rounds: int = 3) -> dict:
    runs = 4 if smoke else 12
    frames = 2 if smoke else 24
    experiment = functools.partial(mpeg2_experiment, frames=frames)

    modes = {}
    reference = None
    for label, workers in (("serial", 1), ("workers_2", 2),
                           ("workers_4", 4)):
        wall, campaign = _best_of(
            rounds,
            lambda workers=workers: monte_carlo(
                experiment, runs=runs, workers=workers
            ),
        )
        values = _campaign_values(campaign)
        if reference is None:
            reference = values
        else:
            assert values == reference, (
                f"{label}: parallel aggregation diverged from serial"
            )
        modes[label] = {
            "workers": workers,
            "wall_s": round(wall, 6),
            "runs_per_s": round(runs / wall, 3),
        }

    # cache effectiveness: cold populate, then an all-hit warm re-run
    with tempfile.TemporaryDirectory(prefix="campaign-bench-") as tmp:
        t0 = time.perf_counter()
        cold = monte_carlo(experiment, runs=runs, workers=2, cache=tmp)
        cold_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = monte_carlo(experiment, runs=runs, workers=2, cache=tmp)
        warm_wall = time.perf_counter() - t0
    assert _campaign_values(warm) == reference, (
        "cached aggregation diverged from serial"
    )
    assert warm.stats["cache_hits"] == runs, warm.stats
    cache = {
        "cold_wall_s": round(cold_wall, 6),
        "warm_wall_s": round(warm_wall, 6),
        "warm_fraction": round(warm_wall / cold_wall, 4),
        "cold_hits": cold.stats["cache_hits"],
        "warm_hits": warm.stats["cache_hits"],
    }

    serial_wall = modes["serial"]["wall_s"]
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": report_meta(smoke, cpu_count=os.cpu_count() or 1),
        "grid": {"runs": runs, "frames": frames,
                 "experiment": "mpeg2_experiment"},
        "modes": modes,
        "speedup": {
            "workers_2": round(serial_wall / modes["workers_2"]["wall_s"], 3),
            "workers_4": round(serial_wall / modes["workers_4"]["wall_s"], 3),
        },
        "cache": cache,
    }


def validate_schema(payload: dict) -> None:
    """Assert the JSON shape downstream tooling (and CI) relies on."""
    check_envelope(payload, SCHEMA_VERSION)
    assert isinstance(payload["meta"].get("cpu_count"), int)
    check_fields(payload["grid"], (
        ("runs", int), ("frames", int), ("experiment", str),
    ), context="grid")
    modes = payload["modes"]
    assert set(modes) == {"serial", "workers_2", "workers_4"}, modes
    for label, entry in modes.items():
        check_fields(entry, (
            ("workers", int),
            ("wall_s", (int, float)),
            ("runs_per_s", (int, float)),
        ), context=label)
        assert entry["wall_s"] > 0, label
    for key in ("workers_2", "workers_4"):
        assert payload["speedup"][key] > 0, key
    check_fields(payload["cache"], (
        ("cold_wall_s", (int, float)),
        ("warm_wall_s", (int, float)),
        ("warm_fraction", (int, float)),
        ("cold_hits", int),
        ("warm_hits", int),
    ), context="cache")
    assert payload["cache"]["warm_hits"] == payload["grid"]["runs"]


def default_output_path() -> str:
    return repo_root_path("BENCH_campaign_scaling.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid (CI schema check)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="measurement rounds per mode (keep best)")
    parser.add_argument("--out", default=default_output_path(),
                        help="output JSON path")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")

    payload = measure(smoke=args.smoke, rounds=args.rounds)
    validate_schema(payload)
    write_report(payload, args.out)

    print(f"{'mode':>10} {'wall s':>9} {'runs/s':>8} speedup")
    serial_wall = payload["modes"]["serial"]["wall_s"]
    for label, entry in payload["modes"].items():
        print(f"{label:>10} {entry['wall_s']:>9.3f} "
              f"{entry['runs_per_s']:>8.2f} "
              f"{serial_wall / entry['wall_s']:.2f}x")
    cache = payload["cache"]
    print(f"{'cached':>10} {cache['warm_wall_s']:>9.3f} "
          f"{'-':>8} {cache['warm_fraction']:.1%} of cold "
          f"({cache['warm_hits']} hits)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
