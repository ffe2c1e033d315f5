"""Pin what every campaign driver returns, byte for byte.

The campaign layer only decides *how* runs are executed (in-process or
pooled, fresh or cached); it must never move a value.  The digests
below hash the ``repr`` of what each user of the layer hands back:

* ``monte_carlo`` over the MPEG-2 experiment: run count and every
  sample's values;
* ``explore`` over a 2x2 grid: each point's config, metrics and
  simulated time;
* ``run_matrix`` over ``examples/utilization_matrix.json``, minus the
  per-cell ``wall_s``/``cached`` provenance and the report's wall time;
* the serve ``simulate``, ``verify`` and ``campaign`` job payloads,
  which carry no wall-clock values.

Ids, wall times and cache accounting are deliberately outside the
digests: those may change with the campaign layer, the values may not.

Run this module to print every digest::

    PYTHONPATH=src python -m tests.campaign.test_output_digest
"""

import functools
import hashlib
import json
from pathlib import Path

from repro.campaign import (
    Parameter,
    ResultCache,
    explore,
    monte_carlo,
    mpeg2_experiment,
)
from repro.corpus.matrix import load_matrix, run_matrix
from repro.kernel.time import MS, US
from repro.mcse import System
from repro.serve.jobs import JobStore
from repro.workloads.fig6 import fig6_spec

ROOT = Path(__file__).resolve().parents[2]

#: sha256 digests taken before the campaign spec became one function.
EXPECTED = {
    "monte_carlo":
        "05fd58ef4ffe59179ef0fe12b4ae6ac5c3b8b956064a9de1899af5bdb72cbeed",
    "explore":
        "df6a790ed41001f288d5593cd21cf0f9bff5579dfd806f9ee9314730d039ab5c",
    "run_matrix":
        "d6c069e92ba7adce8ce972ad4f08d78c81ef95df9889f4813b6a43b3823bbb35",
    "serve":
        "c510e5af9868ba2822d4f54c56ee338230f22593d6b368069836e07480d1d9dc",
}

GRID = [
    Parameter("overhead", [0, 5 * US]),
    Parameter("period", [1 * MS, 3 * MS]),
]


def grid_build(config):
    """A periodic task plus a background hog: runs until the duration."""
    system = System("digest")
    cpu = system.processor("cpu", scheduling_duration=config["overhead"],
                           context_save_duration=config["overhead"])

    def periodic(fn):
        while True:
            yield from fn.execute(200 * US)
            yield from fn.delay(config["period"])

    def hog(fn):
        while True:
            yield from fn.execute(700 * US)

    cpu.map(system.function("periodic", periodic, priority=2))
    cpu.map(system.function("hog", hog, priority=1))
    return system


def grid_metrics(config, system):
    cpu = system.processors["cpu"]
    return {"overhead_time": cpu.overhead_time, "stats": cpu.stats()}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def monte_carlo_outputs():
    campaign = monte_carlo(functools.partial(mpeg2_experiment, frames=2),
                           runs=3)
    return (campaign.runs,
            [(name, sample.values) for name, sample in campaign.items()])


def explore_outputs(duration=10 * MS, cache=None):
    return [(point.config, point.metrics, point.simulated_time)
            for point in explore(GRID, grid_build, grid_metrics,
                                 duration=duration, cache=cache)]


def run_matrix_outputs():
    report = run_matrix(load_matrix(ROOT / "examples" /
                                    "utilization_matrix.json"))
    for cell in report["cells"]:
        del cell["wall_s"], cell["cached"]
    del report["summary"]["wall_s"]
    return report


SERVE_REQUESTS = [
    ("simulate", {"spec": fig6_spec()}),
    ("simulate", {"spec": fig6_spec(), "duration": "40us"}),
    ("verify", {"spec": fig6_spec(), "horizon": "1ms"}),
    ("campaign", {"runs": 3, "frames": 2, "base_seed": 5,
                  "engine": "procedural"}),
]


def serve_outputs():
    store = JobStore(None)
    payloads = []
    for kind, params in SERVE_REQUESTS:
        job, _ = store.submit(kind, json.loads(json.dumps(params)))
        store.execute(job)
        assert job.state == "done", job.error
        result = job.result
        if kind == "campaign":
            # identical requests must give byte-identical bodies
            assert not {"wall_s", "runs_per_s"} & set(result["stats"])
        payloads.append((kind, result))
    return payloads


OUTPUTS = {
    "monte_carlo": monte_carlo_outputs,
    "explore": explore_outputs,
    "run_matrix": run_matrix_outputs,
    "serve": serve_outputs,
}


def test_monte_carlo_is_pinned():
    assert _digest(monte_carlo_outputs()) == EXPECTED["monte_carlo"]


def test_explore_is_pinned():
    assert _digest(explore_outputs()) == EXPECTED["explore"]


def test_run_matrix_is_pinned():
    assert _digest(run_matrix_outputs()) == EXPECTED["run_matrix"]


def test_serve_payloads_are_pinned():
    assert _digest(serve_outputs()) == EXPECTED["serve"]


def test_explore_cache_keys_on_duration(tmp_path):
    cache = ResultCache(str(tmp_path))
    short = explore_outputs(duration=5 * MS, cache=cache)
    long = explore_outputs(duration=10 * MS, cache=cache)
    assert cache.hits == 0 and cache.misses == 8
    assert [p[2] for p in short] == [5 * MS] * 4
    assert [p[2] for p in long] == [10 * MS] * 4
    # a fresh cache over the same directory serves both durations
    again = ResultCache(str(tmp_path))
    assert explore_outputs(duration=5 * MS, cache=again) == short
    assert explore_outputs(duration=10 * MS, cache=again) == long
    assert again.hits == 8 and again.misses == 0


if __name__ == "__main__":
    for name, outputs in OUTPUTS.items():
        print(f"{name}: {_digest(outputs())}")
