"""run_pipeline elaborates a spec once: the linted model is the simulated one.

Linting only reads the built system, so the verdict must equal the one
obtained from two separate elaborations (the stand-alone
:func:`lint_stage` plus a fresh build for the monitored run), and a
spec that fails to build still crashes in the ``lint`` stage.
"""

import pytest

import repro.corpus.pipeline as pipeline
from repro.corpus import PipelineOptions, generate, run_pipeline
from repro.kernel.simulator import Simulator
from repro.kernel.time import MS
from repro.mcse.builder import build_system

OPTIONS = PipelineOptions(horizon=20 * MS, verify=False)

SPECS = [
    ("periodic", 3, {"n": 4, "utilization": 0.9}),
    ("contention", 5, {"tasks": 4, "resources": 2, "periodic": True,
                       "protocol": "inheritance"}),
    ("smp", 2, {"cores": 2, "n": 5, "utilization": 1.5}),
]


@pytest.fixture
def build_calls(monkeypatch):
    calls = []

    def counting_build(spec, **kwargs):
        calls.append(spec)
        return build_system(spec, **kwargs)

    monkeypatch.setattr(pipeline, "build_system", counting_build)
    return calls


@pytest.mark.parametrize("kind,seed,params", SPECS)
def test_one_build_serves_lint_and_simulate(kind, seed, params, build_calls):
    spec = generate(kind, seed, params)
    verdict = run_pipeline(spec, OPTIONS)
    assert len(build_calls) == 1
    assert "crash" not in verdict, verdict

    separate = pipeline.simulate_system(
        build_system(spec, sim=Simulator("separate")), spec, OPTIONS)
    assert verdict["lint"] == pipeline.lint_stage(spec)
    assert verdict["simulate"] == separate


def test_build_error_still_crashes_in_lint():
    spec = generate("periodic", 1, {"n": 2})
    spec["functions"][0]["processor"] = "no-such-cpu"
    verdict = run_pipeline(spec, OPTIONS)
    assert verdict["crash"]["stage"] == "lint"
    assert verdict["crash"]["error"] == "BuildError"
    assert "lint" not in verdict and "simulate" not in verdict
