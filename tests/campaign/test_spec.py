"""Tests for experiment specs, seed derivation and fingerprints."""

import functools
import pickle

import pytest

from repro.campaign import (
    ExperimentSpec,
    RunRequest,
    callable_fingerprint,
    canonical_json,
    derive_seed,
    spec_from_design,
    spec_from_experiment,
)
from repro.errors import CampaignError


def tiny_experiment(seed):
    return {"value": seed * 2}


def other_experiment(seed):
    return {"value": seed * 3}


class TestSeeds:
    def test_derive_seed_is_linear(self):
        assert derive_seed(100, 0) == 100
        assert derive_seed(100, 7) == 107

    def test_spec_seed_for_uses_base_seed(self):
        spec = spec_from_experiment(tiny_experiment, base_seed=40)
        assert spec.seed_for(2) == 42
        request = spec.request(2, seeded=True)
        assert request.params["seed"] == 42
        assert request.index == 2


class TestExecution:
    def test_spec_from_experiment_executes(self):
        spec = spec_from_experiment(tiny_experiment)
        metrics = spec.execute(spec.request(3, seeded=True))
        assert metrics == {"value": 6}

    def test_spec_from_design_records_sim_now(self):
        class FakeSystem:
            now = 123

            def __init__(self, config):
                self.config = config

            def run(self, duration=None):
                self.duration = duration

        def build(config):
            return FakeSystem(config)

        def metrics(config, system):
            return {"end": system.now, "cfg": config["x"]}

        spec = spec_from_design(build, metrics)
        request = RunRequest(index=0, params={"x": 5, "__duration__": None})
        result = spec.execute(request)
        assert result["__sim_now__"] == 123
        assert result["end"] == 123
        assert result["cfg"] == 5


class TestFingerprint:
    def test_stable_for_same_spec(self):
        a = spec_from_experiment(tiny_experiment)
        b = spec_from_experiment(tiny_experiment)
        assert a.fingerprint() == b.fingerprint()

    def test_changes_with_code(self):
        a = spec_from_experiment(tiny_experiment)
        b = spec_from_experiment(other_experiment)
        assert a.fingerprint() != b.fingerprint()

    def test_changes_with_base_seed(self):
        a = spec_from_experiment(tiny_experiment, base_seed=0)
        b = spec_from_experiment(tiny_experiment, base_seed=1)
        assert a.fingerprint() != b.fingerprint()

    def test_partial_arguments_fingerprinted(self):
        a = callable_fingerprint(functools.partial(tiny_experiment, x=1))
        b = callable_fingerprint(functools.partial(tiny_experiment, x=2))
        assert a != b


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"a": 1, "b": 2}) == \
            canonical_json({"b": 2, "a": 1})

    def test_rejects_non_json_values(self):
        with pytest.raises(CampaignError):
            canonical_json({"a": object()})


class TestPicklability:
    def test_experiment_spec_round_trips(self):
        spec = spec_from_experiment(tiny_experiment, base_seed=5)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.execute(clone.request(1, seeded=True)) == {"value": 12}

    def test_parameterized_spec_round_trips(self):
        spec = ExperimentSpec(
            name="param",
            build=functools.partial(_scaled_build, factor=3),
            metrics=_scaled_metrics,
            run=_no_op_run,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.execute(RunRequest(0, {"x": 2})) == {"y": 6}


def _scaled_build(params, *, factor):
    return params["x"] * factor


def _no_op_run(params, state):
    pass


def _scaled_metrics(params, state):
    return {"y": state}
