"""Tests for experiment specs and fingerprints."""

import functools
import pickle

import pytest

from repro.campaign.dse import _design_point
from repro.campaign import ExperimentSpec, callable_fingerprint, canonical_json
from repro.errors import CampaignError


def tiny_experiment(params):
    return {"value": params["seed"] * 2}


def other_experiment(params):
    return {"value": params["seed"] * 3}


class TestExecution:
    def test_run_is_the_whole_experiment(self):
        spec = ExperimentSpec("tiny", tiny_experiment)
        assert spec.run({"seed": 3}) == {"value": 6}

    def test_design_point_records_simulated_time(self):
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

        result = _design_point(build, metrics, None, {"x": 5})
        assert result == {"metrics": {"end": 123, "cfg": 5},
                          "simulated_time": 123}


class TestFingerprint:
    def test_stable_for_same_spec(self):
        a = ExperimentSpec("tiny", tiny_experiment)
        b = ExperimentSpec("tiny", tiny_experiment)
        assert a.fingerprint() == b.fingerprint()

    def test_changes_with_code(self):
        a = ExperimentSpec("tiny", tiny_experiment)
        b = ExperimentSpec("tiny", other_experiment)
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
        spec = ExperimentSpec("tiny", tiny_experiment)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.run({"seed": 6}) == {"value": 12}

    def test_parameterized_spec_round_trips(self):
        spec = ExperimentSpec("param", functools.partial(_scaled, factor=3))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.run({"x": 2}) == {"y": 6}


def _scaled(params, *, factor):
    return {"y": params["x"] * factor}
