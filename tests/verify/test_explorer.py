"""Exploration end-to-end: seeded hazards, minimization, replay fidelity.

The two seeded hazards come from :mod:`repro.workloads.fig6`:

* ``fig6_crossed_mutex_spec`` -- deadlock-free on the nominal run, but
  one long execution-interval endpoint reverses the lock order overlap
  and deadlocks (RTS-V001);
* ``fig6_deadline_miss_spec`` -- meets every deadline nominally, but the
  worst-case interval endpoint pushes Function_2 past 70us (RTS-V002).

Both are invisible to a plain simulation: that is the point of the
verifier, and these tests are the acceptance gate for it.
"""

import pytest

from repro.errors import VerifyError
from repro.kernel.time import MS
from repro.verify import (
    RTSV001,
    RTSV002,
    build_report,
    replay_spec,
    spec_factory,
    verify_spec,
)
from repro.workloads.fig6 import (
    fig6_crossed_mutex_spec,
    fig6_deadline_miss_spec,
    fig6_spec,
)


class TestCleanModels:
    def test_fig6_verifies_clean(self):
        result = verify_spec(fig6_spec(), horizon=1 * MS)
        assert result.ok and result.complete
        assert result.verdict() == "verified"
        assert result.stats.choice_points == 0
        assert result.stats.runs == 1

    def test_nominal_runs_do_not_exhibit_the_seeded_hazards(self):
        # a single default simulation completes fine on both hazard
        # specs -- only exploration reaches the failing schedules
        for spec in (fig6_crossed_mutex_spec(), fig6_deadline_miss_spec()):
            _, _, outcome = replay_spec(spec, (), horizon=1 * MS)
            assert outcome.violations == [], spec["name"]


class TestSeededDeadlock:
    def test_dfs_finds_the_crossed_mutex_deadlock(self):
        result = verify_spec(fig6_crossed_mutex_spec(), horizon=1 * MS)
        assert not result.ok
        assert result.verdict() == "violated"
        violation = result.violations[0]
        assert violation.property_id == RTSV001
        assert "held by" in violation.message

    def test_counterexample_is_minimized_and_replays(self):
        result = verify_spec(fig6_crossed_mutex_spec(), horizon=1 * MS)
        ce = result.counterexample
        assert ce is not None and ce.property_id == RTSV001
        # one forced choice suffices: Function_3's long execution
        assert ce.choices == (1,)
        assert any("exec(Function_3)" in step for step in ce.trail)
        system, recorder, outcome = replay_spec(
            fig6_crossed_mutex_spec(), ce.choices, horizon=1 * MS
        )
        assert RTSV001 in {v.property_id for v in outcome.violations}
        assert len(recorder) > 0

    def test_random_strategy_finds_it_too(self):
        result = verify_spec(
            fig6_crossed_mutex_spec(), strategy="random", runs=40, seed=1,
            horizon=1 * MS,
        )
        assert not result.ok
        assert result.violations[0].property_id == RTSV001
        assert not result.complete  # sampling never proves anything


class TestSeededDeadlineMiss:
    def test_dfs_finds_the_interval_driven_miss(self):
        result = verify_spec(fig6_deadline_miss_spec(), horizon=1 * MS)
        assert not result.ok
        violation = result.violations[0]
        assert violation.property_id == RTSV002
        assert violation.location == "task Function_2"

    def test_counterexample_replays_to_the_same_miss(self):
        result = verify_spec(fig6_deadline_miss_spec(), horizon=1 * MS)
        ce = result.counterexample
        assert ce is not None
        _, _, outcome = replay_spec(
            fig6_deadline_miss_spec(), ce.choices, horizon=1 * MS
        )
        assert RTSV002 in {v.property_id for v in outcome.violations}


class TestReplayDeterminism:
    def test_two_replays_are_record_identical(self):
        result = verify_spec(fig6_crossed_mutex_spec(), horizon=1 * MS)
        ce = result.counterexample
        traces = []
        for _ in range(2):
            _, recorder, _ = replay_spec(
                fig6_crossed_mutex_spec(), ce.choices, horizon=1 * MS
            )
            traces.append(list(recorder.to_dicts()))
        assert traces[0] == traces[1]
        assert len(traces[0]) > 0


class TestResultShape:
    def test_to_dict_round_trips_through_json(self):
        import json

        result = verify_spec(fig6_deadline_miss_spec(), horizon=1 * MS)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["verdict"] == "violated"
        assert payload["ok"] is False
        assert {"runs", "choice_points", "states", "dedup_hits",
                "dedup_hit_rate", "depth_hits", "symmetry_pruned",
                "wall_s", "states_per_second"} <= set(payload["stats"])
        assert payload["violations"][0]["property"] == RTSV002
        assert payload["counterexamples"][0]["choices"] == [1]

    def test_unknown_strategy_is_rejected(self):
        with pytest.raises(VerifyError):
            verify_spec(fig6_spec(), strategy="bfs")

    @pytest.mark.parametrize("bounds", (
        {"max_depth": 0},
        {"max_depth": -1},
        {"max_runs": 0},
        {"max_runs": -5},
        {"strategy": "random", "runs": 0},
    ))
    def test_out_of_range_bounds_are_rejected(self, bounds):
        with pytest.raises(VerifyError):
            verify_spec(fig6_spec(), horizon=1 * MS, **bounds)

    def test_options_and_keywords_are_mutually_exclusive(self):
        from repro.verify import VerifyOptions

        with pytest.raises(VerifyError):
            verify_spec(
                fig6_spec(), options=VerifyOptions(), horizon=1 * MS
            )


def interval_spec(tasks=3):
    """k equal-priority tasks with interval costs: ties plus branching."""
    return {
        "name": f"interval{tasks}",
        "relations": [],
        "processors": [{"name": "cpu"}],
        "functions": [
            {"name": f"t{i}", "priority": 1, "processor": "cpu",
             "script": [["execute", "5us..10us"],
                        ["execute", "5us..10us"]]}
            for i in range(tasks)
        ],
    }


class TestDedup:
    def test_convergent_interleavings_are_pruned(self):
        result = verify_spec(interval_spec(), max_runs=100_000)
        assert result.ok and result.complete
        assert result.stats.dedup_hits > 0
        assert 0.0 < result.stats.dedup_hit_rate < 1.0

    def test_strategies_agree_on_a_small_clean_space(self):
        spec = interval_spec(tasks=2)
        dfs = verify_spec(spec, max_runs=100_000)
        random = verify_spec(spec, strategy="random", runs=64, seed=0)
        assert dfs.ok and dfs.complete
        assert random.ok and not random.complete


class TestDepthBound:
    def test_depth_bound_marks_the_result_incomplete(self):
        result = verify_spec(
            interval_spec(tasks=3), max_depth=2, max_runs=100_000
        )
        assert result.ok  # nothing to violate...
        assert not result.complete  # ...but the proof is only partial
        assert result.verdict() == "no-violation-found"
        assert result.stats.depth_hits > 0


class TestBuildReport:
    def test_violations_render_as_error_diagnostics(self):
        spec = fig6_deadline_miss_spec()
        result = verify_spec(spec, horizon=1 * MS)
        report = build_report(result, factory=spec_factory(spec))
        assert not report.ok()
        assert RTSV002 in report.rule_ids
        text = report.format_text()
        assert "minimized witness schedule" in text
        # deadline_miss has a clean periodic profile: only the explored
        # interval endpoint misses, which the cross-check must call out
        assert "static schedulability rules" in text

    def test_clean_result_renders_clean(self):
        result = verify_spec(fig6_spec(), horizon=1 * MS)
        report = build_report(result)
        assert report.ok()
        assert report.diagnostics == []
