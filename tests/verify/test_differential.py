"""Differential verification: random periodic task sets vs the RTA.

Fifty seeded UUniFast task sets cross three oracles:

* **analytical** -- :func:`response_time_analysis` certifies which tasks
  miss their deadlines (synchronous release, exact WCET, no overheads);
* **dynamic** -- the verifier runs the same set on the RTOS model; every
  RTA-certified miss must surface as an RTS-V002 verdict (the verifier's
  verdicts are a superset: the critical instant is the schedule the
  synchronous default run executes);
* **replay** -- every counterexample must re-exhibit its violation.

A third family adds release jitter, which creates real choice points, to
check the exhaustive and randomized strategies agree on small spaces.
"""

import pytest

from repro.analyze.response_time import (
    PeriodicTask,
    response_time_analysis,
)
from repro.kernel.time import MS, US
from repro.verify import RTSV002, replay_model, verify_model
from repro.workloads.synthetic import (
    build_periodic_system,
    generate_periodic_taskset,
)

SEEDS = range(50)


def taskset(seed: int):
    """A small random set; explicit deadlines arm the verifier watchdogs."""
    n = 2 + seed % 3
    utilization = 0.5 + (seed % 10) * 0.09  # 0.50 .. 1.31: both verdicts
    tasks = generate_periodic_taskset(
        n, utilization, seed=seed, period_min=1 * MS, period_max=8 * MS
    )
    return [
        PeriodicTask(name=t.name, wcet=t.wcet, period=t.period,
                     priority=t.priority, deadline=t.period)
        for t in tasks
    ]


def factory_for(tasks, jitter=None):
    def factory(sim):
        system, _ = build_periodic_system(tasks, sim=sim)
        if jitter is not None:
            for fn in system.functions.values():
                fn.jitter = jitter
        return system

    return factory


def rta_certified_misses(tasks):
    responses = response_time_analysis(tasks)
    return {
        task.name for task in tasks
        if responses[task.name] is None
        or responses[task.name] > task.effective_deadline
    }


def horizon_for(tasks):
    return 2 * max(task.period for task in tasks)


def missed_tasks(violations):
    return {
        v.location.removeprefix("task ")
        for v in violations if v.property_id == RTSV002
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_verifier_verdicts_cover_rta_certified_misses(seed):
    tasks = taskset(seed)
    certified = rta_certified_misses(tasks)
    horizon = horizon_for(tasks)
    # the default schedule (the only one: no ties, exact WCETs) carries
    # every miss the RTA certifies -- synchronous release IS the
    # critical instant the analysis assumes
    _, _, outcome = replay_model(factory_for(tasks), (), horizon=horizon)
    dynamic = missed_tasks(outcome.violations)
    assert certified <= dynamic, (
        f"seed {seed}: RTA certifies misses {sorted(certified - dynamic)} "
        "the verifier did not observe"
    )

    result = verify_model(factory_for(tasks), horizon=horizon)
    assert result.ok == (not dynamic), f"seed {seed}"
    if not result.ok:
        # (b) the counterexample must replay to the same violation
        ce = result.counterexample
        assert ce is not None and ce.property_id == RTSV002
        _, _, replayed = replay_model(
            factory_for(tasks), ce.choices, horizon=horizon
        )
        assert missed_tasks(replayed.violations), f"seed {seed}"


@pytest.mark.parametrize("seed", range(6))
def test_strategies_agree_on_small_jittered_spaces(seed):
    # jitter makes 2^n genuine schedules: exhaustive DFS and seeded
    # random sampling must return the same verdict on spaces this small
    tasks = taskset(seed)
    horizon = horizon_for(tasks) + 1 * MS
    dfs = verify_model(
        factory_for(tasks, jitter=100 * US), horizon=horizon,
        max_runs=1_000,
    )
    random = verify_model(
        factory_for(tasks, jitter=100 * US), strategy="random",
        horizon=horizon, runs=48, seed=seed,
    )
    assert dfs.ok == random.ok, f"seed {seed}"
    dfs_properties = {v.property_id for v in dfs.violations}
    random_properties = {v.property_id for v in random.violations}
    assert dfs_properties == random_properties, f"seed {seed}"
