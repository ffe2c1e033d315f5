"""The per-task RTA recurrence and the single-candidate OPA probe.

``response_time_analysis`` and Audsley's OPA share one private
per-task recurrence with the interference loads and the divergence
limit hoisted out of the iteration.  These tests hold both to in-test
copies of the all-tasks code they replaced, over seeded random task
sets and seeded corpus systems.
"""

import math
import random
from collections import Counter

import pytest

from repro.analyze.response_time import (
    PeriodicTask,
    _task_response,
    response_time_analysis,
)
from repro.analyze.assign import opa_assignment
from repro.analyze.blocking import _with_blocking
from repro.analyze.context import LintContext
from repro.corpus import generate
from repro.kernel.simulator import Simulator
from repro.mcse.builder import build_system


def reference_rta(tasks, *, context_switch=0, scheduling=0,
                  max_iterations=10_000):
    """The all-tasks recurrence, iteration by iteration as it was."""
    results = {}
    for task in tasks:
        higher = [t for t in tasks if t.priority > task.priority]
        own_cost = task.wcet + task.blocking + context_switch + scheduling
        response = own_cost
        for _ in range(max_iterations):
            interference = 0
            for other in higher:
                jobs = math.ceil(response / other.period)
                interference += jobs * (
                    other.wcet + 2 * context_switch + scheduling
                )
            new_response = own_cost + interference
            if new_response == response:
                break
            if new_response > task.effective_deadline * 1000:
                response = None
                break
            response = new_response
        else:
            response = None
        results[task.name] = response
    return results


def random_task_set(rng):
    n = rng.randint(1, 6)
    tasks = []
    for index in range(n):
        period = rng.choice((10, 20, 25, 40, 50, 100, 200, 1000))
        deadline = rng.choice((None, period, period // 2, 3 * period))
        blocking = rng.choice((0, 0, rng.randint(1, period), None))
        if blocking is None:
            # an unbounded term saturates like _with_blocking does
            blocking = (period if deadline is None else deadline) * 1000
        tasks.append(PeriodicTask(
            name=f"t{index}", wcet=rng.randint(1, period),
            period=period, priority=rng.randint(1, n), deadline=deadline,
            blocking=blocking))
    return tasks


def _classify(task, reference, unlimited):
    if task.blocking >= task.effective_deadline * 1000:
        return "saturated"
    if reference is None and unlimited is not None:
        return "max_iterations"
    if reference is None:
        return "divergent"
    return "converging"


def test_single_task_recurrence_matches_every_entry():
    rng = random.Random("rta-equivalence")
    cases = Counter()
    for _ in range(600):
        tasks = random_task_set(rng)
        context_switch = rng.choice((0, 0, 1, 3))
        scheduling = rng.choice((0, 1, 2))
        max_iterations = rng.choice((1, 2, 3, 10_000))
        kwargs = dict(context_switch=context_switch, scheduling=scheduling,
                      max_iterations=max_iterations)
        expected = reference_rta(tasks, **kwargs)
        unlimited = reference_rta(tasks, context_switch=context_switch,
                                  scheduling=scheduling)
        assert response_time_analysis(tasks, **kwargs) == expected
        for task in tasks:
            higher = [(t.period, t.wcet + 2 * context_switch + scheduling)
                      for t in tasks if t.priority > task.priority]
            response = _task_response(
                task.wcet + task.blocking + context_switch + scheduling,
                higher, task.effective_deadline * 1000, max_iterations)
            assert response == expected[task.name]
            cases[_classify(task, expected[task.name],
                            unlimited[task.name])] += 1
    for case in ("converging", "divergent", "saturated", "max_iterations"):
        assert cases[case] > 0, (case, cases)


def test_a_response_exactly_at_the_divergence_limit_still_converges():
    # lo: 10 + 990 = 1000 == 1000 * deadline, which is not past the limit
    tasks = [PeriodicTask("hi", wcet=990, period=2000, priority=2),
             PeriodicTask("lo", wcet=10, period=5, priority=1, deadline=1)]
    assert reference_rta(tasks)["lo"] == 1000
    assert response_time_analysis(tasks)["lo"] == 1000
    assert _task_response(10, [(2000, 990)], 1000, 10_000) == 1000


def test_interference_ceiling_is_exact_past_two_to_the_53_fs():
    # A response of 1000 periods + 1 fs overlaps a 1001st job; the float
    # quotient of 10**17 + 1 by 10**14 rounds to exactly 1000.0.
    period = 10 ** 14
    assert math.ceil((1000 * period + 1) / period) == 1000
    # lo: 1000T - 999 + 1000 jobs of 1 fs = 1000T + 1, then one more job
    tasks = [PeriodicTask("hi", wcet=1, period=period, priority=2),
             PeriodicTask("lo", wcet=1000 * period - 999, period=10 ** 18,
                          priority=1)]
    assert reference_rta(tasks)["lo"] == 1000 * period + 1  # job missed
    assert response_time_analysis(tasks)["lo"] == 1000 * period + 2
    assert _task_response(1000 * period - 999, [(period, 1)],
                          10 ** 21, 10_000) == 1000 * period + 2


# ---------------------------------------------------------------------------
# OPA: single-candidate probes vs the all-tasks probe they replaced
# ---------------------------------------------------------------------------
def reference_meets_deadlines(profiles, model, priorities, context_switch,
                              scheduling, *, only=None):
    charged = [
        _with_blocking(
            PeriodicTask(name=p.name, wcet=p.wcet, period=p.period,
                         priority=priorities[p.name], deadline=p.deadline),
            model.blocking(p.name, priorities))
        for p in profiles
    ]
    responses = reference_rta(charged, context_switch=context_switch,
                              scheduling=scheduling)
    for profile in charged:
        if only is not None and profile.name != only:
            continue
        response = responses[profile.name]
        if response is None or response > profile.effective_deadline:
            return False
    return True


def reference_opa(profiles, model, base_priorities, context_switch,
                  scheduling):
    names = [p.name for p in profiles]
    values = sorted(base_priorities[name] for name in names)
    if len(set(values)) != len(values):
        values = list(range(1, len(names) + 1))
    order = []
    unassigned = set(names)
    while unassigned:
        level = len(order)
        placed = None
        for name in sorted(unassigned):
            candidate = dict(base_priorities)
            for index, assigned in enumerate(order):
                candidate[assigned] = values[index]
            candidate[name] = values[level]
            ceiling_values = values[level + 1:]
            for index, other in enumerate(sorted(unassigned - {name})):
                candidate[other] = ceiling_values[index]
            if reference_meets_deadlines(profiles, model, candidate,
                                         context_switch, scheduling,
                                         only=name):
                placed = name
                break
        if placed is None:
            return None
        order.append(placed)
        unassigned.remove(placed)
    assignment = dict(base_priorities)
    for index, name in enumerate(order):
        assignment[name] = values[index]
    return assignment


def opa_systems():
    for seed in range(16):
        for protocol in ("none", "inheritance", "ceiling"):
            yield generate("contention", seed, {
                "protocol": protocol, "periodic": True,
                "tasks": 3 + seed % 3, "deadline_frac": 0.4 + 0.1 * (seed % 4),
                "processors": 1 + seed % 2})
        yield generate("periodic", seed, {"n": 3 + seed % 4})


@pytest.mark.parametrize("reverse", [False, True])
def test_opa_matches_the_all_tasks_probe(reverse):
    outcomes = Counter()
    for spec in opa_systems():
        context = LintContext(build_system(spec, sim=Simulator("opa")))
        model = context.model
        for processor in context.system.processors.values():
            profiles = context.profiles(processor)
            if not profiles or any(p.name not in model.priorities
                                   for p in profiles):
                continue
            base = dict(model.priorities)
            if reverse:
                ranked = sorted(p.name for p in profiles)
                for name, value in zip(ranked, sorted(
                        (base[name] for name in ranked), reverse=True)):
                    base[name] = value
            for costs in ((0, 0), (1, 2)):
                expected = reference_opa(profiles, model, base, *costs)
                assert opa_assignment(profiles, model, base,
                                      *costs) == expected
                outcomes["none" if expected is None else "found"] += 1
    assert outcomes["found"] > 0 and outcomes["none"] > 0, outcomes
