"""Dedup soundness: the canonical state must determine the future.

The DFS prunes a state it has seen before and stops the run there, so a
key that merges two states with different futures silently loses
schedules.  These tests pin the key's two former blind spots (the
running task's position, a script's op index), the specs they made read
``verified``, and check the reduced DFS against DFS without dedup on a
seeded family of interval task sets.  The symmetry reduction gets the
same treatment on a family of replicated tasks, against DFS with both
reductions off, plus unit tests of what must not merge.
"""

import random

import pytest

import repro.verify.explorer as explorer
import repro.verify.harness as harness
from repro.kernel.simulator import Simulator
from repro.kernel.time import US
from repro.mcse.builder import build_system, resolve_duration
from repro.mcse.model import System
from repro.verify import RTSV002, VerifyOptions, assert_always, minimize, \
    replay_spec, spec_factory, verify_spec
from repro.verify.choices import ChoiceController
from repro.verify.harness import ExploreContext
from repro.verify.state import canonical_state, interchangeable


def task(name, priority, steps, duration, deadline=None):
    spec = {"name": name, "priority": priority, "processor": "cpu",
            "script": [["execute", duration]] * steps}
    if deadline is not None:
        spec["deadline"] = deadline
    return spec


def one_cpu(name, *functions):
    return {"name": name, "relations": [], "processors": [{"name": "cpu"}],
            "functions": list(functions)}


#: t0 misses its deadline only on schedules the old key pruned.
S70 = one_cpu(
    "s70",
    task("t0", 1, 3, "5us..10us", deadline="34us"),
    task("t1", 1, 2, "3us..4us"),
)
#: Minimizing its witness tries prefixes that force a 3-way tie index
#: where the shorter schedule only offers an exec choice.
S120 = one_cpu(
    "s120",
    task("t0", 1, 2, "2us..7us"),
    task("t1", 1, 3, "2us..4us"),
    task("t2", 1, 3, "3us..5us", deadline="26us"),
    task("t3", 1, 3, "3us..5us"),
)


def states_at_choices(build):
    """``canonical_state`` at every choice point of the default run."""
    sim = Simulator("probe")
    controller = ChoiceController()
    sim.choice_controller = controller
    system = build(sim)
    states = []
    controller.probe = lambda point: states.append(canonical_state(system))
    system.run()
    return states


class TestCanonicalKey:
    def test_running_task_step_changes_the_key(self):
        def body(fn):
            for _ in range(2):
                yield from fn.execute(resolve_duration(fn, (0, 1 * US)))

        def build(sim):
            system = System("steps", sim=sim)
            system.processor("cpu").map(
                system.function("t0", body, priority=1)
            )
            return system

        first, second = states_at_choices(build)
        # both probes happen at t=0 inside t0's step; only the loop
        # position of the running generator tells them apart
        assert first[0] == second[0] == 0
        assert first != second

    def test_script_op_index_changes_the_key(self):
        spec = one_cpu("ops", task("t0", 1, 2, "0us..1us"))
        first, second = states_at_choices(
            lambda sim: build_system(spec, sim=sim)
        )
        assert first[0] == second[0] == 0
        assert first != second


class TestRegressions:
    def test_s70_deadline_miss_is_found_and_replays(self):
        result = verify_spec(S70)
        assert result.verdict() == "violated"
        witness = result.counterexample
        assert witness.property_id == RTSV002
        _, _, outcome = replay_spec(S70, witness.choices)
        assert RTSV002 in {v.property_id for v in outcome.violations}

    def test_minimize_survives_diverging_trial_prefixes(self):
        choices = (1, 1, 0, 1, 2)
        _, _, outcome = replay_spec(S120, choices)
        violation = next(
            v for v in outcome.violations if v.property_id == RTSV002
        )
        witness = minimize(spec_factory(S120), choices, violation,
                           VerifyOptions())
        assert witness.property_id == RTSV002
        _, _, replayed = replay_spec(S120, witness.choices)
        assert RTSV002 in {v.property_id for v in replayed.violations}


# ---------------------------------------------------------------------------
# Differential: reduced DFS vs DFS without dedup
# ---------------------------------------------------------------------------
#: The seeds; 107, 117 and 128 read ``verified`` under the old key.
SEEDS = range(100, 140)
#: Unreduced DFS is exponential: compare only where it finishes.
UNREDUCED_RUNS = 400


def interval_family(seed):
    """2-4 tasks on one CPU, 2-3 identical interval steps, one deadline."""
    rng = random.Random(seed)
    functions = []
    for index in range(rng.randint(2, 4)):
        lo = rng.choice((2, 3, 5))
        hi = lo + rng.choice((1, 2, 3, 5))
        functions.append(task(f"t{index}", rng.choice((1, 2)),
                              rng.randint(2, 3), f"{lo}us..{hi}us"))
    rng.choice(functions)["deadline"] = f"{rng.randint(8, 40)}us"
    return one_cpu(f"family{seed}", *functions)


def properties(result):
    return {v.property_id for v in result.violations}


@pytest.mark.parametrize("seed", SEEDS)
def test_dedup_agrees_with_unreduced_dfs(seed, monkeypatch):
    spec = interval_family(seed)
    reduced = verify_spec(spec, max_runs=100_000)
    assert reduced.complete or not reduced.ok
    if reduced.counterexample is not None:
        _, _, outcome = replay_spec(spec, reduced.counterexample.choices)
        assert reduced.counterexample.property_id in properties(outcome)

    # a fresh object per probe: no state is ever revisited
    monkeypatch.setattr(harness, "canonical_state",
                        lambda *args: (0, object()))
    unreduced = verify_spec(spec, max_runs=UNREDUCED_RUNS)
    if unreduced.ok and not unreduced.complete:
        pytest.skip("unreduced DFS exceeds the run cap")
    assert reduced.verdict() == unreduced.verdict(), f"seed {seed}"
    assert properties(reduced) == properties(unreduced), f"seed {seed}"


class _ContinuingContext(ExploreContext):
    """Runs on past revisited states and counts unseen states after one."""

    def __init__(self, **_):
        super().__init__(cut_revisits=False)
        self.revisited = False
        self.unseen_after_revisit = 0

    def visit(self, state):
        new = super().visit(state)
        if new and self.revisited:
            self.unseen_after_revisit += 1
        self.revisited = self.revisited or not new
        return new


@pytest.mark.parametrize("seed", SEEDS)
def test_cut_runs_lose_nothing_by_stopping(seed, monkeypatch):
    spec = interval_family(seed)
    cut = verify_spec(spec, max_runs=100_000)

    contexts = []
    real_run_once = harness.run_once

    def run_once(*args, **kwargs):
        context = args[4]
        context.revisited = False
        contexts.append(context)
        return real_run_once(*args, **kwargs)

    monkeypatch.setattr(explorer, "ExploreContext", _ContinuingContext)
    monkeypatch.setattr(explorer, "run_once", run_once)
    continued = verify_spec(spec, max_runs=100_000)
    assert contexts and contexts[0].unseen_after_revisit == 0
    assert continued.verdict() == cut.verdict()
    assert properties(continued) == properties(cut)
    assert continued.stats.states == cut.stats.states


# ---------------------------------------------------------------------------
# Symmetry: one ready task per class of interchangeable ones
# ---------------------------------------------------------------------------
#: Seeds of the replicated-task family.
REPLICATED_SEEDS = range(200, 240)


def replicated_family(seed):
    """1-3 templates, each copied 1-3 times, on one CPU.

    Some templates carry a deadline, some lock the one shared mutex
    around an interval step, so copies contend and may miss.
    """
    rng = random.Random(seed)
    functions = []
    for template in range(rng.randint(1, 3)):
        lo = rng.choice((2, 3, 5))
        step = ["execute", f"{lo}us..{lo + rng.choice((1, 2, 4))}us"]
        script = [step] * rng.randint(1, 2)
        if rng.random() < 0.5:
            script = [["lock", "M"], step, ["unlock", "M"]] + script[1:]
        base = {"priority": rng.choice((1, 2)), "processor": "cpu",
                "script": script}
        if rng.random() < 0.5:
            base["deadline"] = f"{rng.randint(10, 40)}us"
        for copy in range(rng.randint(1, 3)):
            functions.append(dict(base, name=f"f{template}_{copy}"))
    return {"name": f"replicated{seed}",
            "relations": [{"kind": "shared", "name": "M"}],
            "processors": [{"name": "cpu"}], "functions": functions}


def unreduced(monkeypatch):
    """Switch dedup and the symmetry reduction off."""
    monkeypatch.setattr(harness, "canonical_state",
                        lambda *args: (0, object()))
    monkeypatch.setattr(harness, "interchangeable", lambda *args: None)


@pytest.mark.parametrize("seed", REPLICATED_SEEDS)
def test_symmetry_agrees_with_unreduced_dfs(seed, monkeypatch):
    spec = replicated_family(seed)
    reduced = verify_spec(spec, max_runs=100_000)
    assert reduced.complete or not reduced.ok
    for witness in reduced.counterexamples:
        _, _, outcome = replay_spec(spec, witness.choices)
        assert witness.property_id in properties(outcome)

    unreduced(monkeypatch)
    full = verify_spec(spec, max_runs=UNREDUCED_RUNS)
    assert full.stats.symmetry_pruned == 0
    if full.ok and not full.complete:
        pytest.skip("unreduced DFS exceeds the run cap")
    assert reduced.verdict() == full.verdict(), f"seed {seed}"
    assert properties(reduced) == properties(full), f"seed {seed}"


def test_the_family_exercises_the_reduction():
    pruned = [verify_spec(replicated_family(seed)).stats.symmetry_pruned
              for seed in REPLICATED_SEEDS]
    assert sum(1 for count in pruned if count) >= len(pruned) // 2


def copies(count, extra=None):
    """``count`` interval tasks from one template, with per-copy extras."""
    functions = []
    for index in range(count):
        spec = task(f"t{index}", 1, 2, "5us..10us")
        spec.update((extra or {}).get(index, {}))
        functions.append(spec)
    return one_cpu("copies", *functions)


def pruned(spec, **kwargs):
    return verify_spec(spec, max_runs=100_000, **kwargs).stats.symmetry_pruned


class TestInterchangeable:
    def test_identical_copies_merge(self):
        assert pruned(copies(3)) > 0

    @pytest.mark.parametrize("extra", (
        {1: {"deadline": "500us"}},
        {1: {"script": [["execute", "5us..10us"]] * 3}},
    ))
    def test_copies_that_differ_merge_nothing(self, extra):
        assert pruned(copies(2, extra)) == 0

    def test_hand_written_behaviors_merge_nothing(self):
        def body(fn):
            for _ in range(2):
                yield from fn.execute(resolve_duration(fn, (5 * US, 10 * US)))

        def factory(sim):
            system = System("behaviors", sim=sim)
            cpu = system.processor("cpu")
            for index in range(3):
                cpu.map(system.function(f"t{index}", body, priority=1))
            return system

        result = explorer.explore_dfs(factory, VerifyOptions())
        assert result.ok and result.complete
        assert result.stats.symmetry_pruned == 0

    def test_invariants_or_sanitizer_turn_it_off(self):
        invariant = assert_always(lambda system: True)
        assert pruned(copies(3), invariants=[invariant]) == 0
        assert pruned(copies(3), sanitize=True) == 0

    def test_a_mutex_owner_is_not_interchangeable(self):
        spec = copies(2)
        spec["relations"] = [{"kind": "shared", "name": "M"}]
        sim = Simulator("probe")
        controller = ChoiceController()
        sim.choice_controller = controller
        system = build_system(spec, sim=sim)
        results = []

        def probe(point):
            if point.kind != "tie":
                return
            mutex = system.relations["M"]
            results.append(interchangeable(system, None, point.labels))
            mutex.owner = system.functions[point.labels[1]]
            results.append(interchangeable(system, None, point.labels))
            mutex.owner = None

        controller.probe = probe
        system.run()
        assert results[:2] == [(0,), None]
