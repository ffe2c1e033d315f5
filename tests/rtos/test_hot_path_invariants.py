"""Invariants the RTOS step path's shortcuts rely on.

Task state changes and overhead charges build their trace records only
while a recorder or an observer is attached, the processor name in a
state record is read through the task at emission time, a task's
effective priority is a plain attribute kept in sync by its
inherited-priority setter, and only overhead *formulas* are checked per
charge (constants are checked at construction, see test_overheads.py).
Each test pins one of those rules.
"""

import pytest

from repro.errors import RTOSError, SimulationError
from repro.kernel.time import US
from repro.mcse import System
from repro.mcse.builder import build_system
from repro.rtos import (
    CeilingSharedVariable,
    DeadlineWatchdog,
    InheritanceSharedVariable,
    Overheads,
)
from repro.trace import TraceRecorder
from repro.trace.records import OverheadRecord, StateRecord, TaskState


def two_core_spec():
    """B is mapped on cpu0 but migrates to the idle cpu1 when released."""
    return {
        "name": "smp-two-core",
        "relations": [],
        "processors": [
            {"name": "cpu0", "engine": "procedural"},
            {"name": "cpu1", "engine": "procedural"},
        ],
        "scheduling_domains": [{
            "name": "dom0", "kind": "global", "policy": "global_edf",
            "processors": ["cpu0", "cpu1"], "migration_cost": "3us",
        }],
        "functions": [
            {"name": "A", "processor": "cpu0",
             "script": [["execute", "4ms"]]},
            {"name": "B", "processor": "cpu0",
             "script": [["execute", "4ms"]]},
        ],
    }


def periodic_system(overheads=None):
    """Two periodic tasks on one CPU, preempting each other."""
    system = System("hot")
    cpu = system.processor("cpu", overheads=overheads or Overheads(
        scheduling=1 * US, context_load=1 * US, context_save=1 * US))

    def task(period, work):
        def body(fn):
            for _ in range(6):
                yield from fn.execute(work)
                yield from fn.delay(period - work)
        return body

    cpu.map(system.function("slow", task(100 * US, 40 * US), priority=1))
    cpu.map(system.function("fast", task(30 * US, 10 * US), priority=5,
                            start_time=5 * US))
    return system


class TestRecordsFollowTheTask:
    def test_state_record_names_the_core_after_migration(self):
        system = build_system(two_core_spec())
        recorder = TraceRecorder(system.sim)
        system.run()
        (move,) = recorder.migrations("B")
        assert (move.source, move.target) == ("cpu0", "cpu1")
        records = recorder.records
        before = [r for r in records[:records.index(move)]
                  if isinstance(r, StateRecord) and r.task == "B"]
        after = [r for r in records[records.index(move):]
                 if isinstance(r, StateRecord) and r.task == "B"]
        assert [(r.state, r.processor) for r in before] == [
            (TaskState.CREATED, "cpu0"), (TaskState.READY, "cpu0")]
        assert [(r.state, r.processor) for r in after] == [
            (TaskState.RUNNING, "cpu1"), (TaskState.TERMINATED, "cpu1")]
        # the migration cost is charged, and recorded, on the target
        (cost,) = [r for r in recorder.overheads("cpu1")
                   if r.kind.value == "migration"]
        assert (cost.duration, cost.task) == (3 * US, "B")

    def test_observer_added_mid_run_sees_what_a_recorder_sees(self):
        reference = periodic_system()
        recorder = TraceRecorder(reference.sim)
        reference.run()

        system = periodic_system()
        seen = []
        system.sim.schedule_callback(
            150 * US, lambda: system.sim.add_observer(seen.append))
        system.run()
        assert system.sim.recorder is None
        expected = [r for r in recorder.records if r.time > 150 * US]
        observed = [r for r in seen if r.time > 150 * US]
        assert observed == expected
        assert any(isinstance(r, StateRecord) for r in observed)
        assert any(isinstance(r, OverheadRecord) for r in observed)

    def test_watchdog_armed_mid_run_without_a_recorder(self):
        reference = periodic_system()
        from_start = DeadlineWatchdog(reference.sim, "slow", 45 * US)
        reference.run()

        system = periodic_system()
        watchdogs = []
        system.sim.schedule_callback(120 * US, lambda: watchdogs.append(
            DeadlineWatchdog(system.sim, "slow", 45 * US)))
        system.run()
        assert system.sim.recorder is None
        (watchdog,) = watchdogs
        # slow is waiting at 120us, so the late watchdog sees exactly the
        # activations from 150us on: the first of them still misses
        assert from_start.missed_activations == [0, 150 * US]
        assert watchdog.missed_activations == [150 * US]
        assert (watchdog.activation_count, from_start.activation_count) \
            == (6, 7)


def inversion_system(shared_factory):
    """L locks R then H blocks on it; each task logs its priority."""
    system = System("prio")
    cpu = system.processor("cpu")
    shared = shared_factory(system)
    log = []

    def note(fn, label):
        task = fn.task
        log.append((label, task.effective_priority, task.inherited_priority))

    def low(fn):
        note(fn, "L-start")
        yield from fn.lock(shared)
        note(fn, "L-locked")
        yield from fn.execute(8 * US)
        note(fn, "L-holding")
        yield from fn.unlock(shared)
        note(fn, "L-unlocked")

    def high(fn):
        yield from fn.delay(2 * US)
        yield from fn.lock(shared)
        note(fn, "H-locked")
        yield from fn.unlock(shared)

    cpu.map(system.function("L", low, priority=1))
    cpu.map(system.function("H", high, priority=9))
    return system, log


class TestEffectivePriority:
    def test_setter_keeps_effective_priority_in_sync(self):
        system, _ = inversion_system(lambda s: s.shared("R"))
        task = system.functions["L"].task
        assert (task.effective_priority, task.inherited_priority) == (1, None)
        task.inherited_priority = 7
        assert task.effective_priority == 7
        task.inherited_priority = 0  # a boost below base never lowers it
        assert task.effective_priority == 1
        task.inherited_priority = None
        assert task.effective_priority == 1

    def test_inheritance_sets_and_clears(self):
        system, log = inversion_system(
            lambda s: InheritanceSharedVariable(s.sim, "R"))
        system.run()
        assert log == [
            ("L-start", 1, None),
            ("L-locked", 1, None),
            ("L-holding", 9, 9),  # H blocked on R meanwhile
            ("L-unlocked", 1, None),
            ("H-locked", 9, None),
        ]

    def test_ceiling_sets_and_clears(self):
        system, log = inversion_system(
            lambda s: CeilingSharedVariable(s.sim, "R", ceiling=12))
        system.run()
        assert log == [
            ("L-start", 1, None),
            ("L-locked", 12, 12),
            ("L-holding", 12, 12),
            ("L-unlocked", 1, None),
            ("H-locked", 12, 12),
        ]


class TestOverheadValidation:
    @pytest.mark.parametrize("bad", [-1, True])
    def test_bad_formula_value_raises_when_charged(self, bad):
        charged = []

        def good(cpu):
            charged.append(cpu.sim.now)
            return 1 * US

        periodic_system(Overheads(scheduling=good)).run()
        first_late = min(t for t in charged if t >= 50 * US)

        def scheduling(cpu):
            return bad if cpu.sim.now >= 50 * US else 1 * US

        system = periodic_system(Overheads(scheduling=scheduling))
        with pytest.raises(SimulationError) as info:
            system.run()
        assert isinstance(info.value.__cause__, RTOSError)
        assert "overhead formula returned" in str(info.value.__cause__)
        # raised at the first scheduling pass at or after 50us, not before
        assert system.now == first_late
