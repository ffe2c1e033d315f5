"""Rule-by-rule tests for the model linter (RTS1xx)."""

import pytest

from repro.analyze import analyze_processors, analyze_system
from repro.kernel.simulator import Simulator
from repro.kernel.time import MS, US
from repro.mcse import System
from repro.mcse.builder import build_system
from repro.mcse.function import Function
from repro.rtos import (
    CeilingSharedVariable,
    InheritanceSharedVariable,
    make_processor,
)
from repro.rtos.partitions import TimePartitionPolicy


def periodic_spec(functions, relations=(), processor=None):
    """A one-CPU spec with the given function entries."""
    cpu = {"name": "cpu", "policy": "priority_preemptive"}
    if processor:
        cpu.update(processor)
    return {
        "name": "t",
        "relations": list(relations),
        "processors": [cpu],
        "functions": [dict(fn, processor="cpu") for fn in functions],
    }


def periodic_fn(name, priority, execute, delay, **extra):
    return dict(
        {
            "name": name,
            "priority": priority,
            "script": [["loop", None,
                        [["execute", execute], ["delay", delay]]]],
        },
        **extra,
    )


class TestPriorities:
    def test_rts101_duplicate_priorities(self):
        spec = periodic_spec([
            periodic_fn("a", 5, "1us", "99us"),
            periodic_fn("b", 5, "1us", "99us"),
        ])
        report = analyze_system(build_system(spec))
        (diag,) = report.by_rule("RTS101")
        assert "a, b" in diag.message

    def test_rts101_silent_under_round_robin(self):
        spec = periodic_spec(
            [periodic_fn("a", 5, "1us", "99us"),
             periodic_fn("b", 5, "1us", "99us")],
            processor={"policy": "priority_round_robin",
                       "time_slice": "10us"},
        )
        report = analyze_system(build_system(spec))
        assert not report.by_rule("RTS101")

    def test_rts102_non_integer_priority(self):
        system = System("t")
        cpu = system.processor("cpu")

        def body(fn):
            yield from fn.execute(1 * US)

        cpu.map(system.function("bad", body, priority="high"))
        report = analyze_system(system)
        (diag,) = report.by_rule("RTS102")
        assert "'high'" in diag.message
        assert not report.ok()


class TestSchedulability:
    def test_rts103_overload(self):
        spec = periodic_spec([
            periodic_fn("a", 5, "80us", "20us"),
            periodic_fn("b", 4, "50us", "50us"),
        ])
        report = analyze_system(build_system(spec))
        assert report.by_rule("RTS103")
        assert not report.ok()

    def test_rts104_above_liu_layland_but_feasible(self):
        # U = 0.9 > bound(2) = 0.828, but harmonic periods pass RTA.
        spec = periodic_spec([
            periodic_fn("fast", 5, "45us", "55us"),
            periodic_fn("slow", 4, "90us", "110us"),
        ])
        report = analyze_system(build_system(spec))
        assert report.by_rule("RTS104")
        assert not report.by_rule("RTS105")
        assert report.ok()  # warning only

    def test_rts105_deadline_miss_from_overheads(self):
        # Feasible without overheads; 5us of RTOS cost per job sinks the
        # low-priority task.
        spec = periodic_spec(
            [periodic_fn("hi", 5, "40us", "60us"),
             periodic_fn("lo", 1, "55us", "45us")],
            processor={"scheduling_duration": "3us",
                       "context_load_duration": "1us",
                       "context_save_duration": "1us"},
        )
        report = analyze_system(build_system(spec))
        assert report.by_rule("RTS105") or report.by_rule("RTS103")
        assert not report.ok()

    def test_explicit_annotations_beat_script(self):
        spec = periodic_spec([
            dict(periodic_fn("a", 5, "1us", "99us"),
                 wcet="90us", period="100us"),
            periodic_fn("b", 4, "50us", "50us"),
        ])
        report = analyze_system(build_system(spec))
        assert report.by_rule("RTS103")  # 0.9 + 0.5 > 1

    def test_opaque_tasks_are_skipped(self):
        system = System("t")
        cpu = system.processor("cpu")

        def mystery(fn):
            yield from fn.execute(1 * MS)

        cpu.map(system.function("mystery", mystery, priority=1))
        report = analyze_system(system)
        assert not report.by_rule("RTS103")
        assert not report.by_rule("RTS104")


class TestBareProcessors:
    def test_analyze_processors_runs_the_per_cpu_rules(self):
        sim = Simulator("bare")

        def body(fn):
            yield from fn.execute(1 * US)

        def cpu_with(name, *tasks):
            cpu = make_processor(sim, name, policy="priority_preemptive")
            for task_name, priority, wcet, period, deadline in tasks:
                fn = Function(sim, task_name, body, priority=priority)
                fn.wcet, fn.period, fn.deadline = wcet, period, deadline
                cpu.map(fn)
            return cpu

        twins = cpu_with("twins", ("a", 5, 1 * US, 100 * US, None),
                         ("b", 5, 1 * US, 100 * US, None))
        overloaded = cpu_with("overloaded",
                              ("c", 2, 80 * US, 100 * US, None),
                              ("d", 1, 50 * US, 100 * US, None))
        # load 0.95 fits, but d waits out all of c: 95us > 60us
        late = cpu_with("late", ("e", 2, 40 * US, 100 * US, None),
                        ("f", 1, 55 * US, 100 * US, 60 * US))
        report = analyze_processors([twins, overloaded, late])
        (dup,) = report.by_rule("RTS101")
        assert dup.location == "processor twins"
        (overload,) = report.by_rule("RTS103")
        assert overload.location == "processor overloaded"
        (miss,) = report.by_rule("RTS105")
        assert miss.location == "processor late/f"
        assert "95us" in miss.message and "60us" in miss.message


class TestLockGraph:
    def _two_lockers(self, shared_kinds, order_a=("A", "B"),
                     order_b=("B", "A"), priorities=(10, 1)):
        system = System("locks")
        cpu = system.processor("cpu")
        relations = {}
        for name in ("A", "B"):
            kind = shared_kinds.get(name, "plain")
            if kind == "ceiling":
                relations[name] = CeilingSharedVariable(
                    system.sim, name, ceiling=99)
                system.relations[name] = relations[name]
            elif kind == "inheritance":
                relations[name] = InheritanceSharedVariable(system.sim, name)
                system.relations[name] = relations[name]
            else:
                relations[name] = system.shared(name)

        def locker(first, second):
            # first/second are closure-visible SharedVariable objects, so
            # the behavior-AST walker can resolve the lock targets.
            def body(fn):
                yield from fn.lock(first)
                yield from fn.lock(second)
                yield from fn.unlock(second)
                yield from fn.unlock(first)

            return body

        cpu.map(system.function(
            "t1", locker(*(relations[n] for n in order_a)),
            priority=priorities[0]))
        cpu.map(system.function(
            "t2", locker(*(relations[n] for n in order_b)),
            priority=priorities[1]))
        return system

    def test_rts110_abba_deadlock(self):
        system = self._two_lockers({})
        report = analyze_system(system)
        (diag,) = report.by_rule("RTS110")
        assert "t1" in diag.message and "t2" in diag.message
        assert "A -> B -> A" in diag.location or \
               "B -> A -> B" in diag.location

    def test_rts110_silent_with_consistent_order(self):
        system = self._two_lockers({}, order_a=("A", "B"),
                                   order_b=("A", "B"))
        report = analyze_system(system)
        assert not report.by_rule("RTS110")

    def test_rts110_silent_under_ceiling_protocol(self):
        system = self._two_lockers({"A": "ceiling", "B": "ceiling"})
        report = analyze_system(system)
        assert not report.by_rule("RTS110")

    def test_rts111_inversion_needs_middle_task(self):
        system = System("inv")
        cpu = system.processor("cpu")
        shared = system.shared("SV")

        def locker(fn):
            yield from fn.lock(shared)
            yield from fn.execute(10 * US)
            yield from fn.unlock(shared)

        def bystander(fn):
            yield from fn.execute(10 * US)

        cpu.map(system.function("low", locker, priority=1))
        cpu.map(system.function("high", locker, priority=9))
        report = analyze_system(system)
        assert not report.by_rule("RTS111")  # nobody runs in between

        cpu.map(system.function("mid", bystander, priority=5))
        report = analyze_system(system)
        (diag,) = report.by_rule("RTS111")
        assert "mid" in diag.message

    def test_rts111_silent_for_inheritance_variable(self):
        system = System("inv")
        cpu = system.processor("cpu")
        shared = InheritanceSharedVariable(system.sim, "SV")
        system.relations["SV"] = shared

        def locker(fn):
            yield from fn.lock(shared)
            yield from fn.unlock(shared)

        def bystander(fn):
            yield from fn.execute(10 * US)

        cpu.map(system.function("low", locker, priority=1))
        cpu.map(system.function("high", locker, priority=9))
        cpu.map(system.function("mid", bystander, priority=5))
        report = analyze_system(system)
        assert not report.by_rule("RTS111")

    def test_rts112_ceiling_too_low(self):
        system = System("ceil")
        cpu = system.processor("cpu")
        shared = CeilingSharedVariable(system.sim, "SV", ceiling=4)
        system.relations["SV"] = shared

        def locker(fn):
            yield from fn.lock(shared)
            yield from fn.unlock(shared)

        cpu.map(system.function("hot", locker, priority=9))
        report = analyze_system(system)
        (diag,) = report.by_rule("RTS112")
        assert "ceiling 4" in diag.message and "9" in diag.message


class TestOverheads:
    def test_rts120_formula_raising_on_probe(self):
        system = System("ovh")
        system.processor(
            "cpu",
            scheduling_duration=lambda cpu: 1 // 0,
        )
        report = analyze_system(system)
        (diag,) = report.by_rule("RTS120")
        assert "scheduling" in diag.location

    def test_rts120_formula_returning_negative(self):
        system = System("ovh")
        system.processor("cpu", context_load_duration=lambda cpu: -5)
        report = analyze_system(system)
        (diag,) = report.by_rule("RTS120")
        assert "context_load" in diag.location


class TestReachability:
    def test_rts130_dead_wait(self):
        spec = periodic_spec(
            [{"name": "stuck", "priority": 5,
              "script": [["wait", "Never"], ["execute", "1us"]]}],
            relations=[{"kind": "event", "name": "Never"}],
        )
        report = analyze_system(build_system(spec))
        (diag,) = report.by_rule("RTS130")
        assert "'Never'" in diag.message

    def test_rts130_silent_when_someone_signals(self):
        spec = periodic_spec(
            [{"name": "stuck", "priority": 5,
              "script": [["wait", "Ev"], ["execute", "1us"]]},
             {"name": "kicker", "priority": 1,
              "script": [["delay", "5us"], ["signal", "Ev"]]}],
            relations=[{"kind": "event", "name": "Ev"}],
        )
        report = analyze_system(build_system(spec))
        assert not report.by_rule("RTS130")

    def test_rts130_silent_when_any_function_is_opaque(self):
        spec = periodic_spec(
            [{"name": "stuck", "priority": 5,
              "script": [["wait", "Never"], ["execute", "1us"]]}],
            relations=[{"kind": "event", "name": "Never"}],
        )
        system = build_system(spec)
        cpu = system.processors["cpu"]
        exec(  # a behavior whose source ast cannot see through
            "def opaque(fn):\n    yield from fn.execute(1000)\n",
            globs := {},
        )
        cpu.map(system.function("ghost", globs["opaque"], priority=1))
        report = analyze_system(system)
        assert not report.by_rule("RTS130")


class TestPartitions:
    def _partitioned(self, windows, functions):
        system = System("part")
        cpu = system.processor("cpu", policy=TimePartitionPolicy(windows))
        for name, priority, partition, wcet, period in functions:
            def body(fn):
                yield from fn.execute(1 * US)

            fn = system.function(name, body, priority=priority)
            if partition is not None:
                fn.partition = partition
            if wcet is not None:
                fn.wcet = wcet
                fn.period = period
            cpu.map(fn)
        return system

    def test_rts141_unknown_label(self):
        system = self._partitioned(
            [("flight", 6 * MS), ("cabin", 4 * MS)],
            [("nav", 5, "avionics", None, None)],
        )
        report = analyze_system(system)
        (diag,) = report.by_rule("RTS141")
        assert "'avionics'" in diag.message

    def test_rts140_window_overflow(self):
        # 5ms of work every 10ms charged to a 2ms window per 10ms frame.
        system = self._partitioned(
            [("flight", 2 * MS), ("cabin", 8 * MS)],
            [("nav", 5, "flight", 5 * MS, 10 * MS)],
        )
        report = analyze_system(system)
        (diag,) = report.by_rule("RTS140")
        assert "flight" in diag.location

    def test_partition_fit_is_silent(self):
        system = self._partitioned(
            [("flight", 6 * MS), ("cabin", 4 * MS)],
            [("nav", 5, "flight", 2 * MS, 10 * MS),
             ("fun", 3, "cabin", 1 * MS, 10 * MS)],
        )
        report = analyze_system(system)
        assert not report.by_rule("RTS140")
        assert not report.by_rule("RTS141")


class TestSuppression:
    def test_suppress_kwarg(self):
        spec = periodic_spec([
            periodic_fn("a", 5, "1us", "99us"),
            periodic_fn("b", 5, "1us", "99us"),
        ])
        report = analyze_system(build_system(spec), suppress={"RTS101"})
        assert not report.by_rule("RTS101")
        assert report.summary()["suppressed"] == 1

    def test_lint_suppress_attribute_on_system(self):
        spec = periodic_spec([
            periodic_fn("a", 5, "1us", "99us"),
            periodic_fn("b", 5, "1us", "99us"),
        ])
        system = build_system(spec)
        system.lint_suppress = ("RTS101",)
        report = analyze_system(system)
        assert not report.by_rule("RTS101")
        assert report.summary()["suppressed"] == 1


class TestSpeedScaling:
    def test_wcet_scaled_by_processor_speed(self):
        spec = periodic_spec(
            [periodic_fn("a", 5, "60us", "40us")],
            processor={"speed": 2.0},
        )
        report = analyze_system(build_system(spec))
        # 60us of work on a 2x core is 30us per 100us: schedulable.
        assert not report.by_rule("RTS103")
