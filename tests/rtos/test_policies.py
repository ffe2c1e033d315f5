"""Tests for the scheduling policy library."""

import pytest

from repro.errors import RTOSError
from repro.kernel.time import US
from repro.mcse import System
from repro.rtos import POLICIES, PriorityPreemptivePolicy, make_policy
from repro.rtos.policies import LotteryPolicy


def serial_tasks(system, cpu, spec):
    """Create tasks executing once; returns the completion-order list."""
    order = []

    def make(tag, dur):
        def body(fn):
            yield from fn.execute(dur)
            order.append((tag, system.now))

        return body

    for tag, dur, prio in spec:
        cpu.map(system.function(tag, make(tag, dur), priority=prio))
    return order


class TestRegistry:
    def test_known_policies(self):
        assert set(POLICIES) == {
            "fifo",
            "priority_preemptive",
            "round_robin",
            "priority_round_robin",
            "edf",
            "rm",
            "global_edf",
            "global_rm",
            "llf",
            "lottery",
            "time_partition",
        }

    def test_make_policy_default(self):
        assert isinstance(make_policy(None), PriorityPreemptivePolicy)

    def test_make_policy_passthrough(self):
        policy = PriorityPreemptivePolicy()
        assert make_policy(policy) is policy

    def test_make_policy_unknown(self):
        with pytest.raises(RTOSError, match="unknown scheduling policy"):
            make_policy("psychic")

    def test_make_policy_kwargs_on_instance_rejected(self):
        with pytest.raises(RTOSError):
            make_policy(PriorityPreemptivePolicy(), time_slice=1)


class TestFifoPolicy:
    def test_creation_order_wins(self):
        system = System("t")
        cpu = system.processor("cpu", policy="fifo")
        order = serial_tasks(
            system, cpu, [("a", 5 * US, 1), ("b", 5 * US, 9), ("c", 5 * US, 5)]
        )
        system.run()
        assert [tag for tag, _ in order] == ["a", "b", "c"]

    def test_never_preempts(self):
        system = System("t")
        cpu = system.processor("cpu", policy="fifo")
        ev = system.event("ev", policy="boolean")
        log = []

        def first(fn):
            yield from fn.execute(20 * US)
            log.append(("first-done", system.now))

        def urgent(fn):
            yield from fn.wait(ev)
            log.append(("urgent-start", system.now))
            yield from fn.execute(1 * US)

        cpu.map(system.function("first", first, priority=1))
        cpu.map(system.function("urgent", urgent, priority=99))

        def hw(fn):
            yield from fn.delay(5 * US)
            yield from fn.signal(ev)

        system.function("hw", hw)
        system.run()
        times = dict(log)
        assert times["urgent-start"] >= times["first-done"]
        assert cpu.preemption_count == 0


class TestRoundRobin:
    def test_rotation_with_time_slice(self):
        system = System("t")
        cpu = system.processor("cpu", policy="round_robin", time_slice=5 * US)
        trace = []

        def make(tag):
            def body(fn):
                for _ in range(2):
                    yield from fn.execute(5 * US)
                    trace.append((tag, system.now))

            return body

        cpu.map(system.function("a", make("a")))
        cpu.map(system.function("b", make("b")))
        system.run()
        tags = [tag for tag, _ in trace]
        # perfect alternation: a, b, a, b
        assert tags == ["a", "b", "a", "b"]

    def test_no_rotation_when_alone(self):
        system = System("t")
        cpu = system.processor("cpu", policy="round_robin", time_slice=2 * US)

        def body(fn):
            yield from fn.execute(20 * US)

        cpu.map(system.function("solo", body))
        system.run()
        assert cpu.preemption_count == 0

    def test_invalid_time_slice(self):
        with pytest.raises(RTOSError):
            make_policy("round_robin", time_slice=0)


class TestPriorityRoundRobin:
    def test_equal_priorities_share_higher_excluded(self):
        system = System("t")
        cpu = system.processor(
            "cpu", policy="priority_round_robin", time_slice=5 * US
        )
        trace = []

        def make(tag, total):
            def body(fn):
                remaining = total
                while remaining > 0:
                    step = min(5 * US, remaining)
                    yield from fn.execute(step)
                    remaining -= step
                    trace.append((tag, system.now))

            return body

        cpu.map(system.function("eq1", make("eq1", 10 * US), priority=5))
        cpu.map(system.function("eq2", make("eq2", 10 * US), priority=5))
        cpu.map(system.function("low", make("low", 5 * US), priority=1))
        system.run()
        tags = [tag for tag, _ in trace]
        # the two equal tasks alternate; low runs only after both finish
        assert tags[-1] == "low"
        assert tags[:4] == ["eq1", "eq2", "eq1", "eq2"]


class TestEDF:
    def test_earliest_deadline_selected(self):
        system = System("t")
        cpu = system.processor("cpu", policy="edf")
        order = []

        def make(tag):
            def body(fn):
                yield from fn.execute(5 * US)
                order.append(tag)

            return body

        for tag, deadline in (("late", 100 * US), ("soon", 20 * US),
                              ("mid", 50 * US)):
            task = cpu.map(system.function(tag, make(tag)))
            task.absolute_deadline = deadline
        system.run()
        assert order == ["soon", "mid", "late"]

    def test_edf_preemption_on_earlier_deadline(self):
        system = System("t")
        cpu = system.processor("cpu", policy="edf")
        log = []

        def relaxed(fn):
            yield from fn.execute(50 * US)
            log.append(("relaxed-done", system.now))

        def urgent(fn):
            yield from fn.delay(10 * US)
            log.append(("urgent-start", system.now))
            yield from fn.execute(5 * US)
            log.append(("urgent-done", system.now))

        cpu.map(system.function("relaxed", relaxed)).absolute_deadline = 1000 * US
        cpu.map(system.function("urgent", urgent)).absolute_deadline = 30 * US
        system.run()
        times = dict(log)
        # urgent (earliest deadline) is dispatched first and immediately
        # sleeps; relaxed runs 0..10us; urgent wakes at 10us, preempts,
        # finishes at 15us; relaxed completes its remaining 40us at 55us
        assert times["urgent-done"] == 15 * US
        assert times["relaxed-done"] == 55 * US


class TestRateMonotonic:
    def test_shortest_period_selected(self):
        system = System("t")
        cpu = system.processor("cpu", policy="rm")
        order = []

        def make(tag):
            def body(fn):
                yield from fn.execute(5 * US)
                order.append(tag)

            return body

        for tag, period in (("slow", 100 * US), ("fast", 20 * US),
                            ("mid", 50 * US)):
            fn = system.function(tag, make(tag))
            fn.period = period
            cpu.map(fn)
        system.run()
        assert order == ["fast", "mid", "slow"]

    def test_missing_period_is_least_urgent(self):
        system = System("t")
        cpu = system.processor("cpu", policy="rm")
        order = []

        def make(tag):
            def body(fn):
                yield from fn.execute(5 * US)
                order.append(tag)

            return body

        cpu.map(system.function("aperiodic", make("aperiodic")))
        fn = system.function("periodic", make("periodic"))
        fn.period = 1000 * US
        cpu.map(fn)
        system.run()
        assert order == ["periodic", "aperiodic"]


class TestLeastLaxity:
    @staticmethod
    def run(policy, tasks, engine="procedural"):
        """Map ``(tag, delay, work, deadline)`` tasks; completion times."""
        system = System("t")
        cpu = system.processor("cpu", engine=engine, policy=policy)
        done = {}

        def make(tag, delay, work):
            def body(fn):
                if delay:
                    yield from fn.delay(delay)
                yield from fn.execute(work)
                done[tag] = system.now

            return body

        for tag, delay, work, deadline in tasks:
            task = cpu.map(system.function(tag, make(tag, delay, work)))
            task.absolute_deadline = deadline
        system.run()
        return done

    def test_least_laxity_selected_over_earliest_deadline(self):
        # B wakes at 5us less urgent by laxity than the running A; C
        # preempts A at 10us; at 15us A has 50us left to its 100us
        # deadline (laxity 35us) while B has not started (laxity 75us):
        # LLF resumes A although B's deadline is earlier.
        tasks = [("c", 10 * US, 5 * US, 20 * US),
                 ("a", 0, 60 * US, 100 * US),
                 ("b", 5 * US, 10 * US, 90 * US)]
        assert self.run("llf", tasks) == {
            "c": 15 * US, "a": 65 * US, "b": 75 * US}
        # EDF lets B preempt A at 5us and runs it before A after C
        assert self.run("edf", tasks) == {
            "c": 15 * US, "b": 20 * US, "a": 75 * US}

    @pytest.mark.parametrize("work,preempted", ((30 * US, True),
                                                (45 * US, True),
                                                (60 * US, False)))
    def test_preemption_follows_laxity_not_deadline(self, work, preempted):
        # x wakes at 10us with laxity 60 - 10 = 50us; the running r
        # (deadline 100us) keeps the CPU only while its own laxity is
        # the smaller one, i.e. while its remaining work is the larger.
        # At 45us of work r has 35us left at 10us (laxity 55us): its
        # laxity counts the 10us it already ran in its current slice.
        tasks = [("r", 0, work, 100 * US), ("x", 10 * US, 5 * US, 60 * US)]
        for engine in ("procedural", "threaded"):
            done = self.run("llf", tasks, engine)
            if preempted:
                assert done == {"x": 15 * US, "r": work + 5 * US}, engine
            else:
                assert done == {"r": work, "x": work + 5 * US}, engine
            # EDF preempts on the earlier deadline either way
            assert self.run("edf", tasks, engine)["x"] == 15 * US


class TestLottery:
    def test_deterministic_given_seed(self):
        def run_once():
            system = System("t")
            cpu = system.processor("cpu", policy=LotteryPolicy(seed=42))
            order = serial_tasks(
                system, cpu,
                [("a", 3 * US, 1), ("b", 3 * US, 5), ("c", 3 * US, 10)],
            )
            system.run()
            return [tag for tag, _ in order]

        assert run_once() == run_once()

    def test_all_tasks_eventually_run(self):
        system = System("t")
        cpu = system.processor("cpu", policy=LotteryPolicy(seed=7))
        order = serial_tasks(
            system, cpu, [(f"t{i}", 1 * US, i) for i in range(6)]
        )
        system.run()
        assert len(order) == 6


class TestPolicyOverrideHook:
    def test_subclass_scheduling_policy_method(self):
        """The paper's extension point: override Processor.scheduling_policy."""
        from repro.rtos import ProceduralProcessor

        class ShortestNameFirst(ProceduralProcessor):
            def scheduling_policy(self, ready):
                if not ready:
                    return None
                return min(ready, key=lambda t: (len(t.name), t.name))

        system = System("t")
        cpu = ShortestNameFirst(system.sim, "cpu")
        order = []

        def make(tag):
            def body(fn):
                yield from fn.execute(1 * US)
                order.append(tag)

            return body

        for tag in ("loooong", "xy", "mediums"):
            cpu.map(system.function(tag, make(tag)))
        system.run()
        assert order[0] == "xy"
