"""Tests for automatic timing-constraint verification (paper future work)."""

import pytest

from repro.errors import ConstraintViolation
from repro.kernel.time import US
from repro.trace import (
    ConstraintSet,
    DeadlineConstraint,
    JitterConstraint,
    ReactionConstraint,
    TraceRecorder,
)

from ..rtos.helpers import build_fig6_system


@pytest.fixture()
def fig6():
    system, log = build_fig6_system("procedural")
    recorder = TraceRecorder(system.sim)
    system.run()
    return system, recorder


class TestReactionConstraint:
    def test_pass_at_exact_bound(self, fig6):
        _, recorder = fig6
        constraint = ReactionConstraint("Clk", "Function_1", 15 * US)
        assert constraint.check(recorder) == []

    def test_fail_below_bound(self, fig6):
        _, recorder = fig6
        constraint = ReactionConstraint("Clk", "Function_1", 14 * US)
        violations = constraint.check(recorder)
        assert len(violations) == 1
        assert "15us" in violations[0].detail


class TestDeadlineConstraint:
    def test_pass(self, fig6):
        _, recorder = fig6
        # Function_1's activation completes well within 100us
        constraint = DeadlineConstraint("Function_1", 100 * US)
        assert constraint.check(recorder) == []

    def test_fail(self, fig6):
        _, recorder = fig6
        constraint = DeadlineConstraint("Function_1", 10 * US)
        assert constraint.check(recorder)


class TestConstraintSet:
    def test_verify_collects_soft_violations(self, fig6):
        _, recorder = fig6
        constraints = ConstraintSet()
        constraints.add(ReactionConstraint("Clk", "Function_1", 1 * US))
        constraints.add(DeadlineConstraint("Function_1", 1000 * US))
        violations = constraints.verify(recorder)
        assert len(violations) == 1

    def test_hard_violation_raises(self, fig6):
        _, recorder = fig6
        constraints = ConstraintSet()
        constraints.add(
            ReactionConstraint("Clk", "Function_1", 1 * US, hard=True)
        )
        with pytest.raises(ConstraintViolation, match="hard timing"):
            constraints.verify(recorder)

    def test_report_never_raises(self, fig6):
        _, recorder = fig6
        constraints = ConstraintSet()
        constraints.add(
            ReactionConstraint("Clk", "Function_1", 1 * US, hard=True)
        )
        constraints.add(DeadlineConstraint("Function_1", 1000 * US))
        text = constraints.report(recorder)
        assert "FAIL" in text
        assert "PASS" in text


class TestJitterConstraint:
    def test_periodic_task_with_interference(self):
        from repro.mcse import System

        system = System("t")
        recorder = TraceRecorder(system.sim)
        cpu = system.processor("cpu")
        tick = system.event("tick", policy="counter")

        def worker(fn):
            for _ in range(6):
                yield from fn.wait(tick)
                yield from fn.execute(2 * US)

        cpu.map(system.function("w", worker, priority=5))
        for i in range(1, 7):
            system.sim.schedule_callback(i * 50 * US, tick.signal)
        system.run()
        # perfectly periodic starts: zero jitter tolerated
        assert JitterConstraint("w", 0).check(recorder) == []

    def test_jitter_violation_detected(self):
        from repro.mcse import System

        system = System("t")
        recorder = TraceRecorder(system.sim)
        cpu = system.processor("cpu")
        tick = system.event("tick", policy="counter")

        def worker(fn):
            for _ in range(5):
                yield from fn.wait(tick)
                yield from fn.execute(2 * US)

        def hog(fn):
            yield from fn.delay(149 * US)
            yield from fn.execute(30 * US)  # delays one activation

        cpu.map(system.function("w", worker, priority=5))
        cpu.map(system.function("hog", hog, priority=9))
        for i in range(1, 6):
            system.sim.schedule_callback(i * 50 * US, tick.signal)
        system.run()
        violations = JitterConstraint("w", 5 * US).check(recorder)
        assert violations
