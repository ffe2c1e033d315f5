"""Tests for the quantum-limited preemption baseline ([1]-style).

These encode the paper's central accuracy claim: the exact model reacts
to a hardware event in precisely save+sched+load regardless of any
clock, while the quantum model adds an error bounded by (and in the
adversarial case equal to) the remaining quantum.
"""

import pytest

from repro.baselines import QuantumProcessor
from repro.errors import RTOSError
from repro.kernel.time import US
from repro.mcse import System
from repro.trace import TraceRecorder, reaction_latencies


def build_reaction_system(processor_factory):
    """A busy low-priority task + one hardware wake at t=105us."""
    system = System("q")
    cpu = processor_factory(system)
    tick = system.event("tick", policy="counter")
    log = []

    def urgent(fn):
        yield from fn.wait(tick)
        log.append(("urgent-start", system.now))
        yield from fn.execute(5 * US)

    def busy(fn):
        yield from fn.execute(500 * US)

    cpu.map(system.function("urgent", urgent, priority=9))
    cpu.map(system.function("busy", busy, priority=1))
    system.sim.schedule_callback(105 * US, tick.signal)
    return system, log


class TestQuantumModel:
    def test_reaction_delayed_to_quantum_boundary(self):
        """The wake at 105us inside a 50us quantum (100..150us) is only
        served at 150us: a 45us modelling error."""
        def factory(system):
            return QuantumProcessor(system.sim, "cpu", quantum=50 * US)

        system, log = build_reaction_system(factory)
        system.run()
        times = dict(log)
        assert times["urgent-start"] == 150 * US

    def test_exact_model_reacts_immediately(self):
        def factory(system):
            return system.processor("cpu")

        system, log = build_reaction_system(factory)
        system.run()
        times = dict(log)
        assert times["urgent-start"] == 105 * US

    @pytest.mark.parametrize("quantum_us", [1, 5, 20, 50])
    def test_error_bounded_by_quantum(self, quantum_us):
        def factory(system):
            return QuantumProcessor(
                system.sim, "cpu", quantum=quantum_us * US
            )

        system, log = build_reaction_system(factory)
        system.run()
        times = dict(log)
        error = times["urgent-start"] - 105 * US
        assert 0 <= error <= quantum_us * US

    def test_error_shrinks_with_quantum(self):
        errors = []
        for quantum_us in (50, 20, 10, 5, 1):
            def factory(system, q=quantum_us):
                return QuantumProcessor(system.sim, "cpu", quantum=q * US)

            system, log = build_reaction_system(factory)
            system.run()
            errors.append(dict(log)["urgent-start"] - 105 * US)
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] == 0 or errors[-1] <= 1 * US

    def test_quantum_costs_simulation_events(self):
        """Small quanta make the quantum model accurate but slow -- the
        trade-off the paper's exact model does not have."""
        def fine(system):
            return QuantumProcessor(system.sim, "cpu", quantum=1 * US)

        def exact(system):
            return system.processor("cpu")

        sys_fine, _ = build_reaction_system(fine)
        sys_fine.run()
        sys_exact, _ = build_reaction_system(exact)
        sys_exact.run()
        assert (
            sys_fine.sim.process_switch_count
            > 10 * sys_exact.sim.process_switch_count
        )

    def test_budget_still_exact_in_total(self):
        """Quantization delays preemption but must not lose CPU time."""
        def factory(system):
            return QuantumProcessor(system.sim, "cpu", quantum=7 * US)

        system, _ = build_reaction_system(factory)
        system.run()
        assert system.functions["busy"].task.cpu_time == 500 * US

    def test_invalid_quantum(self):
        system = System("q")
        with pytest.raises(RTOSError):
            QuantumProcessor(system.sim, "cpu", quantum=0)
