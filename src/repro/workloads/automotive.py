"""An automotive ECU network: periodic control + CAN-style shared bus.

A second domain workload for the intro's motivating class of systems:
three ECUs (each an RTOS processor) exchange frames over one
priority-arbitrated bus -- which is exactly how CAN arbitration works
(lower message ID = higher priority; here: higher ``transfer_priority``
wins).  Safety messages must beat bulk diagnostics on the wire, and the
receiving control tasks carry reaction deadlines, so the generated
:class:`~repro.trace.constraints.ConstraintSet` verifies the whole
chain sensor -> bus -> controller automatically.

Topology::

    ECU_engine : crank_sensor (10ms) --rpm--> ECU_dash : display
                 fuel_control (10ms, local)
    ECU_brake  : wheel_sensor (5ms) --wheel--> ECU_brake : abs_control
                 (local queue; highest priority on its CPU)
    ECU_dash   : diagnostics (bulk frames, lowest bus priority)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..comm.bus import Bus
from ..comm.remote import RemoteQueue
from ..kernel.time import MS, Time, US
from ..mcse.model import System
from ..trace.constraints import ConstraintSet, ReactionConstraint

#: Rough 500 kbit/s CAN timing: ~16us per payload byte on the wire.
CAN_PER_BYTE = 16 * US
CAN_SETUP = 94 * US  # frame overhead (arbitration, CRC, spacing)


@dataclass
class AutomotiveResult:
    """Per-message latencies observed during the run."""

    rpm_latencies: List[Time] = field(default_factory=list)
    wheel_latencies: List[Time] = field(default_factory=list)
    diag_sent: int = 0

    def worst(self, name: str) -> Time:
        values = getattr(self, f"{name}_latencies")
        return max(values) if values else 0


def build_automotive_system(
    *,
    engine: str = "procedural",
    cycles: int = 20,
    bus_setup: Time = CAN_SETUP,
    bus_per_byte: Time = CAN_PER_BYTE,
    diagnostics_frames: int = 40,
    scheduling_duration: Time = 10 * US,
) -> Tuple[System, ConstraintSet, AutomotiveResult, Bus]:
    """Build the three-ECU network; returns (system, constraints,
    result, bus).  ``cycles`` counts 10ms engine periods."""
    system = System("automotive")
    bus = Bus(system.sim, "can", setup=bus_setup, per_byte=bus_per_byte,
              arbitration="priority")
    overheads = dict(
        scheduling_duration=scheduling_duration,
        context_load_duration=scheduling_duration // 2,
        context_save_duration=scheduling_duration // 2,
    )
    ecu_engine = system.processor("ECU_engine", engine=engine, **overheads)
    ecu_brake = system.processor("ECU_brake", engine=engine, **overheads)
    ecu_dash = system.processor("ECU_dash", engine=engine, **overheads)

    # CAN-ish frames: safety small & urgent, diagnostics big & lazy
    rpm_link = RemoteQueue(system.sim, "rpm", bus=bus, message_size=8,
                           transfer_priority=9)
    wheel_link = RemoteQueue(system.sim, "wheel", bus=bus, message_size=8,
                             transfer_priority=10)
    diag_link = RemoteQueue(system.sim, "diag", bus=bus, message_size=64,
                            transfer_priority=1, capacity=None)
    for name, relation in (("rpm", rpm_link), ("wheel", wheel_link),
                           ("diag", diag_link)):
        system.relations[name] = relation

    result = AutomotiveResult()

    # ---------------- ECU_engine ------------------------------------
    def crank_sensor(fn):
        for cycle in range(cycles):
            yield from fn.execute(300 * US)
            yield from fn.write(rpm_link, system.now)
            yield from fn.delay(10 * MS - 300 * US)

    def fuel_control(fn):
        for _ in range(cycles):
            yield from fn.execute(2 * MS)
            yield from fn.delay(8 * MS)

    ecu_engine.map(system.function("crank_sensor", crank_sensor, priority=8))
    ecu_engine.map(system.function("fuel_control", fuel_control, priority=4))

    # ---------------- ECU_brake -------------------------------------
    def wheel_sensor(fn):
        for _ in range(cycles * 2):
            yield from fn.execute(150 * US)
            yield from fn.write(wheel_link, system.now)
            yield from fn.delay(5 * MS - 150 * US)

    def abs_control(fn):
        for _ in range(cycles * 2):
            sent_at = yield from fn.read(wheel_link)
            yield from fn.execute(400 * US)
            result.wheel_latencies.append(system.now - sent_at)

    ecu_brake.map(system.function("wheel_sensor", wheel_sensor, priority=7))
    ecu_brake.map(system.function("abs_control", abs_control, priority=9))

    # ---------------- ECU_dash --------------------------------------
    def display(fn):
        for _ in range(cycles):
            sent_at = yield from fn.read(rpm_link)
            yield from fn.execute(500 * US)
            result.rpm_latencies.append(system.now - sent_at)

    def diagnostics(fn):
        for _ in range(diagnostics_frames):
            yield from fn.execute(200 * US)
            yield from fn.write(diag_link, "dump")
            result.diag_sent += 1
            yield from fn.delay(3 * MS)

    ecu_dash.map(system.function("display", display, priority=5))
    ecu_dash.map(system.function("diagnostics", diagnostics, priority=1))

    # end-to-end reaction bounds: a sensor write (the stimulus) must see
    # the consuming controller running within the bound -- this covers
    # the wire, the wake-up, and the receiving RTOS dispatch
    constraints = ConstraintSet()
    constraints.add(ReactionConstraint("wheel", "abs_control", 5 * MS))
    constraints.add(ReactionConstraint("rpm", "display", 10 * MS))
    return system, constraints, result, bus
