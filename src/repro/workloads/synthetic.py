"""Synthetic workload generators: periodic task sets and task graphs.

Periodic task sets use the standard UUniFast utilization generator
(Bini & Buttazzo), with log-uniform periods, so benchmark sweeps match
what the real-time literature samples.  All generation is deterministic
for a given seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analyze.response_time import PeriodicTask
from ..errors import ReproError
from ..kernel.time import MS, Time, US
from ..mcse.model import System


def uunifast(n: int, total_utilization: float, rng: random.Random) -> List[float]:
    """Draw ``n`` task utilizations summing to ``total_utilization``."""
    if n < 1:
        raise ReproError("need at least one task")
    if not 0 < total_utilization:
        raise ReproError(f"utilization must be positive: {total_utilization}")
    utilizations = []
    remaining = total_utilization
    for i in range(1, n):
        next_remaining = remaining * rng.random() ** (1.0 / (n - i))
        utilizations.append(remaining - next_remaining)
        remaining = next_remaining
    utilizations.append(remaining)
    return utilizations


def generate_periodic_taskset(
    n: int,
    total_utilization: float,
    seed: int = 0,
    period_min: Time = 1 * MS,
    period_max: Time = 100 * MS,
    rate_monotonic: bool = True,
) -> List[PeriodicTask]:
    """Generate a random periodic task set.

    Periods are log-uniform in [period_min, period_max]; WCETs follow
    from the UUniFast utilizations.  With ``rate_monotonic`` priorities
    are assigned by period (shorter = higher), else randomly.
    """
    rng = random.Random(seed)
    utilizations = uunifast(n, total_utilization, rng)
    tasks = []
    log_min, log_max = math.log(period_min), math.log(period_max)
    for index, utilization in enumerate(utilizations):
        period = round(math.exp(rng.uniform(log_min, log_max)))
        wcet = max(1 * US, round(period * utilization))
        tasks.append(
            PeriodicTask(
                name=f"task{index}",
                wcet=wcet,
                period=period,
                priority=0,
            )
        )
    if rate_monotonic:
        ordered = sorted(tasks, key=lambda t: (t.period, t.name))
    else:
        ordered = tasks[:]
        rng.shuffle(ordered)
    return [
        PeriodicTask(
            name=t.name, wcet=t.wcet, period=t.period,
            priority=len(ordered) - i,
        )
        for i, t in enumerate(ordered)
    ]


@dataclass
class PeriodicRunResult:
    """Observations from running a periodic set on the RTOS model."""

    responses: Dict[str, List[Time]] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    releases: Dict[str, int] = field(default_factory=dict)
    #: Absolute deadline of each task's in-flight job, if any.
    pending_deadline: Dict[str, Time] = field(default_factory=dict)
    sim: Optional[object] = None

    def worst_response(self, name: str) -> Optional[Time]:
        values = self.responses.get(name)
        return max(values) if values else None

    def starved(self, now: Optional[Time] = None) -> int:
        """In-flight jobs whose deadline already passed (the worst miss)."""
        if now is None:
            now = self.sim.now if self.sim is not None else 0
        return sum(
            1 for deadline in self.pending_deadline.values() if deadline <= now
        )

    def total_misses(self, now: Optional[Time] = None) -> int:
        """Completed overruns plus starved (incomplete, past-deadline) jobs."""
        return sum(self.misses.values()) + self.starved(now)


def build_periodic_system(
    tasks: List[PeriodicTask],
    *,
    engine: str = "procedural",
    policy: str = "priority_preemptive",
    scheduling_duration: Time = 0,
    context_load_duration: Time = 0,
    context_save_duration: Time = 0,
    policy_kwargs: Optional[dict] = None,
    set_deadlines: bool = False,
    sim=None,
) -> "tuple[System, PeriodicRunResult]":
    """Instantiate a periodic task set on one RTOS processor.

    Every task releases at multiples of its period (synchronous at t=0,
    the critical instant), executes its WCET, and sleeps to the next
    release.  Response times and deadline misses are recorded in the
    returned :class:`PeriodicRunResult`.  With ``set_deadlines`` the
    task's absolute deadline is refreshed every job (for EDF/LLF).
    """
    system = System("periodic", sim=sim)
    cpu = system.processor(
        "cpu",
        engine=engine,
        policy=policy,
        scheduling_duration=scheduling_duration,
        context_load_duration=context_load_duration,
        context_save_duration=context_save_duration,
        **(policy_kwargs or {}),
    )
    result = PeriodicRunResult()

    def make_behavior(spec: PeriodicTask):
        def body(fn):
            result.responses[spec.name] = []
            result.misses[spec.name] = 0
            result.releases[spec.name] = 0
            release = 0
            while True:
                if set_deadlines:
                    fn.task.absolute_deadline = release + spec.effective_deadline
                result.releases[spec.name] += 1
                result.pending_deadline[spec.name] = (
                    release + spec.effective_deadline
                )
                yield from fn.execute(spec.wcet)
                now = system.now
                result.pending_deadline.pop(spec.name, None)
                response = now - release
                result.responses[spec.name].append(response)
                if response > spec.effective_deadline:
                    result.misses[spec.name] += 1
                release += spec.period
                if now < release:
                    yield from fn.delay(release - now)
                # overrun: start the next job immediately (carried backlog)

        return body

    for spec in tasks:
        fn = system.function(spec.name, make_behavior(spec),
                             priority=spec.priority)
        # Periodic profile annotations for the static analyzers
        # (repro.analyze reads these instead of guessing from the body).
        fn.wcet = spec.wcet
        fn.period = spec.period
        if spec.deadline is not None:
            fn.deadline = spec.deadline
        cpu.map(fn)
    result.sim = system.sim
    return system, result


def random_pipeline_spec(
    stages: int,
    seed: int = 0,
    *,
    processors: int = 1,
    queue_capacity: int = 4,
    items: int = 20,
    engine: str = "procedural",
) -> Dict:
    """A declarative spec for a random processing pipeline.

    ``stages`` functions pass ``items`` messages down a chain of queues;
    stage compute times are random but seeded.  Stages are dealt onto
    ``processors`` RTOS processors round-robin -- a quick way to produce
    multi-processor stress models for the builder.
    """
    if stages < 2:
        raise ReproError("a pipeline needs at least 2 stages")
    rng = random.Random(seed)
    spec: Dict = {
        "name": f"pipeline{stages}",
        "relations": [
            {"kind": "queue", "name": f"q{i}", "capacity": queue_capacity}
            for i in range(stages - 1)
        ],
        "processors": [
            {
                "name": f"cpu{p}",
                "engine": engine,
                "scheduling_duration": 1 * US,
                "context_load_duration": 1 * US,
                "context_save_duration": 1 * US,
            }
            for p in range(processors)
        ],
        "functions": [],
    }
    for index in range(stages):
        compute = rng.randint(1, 20) * US
        ops: List = []
        body: List = []
        if index > 0:
            body.append(["read", f"q{index - 1}"])
        body.append(["execute", compute])
        if index < stages - 1:
            body.append(["write", f"q{index}", "item"])
        ops.append(["loop", items, body])
        spec["functions"].append(
            {
                "name": f"stage{index}",
                "priority": stages - index,
                "processor": f"cpu{index % processors}",
                "script": ops,
            }
        )
    return spec
