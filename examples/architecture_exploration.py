#!/usr/bin/env python3
"""One functional model, several architectures (paper §2).

"it is essential to take into account the implementation early on the
design process to explore efficiently the design space ... it is
necessary to simulate the system according to the platform on which it
runs."

The same MCSE functional model -- a sensor front-end feeding a filter
chain and a logger -- is elaborated against four platforms:

  A. fully concurrent (the untimed functional baseline, §2),
  B. everything on one CPU,
  C. two CPUs split front/back, linked by a queue,
  D. two CPUs linked by a shared bus (wire costs included).

Only the platform section of the spec changes; behaviors are untouched.

Run:  python examples/architecture_exploration.py
"""

from repro.baselines import build_untimed
from repro.comm import Bus, RemoteQueue
from repro.kernel.time import US, format_time
from repro.mcse import System
from repro.trace import TraceRecorder, latency_summary

SAMPLES = 30
OVERHEADS = dict(scheduling_duration=5 * US, context_load_duration=5 * US,
                 context_save_duration=5 * US)


def functional_model(system, link_queue):
    """Behaviors + relations; platform-independent."""
    raw = system.queue("raw", capacity=4)
    filtered = link_queue  # the cut point between front and back end
    latencies = []

    def sensor(fn):
        for index in range(SAMPLES):
            yield from fn.delay(100 * US)
            yield from fn.write(raw, (index, system.now))

    def filter_stage(fn):
        for _ in range(SAMPLES):
            sample = yield from fn.read(raw)
            yield from fn.execute(30 * US)
            yield from fn.write(filtered, sample)

    def analyzer(fn):
        for _ in range(SAMPLES):
            index, born = yield from fn.read(filtered)
            yield from fn.execute(40 * US)
            latencies.append(system.now - born)

    def logger(fn):
        for _ in range(SAMPLES):
            yield from fn.delay(100 * US)
            yield from fn.execute(15 * US)

    functions = {
        "sensor": system.function("sensor", sensor, priority=9),
        "filter": system.function("filter", filter_stage, priority=5),
        "analyzer": system.function("analyzer", analyzer, priority=4),
        "logger": system.function("logger", logger, priority=1),
    }
    return functions, latencies


def architecture_a():
    system = System("A_concurrent")
    _, latencies = functional_model(system, system.queue("filtered", 4))
    return system, latencies


def architecture_b():
    system = System("B_one_cpu")
    fns, latencies = functional_model(system, system.queue("filtered", 4))
    cpu = system.processor("cpu", **OVERHEADS)
    for fn in fns.values():
        cpu.map(fn)
    return system, latencies


def architecture_c():
    system = System("C_two_cpus")
    fns, latencies = functional_model(system, system.queue("filtered", 4))
    front = system.processor("front", **OVERHEADS)
    back = system.processor("back", **OVERHEADS)
    front.map(fns["sensor"])
    front.map(fns["filter"])
    back.map(fns["analyzer"])
    back.map(fns["logger"])
    return system, latencies


def architecture_d():
    system = System("D_two_cpus_bus")
    bus = Bus(system.sim, "bus", setup=20 * US, per_byte=1 * US)
    link = RemoteQueue(system.sim, "filtered", capacity=4, bus=bus,
                       message_size=16)
    system.relations["filtered"] = link
    fns, latencies = functional_model(system, link)
    front = system.processor("front", **OVERHEADS)
    back = system.processor("back", **OVERHEADS)
    front.map(fns["sensor"])
    front.map(fns["filter"])
    back.map(fns["analyzer"])
    back.map(fns["logger"])
    return system, latencies


def main() -> None:
    print(f"{'architecture':16} {'end':>10} {'sample p50':>11} "
          f"{'sample max':>11} {'note'}")
    rows = {}
    for build in (architecture_a, architecture_b, architecture_c,
                  architecture_d):
        system, latencies = build()
        end = system.run()
        summary = latency_summary(latencies)
        rows[system.name] = summary
        note = {
            "A_concurrent": "functional baseline: no platform effects",
            "B_one_cpu": "serialization + RTOS overheads appear",
            "C_two_cpus": "parallelism restores latency",
            "D_two_cpus_bus": "wire costs claw some of it back",
        }[system.name]
        print(f"{system.name:16} {format_time(end):>10} "
              f"{format_time(summary['p50']):>11} "
              f"{format_time(summary['max']):>11} {note}")

    assert rows["B_one_cpu"]["max"] > rows["A_concurrent"]["max"]
    assert rows["C_two_cpus"]["max"] < rows["B_one_cpu"]["max"]
    assert rows["D_two_cpus_bus"]["p50"] > rows["C_two_cpus"]["p50"]
    print("\nshape: A < C < D < B on sample latency -- exactly the platform")
    print("effects the paper says functional simulation alone cannot show.")


if __name__ == "__main__":
    main()
