#!/usr/bin/env python3
"""Monte-Carlo timing analysis with stochastic execution times.

Fixed WCETs answer "can it ever miss"; shipping products also need
"how often, in practice".  This example runs a control task with a
bimodal execution time (cache hit vs miss) under interrupt interference,
across a 60-seed campaign, and reports the response-time distribution,
the p99, and the empirical deadline-miss probability -- per RTOS
overhead class, so the platform decision is made on distributions, not
single numbers.

Run:  python examples/monte_carlo.py
"""

import random

from repro.campaign import monte_carlo
from repro.kernel.time import MS, US, format_time
from repro.mcse import System
from repro.trace import ascii_histogram
from repro.workloads import Bimodal, Constant, Normal

DEADLINE = 6 * MS
RUNS = 60

#: Control computation: 2ms nominal, 4.5ms on the slow path (15%).
COMPUTE = Bimodal(
    Normal(2 * MS, 150 * US, minimum=500 * US),
    Normal(4500 * US, 300 * US, minimum=1 * MS),
    p_first=0.85,
)


def make_experiment(overhead):
    def experiment(seed):
        system = System("mc")
        cpu = system.processor(
            "cpu",
            scheduling_duration=overhead,
            context_load_duration=overhead,
            context_save_duration=overhead,
        )
        rng = random.Random(seed)
        responses = []

        def control(fn):
            release = 0
            for _ in range(12):
                yield from fn.execute(COMPUTE.sample(rng))
                responses.append(system.now - release)
                release += 10 * MS
                if system.now < release:
                    yield from fn.delay(release - system.now)

        def interrupt_load(fn):
            while True:
                yield from fn.delay(rng.randint(1, 4) * MS)
                yield from fn.execute(rng.randint(100, 600) * US)

        cpu.map(system.function("control", control, priority=5))
        cpu.map(system.function("irq", interrupt_load, priority=9))
        system.run(130 * MS)
        return {
            "worst_response": max(responses),
            "misses": sum(1 for r in responses if r > DEADLINE),
        }

    return experiment


def main() -> None:
    print(f"{RUNS}-seed campaigns, deadline {format_time(DEADLINE)}:\n")
    print(f"{'RTOS overhead':>14} {'p50 worst':>11} {'p99 worst':>11} "
          f"{'P(any miss)':>12}")
    campaigns = {}
    for overhead_us in (0, 50, 200):
        campaign = monte_carlo(make_experiment(overhead_us * US), runs=RUNS)
        campaigns[overhead_us] = campaign
        worst = campaign["worst_response"]
        p_miss = campaign["misses"].probability(lambda m: m > 0)
        print(f"{format_time(overhead_us * US):>14} "
              f"{format_time(worst.p(50)):>11} "
              f"{format_time(worst.p(99)):>11} {p_miss:>12.2%}")

    print("\nworst-response distribution (zero-overhead RTOS):")
    print(ascii_histogram(campaigns[0]["worst_response"].values, bins=8,
                          width=40))

    # shape: overheads shift the whole distribution right
    assert (campaigns[200]["worst_response"].p(50)
            >= campaigns[0]["worst_response"].p(50))


if __name__ == "__main__":
    main()
