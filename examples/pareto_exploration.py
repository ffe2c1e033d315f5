#!/usr/bin/env python3
"""Pareto design-space exploration of the MPEG-2 SoC.

Uses the structured DSE driver (:mod:`repro.campaign.dse`) to sweep the
SoC's platform knobs -- scheduling policy and RTOS overhead class -- and
extract the Pareto front over (frame latency, simulation-visible RTOS
cost).  This is the paper's "explore the design space ... and obtain
accurate results" workflow as a ten-line loop.

Run:  python examples/pareto_exploration.py
"""

from repro.campaign import Parameter, explore, pareto_front, tabulate
from repro.kernel.time import US, format_time
from repro.workloads import Mpeg2Soc

FRAMES = 12

SPACE = [
    Parameter("policy", ["priority_preemptive", "fifo"]),
    Parameter("overhead_us", [0, 5, 25, 100]),
    Parameter("queue_capacity", [2, 4]),
]


class _SocRun:
    """Adapter giving the DSE driver the run()/now interface it expects."""

    def __init__(self, config):
        overhead = config["overhead_us"] * US
        self.soc = Mpeg2Soc(
            frames=FRAMES,
            seed=0,
            policy=config["policy"],
            scheduling_duration=overhead,
            context_load_duration=overhead,
            context_save_duration=overhead,
            queue_capacity=config["queue_capacity"],
        )

    def run(self, duration=None):
        self.soc.run()

    @property
    def now(self):
        return self.soc.system.now


def metrics(config, runner):
    soc = runner.soc
    info = soc.summary()
    return {
        "mean_e2e_us": round(info["mean_e2e_latency"] / US),
        "rtos_overhead_us": round(
            sum(cpu.overhead_time for cpu in soc.processors) / US
        ),
        "preemptions": sum(cpu.preemption_count for cpu in soc.processors),
        "fps": round(info["throughput_fps"], 2),
    }


def main() -> None:
    print(f"exploring {2 * 4 * 2} design points "
          f"({FRAMES} frames each)...\n")
    results = explore(SPACE, _SocRun, metrics)
    print(tabulate(results))

    front = pareto_front(
        results, minimize=("mean_e2e_us", "rtos_overhead_us")
    )
    print(f"\nPareto front over (latency, RTOS cost): "
          f"{len(front)} of {len(results)} points")
    print(tabulate(front))

    best_latency = min(results, key=lambda r: r.metrics["mean_e2e_us"])
    print(f"\nbest latency: {best_latency.config} -> "
          f"{format_time(best_latency.metrics['mean_e2e_us'] * US)}")


if __name__ == "__main__":
    main()
