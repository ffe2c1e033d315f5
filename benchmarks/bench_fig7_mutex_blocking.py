"""Figure 7: mutual-exclusion blocking and priority inversion.

Regenerates the paper's blocking scenario -- a task preempted during a
shared-variable access, a higher-priority task blocked "waiting for
resource", and the priority-inversion window -- and quantifies it:

* how long the high-priority task stays blocked on the resource;
* how the paper's remedy (disabling preemption during the access)
  bounds that blocking;
* how the two classic protocol remedies (priority inheritance and
  priority ceiling, implemented in :mod:`repro.rtos.services`) compare.
"""

from _scenarios import build_fig7_system, write_result
from repro.kernel.time import US, format_time
from repro.trace import TimelineChart, blocking_intervals

VARIANTS = ("plain", "preemption_mask", "inheritance", "ceiling")


def run_variant(variant: str):
    system, recorder, done = build_fig7_system(variant)
    system.run()
    blocked = sum(
        i.duration for i in blocking_intervals(recorder, "High")
    )
    return system, recorder, blocked, done["high"]


def bench_fig7_blocking_comparison(benchmark):
    """Run all four variants; assert the inversion and its remedies."""

    def run_all():
        return {variant: run_variant(variant) for variant in VARIANTS}

    results = benchmark(run_all)

    plain_blocked = results["plain"][2]
    plain_finish = results["plain"][3]
    # the inversion is real: High is blocked far longer than Low's
    # 40us critical section alone would explain (Mid's 60us lands inside)
    assert plain_blocked > 60 * US

    lines = [
        "Figure 7 -- shared-variable blocking and priority inversion",
        "",
        f"{'variant':18} {'High blocked':>13} {'High finishes':>14}",
    ]
    for variant in VARIANTS:
        _, _, blocked, finish = results[variant]
        lines.append(
            f"{variant:18} {format_time(blocked):>13} "
            f"{format_time(finish):>14}"
        )
        if variant != "plain":
            # every remedy bounds both blocking and completion
            assert blocked < plain_blocked, variant
            assert finish < plain_finish, variant

    _, recorder, _, _ = results["plain"]
    chart = TimelineChart.from_recorder(recorder)
    lines += ["", "TimeLine of the plain (inverted) case:", "",
              chart.render_ascii(width=100)]
    write_result("fig7_mutex_blocking.txt", "\n".join(lines))
    benchmark.extra_info["plain_blocked_us"] = plain_blocked / US


def bench_fig7_mutual_exclusion_invariant(benchmark):
    """Whatever the remedy, the lock is exclusive and ends released."""

    def run_all():
        return {variant: run_variant(variant) for variant in VARIANTS}

    results = benchmark(run_all)
    for variant, (system, _, _, _) in results.items():
        shared = system.relations.get("SharedVar_1")
        if shared is None:  # inheritance/ceiling built outside the registry
            continue
        assert not shared.locked, variant
