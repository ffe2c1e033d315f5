"""Ablation: the three-parameter overhead model (DESIGN.md §5.3).

The paper's pitch is that the three overhead parameters let designers
"analyze the effect of processor change (context load and save
durations) and of RTOS change (scheduling algorithm duration) early in
the design space exploration".  This benchmark quantifies that effect on
a synthetic periodic task set:

* sweep the overhead magnitude and watch deadline misses appear;
* cross-check the simulated breakdown against the analytical
  overhead-aware RTA;
* ablate *formula* overheads (O(n) scheduler) against fixed ones.
"""

from _scenarios import write_result
from repro.analyze import is_schedulable, response_time_analysis
from repro.kernel.time import MS, US, format_time
from repro.workloads import build_periodic_system, generate_periodic_taskset

SEED = 7
TASKS = generate_periodic_taskset(
    5, total_utilization=0.65, seed=SEED, period_min=5 * MS,
    period_max=50 * MS,
)
SWEEP_US = (0, 50, 200, 500, 1000)


def run_overhead(overhead):
    system, result = build_periodic_system(
        TASKS,
        scheduling_duration=overhead,
        context_load_duration=overhead,
        context_save_duration=overhead,
    )
    system.run(200 * MS)
    return system, result


def bench_overhead_sweep(benchmark):
    """Misses vs overhead; analytical schedulability alongside."""

    def sweep():
        rows = []
        for overhead_us in SWEEP_US:
            overhead = overhead_us * US
            system, result = run_overhead(overhead)
            analytical_ok = is_schedulable(
                TASKS, context_switch=2 * overhead, scheduling=overhead
            )
            rows.append(
                (overhead, result.total_misses(),
                 system.processors["cpu"].overhead_ratio(), analytical_ok)
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=2, iterations=1)

    # shape: misses are 0 with a free RTOS and grow with the overheads
    assert rows[0][1] == 0
    assert rows[-1][1] > 0
    misses = [m for _, m, _, _ in rows]
    assert misses == sorted(misses)
    # the overhead-aware RTA flips to unschedulable within the sweep
    verdicts = [ok for *_, ok in rows]
    assert verdicts[0] and not verdicts[-1]

    lines = [
        "Ablation -- RTOS overhead magnitude vs deadline misses "
        "(5 tasks, U=0.65, 200ms)",
        "",
        f"{'overhead each':>14} {'misses':>7} {'RTOS share':>11} "
        f"{'RTA verdict':>12}",
    ]
    for overhead, miss_count, ratio, ok in rows:
        lines.append(
            f"{format_time(overhead):>14} {miss_count:>7} {ratio:>11.2%} "
            f"{'feasible' if ok else 'infeasible':>12}"
        )
    write_result("ablation_overheads.txt", "\n".join(lines))


def bench_formula_vs_fixed_overhead(benchmark):
    """An O(n) scheduling formula vs its fixed-average counterpart."""

    def run_both():
        formula_system, formula_result = (None, None)
        system_a, result_a = build_periodic_system(
            TASKS,
            scheduling_duration=lambda cpu: (100 + 150 * cpu.ready_count) * US,
            context_load_duration=100 * US,
            context_save_duration=100 * US,
        )
        system_a.run(200 * MS)
        system_b, result_b = build_periodic_system(
            TASKS,
            scheduling_duration=250 * US,  # the formula's rough average
            context_load_duration=100 * US,
            context_save_duration=100 * US,
        )
        system_b.run(200 * MS)
        return (system_a, result_a), (system_b, result_b)

    (sys_formula, res_formula), (sys_fixed, res_fixed) = benchmark(run_both)

    # both models run; the formula's cost actually tracked queue depth
    assert sys_formula.processors["cpu"].overhead_time > 0
    assert sys_fixed.processors["cpu"].overhead_time > 0
    # load-dependent cost differs from the flat average -- the reason the
    # paper supports formulas at all
    assert (sys_formula.processors["cpu"].overhead_time
            != sys_fixed.processors["cpu"].overhead_time)
    benchmark.extra_info["formula_overhead_us"] = (
        sys_formula.processors["cpu"].overhead_time / US
    )
    benchmark.extra_info["fixed_overhead_us"] = (
        sys_fixed.processors["cpu"].overhead_time / US
    )


def bench_rta_agreement(benchmark):
    """Simulated worst responses equal the RTA bounds (zero overheads)."""

    def run():
        system, result = build_periodic_system(TASKS)
        system.run(400 * MS)
        return result

    result = benchmark(run)
    analytical = response_time_analysis(TASKS)
    for task in TASKS:
        assert result.worst_response(task.name) == analytical[task.name]
