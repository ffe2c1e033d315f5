"""The kernel must be deterministic: same workload, same trace, always.

This is the guard that makes hot-path rewrites (free-lists, fast paths,
batched drains) reviewable: each randomized workload is generated from a
seed and run twice, and the two runs must agree on *everything*
observable -- the full event trace (time, actor, action), the final
simulated time, and the exact ``process_switch_count``.

The workloads deliberately mix every wakeup flavour the kernel has:
timed waits, immediate/delta/timed notifications, multi-event any/all
waits, timeouts that win and lose races, method processes, and kills.
"""

import random

import pytest

from repro.kernel import ProcessState, Simulator
from repro.kernel.process import ProcessBase, delta, wait_all, wait_any
from repro.kernel.time import NS, US


def build_random_workload(sim: Simulator, rng: random.Random, trace: list):
    """A seeded tangle of processes exercising all notification kinds."""
    n_events = rng.randint(2, 6)
    events = [sim.event(f"ev{i}") for i in range(n_events)]

    def waiter(pid):
        def body():
            for step in range(rng.randint(3, 8)):
                choice = rng.random()
                if choice < 0.35:
                    yield rng.randint(1, 50) * 100 * NS
                    trace.append((sim.now, pid, "timed"))
                elif choice < 0.55:
                    ev = yield rng.choice(events)
                    trace.append((sim.now, pid, "event", ev.name))
                elif choice < 0.7:
                    picks = rng.sample(events, rng.randint(1, min(3, n_events)))
                    ev = yield wait_any(*picks, timeout=rng.randint(1, 30) * US)
                    trace.append(
                        (sim.now, pid, "any", ev.name if ev else "timeout")
                    )
                elif choice < 0.8:
                    picks = rng.sample(events, rng.randint(1, 2))
                    yield wait_all(*picks, timeout=rng.randint(5, 40) * US)
                    trace.append((sim.now, pid, "all"))
                else:
                    yield delta()
                    trace.append((sim.now, pid, "delta"))

        return body

    def notifier(pid):
        def body():
            for _ in range(rng.randint(5, 12)):
                yield rng.randint(1, 40) * 100 * NS
                ev = rng.choice(events)
                kind = rng.random()
                if kind < 0.4:
                    ev.notify()
                    trace.append((sim.now, pid, "notify", ev.name))
                elif kind < 0.7:
                    ev.notify_delta()
                    trace.append((sim.now, pid, "notify_delta", ev.name))
                elif kind < 0.9:
                    delay = rng.randint(0, 20) * 100 * NS
                    ev.notify_after(delay)
                    trace.append((sim.now, pid, "notify_after", ev.name, delay))
                else:
                    ev.cancel()
                    trace.append((sim.now, pid, "cancel", ev.name))

        return body

    for index in range(rng.randint(2, 4)):
        sim.thread(waiter(f"w{index}"), name=f"w{index}")
    for index in range(rng.randint(1, 3)):
        sim.thread(notifier(f"n{index}"), name=f"n{index}")

    # a method process statically sensitive to the first event
    def on_ev0():
        trace.append((sim.now, "m0", "method"))

    sim.method(on_ev0, sensitive=(events[0],), name="m0")

    # occasionally kill a victim mid-run to exercise cancellation paths
    if rng.random() < 0.5:
        def victim():
            while True:
                yield 1 * US

        proc = sim.thread(victim, name="victim")
        sim.schedule_callback(rng.randint(1, 20) * US, proc.kill)
    return events


def assert_no_stale_waiters(sim: Simulator, events) -> None:
    """Every process left in an event's waiters is still waiting on it."""
    for event in list(events) + [p.terminated_event for p in sim.processes]:
        for waiter in event._waiters:
            if not isinstance(waiter, ProcessBase):
                continue  # a method's static sensitivity stays attached
            assert waiter.state is ProcessState.WAITING, (event, waiter)
            pending = waiter._wait_remaining
            assert event in (waiter._wait_events if pending is None
                             else pending), (event, waiter)


def run_once(seed: int):
    rng = random.Random(seed)
    sim = Simulator(f"det{seed}")
    trace = []
    events = build_random_workload(sim, rng, trace)
    sim.run(2_000 * US)
    assert_no_stale_waiters(sim, events)
    return trace, sim.now, sim.process_switch_count, sim.delta_count


@pytest.mark.parametrize("seed", range(20))
def test_identical_runs_produce_identical_traces(seed):
    first = run_once(seed)
    second = run_once(seed)
    assert first[0] == second[0], f"event traces diverge for seed {seed}"
    assert first[1:] == second[1:], (
        f"(now, switches, deltas) diverge for seed {seed}: "
        f"{first[1:]} != {second[1:]}"
    )


@pytest.mark.parametrize("seed", range(8))
def test_switch_count_matches_step_counts(seed):
    """process_switch_count is exactly the sum of per-process steps."""
    rng = random.Random(seed)
    sim = Simulator(f"steps{seed}")
    trace = []
    build_random_workload(sim, rng, trace)
    sim.run(2_000 * US)
    assert sim.process_switch_count == sum(p.step_count for p in sim.processes)


def test_preemption_style_interleaving_is_stable():
    """Same-instant wakeups keep deterministic FIFO order across runs."""

    def run():
        sim = Simulator("fifo")
        ev = sim.event("go")
        order = []

        def waiter(tag):
            def body():
                while True:
                    got = yield ev
                    order.append((sim.now, tag, got.name))

            return body

        for tag in "abcde":
            sim.thread(waiter(tag), name=tag)

        def driver():
            for step in range(50):
                yield 1 * US
                if step % 3 == 0:
                    ev.notify()
                elif step % 3 == 1:
                    ev.notify_delta()
                else:
                    ev.notify_after(500 * NS)

        sim.thread(driver, name="driver")
        sim.run()
        return order, sim.process_switch_count

    assert run() == run()
