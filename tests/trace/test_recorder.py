"""Tests for the trace recorder."""

import gc
import json
import weakref

import pytest

from repro.kernel import Simulator
from repro.kernel.time import US
from repro.mcse import System
from repro.mcse.builder import build_system
from repro.trace import (
    AccessRecord,
    MarkerRecord,
    StateRecord,
    TaskState,
    TraceRecorder,
)
from repro.trace.records import AccessKind

from ..fresh import run_fresh

#: Five traced runs of one corpus spec, keeping nothing, with the
#: collector off; prints tracemalloc's current size after each run.
RUNS_IN_FRESH_PROCESS = """
import gc, json, tracemalloc
from repro.corpus.generators import generate
from repro.kernel.time import MS
from repro.mcse.builder import build_system
from repro.trace.recorder import TraceRecorder

spec = generate("periodic", seed=6)
gc.disable()
tracemalloc.start()
sizes = []
for _ in range(5):
    system = build_system(spec)
    recorder = TraceRecorder(system.sim)
    system.run(1000 * MS)
    assert len(recorder) > 4000
    del system, recorder
    sizes.append(tracemalloc.get_traced_memory()[0])
print(json.dumps(sizes))
"""


@pytest.fixture()
def gc_off():
    """Only reference counting may free while a test runs."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def run_small_system():
    system = System("t")
    recorder = TraceRecorder(system.sim)
    ev = system.event("go", policy="boolean")

    def a(fn):
        yield from fn.execute(2 * US)
        yield from fn.signal(ev)

    def b(fn):
        yield from fn.wait(ev)
        yield from fn.execute(1 * US)

    system.function("a", a)
    system.function("b", b)
    system.run()
    return system, recorder


class TestRecording:
    def test_attaches_to_simulator(self):
        system = System("t")
        recorder = TraceRecorder(system.sim)
        # an unbounded recorder is an observer storing straight into
        # its list
        assert system.sim._emit == recorder.records.append
        system.sim.record("x")
        assert recorder.records == ["x"]

    def test_records_states_and_accesses(self):
        _, recorder = run_small_system()
        assert recorder.state_records("a")
        assert recorder.state_records("b")
        accesses = recorder.accesses("go")
        kinds = {r.kind for r in accesses}
        assert AccessKind.SIGNAL in kinds
        assert AccessKind.WAIT in kinds

    def test_records_in_time_order(self):
        _, recorder = run_small_system()
        times = [r.time for r in recorder.records]
        assert times == sorted(times)

    def test_no_recorder_is_cheap_noop(self):
        system = System("t")

        def a(fn):
            yield from fn.execute(1 * US)

        system.function("a", a)
        system.run()  # no recorder attached; nothing blows up

    def test_limit_drops_excess(self):
        system = System("t")
        recorder = TraceRecorder(system.sim, limit=2)

        def a(fn):
            yield from fn.execute(1 * US)

        system.function("a", a)
        system.run()
        assert len(recorder) == 2
        assert recorder.dropped > 0

    def test_marker(self):
        system = System("t")
        recorder = TraceRecorder(system.sim)
        recorder.mark("checkpoint", task="a")
        markers = recorder.markers()
        assert markers == [MarkerRecord(0, "checkpoint", "a")]

    def test_clear(self):
        _, recorder = run_small_system()
        recorder.clear()
        assert len(recorder) == 0

    def test_tasks_listing(self):
        _, recorder = run_small_system()
        assert recorder.tasks() == ["a", "b"]

    def test_between(self):
        _, recorder = run_small_system()
        window = recorder.between(0, 1 * US)
        assert all(r.time < 1 * US for r in window)


@pytest.mark.usefixtures("gc_off")
class TestLifetime:
    """A recorder records while referenced; dropping it frees its trace.

    The simulator sits in reference cycles with its processes: a trace
    it still referenced would live until a full collection.  These tests
    run with the collector off, so only reference counting frees.
    """

    def test_dropped_recorder_frees_its_trace(self):
        system, recorder = run_small_system()
        first = weakref.ref(recorder.records[0])
        del recorder
        assert first() is None
        assert system.sim._emit is None

    def test_dropped_bounded_recorder_frees_its_trace(self):
        system = System("t")
        recorder = TraceRecorder(system.sim, limit=2)

        def a(fn):
            yield from fn.execute(1 * US)

        system.function("a", a)
        system.run()
        assert (len(recorder), recorder.dropped) == (2, 1)
        first = weakref.ref(recorder.records[0])
        del recorder
        assert first() is None
        assert system.sim._emit is None

    def test_dropping_one_of_two_keeps_the_other_in_order(self):
        sim = Simulator("two")
        first = TraceRecorder(sim)
        second = TraceRecorder(sim, limit=2)
        seen = []
        sim.add_observer(seen.append)
        sim.record("a")
        del first
        assert sim._observers == (second.add, seen.append)
        for record in "bc":
            sim.record(record)
        assert second.records == ["a", "b"]
        assert (second.dropped, seen) == (1, ["a", "b", "c"])

    def test_held_recorder_records_across_runs(self):
        system = build_system({
            "processors": [{"name": "cpu"}],
            "functions": [{
                "name": "a", "processor": "cpu", "priority": 1,
                "script": [["loop", None, [["execute", "1us"],
                                           ["delay", "1us"]]]],
            }],
        })
        recorder = TraceRecorder(system.sim)
        counts = []
        for _ in range(3):
            system.run(5 * US)
            counts.append(len(recorder))
        assert 0 < counts[0] < counts[1] < counts[2]
        assert system.sim._emit == recorder.records.append

    def test_finished_runs_do_not_pile_up(self):
        # Each trace is several times what a run leaves behind in the
        # kernel's own cycles, so one kept trace per run would grow the
        # heap by far more than half of its first size.
        sizes = json.loads(run_fresh("-c", RUNS_IN_FRESH_PROCESS))
        assert sizes[-1] < 1.5 * sizes[0], sizes


class TestPersistence:
    def test_jsonl_roundtrip_shape(self, tmp_path):
        _, recorder = run_small_system()
        path = tmp_path / "trace.jsonl"
        recorder.save_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(recorder)
        first = json.loads(lines[0])
        assert "type" in first and "time" in first

    def test_enum_values_serialized_as_strings(self, tmp_path):
        _, recorder = run_small_system()
        path = tmp_path / "trace.jsonl"
        recorder.save_jsonl(str(path))
        payloads = [json.loads(line) for line in path.read_text().splitlines()]
        states = [p for p in payloads if p["type"] == "StateRecord"]
        assert all(isinstance(p["state"], str) for p in states)
