"""Tests for the trace recorder."""

import json

from repro.kernel.time import US
from repro.mcse import System
from repro.trace import (
    AccessRecord,
    MarkerRecord,
    StateRecord,
    TaskState,
    TraceRecorder,
)
from repro.trace.records import AccessKind


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
