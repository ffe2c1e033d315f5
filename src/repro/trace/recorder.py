"""The trace recorder: collects records and serves typed views.

Attach a recorder to a simulator and every layer starts emitting::

    recorder = TraceRecorder(sim)     # attaches itself
    ... run ...
    recorder.state_records("Function_1")
    recorder.save_jsonl("trace.jsonl")

A recorder is an ordinary record observer.  Its sink is
:attr:`TraceRecorder.add`: for an unbounded recorder that is its list's
``append`` (one list append per record); a bounded one attaches a small
sink that owns the list, the limit and the drop count.  It detaches like
any observer, with ``sim.remove_observer(recorder.add)``.

A recorder records while something references it.  Dropping the last
reference detaches its sink, so reference counting frees the trace at
once, even though the simulator sits in reference cycles with its
processes and would otherwise keep the records until a full garbage
collection.  With nothing attached the emission sites are no-ops, so
long benchmark runs can go untraced.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import asdict
from typing import Callable, Iterable, List, Optional, Type

from ..kernel.simulator import Simulator
from ..kernel.time import Time
from .records import (
    AccessRecord,
    InterruptRecord,
    MarkerRecord,
    MigrationRecord,
    OverheadRecord,
    PreemptionRecord,
    StateRecord,
    TraceRecord,
)


class _BoundedSink:
    """Stores records up to ``limit`` and counts the rest as dropped.

    It holds no reference to its recorder, so the simulator it is
    attached to cannot keep the recorder alive.
    """

    __slots__ = ("records", "limit", "dropped")

    def __init__(self, records: List[TraceRecord], limit: int) -> None:
        self.records = records
        self.limit = limit
        self.dropped = 0

    def __call__(self, record: TraceRecord) -> None:
        if len(self.records) >= self.limit:
            self.dropped += 1
        else:
            self.records.append(record)


def _detach(sim_ref: "weakref.ref[Simulator]",
            sink: Callable[[TraceRecord], None]) -> None:
    sim = sim_ref()
    if sim is not None:
        sim.remove_observer(sink)


class TraceRecorder:
    """An append-only store of trace records with typed accessors.

    ``add(record)`` stores one record (subject to ``limit``); it is
    the observer the recorder attaches to ``sim``.
    """

    def __init__(self, sim: Optional[Simulator] = None,
                 limit: Optional[int] = None) -> None:
        self.records: List[TraceRecord] = []
        self.limit = limit
        self.sim = sim
        self.add: Callable[[TraceRecord], None] = (
            self.records.append if limit is None
            else _BoundedSink(self.records, limit))
        if sim is not None:
            sim.add_observer(self.add)
            # The finalizer references neither the recorder nor (strongly)
            # the simulator, so it keeps neither alive.
            weakref.finalize(
                self, _detach, weakref.ref(sim), self.add).atexit = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Records a bounded recorder refused once full."""
        sink = self.add
        return sink.dropped if isinstance(sink, _BoundedSink) else 0

    def mark(self, label: str, task: Optional[str] = None) -> None:
        """Insert a free-form marker at the current time."""
        time = self.sim.now if self.sim is not None else 0
        self.add(MarkerRecord(time, label, task))

    def clear(self) -> None:
        self.records.clear()
        if isinstance(self.add, _BoundedSink):
            self.add.dropped = 0

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Typed views
    # ------------------------------------------------------------------
    def of_type(self, record_type: Type[TraceRecord],
                predicate: Optional[Callable] = None) -> List[TraceRecord]:
        out = [r for r in self.records if type(r) is record_type]
        if predicate is not None:
            out = [r for r in out if predicate(r)]
        return out

    def state_records(self, task: Optional[str] = None) -> List[StateRecord]:
        records = self.of_type(StateRecord)
        if task is not None:
            records = [r for r in records if r.task == task]
        return records

    def accesses(self, relation: Optional[str] = None) -> List[AccessRecord]:
        records = self.of_type(AccessRecord)
        if relation is not None:
            records = [r for r in records if r.relation == relation]
        return records

    def overheads(self, processor: Optional[str] = None) -> List[OverheadRecord]:
        records = self.of_type(OverheadRecord)
        if processor is not None:
            records = [r for r in records if r.processor == processor]
        return records

    def preemptions(self) -> List[PreemptionRecord]:
        return self.of_type(PreemptionRecord)

    def interrupts(self) -> List[InterruptRecord]:
        return self.of_type(InterruptRecord)

    def markers(self) -> List[MarkerRecord]:
        return self.of_type(MarkerRecord)

    def migrations(self, task: Optional[str] = None) -> List[MigrationRecord]:
        records = self.of_type(MigrationRecord)
        if task is not None:
            records = [r for r in records if r.task == task]
        return records

    def tasks(self) -> List[str]:
        """Names of all tasks that ever changed state, in first-seen order."""
        seen = {}
        for record in self.of_type(StateRecord):
            seen.setdefault(record.task, None)
        return list(seen)

    def between(self, start: Time, end: Time) -> List[TraceRecord]:
        """Records with start <= time < end."""
        return [r for r in self.records if start <= r.time < end]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dicts(self) -> Iterable[dict]:
        for record in self.records:
            data = asdict(record)
            data["type"] = type(record).__name__
            for key, value in list(data.items()):
                if hasattr(value, "value"):  # enums
                    data[key] = value.value
            yield data

    def save_jsonl(self, path: str) -> None:
        """Write one JSON object per record (enums as their value strings)."""
        with open(path, "w") as handle:
            for data in self.to_dicts():
                handle.write(json.dumps(data, default=repr) + "\n")

    @classmethod
    def from_dicts(cls, dicts: Iterable[dict]) -> "TraceRecorder":
        """Rebuild a recorder from :meth:`to_dicts`-shaped payloads.

        Payload ``value`` fields that were repr-serialized come back as
        strings; everything the timeline/statistics pipelines use
        (times, tasks, states, kinds) round-trips exactly.  Unknown or
        future record kinds are skipped rather than failing the load.
        """
        from .records import (
            AccessKind,
            OverheadKind,
            TaskState,
        )

        type_map = {
            "StateRecord": StateRecord,
            "AccessRecord": AccessRecord,
            "OverheadRecord": OverheadRecord,
            "PreemptionRecord": PreemptionRecord,
            "InterruptRecord": InterruptRecord,
            "MarkerRecord": MarkerRecord,
            "MigrationRecord": MigrationRecord,
        }
        enum_fields = {
            ("StateRecord", "state"): TaskState,
            ("AccessRecord", "kind"): AccessKind,
            ("OverheadRecord", "kind"): OverheadKind,
        }
        recorder = cls()
        for data in dicts:
            data = dict(data)
            type_name = data.pop("type", None)
            record_cls = type_map.get(type_name)
            if record_cls is None:
                continue
            for (owner, field), enum_cls in enum_fields.items():
                if owner == type_name and field in data:
                    data[field] = enum_cls(data[field])
            recorder.add(record_cls(**data))
        return recorder

    @classmethod
    def load_jsonl(cls, path: str) -> "TraceRecorder":
        """Rebuild a recorder from a save_jsonl file (offline analysis)."""
        def lines():
            with open(path) as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        yield json.loads(line)

        return cls.from_dicts(lines())
