"""Runtime nondeterminism sanitizer (opt-in kernel slot).

``Simulator(sanitize=True)`` puts a :class:`Sanitizer` in the kernel's
``sanitizer`` slot.  It finds the spots where a model can silently
depend on scheduling order:

* **SAN301 -- same-delta conflicting writes**: two processes write
  different values to one :class:`~repro.kernel.channels.Signal` in the
  same evaluate phase.  Only one value is committed at the update phase;
  *which* one depends on process execution order -- the canonical
  SystemC nondeterminism bug.
* **SAN302 -- ambiguous same-timestamp wake order**: one event trigger
  resumes two or more waiting processes at the same instant.  The
  kernel wakes them in deterministic insertion order, but that order is
  an implementation detail the model implicitly depends on (reported
  once per event).
* **SAN303 -- unsynchronized cross-task write**: two functions mutate
  one shared Python object (a container both behaviors close over)
  without a happens-before edge between the writes.  Edges are derived
  from the model's own synchronization -- signal/wait, lock/unlock,
  queue write/read -- with per-function vector clocks; a second write
  that is concurrent with the previous one means the object's final
  contents depend on the schedule, exactly what the verifier's
  exploration will then exhibit.

Four sites read the slot: the evaluate loop (around each process
step), ``Signal.write``, the multi-waiter branch of ``Event._trigger``
and ``Function.start``; the happens-before edges come from an ordinary
record observer.  The hooks cost nothing when the sanitizer is off:
each site checks one slot that is ``None`` by default, and the
multi-waiter check sits on an already-rare branch.  Golden-trace tests
assert byte-identical traces with ``sanitize=False``.

Findings flow through the same :class:`~repro.analyze.diagnostics.
Diagnostic` pipeline as the static linters::

    sim = Simulator("demo", sanitize=True)
    ... run ...
    print(sim.sanitizer.report.format_text())
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..kernel.time import format_time
from ..trace.records import AccessKind, AccessRecord
from .diagnostics import Diagnostic, Report, rule

SAN301 = rule("SAN301", "conflicting same-delta writes to one signal")
SAN302 = rule("SAN302", "ambiguous same-timestamp multi-process wake")
SAN303 = rule("SAN303", "unsynchronized cross-task write to shared state")

#: Closure-cell contents of these types are watched for cross-task
#: writes.  Containers only: their ``repr`` is a faithful, cheap content
#: snapshot, and they are how hand-written behaviors share state.
_WATCHABLE = (list, dict, set, bytearray)

#: Relation accesses that publish the writer's clock to the relation.
_RELEASES = frozenset(
    (AccessKind.SIGNAL, AccessKind.UNLOCK, AccessKind.WRITE)
)
#: Relation accesses that acquire the relation's clock.
_ACQUIRES = frozenset((AccessKind.WAIT, AccessKind.LOCK, AccessKind.READ))


def _join(into: Dict[str, int], other: Dict[str, int]) -> None:
    for name, tick in other.items():
        if tick > into.get(name, 0):
            into[name] = tick


def _happens_before(earlier: Dict[str, int], writer: str,
                    later: Dict[str, int]) -> bool:
    """Did the write stamped ``earlier`` (by ``writer``) reach ``later``?"""
    return earlier.get(writer, 0) <= later.get(writer, 0)


def _safe_repr(obj: object) -> Optional[str]:
    try:
        return repr(obj)
    except Exception:  # user-defined repr may be arbitrary
        return None


class Sanitizer:
    """Collects runtime nondeterminism findings for one simulator."""

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self.report = Report()
        #: Last write per signal name: (writer, value); read only while
        #: the signal's update is pending, so it needs no clearing.
        self._writes: Dict[str, Tuple[str, object]] = {}
        self._wake_reported: Set[str] = set()
        # --- SAN303 happens-before machinery ---------------------------
        #: Kernel process name -> registered function name.
        self._fn_of_process: Dict[str, str] = {}
        #: Per-function vector clock.
        self._clocks: Dict[str, Dict[str, int]] = {}
        #: Per-relation clock, joined on release, acquired on wake.
        self._relation_clocks: Dict[str, Dict[str, int]] = {}
        #: Relations whose clock a blocked function must acquire on its
        #: next step (the release that wakes it has happened by then).
        self._pending_acquires: Dict[str, List[str]] = {}
        #: id(obj) -> (obj, variable name, owning function names).
        self._watched: Dict[int, Tuple[object, str, Set[str]]] = {}
        #: id(obj) -> last write: (writer function, clock snapshot).
        self._last_write: Dict[int, Tuple[str, Dict[str, int]]] = {}
        self._race_reported: Set[int] = set()
        #: Content snapshots taken in before_step: id(obj) -> repr.
        self._snapshots: Dict[int, Optional[str]] = {}
        self._stepping: Optional[str] = None
        sim.add_observer(self._observe_record)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return self.report.diagnostics

    def _writer_name(self) -> str:
        process = self.sim.current_process
        return process.name if process is not None else "<kernel>"

    # ------------------------------------------------------------------
    # Kernel hooks
    # ------------------------------------------------------------------
    def observe_signal_write(self, signal: Any, value: object) -> None:
        """Called by :meth:`Signal.write` before the value is staged."""
        writer = self._writer_name()
        if signal._update_requested:
            previous_writer, previous = self._writes.get(
                signal.name, ("<unknown>", signal._new_value)
            )
            if value != previous:
                self.report.add(
                    SAN301,
                    Report.ERROR,
                    f"signal {signal.name}",
                    f"conflicting writes in one delta cycle at "
                    f"t={format_time(self.sim.now)}: {previous_writer} "
                    f"wrote {previous!r}, then {writer} wrote {value!r}; "
                    "the committed value depends on process order",
                    hint="funnel writers through one process, or replace "
                         "the signal with a queue/shared variable",
                )
        self._writes[signal.name] = (writer, value)

    def observe_multi_wake(self, event: Any, count: int) -> None:
        """Called when one event trigger resumes ``count`` >= 2 waiters."""
        if event.name in self._wake_reported:
            return
        self._wake_reported.add(event.name)
        self.report.add(
            SAN302,
            Report.WARNING,
            f"event {event.name}",
            f"one trigger at t={format_time(self.sim.now)} wakes {count} "
            "processes at the same instant; their relative execution "
            "order is a kernel implementation detail",
            hint="if the model's result depends on who runs first, "
                 "serialize the waiters explicitly (priorities, a queue, "
                 "or separate events)",
        )

    # ------------------------------------------------------------------
    # SAN303: happens-before race detection on shared Python state
    # ------------------------------------------------------------------
    def register_function(self, fn: Any) -> None:
        """Track ``fn`` (called by :meth:`Function.start`).

        Watches the mutable containers its behavior closes over; any such
        container shared with another registered behavior becomes a race
        candidate.  Model objects (``repro.*`` types) are exempt -- their
        cross-task semantics are already defined by the kernel.
        """
        name = fn.name
        self._fn_of_process[fn.process.name] = name
        self._clocks.setdefault(name, {name: 0})
        behavior = getattr(fn, "_behavior", None)
        closure = getattr(behavior, "__closure__", None)
        if not closure:
            return
        freevars = behavior.__code__.co_freevars
        for varname, cell in zip(freevars, closure):
            try:
                obj = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if not isinstance(obj, _WATCHABLE):
                continue
            if type(obj).__module__.split(".")[0] == "repro":
                continue
            key = id(obj)
            entry = self._watched.get(key)
            if entry is None:
                self._watched[key] = (obj, varname, {name})
            else:
                entry[2].add(name)

    def before_step(self, process: Any) -> None:
        """Kernel hook: ``process`` is about to run one evaluate step."""
        name = self._fn_of_process.get(process.name)
        if name is None:
            return
        self._stepping = name
        clock = self._clocks[name]
        clock[name] = clock.get(name, 0) + 1
        pending = self._pending_acquires.pop(name, None)
        if pending:
            for relation_name in pending:
                _join(clock, self._relation_clocks.get(relation_name, {}))
        self._snapshots.clear()
        for key, (obj, _varname, owners) in self._watched.items():
            if name in owners and len(owners) > 1:
                self._snapshots[key] = _safe_repr(obj)

    def after_step(self, process: Any) -> None:
        """Kernel hook: the step finished; detect shared-state writes."""
        name = self._stepping
        self._stepping = None
        if name is None or not self._snapshots:
            return
        clock = self._clocks[name]
        for key, before in self._snapshots.items():
            obj, varname, _owners = self._watched[key]
            if _safe_repr(obj) == before:
                continue
            previous = self._last_write.get(key)
            self._last_write[key] = (name, dict(clock))
            if previous is None:
                continue
            writer, write_clock = previous
            if writer == name or key in self._race_reported:
                continue
            if _happens_before(write_clock, writer, clock):
                continue
            self._race_reported.add(key)
            self.report.add(
                SAN303,
                Report.ERROR,
                f"shared object {varname!r}",
                f"write-write race at t={format_time(self.sim.now)}: "
                f"{name} mutated {varname!r} ({type(obj).__name__}) with "
                f"no happens-before edge from {writer}'s earlier write; "
                "the final contents depend on the schedule",
                hint="guard the object with a shared variable "
                     "(lock/unlock) or pass the data through a queue",
            )
        self._snapshots.clear()

    def _observe_record(self, record: object) -> None:
        """Sim observer: derive happens-before edges from relation use."""
        if type(record) is not AccessRecord:
            return
        name = record.task
        clock = self._clocks.get(name)
        if clock is None:
            return
        if record.kind in _RELEASES:
            relation_clock = self._relation_clocks.setdefault(
                record.relation, {}
            )
            _join(relation_clock, clock)
        elif record.kind in _ACQUIRES:
            if record.blocked:
                # The waking release has not happened yet; acquire the
                # relation clock when this function next steps.
                self._pending_acquires.setdefault(name, []).append(
                    record.relation
                )
            else:
                _join(clock, self._relation_clocks.get(record.relation, {}))


__all__ = ["SAN301", "SAN302", "SAN303", "Sanitizer"]
