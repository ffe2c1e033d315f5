"""Canonical simulation states for exploration dedup.

:func:`canonical_state` flattens everything that determines a model's
*future* behavior into one flat tuple ``(now, component, ...)``:

* the functions (release time, priority, ``delay_until`` anchor);
* one component per kernel process: its control position.  A suspended
  process contributes its whole ``yield from`` frame chain; the process
  that is *running* when a choice is probed (its generator reports no
  ``gi_yieldfrom`` mid-step) contributes the live call stack between its
  generator frame and the choice controller.  Every frame adds its code
  position and its primitive locals -- which is why the script
  interpreter keeps its op index in one;
* one component per processor (running task, ready queue, per-task RTOS
  state) and one per relation (memory and wait queues);
* the kernel queues: pending timed entries, each labelled by what it
  wakes, plus the runnable and delta-cycle queues;
* with a :class:`~repro.verify.properties.RunMonitors` whose RTS-V004
  or RTS-V006/V007 bounds are enabled, the open monitor windows those
  verdicts depend on.

Two runs that reach equal canonical states and make equal future choices
produce equal futures, so the explorer can prune the second visit --
that is the entire soundness argument of the dedup, which is why states
are compared *in full* rather than by hash: a hash collision would
silently prune a reachable behavior.  The explorer stores each state as
``(now, ids...)`` over an intern table of whole components
(:class:`repro.verify.harness.ExploreContext`), which keeps that
exactness while sharing the components most states have in common.

What the capture cannot see merges states that may differ, which is
unsound: a non-primitive local (an iterator, a list) in a hand-written
behavior hides its position.  Hand-written behaviors must therefore keep
their loop state in primitive locals (``for index in range(n)``, not an
iterator over a list of steps), as the script interpreter does.

:func:`interchangeable` reads the same components, with each task's own
names renamed away, to find the ready tasks a scheduling tie need only
try one of (the explorer's symmetry reduction).
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .choices import ChoiceController

#: Primitive local-variable types included in a frame's signature.
_PRIMITIVES = (int, str, bool, float, bytes, type(None))

#: The controller frame a probe runs under: frames below it belong to
#: the verifier, frames above it to the model.
_CHOOSE_CODE = ChoiceController.choose.__code__


def _frame_signature(frame: Any) -> Tuple[Any, ...]:
    locals_sig = tuple(sorted(
        (key, value)
        for key, value in frame.f_locals.items()
        if isinstance(value, _PRIMITIVES)
    ))
    return (frame.f_code.co_name, frame.f_lasti, locals_sig)


def _frame_chain(gen: Any) -> Tuple[Any, ...]:
    """Control-position signature of a suspended ``yield from`` chain."""
    signature = []
    seen = 0
    while gen is not None and seen < 32:
        seen += 1
        frame = getattr(gen, "gi_frame", None)
        if frame is None:
            signature.append("done")
            break
        signature.append(_frame_signature(frame))
        gen = getattr(gen, "gi_yieldfrom", None)
    return tuple(signature)


def _live_chain(gen: Any) -> Tuple[Any, ...]:
    """Control position of the generator executing right now.

    Walks the call stack from here up to the generator's own frame and
    keeps the model's frames: those above the choice controller call.
    """
    top = gen.gi_frame
    frames: List[Any] = []
    frame: Any = sys._getframe(1)
    while frame is not None:
        if frame.f_code is _CHOOSE_CODE:
            frames.clear()
        else:
            frames.append(frame)
        if frame is top:
            break
        frame = frame.f_back
    return ("running",) + tuple(
        _frame_signature(f) for f in reversed(frames)
    )


def _process_state(process: Any) -> Tuple[Any, ...]:
    gen = getattr(process, "_gen", None)
    if gen is None:
        chain: Tuple[Any, ...] = ()
    elif gen.gi_running:
        chain = _live_chain(gen)
    else:
        chain = _frame_chain(gen)
    return (process.name, process.state.name, chain)


def _task_state(task: Any) -> Tuple[Any, ...]:
    state = task.state
    return (
        task.name,
        state.name if state is not None else "unstarted",
        task.effective_priority,
        task.remaining_budget,
        task.absolute_deadline,
        bool(task.preempt_pending),
        bool(task.granted),
        # SMP: which core the task currently sits on, and whether a
        # migration cost is still owed -- both shape the future schedule
        task.processor.name,
        bool(getattr(task, "migration_pending", False)),
    )


def _processor_state(processor: Any) -> Tuple[Any, ...]:
    running = processor.running
    return (
        processor.name,
        bool(processor.preemptive),
        running.name if running is not None else None,
        tuple(t.name for t in processor.ready_tasks),
        tuple(_task_state(t) for t in processor.tasks),
    )


def _relation_state(relation: Any) -> Tuple[Any, ...]:
    waiters = tuple(
        (w.function.name if w.function is not None else None, repr(w.payload))
        for w in relation._waiters
    )
    extra = []
    owner = getattr(relation, "owner", None)
    if owner is not None:
        extra.append(("owner", owner.name))
    for attr in ("_flag", "_count", "pattern"):
        value = getattr(relation, attr, None)
        if value is not None:
            extra.append((attr, value))
    items = getattr(relation, "_items", None)
    if items is not None:
        extra.append(("items", tuple(repr(item) for item in items)))
    writers = getattr(relation, "_writer_waiters", None)
    if writers:
        extra.append((
            "writers",
            tuple(
                (w.function.name if w.function is not None else None,
                 repr(w.payload))
                for w in writers
            ),
        ))
    return (type(relation).__name__, relation.name, waiters, tuple(extra))


def _callback_label(fn: Any) -> Tuple[Any, ...]:
    """A callback's function plus the names of the objects it acts on.

    Every watchdog expiry is ``DeadlineWatchdog._expired`` and every
    RTOS delay timer the same closure; the owner's name tells them apart.
    """
    owner = getattr(fn, "__self__", None)
    owners: List[Any] = []
    if owner is not None:
        owners.append(owner)
    else:
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                owners.append(cell.cell_contents)
            except ValueError:  # an unfilled cell
                continue
    names: List[str] = []
    for owner in owners:
        name = getattr(owner, "name", None)
        if name is None:
            name = getattr(owner, "task_name", None)
        if isinstance(name, str):
            names.append(name)
    return (getattr(fn, "__qualname__", "callback"),) + tuple(names)


def _timed_label(entry: Any) -> Any:
    target = getattr(entry, "event", None)
    if target is not None:
        return target.name
    process = getattr(entry, "process", None)
    if process is not None:
        # a timeout entry: its target is the waiting process
        return process.name
    return _callback_label(entry.fn)


def _pending_timed(sim: Any) -> List[Tuple[Any, ...]]:
    """``(when, seq, kind, label)`` of every live timed entry, in order."""
    entries = []
    for when, seq, entry in sim._timed:
        if getattr(entry, "cancelled", False):
            continue
        entries.append((when, seq, type(entry).__name__, _timed_label(entry)))
    entries.sort()
    return entries


def _delta_queues(sim: Any) -> Tuple[Any, ...]:
    # A terminated process's termination event only wakes joins already
    # waiting on it (a later join sees the process terminated and never
    # waits), so without waiters its pending notification changes nothing.
    ended: Set[int] = set()
    if sim._delta_events:
        ended = {
            id(p.terminated_event) for p in sim.processes if p.terminated
        }
    return (
        tuple(p.name for p in sim._runnable),
        tuple(
            e.name for e in sim._delta_events
            if e._waiters or id(e) not in ended
        ),
        tuple(p.name for p in sim._delta_resumes),
        tuple(_callback_label(fn) for fn in sim._delta_callbacks),
        tuple(getattr(c, "name", "?") for c in sim._update_requests),
    )


def _kernel_queues(sim: Any) -> Tuple[Any, ...]:
    # the raw heap sequence numbers differ between runs; only the
    # *relative* order of same-instant entries matters for the future
    timed = tuple(
        (when, kind, label) for when, _, kind, label in _pending_timed(sim)
    )
    return (timed,) + _delta_queues(sim)


def canonical_state(system: Any,
                    monitors: Optional[Any] = None) -> Tuple[Any, ...]:
    """The model's future-relevant state as ``(now, component, ...)``."""
    sim = system.sim
    components: List[Any] = [
        sim.now,
        # start_time distinguishes pre-run jitter branches, priority the
        # (rare) dynamically re-prioritized task
        tuple(
            (name, fn.start_time, fn.priority,
             getattr(fn, "_release_anchor", None))
            for name, fn in system.functions.items()
        ),
    ]
    components.extend(_process_state(p) for p in sim.processes)
    components.extend(
        _processor_state(cpu) for cpu in system.processors.values()
    )
    components.extend(
        _relation_state(rel) for rel in system.relations.values()
    )
    components.append(_kernel_queues(sim))
    if monitors is not None:
        windows = monitors.windows()
        if windows:
            components.append(windows)
    return tuple(components)


# ---------------------------------------------------------------------------
# Interchangeable tasks (symmetry reduction)
# ---------------------------------------------------------------------------
def _owned_names(fn: Any) -> List[str]:
    """Every kernel-visible name that belongs to mapped function ``fn``.

    Each starts with the function's name: ``t1``, ``t1.wake``,
    ``t1.TaskRun``, ``t1.proc``, ...
    """
    task = fn.task
    names = [fn.name, fn.wake_event.name, task.run_event.name,
             task.preempt_event.name, task.resume_event.name]
    process = fn.process
    if process is not None:
        names += [process.name, process.terminated_event.name]
    return names


def _names_in(value: Any, owners: Dict[str, int], found: Set[int]) -> None:
    """Add to ``found`` the owner of every name occurring in ``value``."""
    if type(value) is str:
        owner = owners.get(value)
        if owner is not None:
            found.add(owner)
    elif type(value) is tuple:
        for item in value:
            _names_in(item, owners, found)


def _renamed(value: Any, names: Dict[str, str]) -> Any:
    if type(value) is str:
        return names.get(value, value)
    if type(value) is tuple:
        return tuple(_renamed(item, names) for item in value)
    return value


def interchangeable(system: Any, monitors: Optional[Any],
                    names: Sequence[str]) -> Optional[Tuple[int, ...]]:
    """One index per class of interchangeable tasks among ``names``.

    ``names`` are the candidates of a ``tie`` or ``migrate`` choice
    point, in offer order; the first index of each class represents it.
    Two candidates are interchangeable when

    * their functions' builder templates are equal and not ``None``;
    * their name-free function, task and process components are equal;
    * the pending timed entries naming them are equal as a multiset;
    * their monitor windows are equal;
    * no other component names either of them: relations (owner, wait
      queues, memory), a processor's running task, another process's
      control position, the runnable and delta-cycle queues.

    Swapping the names of two such tasks then maps the state onto itself
    up to two orders that change no verdict: the ready queue's (every
    tie branches over the whole tie set) and that of their same-instant
    timed entries (a ready task's are its watchdog expiry, a callback
    touching only its own watchdog).  So the subtree below either choice
    is a renaming of the other's.  Returns ``None`` when no two
    candidates are interchangeable.
    """
    functions = system.functions
    by_template: Dict[str, List[int]] = {}
    for index, name in enumerate(names):
        fn = functions.get(name)
        template = getattr(fn, "template", None)
        if template is not None and fn.task is not None:
            by_template.setdefault(template, []).append(index)
    owners: Dict[str, int] = {}
    for group in by_template.values():
        if len(group) > 1:
            for index in group:
                for owned in _owned_names(functions[names[index]]):
                    owners[owned] = index
    if not owners:
        return None

    sim = system.sim
    named: Set[int] = set()
    for relation in system.relations.values():
        _names_in(_relation_state(relation), owners, named)
    for cpu in system.processors.values():
        if cpu.running is not None:
            _names_in(cpu.running.name, owners, named)
    _names_in(_delta_queues(sim), owners, named)
    for process in sim.processes:
        if process.name not in owners:
            _names_in(_process_state(process), owners, named)
    timed: Dict[int, List[Tuple[Any, ...]]] = {}
    for when, _, kind, label in _pending_timed(sim):
        found: Set[int] = set()
        _names_in(label, owners, found)
        if len(found) == 1:
            timed.setdefault(found.pop(), []).append((when, kind, label))
        else:
            named |= found
    windows = monitors.windows() if monitors is not None else ()
    for window in windows:
        for _, value in window:
            _names_in(value, owners, named)

    keep: List[int] = []
    classes: Dict[Tuple[Any, ...], int] = {}
    for index, name in enumerate(names):
        fn = functions.get(name)
        if fn is None or fn.name not in owners or index in named:
            keep.append(index)
            continue
        # a placeholder no name can spell stands in for the task's own
        rename = {owned: "\0" + owned[len(name):]
                  for owned in _owned_names(fn)}
        key = (
            fn.template,
            (fn.start_time, fn.priority,
             getattr(fn, "_release_anchor", None)),
            _task_state(fn.task)[1:],
            _renamed(_process_state(fn.process)[1:], rename),
            tuple(sorted(_renamed(tuple(timed.get(index, ())), rename))),
            tuple(dict(window).get(name) for window in windows),
        )
        if key not in classes:
            classes[key] = index
            keep.append(index)
    return tuple(keep) if len(keep) < len(names) else None


__all__ = ["canonical_state", "interchangeable"]
