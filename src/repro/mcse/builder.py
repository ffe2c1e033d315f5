"""Declarative system specifications -> executable models.

The paper's tool chain captures a model graphically and "automatically
provides an executable model including functions and processors in a few
seconds" through a SystemC code generator [8].  This module is that code
generator's role in Python: a plain-data *specification* (dict, possibly
loaded from JSON) is elaborated into a ready-to-run :class:`System`.

Specification format::

    spec = {
        "name": "demo",
        "relations": [
            {"kind": "event", "name": "Clk", "policy": "boolean"},
            {"kind": "queue", "name": "Q1", "capacity": 4},
            {"kind": "shared", "name": "SharedVar_1", "initial": 0},
        ],
        "processors": [
            {"name": "Processor", "engine": "procedural",
             "policy": "priority_preemptive",
             "scheduling_duration": "5us",
             "context_load_duration": "5us",
             "context_save_duration": "5us"},
        ],
        "functions": [
            {"name": "Function_1", "priority": 5, "processor": "Processor",
             "script": [
                 ["loop", None, [
                     ["wait", "Clk"],
                     ["execute", "10us"],
                     ["signal", "Event_1"],
                 ]],
             ]},
        ],
    }
    system = build_system(spec)

Behaviors are either a Python callable (``"behavior": fn``) or a
``"script"``: a small interpreted op list (the shape a graphical capture
tool would emit).  Supported ops:

=============================  =============================================
``["execute", dur]``           consume CPU time; ``dur`` may be an
                               interval ``"lo..hi"`` (or ``[lo, hi]``)
                               whose lower bound is the nominal time and
                               whose span the model checker explores
``["delay", dur]``             wall-clock delay (no CPU)
``["delay_until", period]``    fixed-cadence release: delay to the next
                               multiple of ``period`` from the first call
``["wait", event, tmo?]``      wait on an event relation
``["signal", event]``          signal an event relation
``["read", queue, tmo?]``      read a message (value discarded)
``["write", queue, value, tmo?]`` write a message
``["lock", shared]``           lock a shared variable
``["unlock", shared]``         unlock it
``["read_shared", shared]``    lock+read+unlock convenience
``["write_shared", shared, v]`` lock+write+unlock convenience
``["set_flag", flags, bits]``  OR bits into an eventflag relation
``["clr_flag", flags, mask]``  AND an eventflag pattern with a mask
``["wait_flag", flags, bits, mode, tmo?]`` wait for a flag pattern
                               (``mode``: "and"/"or")
``["loop", n, body]``          repeat ``body`` n times (``None`` = forever)
``["set_preemptive", bool]``   toggle the mapped processor's mode
=============================  =============================================

Durations accept anything :func:`repro.kernel.time.parse_time` does;
the optional ``tmo?`` timeouts additionally accept ``None`` /
``"forever"`` (block indefinitely) and ``0`` (non-blocking poll).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..errors import BuildError
from ..kernel.time import format_time, parse_time
from .function import Function
from .model import System


#: The only keys a top-level spec may carry.  Unknown keys are a hard
#: error: a silently dropped key means the built model is *not* the
#: model the spec author described (a typo'd ``"functoins"`` list would
#: simulate an empty system and "pass").
_TOP_LEVEL_KEYS = frozenset(
    ("name", "relations", "processors", "scheduling_domains", "functions",
     "lint_suppress", "personality", "config")
)


#: One validated spec entry: instantiates its object on a fresh system.
Step = Callable[[System], object]

#: ``(key, form)`` of the last validated spec (see :func:`_form_key`).
#: One entry suffices for the repeated builds of one spec that a model
#: checker or a lint-then-run pipeline makes, and it never holds more
#: than one spec's parsed ops beyond the systems built from them.
_last_form: Optional[Tuple[str, Tuple]] = None


def build_system(spec: Dict, sim=None) -> System:
    """Elaborate ``spec`` into a ready-to-run :class:`System`.

    A spec carrying a ``"personality"`` key is first lowered by that
    kernel personality (:mod:`repro.personality`) into the generic
    format, then elaborated exactly like a hand-written generic spec.

    A plain-data spec is validated and parsed once: while no other spec
    is built in between, later builds of an equal spec (the model checker
    elaborates one per explored run) only instantiate objects from the
    validated form.  A spec that fails to build is never cached.
    """
    if not isinstance(spec, dict):
        raise BuildError(f"spec must be a dict, got {type(spec).__name__}")
    if spec.get("personality"):
        from ..personality import lower_spec  # local import avoids a cycle

        lowering = lower_spec(spec)
        system = build_system(lowering.spec, sim=sim)
        system.personality = lowering.personality
        for fn_name, ops in lowering.api_ops.items():
            if fn_name in system.functions:
                fn = system.functions[fn_name]
                fn.personality_ops = ops
                # the name-keyed extra joins the template, so copies of a
                # task stay interchangeable only while their ops agree
                if fn.template is not None:
                    fn.template += "|" + repr(ops)
        return system
    global _last_form
    text = repr(spec)
    key = _form_key(spec, text)
    last = _last_form
    if key is not None and last is not None and last[0] == key:
        return _instantiate(last[1], sim)
    system, form = _validate_and_build(spec, sim, text)
    if key is not None:
        _last_form = (key, form)
    return system


def _form_key(spec: Dict, text: str) -> Optional[str]:
    """The validated-form cache key of ``spec``, or ``None``: not cached.

    ``text`` is ``repr(spec)``, which determines plain data (dicts,
    lists, tuples, strings, numbers, booleans, ``None``) exactly.  A spec
    naming an object by identity (a ``<...>`` repr) or carrying a
    ``behavior`` callable is elaborated afresh every time.
    """
    if "<" in text or any(
        isinstance(entry, dict) and "behavior" in entry
        for entry in spec.get("functions", ())
    ):
        return None
    return text


def _validate_and_build(spec: Dict, sim, text: str) -> Tuple[System, Tuple]:
    """First build of a spec: validate each entry, instantiate it, keep
    the validated steps.  ``text`` is ``repr(spec)``."""
    if "config" in spec:
        raise BuildError(
            "spec key 'config' is only meaningful together with "
            "'personality'"
        )
    unknown = set(spec) - _TOP_LEVEL_KEYS
    if unknown:
        raise BuildError(
            f"unknown spec keys {sorted(unknown)}; "
            f"expected a subset of {sorted(_TOP_LEVEL_KEYS)}"
        )
    name = spec.get("name", "system")
    system = System(name, sim=sim)
    suppress = None
    if "lint_suppress" in spec:
        suppress = _parse_lint_suppress("spec", spec["lint_suppress"])
        system.lint_suppress = suppress

    steps: List[Step] = []
    for section, validate in (
        ("relations", _build_relation),
        ("processors", _build_processor),
        ("scheduling_domains", _build_domain),
        ("functions", partial(_build_function, spec_text=text)),
    ):
        for entry in spec.get(section, ()):
            step = validate(system, dict(entry))
            step(system)
            steps.append(step)
    return system, (name, suppress, tuple(steps))


def _instantiate(form: Tuple, sim) -> System:
    name, suppress, steps = form
    system = System(name, sim=sim)
    if suppress is not None:
        system.lint_suppress = suppress
    for step in steps:
        step(system)
    return system


def _elaborate(where: str, call, *args, accepted=None, **kwargs):
    """Invoke a model factory, turning bad kwargs into a BuildError.

    Specs are plain data, so an unexpected key surfaces as the factory's
    ``TypeError``; re-raise it as a :class:`BuildError` naming the spec
    entry instead of leaking a Python signature mismatch.  ``accepted``
    lists the keys this spec level takes, so a typo'd key fails with the
    valid vocabulary in hand, not just the rejected word.
    """
    try:
        return call(*args, **kwargs)
    except TypeError as exc:
        hint = f"; accepted keys: {sorted(accepted)}" if accepted else ""
        raise BuildError(f"{where}: {exc}{hint}") from None


#: Accepted spec keys per relation kind (satellite of the unknown-key
#: hard-reject: the rejection message teaches the valid vocabulary).
_RELATION_KEYS = {
    "event": ("kind", "name", "policy", "wake_order", "max_count",
              "initial"),
    "queue": ("kind", "name", "capacity", "wake_order"),
    "shared": ("kind", "name", "initial", "wake_order", "protocol",
               "ceiling"),
    "flags": ("kind", "name", "initial", "wake_order", "clear_on_wake"),
}


#: The keyword a relation kind's factory always receives, and its default.
_RELATION_DEFAULTS = {
    "event": ("policy", "fugitive"),
    "queue": ("capacity", 8),
    "shared": ("initial", None),
    "flags": ("initial", 0),
}


def _factory_step(where: str, method: str, args: tuple, kwargs: Dict,
                  accepted=None) -> Step:
    """A step calling the :class:`System` factory ``method``."""

    def step(system: System):
        return _elaborate(where, getattr(system, method), *args,
                          accepted=accepted, **kwargs)

    return step


def _build_relation(system: System, spec: Dict) -> Step:
    kind = spec.pop("kind", None)
    name = spec.pop("name", None)
    if not name:
        raise BuildError(f"relation spec missing a name: {spec!r}")
    if kind not in _RELATION_DEFAULTS:
        raise BuildError(
            f"unknown relation kind {kind!r} for {name!r}; pick one of "
            f"{sorted(_RELATION_KEYS)}"
        )
    keyword, default = _RELATION_DEFAULTS[kind]
    spec[keyword] = spec.pop(keyword, default)
    return _factory_step(f"relation {name!r}", kind, (name,), spec,
                         _RELATION_KEYS[kind])


_DURATION_KEYS = (
    "scheduling_duration",
    "context_load_duration",
    "context_save_duration",
    "time_slice",
)


#: The declarative processor surface.  The factory additionally
#: forwards policy-specific keywords (e.g. ``windows`` for
#: time_partition), so this is a hint list for error messages, not a
#: hard whitelist.
_PROCESSOR_KEYS = (
    "name", "engine", "policy", "speed", "preemptive",
    "scheduling_duration", "context_load_duration",
    "context_save_duration", "time_slice", "windows",
)


def _build_processor(system: System, spec: Dict) -> Step:
    name = spec.pop("name", None)
    if not name:
        raise BuildError(f"processor spec missing a name: {spec!r}")
    for key in _DURATION_KEYS:
        if key in spec:
            spec[key] = parse_time(spec[key])
    if "windows" in spec:
        spec["windows"] = _parse_windows(name, spec["windows"])
    return _factory_step(f"processor {name!r}", "processor", (name,), spec,
                         _PROCESSOR_KEYS)


#: The declarative surface of a scheduling-domain entry.  Kept strict --
#: a typo'd key must fail naming the key, not surface as a policy
#: constructor signature mismatch.
_DOMAIN_KEYS = frozenset(
    ("kind", "policy", "processors", "migration_cost", "clusters")
)


def _build_domain(system: System, spec: Dict) -> Step:
    """Elaborate one ``scheduling_domains`` entry (see :mod:`repro.smp`).

    Shape::

        {"name": "dom0", "kind": "global", "policy": "global_edf",
         "processors": ["cpu0", "cpu1"], "migration_cost": "10us",
         "clusters": [["cpu0"], ["cpu1"]]}   # clustered kind only

    Unknown keys hard-reject through the domain factory, like every
    other spec entry.
    """
    name = spec.pop("name", None)
    if not name:
        raise BuildError(f"scheduling domain spec missing a name: {spec!r}")
    where = f"scheduling domain {name!r}"
    unknown = set(spec) - _DOMAIN_KEYS
    if unknown:
        raise BuildError(
            f"{where}: unknown keys {sorted(unknown)}; expected a subset "
            f"of {sorted(_DOMAIN_KEYS | {'name'})}"
        )
    processors = spec.pop("processors", None)
    if not isinstance(processors, (list, tuple)) or not processors:
        raise BuildError(f"{where} needs a non-empty processors list")
    for entry in processors:
        _domain_processor(system, where, entry)
    if "migration_cost" in spec:
        spec["migration_cost"] = parse_time(spec["migration_cost"])
    clusters = spec.pop("clusters", None)
    if clusters is not None:
        if not isinstance(clusters, (list, tuple)):
            raise BuildError(
                f"{where}: clusters must be a list of processor-name lists"
            )
        for group in clusters:
            for entry in group:
                _domain_processor(system, where, entry)

    def step(system: System):
        # processors are objects of the system being built: resolve the
        # validated names afresh on every instantiation
        members = [system.processors[entry] for entry in processors]
        kwargs = dict(spec)
        if clusters is not None:
            kwargs["clusters"] = [
                [system.processors[entry] for entry in group]
                for group in clusters
            ]
        return _elaborate(where, system.scheduling_domain, name, members,
                          **kwargs)

    return step


def _domain_processor(system: System, where: str, entry):
    if not isinstance(entry, str):
        raise BuildError(
            f"{where}: processors are referenced by name, got {entry!r}"
        )
    try:
        return system.processors[entry]
    except KeyError:
        raise BuildError(
            f"{where} references unknown processor {entry!r}"
        ) from None


def _parse_windows(name: str, windows) -> List:
    """Parse ``time_partition`` windows: ``[[partition, duration], ...]``."""
    if not isinstance(windows, (list, tuple)):
        raise BuildError(
            f"processor {name!r}: windows must be a list of "
            f"[partition, duration] pairs, got {windows!r}"
        )
    parsed = []
    for entry in windows:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not isinstance(entry[0], str)):
            raise BuildError(
                f"processor {name!r}: each window is a "
                f"[partition, duration] pair, got {entry!r}"
            )
        parsed.append((entry[0], parse_time(entry[1])))
    return parsed


#: Optional per-function metadata keys: parsed (as times where noted)
#: and attached as plain attributes for the analyzers and policies.
_FUNCTION_META_KEYS = {
    "wcet": True,       # periodic profile (repro.analyze) -- a time,
                        # or a "lo..hi" interval (sets bcet and wcet)
    "period": True,     # periodic profile -- a time
    "deadline": True,   # relative deadline -- a time
    "jitter": True,     # release jitter bound (repro.verify) -- a time
    "max_blocking": True,  # declared blocking budget (RTS183) -- a time
    "partition": False,  # TimePartitionPolicy label -- a string
    "affinity": False,   # processor names the task may run on -- a list
    "lint_suppress": False,  # rule ids muted for the whole report -- a list
}


def _parse_lint_suppress(where: str, value) -> tuple:
    """Validate a ``lint_suppress`` entry: a list of rule-id strings."""
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(item, str) and item for item in value):
        raise BuildError(
            f"{where}: lint_suppress must be a rule id or a list of rule "
            f"ids, got {value!r}"
        )
    return tuple(value)


#: Every key a function spec entry accepts (structure + factory kwargs
#: + the analyzer metadata of :data:`_FUNCTION_META_KEYS`).
_FUNCTION_KEYS = frozenset(
    ("name", "processor", "behavior", "script", "priority", "start_time",
     "auto_start")
) | frozenset(_FUNCTION_META_KEYS)


def _build_function(system: System, spec: Dict, spec_text: str) -> Step:
    name = spec.pop("name", None)
    if not name:
        raise BuildError(f"function spec missing a name: {spec!r}")
    # Two functions with equal templates behave alike up to their names:
    # the model checker's symmetry reduction (repro.verify.state) may
    # then explore one of them per scheduling tie.  A name quoted anywhere
    # in the spec besides its own entry is referenced: no template.
    template = None
    if "behavior" not in spec and spec_text.count(repr(name)) == 1:
        template = repr(sorted(spec.items()))
    unknown = set(spec) - _FUNCTION_KEYS
    if unknown:
        raise BuildError(
            f"function {name!r}: unknown keys {sorted(unknown)}; "
            f"accepted keys: {sorted(_FUNCTION_KEYS)}"
        )
    processor = spec.pop("processor", None)
    behavior = spec.pop("behavior", None)
    script = spec.pop("script", None)
    if behavior is not None and script is not None:
        raise BuildError(f"function {name!r}: pass behavior or script, not both")
    if behavior is None:
        if script is None:
            raise BuildError(f"function {name!r} needs a behavior or a script")
        ops = _validate_block(system, script, path="script")
    else:
        ops = getattr(behavior, "script_ops", None)
    if "start_time" in spec:
        spec["start_time"] = parse_time(spec["start_time"])
    meta = {}
    for key, is_time in _FUNCTION_META_KEYS.items():
        if key in spec:
            value = spec.pop(key)
            if key == "wcet":
                parsed = parse_duration_range(
                    value, f"function {name!r}: wcet"
                )
                if type(parsed) is tuple:
                    meta["bcet"], meta["wcet"] = parsed
                else:
                    meta["wcet"] = parsed
            elif key == "affinity":
                meta[key] = _parse_affinity(system, name, value)
            elif key == "lint_suppress":
                meta[key] = _parse_lint_suppress(
                    f"function {name!r}", value
                )
            else:
                meta[key] = parse_time(value) if is_time else value

    def step(system: System):
        body = behavior if script is None else _script_behavior(system, ops)
        fn = _elaborate(f"function {name!r}", system.function, name,
                        body, **spec)
        for key, value in meta.items():
            setattr(fn, key, value)
        fn.template = template
        if ops is not None:
            #: The validated op list, kept for static analysis
            #: (:mod:`repro.analyze` reads periodic profiles and lock
            #: nesting straight from it).
            fn.script_ops = ops
        if processor is not None:
            try:
                cpu = system.processors[processor]
            except KeyError:
                raise BuildError(
                    f"function {name!r} mapped on unknown processor "
                    f"{processor!r}"
                ) from None
            cpu.map(fn)
        return fn

    return step


def _parse_affinity(system: System, name: str, value) -> tuple:
    """Validate an affinity mask: a non-empty list of known processors."""
    if not isinstance(value, (list, tuple)) or not value:
        raise BuildError(
            f"function {name!r}: affinity must be a non-empty list of "
            f"processor names, got {value!r}"
        )
    for cpu_name in value:
        if cpu_name not in system.processors:
            raise BuildError(
                f"function {name!r}: affinity names unknown processor "
                f"{cpu_name!r}"
            )
    # canonical order: a mask is a set, and sorted tuples keep generated
    # spec digests stable however the list was written
    return tuple(sorted(value))


# ---------------------------------------------------------------------------
# Script interpreter
# ---------------------------------------------------------------------------
def compile_script(system: System, script: List) -> Callable[[Function], Generator]:
    """Turn a script op-list into a behavior callable."""
    return _script_behavior(
        system, _validate_block(system, script, path="script")
    )


def _script_behavior(system: System, ops: List) -> Callable[[Function], Generator]:
    """The behavior interpreting already validated ``ops`` on ``system``."""

    def behavior(fn: Function) -> Generator:
        yield from _run_block(system, fn, ops)

    behavior.script_ops = ops
    return behavior


def _validate_block(system: System, block: List, path: str) -> List:
    if not isinstance(block, (list, tuple)):
        raise BuildError(f"{path}: expected an op list, got {block!r}")
    ops = []
    for index, op in enumerate(block):
        where = f"{path}[{index}]"
        if not isinstance(op, (list, tuple)) or not op:
            raise BuildError(f"{where}: malformed op {op!r}")
        name, args = op[0], list(op[1:])
        if name == "execute":
            if len(args) != 1:
                raise BuildError(f"{where}: {name} takes one duration")
            args[0] = parse_duration_range(args[0], where)
        elif name in ("delay", "delay_until"):
            if len(args) != 1:
                raise BuildError(f"{where}: {name} takes one duration")
            args[0] = parse_time(args[0])
            if name == "delay_until" and args[0] <= 0:
                raise BuildError(f"{where}: delay_until period must be > 0")
        elif name in ("wait", "read"):
            if len(args) not in (1, 2):
                raise BuildError(
                    f"{where}: {name} takes a relation name and an "
                    "optional timeout"
                )
            _relation(system, args[0], where)
            if len(args) == 2:
                args[1] = _parse_timeout(args[1], where)
        elif name in ("signal", "lock", "unlock", "read_shared"):
            if len(args) != 1:
                raise BuildError(f"{where}: {name} takes one relation name")
            _relation(system, args[0], where)
        elif name == "write":
            if len(args) not in (2, 3):
                raise BuildError(
                    f"{where}: {name} takes relation, value and an "
                    "optional timeout"
                )
            _relation(system, args[0], where)
            if len(args) == 3:
                args[2] = _parse_timeout(args[2], where)
        elif name == "write_shared":
            if len(args) != 2:
                raise BuildError(f"{where}: {name} takes relation and value")
            _relation(system, args[0], where)
        elif name in ("set_flag", "clr_flag"):
            if len(args) != 2 or not isinstance(args[1], int):
                raise BuildError(
                    f"{where}: {name} takes a relation name and a bit "
                    "pattern"
                )
            _flags_relation(system, args[0], where)
        elif name == "wait_flag":
            if len(args) not in (3, 4) or not isinstance(args[1], int):
                raise BuildError(
                    f"{where}: wait_flag takes relation, pattern, "
                    "mode ('and'/'or') and an optional timeout"
                )
            _flags_relation(system, args[0], where)
            if args[2] not in ("and", "or"):
                raise BuildError(
                    f"{where}: wait_flag mode must be 'and' or 'or', "
                    f"got {args[2]!r}"
                )
            if len(args) == 4:
                args[3] = _parse_timeout(args[3], where)
        elif name == "loop":
            if len(args) != 2:
                raise BuildError(f"{where}: loop takes a count and a body")
            count = args[0]
            if count is not None and (not isinstance(count, int) or count < 0):
                raise BuildError(f"{where}: loop count must be None or int >= 0")
            args[1] = _validate_block(system, args[1], where)
        elif name == "set_preemptive":
            if len(args) != 1 or not isinstance(args[0], bool):
                raise BuildError(f"{where}: set_preemptive takes a bool")
        else:
            raise BuildError(f"{where}: unknown op {name!r}")
        ops.append((name, args))
    return ops


def parse_duration_range(value, where: str):
    """Parse a duration, or a ``"lo..hi"`` / ``[lo, hi]`` interval.

    A single duration parses to an ``int``; an interval with distinct
    bounds parses to a ``(lo, hi)`` tuple.  The lower bound is the
    *nominal* time -- what a plain simulation uses -- and the interval is
    only exercised when a choice controller (:mod:`repro.verify`) drives
    the run, so adding a range never changes existing traces.
    """
    if isinstance(value, str) and ".." in value:
        lo_text, _, hi_text = value.partition("..")
        lo, hi = parse_time(lo_text), parse_time(hi_text)
    elif isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise BuildError(
                f"{where}: a duration interval takes two bounds, "
                f"got {value!r}"
            )
        lo, hi = parse_time(value[0]), parse_time(value[1])
    else:
        return parse_time(value)
    if lo > hi:
        raise BuildError(f"{where}: empty duration range {value!r} (lo > hi)")
    return lo if lo == hi else (lo, hi)


def resolve_duration(fn: Function, duration):
    """Collapse an execution-time interval to a concrete duration.

    Plain runs take the nominal lower bound; a run driven by a choice
    controller branches over both endpoints (interval-boundary
    abstraction: extremal schedules expose the extremal behaviors).
    """
    if type(duration) is not tuple:
        return duration
    lo, hi = duration
    controller = fn.sim.choice_controller
    if controller is None:
        return lo
    index = controller.choose(
        "exec", fn.name, 2, labels=(format_time(lo), format_time(hi))
    )
    return hi if index else lo


def _parse_timeout(value, where: str):
    """Parse a bounded-wait timeout: a duration, or None/"forever"."""
    if value is None or value == "forever":
        return None
    try:
        timeout = parse_time(value)
    except (TypeError, ValueError) as exc:
        raise BuildError(f"{where}: bad timeout {value!r}: {exc}") from None
    if timeout < 0:
        raise BuildError(f"{where}: negative timeout {value!r}")
    return timeout


def _relation(system: System, name: str, where: str):
    try:
        return system.relations[name]
    except KeyError:
        raise BuildError(f"{where}: unknown relation {name!r}") from None


def _flags_relation(system: System, name: str, where: str):
    from .events import EventFlags

    relation = _relation(system, name, where)
    if not isinstance(relation, EventFlags):
        raise BuildError(
            f"{where}: {name!r} is not an eventflag relation"
        )
    return relation


def _run_block(system: System, fn: Function, ops: List) -> Generator:
    # the op index is a primitive local on purpose: the model checker's
    # canonical state reads a frame's position from its primitive locals,
    # and a plain ``for`` over ``ops`` would hide it on the value stack
    for index in range(len(ops)):
        name, args = ops[index]
        if name == "execute":
            yield from fn.execute(resolve_duration(fn, args[0]))
        elif name == "delay":
            yield from fn.delay(args[0])
        elif name == "delay_until":
            # vTaskDelayUntil-style fixed-cadence release: the anchor is
            # this call's first activation, each call advances it by one
            # period, and the delay absorbs whatever the body consumed.
            period = args[0]
            anchor = getattr(fn, "_release_anchor", None)
            if anchor is None:
                anchor = fn.sim.now
            target = anchor + period
            fn._release_anchor = target
            remaining = target - fn.sim.now
            if remaining > 0:
                yield from fn.delay(remaining)
        elif name == "wait":
            yield from fn.wait(
                system.relations[args[0]],
                timeout=args[1] if len(args) > 1 else None,
            )
        elif name == "signal":
            yield from fn.signal(system.relations[args[0]])
        elif name == "read":
            yield from fn.read(
                system.relations[args[0]],
                timeout=args[1] if len(args) > 1 else None,
            )
        elif name == "write":
            yield from fn.write(
                system.relations[args[0]], args[1],
                timeout=args[2] if len(args) > 2 else None,
            )
        elif name == "set_flag":
            yield from fn.set_flag(system.relations[args[0]], args[1])
        elif name == "clr_flag":
            yield from fn.clear_flag(system.relations[args[0]], args[1])
        elif name == "wait_flag":
            yield from fn.wait_flag(
                system.relations[args[0]], args[1], args[2],
                timeout=args[3] if len(args) > 3 else None,
            )
        elif name == "lock":
            yield from fn.lock(system.relations[args[0]])
        elif name == "unlock":
            yield from fn.unlock(system.relations[args[0]])
        elif name == "read_shared":
            yield from fn.read_shared(system.relations[args[0]])
        elif name == "write_shared":
            yield from fn.write_shared(system.relations[args[0]], args[1])
        elif name == "set_preemptive":
            if fn.task is None:
                raise BuildError(
                    f"function {fn.name!r}: set_preemptive needs an RTOS mapping"
                )
            fn.task.processor.set_preemptive(args[0])
        elif name == "loop":
            count, body = args
            if count is None:
                while True:
                    yield from _run_block(system, fn, body)
            else:
                for _ in range(count):
                    yield from _run_block(system, fn, body)
