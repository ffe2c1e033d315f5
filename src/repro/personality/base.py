"""The personality contract: spec-level lowering onto the generic model.

A *personality* makes the generic RTOS model speak a concrete kernel's
API.  It is deliberately **not** a runtime layer: a personality is a
pure spec-to-spec compiler that translates kernel objects (queues,
semaphores, mailboxes, eventflags, ...) into generic MCSE relations and
API-level script ops (``xQueueSend``, ``slp_tsk``, ...) into the
builder's generic op grammar, then hands the result to the ordinary
:func:`repro.mcse.builder.build_system` elaboration.

That one design decision buys every guarantee the rest of the stack
already provides: tracing, statistics, lint (the lowered ops feed the
exact effect IR of :mod:`repro.analyze.effects`), SMP domains and the
bounded model checker all see a plain generic system -- a
personality-built model is byte-identical to the hand-written generic
model of the same system, and the equivalence tests assert exactly
that.

One driver, :meth:`Personality.lower`, does every step the kernels
share: key checks, the object and task loops, the implicit per-task
counter events and the generic spec's assembly.  A personality declares
only what differs -- its key tables, its op-handler table, its
RTS17x op sets -- and overrides the hooks for config resolution, the
processor, object relations and the task priority.

The original API op list of every task survives the lowering as
``Function.personality_ops``, which is what the RTS17x personality
misuse rules (:mod:`repro.analyze.personality`) audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet, Any, Callable, Dict, List, Mapping, Optional, Sequence,
    Set, Tuple,
)

from ..errors import BuildError

_TOP_KEYS = ("name", "personality", "config", "objects", "tasks",
             "lint_suppress")
_TASK_KEYS = (
    "name", "priority", "script", "isr", "start_time", "wcet", "period",
    "deadline", "jitter", "max_blocking", "affinity", "lint_suppress",
)
#: Config keys copied onto the generic processor when present.
OVERHEAD_KEYS = ("scheduling_duration", "context_load_duration",
                 "context_save_duration")


@dataclass
class Lowering:
    """The result of lowering one personality spec."""

    #: Personality name (``system.personality`` after the build).
    personality: str
    #: The pure generic builder spec the personality compiled to.
    spec: Dict
    #: Task name -> validated original API op list (``personality_ops``).
    api_ops: Dict[str, List] = field(default_factory=dict)
    #: The resolved personality configuration (defaults applied).
    config: Dict = field(default_factory=dict)


class LowerContext:
    """Per-task lowering state: the task, the declared objects and the
    implicit per-task events its ops reference."""

    def __init__(self, personality: "Personality", task: str,
                 kinds: Dict[str, str], implicit: Set[Any]) -> None:
        self.task = task
        self.kinds = kinds
        self.implicit = implicit
        self.handlers = personality.ops
        self.label = personality.label
        self.suffix = personality.implicit_suffix

    def lower_ops(self, ops: List, where: str) -> List:
        lowered = []
        for index, op in enumerate(ops):
            if not isinstance(op, (list, tuple)) or not op or \
                    not isinstance(op[0], str):
                raise BuildError(
                    f"{where}: op #{index} must be [name, args...], "
                    f"got {op!r}"
                )
            lowered.append(self.lower_op(list(op), f"{where} op #{index}"))
        return lowered

    def lower_op(self, op: List, where: str) -> List:
        name, args = op[0], op[1:]
        handler = self.handlers.get(name)
        if handler is None:
            raise BuildError(
                f"{where}: unknown {self.label} op {name!r}; accepted ops: "
                f"{sorted(self.handlers)}"
            )
        return handler(self, args, where)

    # -- helpers for the op handlers -----------------------------------
    def arity(self, args: List, where: str, low: int, high: int,
              usage: str) -> None:
        if not low <= len(args) <= high:
            raise BuildError(f"{where}: usage {usage}")

    def object(self, ref: Any, where: str,
               accepted: Tuple[str, ...]) -> str:
        """The kind of the declared object ``ref``, one of ``accepted``."""
        kind = self.kinds.get(ref)
        if kind is None:
            raise BuildError(
                f"{where}: unknown object {ref!r}; objects: "
                f"{sorted(self.kinds)}"
            )
        if kind not in accepted:
            raise BuildError(
                f"{where}: {ref!r} is a {kind}, expected one of "
                f"{sorted(accepted)}"
            )
        return kind

    def event(self, task: Any) -> str:
        """The implicit counter event of ``task`` (checked to be a task
        once every task is lowered)."""
        self.implicit.add(task)
        return f"{task}.{self.suffix}"

    @staticmethod
    def with_timeout(base: List, timeout: Any) -> List:
        timeout = parse_timeout_spec(timeout)
        if timeout is None:
            return base
        return base + [timeout]

    # -- the ops every personality passes through ----------------------
    def execute(self, args: List, where: str) -> List:
        self.arity(args, where, 1, 1, "[execute, duration]")
        return ["execute", args[0]]

    def loop(self, args: List, where: str) -> List:
        self.arity(args, where, 2, 2, "[loop, n_or_null, body]")
        if not isinstance(args[1], list):
            raise BuildError(f"{where}: loop body must be a list of ops")
        return ["loop", args[0], self.lower_ops(args[1], where)]


#: An API op lowering: ``handler(context, args, where)`` -> generic op.
Handler = Callable[[LowerContext, List, str], List]


class Personality:
    """One registered kernel personality.

    Subclasses fill in the class-level tables and override the hooks
    (``_config``, ``_processor``, ``_object_relation`` and, where the
    kernel's priority convention differs, ``_priority``); the shared
    :meth:`lower` driver does the rest.
    """

    #: Registry key and ``"personality"`` spec value.
    name = "abstract"
    #: Kernel name used in op error messages.
    label = "abstract"
    #: One-line catalogue description.
    description = ""
    #: Accepted ``"config"`` keys.
    config_keys: Sequence[str] = ()
    #: Object kind -> the keys an object of that kind accepts.
    object_keys: Mapping[str, Sequence[str]] = {}
    #: Task entry keys copied verbatim onto the generic function entry.
    task_passthrough: Sequence[str] = ()
    #: API op name -> its lowering.
    ops: Mapping[str, Handler] = {}
    #: Implicit per-task counter event ``{task}.{implicit_suffix}``, and
    #: what the kernel calls it (for the not-a-task error).
    implicit_suffix = ""
    implicit_noun = ""
    #: API ops that may block the caller (RTS170 in ISR tasks).
    blocking_ops: AbstractSet[str] = frozenset()
    #: API ops whose trailing zero timeout polls (RTS171 in loops).
    pollable_ops: AbstractSet[str] = frozenset()

    @property
    def api_ops(self) -> Tuple[str, ...]:
        """API-level script op names this personality understands."""
        return tuple(self.ops)

    @property
    def object_kinds(self) -> Tuple[str, ...]:
        """Kernel object kinds this personality's ``"objects"`` list takes."""
        return tuple(self.object_keys)

    # ------------------------------------------------------------------
    def lower(self, spec: Dict) -> Lowering:
        """Compile a personality spec into a :class:`Lowering`."""
        check_keys(f"{self.name} spec", spec, _TOP_KEYS)
        config = dict(spec.get("config") or {})
        check_keys(f"{self.name} config", config, self.config_keys)
        config = self._config(config)
        kinds, relations = self._objects(spec.get("objects") or [])
        tasks = spec.get("tasks") or []
        if not isinstance(tasks, list):
            raise BuildError(f"{self.name} spec: tasks must be a list")
        task_names = [
            entry_name(f"{self.name} task", t) for t in tasks
            if isinstance(t, dict)
        ]
        implicit: Set[Any] = set()
        functions: List[Dict] = []
        api_ops: Dict[str, List] = {}
        for entry in tasks:
            if not isinstance(entry, dict):
                raise BuildError(
                    f"{self.name} spec: each task is a dict, got {entry!r}"
                )
            fn = self._task(entry, config, kinds, implicit)
            api_ops[fn["name"]] = entry.get("script") or []
            functions.append(fn)
        # The implicit events become per-task counter events (pending
        # signals accumulate), appended in sorted order after the
        # declared objects.
        for task in sorted(implicit):
            if task not in task_names:
                raise BuildError(
                    f"{self.name} spec: {self.implicit_noun} target "
                    f"{task!r} is not a task; tasks: {sorted(task_names)}"
                )
            relations.append({
                "kind": "event", "name": f"{task}.{self.implicit_suffix}",
                "policy": "counter",
            })
        generic = {
            "name": spec.get("name", self.name),
            "relations": relations,
            "processors": [self._processor(config)],
            "functions": functions,
        }
        if "lint_suppress" in spec:
            generic["lint_suppress"] = spec["lint_suppress"]
        return Lowering(self.name, generic, api_ops, config)

    def _objects(self, objects: List) -> Tuple[Dict[str, str], List[Dict]]:
        kinds: Dict[str, str] = {}
        relations: List[Dict] = []
        for entry in objects:
            if not isinstance(entry, dict):
                raise BuildError(
                    f"{self.name} spec: each object is a dict, got {entry!r}"
                )
            kind = entry.get("kind")
            if kind not in self.object_keys:
                raise BuildError(
                    f"{self.name} object: unknown kind {kind!r}; "
                    f"pick one of {sorted(self.object_keys)}"
                )
            where = f"{self.name} {kind}"
            check_keys(where, entry, self.object_keys[kind])
            name = entry_name(where, entry)
            if name in kinds:
                raise BuildError(f"{self.name} spec: duplicate object name "
                                 f"{name!r}")
            kinds[name] = kind
            relations.append(self._object_relation(kind, name, entry))
        return kinds, relations

    def _task(self, entry: Dict, config: Dict, kinds: Dict[str, str],
              implicit: Set[Any]) -> Dict:
        name = entry_name(f"{self.name} task", entry)
        where = f"{self.name} task {name!r}"
        check_keys(where, entry, _TASK_KEYS)
        isr = bool(entry.get("isr", False))
        script = entry.get("script")
        if not isinstance(script, list):
            raise BuildError(f"{where}: needs a script (list of ops)")
        priority = self._priority(entry, where)
        ctx = LowerContext(self, name, kinds, implicit)
        fn: Dict = {"name": name, "script": ctx.lower_ops(script, where),
                    **priority}
        if not isr:
            # ISR "tasks" stay unmapped: they model interrupt sources
            # running in hardware context, outside the scheduler.
            fn["processor"] = config["processor"]
        for key in self.task_passthrough:
            if key in entry:
                fn[key] = entry[key]
        return fn

    # -- hooks ---------------------------------------------------------
    def _config(self, config: Dict) -> Dict:
        """The resolved configuration (keys already checked); it must
        name the ``processor`` and its ``engine``."""
        raise NotImplementedError

    def _processor(self, config: Dict) -> Dict:
        """The generic processor entry for the resolved ``config``."""
        raise NotImplementedError

    def _object_relation(self, kind: str, name: str, entry: Dict) -> Dict:
        """The generic relation of one declared object."""
        raise NotImplementedError

    def _priority(self, entry: Dict, where: str) -> Dict:
        """Generic function fields placed right after the script; by
        default none (a ``priority`` in ``task_passthrough`` is copied
        as written)."""
        return {}


def check_keys(where: str, entry: Dict, accepted: Sequence[str]) -> None:
    """Hard-reject unknown keys, teaching the accepted vocabulary."""
    unknown = set(entry) - set(accepted)
    if unknown:
        raise BuildError(
            f"{where}: unknown keys {sorted(unknown)}; "
            f"accepted keys: {sorted(accepted)}"
        )


def entry_name(where: str, entry: Dict) -> str:
    """Pop and validate the mandatory ``name`` of a spec entry."""
    name = entry.get("name")
    if not name or not isinstance(name, str):
        raise BuildError(f"{where}: entry needs a name: {entry!r}")
    return name


def parse_timeout_spec(value: Any) -> Optional[Any]:
    """Normalize an API timeout: ``None``/aliases block forever.

    Returns ``None`` (wait forever), ``0`` for the poll constant
    ``TMO_POL``, or the raw duration value (the generic builder parses
    and validates it).
    """
    if value is None or value in ("forever", "portMAX_DELAY", "TMO_FEVR"):
        return None
    if value == "TMO_POL":
        return 0
    return value


def copy_overheads(config: Dict, target: Dict) -> Dict:
    """Copy the overhead durations set in ``config`` onto ``target``."""
    for key in OVERHEAD_KEYS:
        if key in config:
            target[key] = config[key]
    return target


__all__ = [
    "Handler",
    "LowerContext",
    "Lowering",
    "OVERHEAD_KEYS",
    "Personality",
    "check_keys",
    "copy_overheads",
    "entry_name",
    "parse_timeout_spec",
]
