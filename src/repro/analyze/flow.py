"""Path-sensitive behavior-flow analysis over the effect IR.

This replaces the old textual-order lock walker: every task behavior is
lowered (:mod:`repro.analyze.effects`) into a control-flow tree whose
leaves are kernel-visible effects, and an abstract interpreter runs a
*lock-set* domain over it -- the analysis state is the set of lock-set
valuations reachable at a program point, so branches, loops (to a
fixpoint) and early exits are tracked exactly instead of being smeared
into one linear order.

Rules (catalogued in ``docs/analysis.md``):

=========  ================================================================
RTS160     branch arms join with different lock states
RTS161     lock still held on an exit path (leak)
RTS162     lock acquired while already held (self-deadlock)
RTS163     blocking wait/read while holding a lock
RTS164     declared wcet below the statically inferred execute demand
RTS165     static cross-task write-write race on a shared container
RTS166     unbounded waiter on a statically bounded signal supply
=========  ================================================================

Severity discipline: a rule only claims ERROR when the extraction is
*exact* (see :class:`~repro.analyze.effects.TaskEffects`) and the claim
is a proof, otherwise it degrades to WARNING.  Every ERROR here is
expected to be witnessable by :mod:`repro.verify` (see
``repro.verify.witness``); the corpus pipeline keeps per-rule accounting
of how often that succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

from ..mcse.events import EventRelation
from ..mcse.shared import SharedVariable
from .diagnostics import Report, Severity, rule
from .effects import (
    Branch,
    Effect,
    Exit,
    Loop,
    Node,
    Seq,
    TaskEffects,
    cost_interval,
    count_interval,
    provably_terminating,
    task_effects,
)
from .lockgraph import TaskLockUsage

RTS160 = rule(
    "RTS160", "branch arms join with different lock states",
    explain="An if/else (or a conditionally-skipped statement) leaves a "
            "different set of shared variables held depending on which arm "
            "ran. Code after the join then runs with an unpredictable lock "
            "state: one path may double-acquire or leak where the other is "
            "fine. Restructure so every arm releases what it acquires, or "
            "hoist the acquisition above the branch.",
)
RTS161 = rule(
    "RTS161", "lock still held on an exit path",
    explain="Some path through the behavior reaches the end of the job (or "
            "an explicit return) with a shared variable still locked. The "
            "owner never releases it, so any other task that locks the same "
            "variable blocks forever once that path runs -- ERROR when such "
            "a victim exists, WARNING otherwise. Release on every path "
            "(including early returns).",
)
RTS162 = rule(
    "RTS162", "lock acquired while already held (self-deadlock)",
    explain="A path re-locks a shared variable the task already holds. The "
            "kernel's try_lock blocks while an owner exists, including the "
            "caller itself, so the task deadlocks against itself the first "
            "time the path executes. Typical cause: a lock inside a loop "
            "with the unlock outside, or a branch that skips the unlock.",
)
RTS163 = rule(
    "RTS163", "blocking wait/read while holding a lock",
    explain="The task blocks on an event wait (or an empty-queue read) while "
            "holding a shared variable. The lock stays held for the whole "
            "(unbounded) blocking time, inflating every other user's "
            "blocking term and inviting deadlock if the signaler needs the "
            "same lock. Release before blocking, or signal first.",
)
RTS164 = rule(
    "RTS164", "declared wcet below statically inferred execute demand",
    explain="The function declares a wcet smaller than the guaranteed "
            "lower bound of compute its own body requests per job (the sum "
            "of execute durations on the cheapest path). Schedulability "
            "analysis (RTS103/RTS105, RTA) then reasons from an impossible "
            "budget and may certify an unschedulable system. Raise the "
            "declared wcet to at least the static demand, or cut the body.",
)
RTS165 = rule(
    "RTS165", "static write-write race on a closure-shared container",
    explain="Two tasks that can run concurrently (different cores of a "
            "global/clustered domain, or distinct partitioned cores -- "
            "affinity and domain topology are taken into account) both "
            "mutate the same closure-captured Python container with no "
            "common lock held around the writes. This is the compile-time "
            "counterpart of the SAN303 runtime race sanitizer. Guard the "
            "container with one SharedVariable locked at every write, or "
            "pin both tasks to one core.",
)
RTS166 = rule(
    "RTS166", "unbounded waiter on a statically bounded signal supply",
    explain="A task provably waits on an event infinitely often, but the "
            "total number of signals of that event across the whole system "
            "is statically finite. After the supply is exhausted the waiter "
            "blocks forever -- a starvation deadlock. ERROR when every "
            "other task provably terminates (so nothing can unblock it), "
            "WARNING when some non-terminating task might still signal "
            "through a path the analysis cannot bound.",
)


@dataclass
class TaskFlow:
    """Everything flow analysis learned about one function."""

    function: Any
    effects: Optional[TaskEffects]
    usage: TaskLockUsage
    #: ``fn.lock_order`` was declared: nesting facts come from it, and
    #: path findings are not claimed against the (overridden) body.
    declared: bool = False
    #: (variable, line) pairs where a held lock is re-acquired.
    double_acquires: List[Tuple[str, Optional[int]]] = field(
        default_factory=list)
    #: (held variables, exit kind, line) for paths ending while holding.
    exit_held: List[Tuple[Tuple[str, ...], str, Optional[int]]] = field(
        default_factory=list)
    #: (relation, kind, held variables, line) blocking-while-holding.
    wait_holding: List[Tuple[str, str, Tuple[str, ...], Optional[int]]] = \
        field(default_factory=list)
    #: (line, lock-state summaries) at branch joins that disagree.
    divergences: List[Tuple[Optional[int], Tuple[str, ...]]] = field(
        default_factory=list)
    #: container variable -> locks held at *every* write to it.
    writes: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: Every ``(kind, target)`` pair among the tree's effects.
    keys: FrozenSet[Tuple[str, Optional[str]]] = frozenset()

    @property
    def exact(self) -> bool:
        return (self.effects is not None and self.effects.exact
                and not self.declared)


LockState = FrozenSet[str]
_EMPTY: LockState = frozenset()

#: Cap on tracked lock-set valuations per point; beyond it the analysis
#: collapses to the union state (sound for leak/holding queries).
_MAX_STATES = 64


class _Outcome:
    """Lock states flowing out of a node, split by how control left it."""

    __slots__ = ("normal", "brk", "cont", "ret")

    def __init__(self,
                 normal: Set[LockState],
                 brk: Optional[Set[LockState]] = None,
                 cont: Optional[Set[LockState]] = None,
                 ret: Optional[Set[LockState]] = None) -> None:
        self.normal = normal
        self.brk = brk or set()
        self.cont = cont or set()
        self.ret = ret or set()


class _LockInterpreter:
    """Abstract interpretation of one effect tree in the lock-set domain."""

    def __init__(self, flow: TaskFlow, shared_vars: Set[str]) -> None:
        self.flow = flow
        self.shared = shared_vars
        self._nested_seen: Set[Tuple[str, str]] = set()
        self._double_seen: Set[Tuple[str, Optional[int]]] = set()
        self._wait_seen: Set[Tuple[str, str, Tuple[str, ...]]] = set()
        self._exit_seen: Set[Tuple[Tuple[str, ...], str]] = set()
        self._diverge_seen: Set[Optional[int]] = set()

    def run(self, root: Node) -> None:
        outcome = self._node(root, {_EMPTY})
        for states, kind in ((outcome.normal, "end of behavior"),
                             (outcome.ret, "return")):
            for state in states:
                if state:
                    self._record_exit(state, kind, None)

    # ------------------------------------------------------------------
    def _node(self, node: Node, states: Set[LockState]) -> _Outcome:
        if isinstance(node, Effect):
            return _Outcome(self._effect(node, states))
        if isinstance(node, Seq):
            return self._seq(node, states)
        if isinstance(node, Branch):
            return self._branch(node, states)
        if isinstance(node, Loop):
            return self._loop(node, states)
        if isinstance(node, Exit):
            if node.kind == "return":
                for state in states:
                    if state:
                        self._record_exit(state, "return", node.line)
                return _Outcome(set(), ret=set(states))
            if node.kind == "break":
                return _Outcome(set(), brk=set(states))
            return _Outcome(set(), cont=set(states))
        raise TypeError(f"not an effect node: {node!r}")

    def _seq(self, node: Seq, states: Set[LockState]) -> _Outcome:
        normal = set(states)
        brk: Set[LockState] = set()
        cont: Set[LockState] = set()
        ret: Set[LockState] = set()
        for item in node.items:
            if not normal:
                break
            if isinstance(item, Effect):
                normal = self._effect(item, normal)  # never exits
                continue
            out = self._node(item, normal)
            normal = out.normal
            brk |= out.brk
            cont |= out.cont
            ret |= out.ret
        return _Outcome(normal, brk, cont, ret)

    def _branch(self, node: Branch, states: Set[LockState]) -> _Outcome:
        arm_outs: List[Set[LockState]] = []
        brk: Set[LockState] = set()
        cont: Set[LockState] = set()
        ret: Set[LockState] = set()
        for arm in node.arms:
            out = self._node(arm, states)
            arm_outs.append(out.normal)
            brk |= out.brk
            cont |= out.cont
            ret |= out.ret
        live = [out for out in arm_outs if out]
        if len(live) > 1 and any(out != live[0] for out in live[1:]):
            self._record_divergence(node.line, live)
        merged: Set[LockState] = set()
        for out in arm_outs:
            merged |= out
        return _Outcome(self._widen(merged), brk, cont, ret)

    def _loop(self, node: Loop, states: Set[LockState]) -> _Outcome:
        current = set(states)
        brk: Set[LockState] = set()
        ret: Set[LockState] = set()
        # Fixpoint over iteration entry states: per-iteration lock drift
        # (the classic lock-inside/unlock-outside bug) shows up as a
        # growing state set and is reported by the effect handlers.
        for _ in range(_MAX_STATES):
            out = self._node(node.body, current)
            ret |= out.ret
            brk |= out.brk
            grown = current | out.normal | out.cont
            grown = self._widen(grown)
            if grown == current:
                break
            current = grown
        if node.infinite:
            normal = brk  # only a break leaves an infinite loop forward
        else:
            normal = current | brk
        return _Outcome(self._widen(normal), set(), set(), ret)

    def _widen(self, states: Set[LockState]) -> Set[LockState]:
        if len(states) <= _MAX_STATES:
            return states
        union: Set[str] = set()
        for state in states:
            union |= state
        return {frozenset(union)}

    # ------------------------------------------------------------------
    def _effect(self, effect: Effect,
                states: Set[LockState]) -> Set[LockState]:
        kind = effect.kind
        target = effect.target
        usage = self.flow.usage
        if kind == "lock" and target is not None:
            out: Set[LockState] = set()
            usage.acquires.add(target)
            for state in states:
                if target in state:
                    self._record_double(target, effect.line)
                    out.add(state)
                    continue
                for held in state:
                    self._record_nested(held, target)
                out.add(state | {target})
            return out
        if kind == "unlock" and target is not None:
            return {state - {target} for state in states}
        if kind in ("shared_read", "shared_write") and target is not None:
            # convenience ops: acquire + act + release, never held across
            usage.acquires.add(target)
            for state in states:
                if target in state:
                    self._record_double(target, effect.line)
                for held in state:
                    self._record_nested(held, target)
            return states
        if kind in ("wait", "read"):
            for state in states:
                if state:
                    self._record_wait(target or "?", kind, state,
                                      effect.line)
            return states
        if kind == "obj_write" and target is not None:
            must_hold: FrozenSet[str] = (
                frozenset.intersection(*states) if states else _EMPTY
            )
            previous = self.flow.writes.get(target)
            self.flow.writes[target] = (
                must_hold if previous is None else previous & must_hold
            )
            return states
        return states

    # ------------------------------------------------------------------
    def _record_nested(self, held: str, acquired: str) -> None:
        if held == acquired:
            return
        if held not in self.shared or acquired not in self.shared:
            return
        key = (held, acquired)
        if key not in self._nested_seen:
            self._nested_seen.add(key)
            self.flow.usage.nested.append(key)

    def _record_double(self, target: str, line: Optional[int]) -> None:
        key = (target, line)
        if key not in self._double_seen:
            self._double_seen.add(key)
            self.flow.double_acquires.append(key)

    def _record_wait(self, target: str, kind: str, state: LockState,
                     line: Optional[int]) -> None:
        held = tuple(sorted(state))
        key = (target, kind, held)
        if key not in self._wait_seen:
            self._wait_seen.add(key)
            self.flow.wait_holding.append((target, kind, held, line))

    def _record_exit(self, state: LockState, kind: str,
                     line: Optional[int]) -> None:
        held = tuple(sorted(state))
        key = (held, kind)
        if key not in self._exit_seen:
            self._exit_seen.add(key)
            self.flow.exit_held.append((held, kind, line))

    def _record_divergence(self, line: Optional[int],
                           arm_outs: List[Set[LockState]]) -> None:
        if line in self._diverge_seen:
            return
        self._diverge_seen.add(line)
        summaries = sorted(
            "{" + ", ".join(sorted(
                frozenset.union(*out) if out else _EMPTY)) + "}"
            for out in arm_outs
        )
        self.flow.divergences.append((line, tuple(summaries)))


# ---------------------------------------------------------------------------
# Per-function analysis
# ---------------------------------------------------------------------------
def analyze_task(fn: Any, shared_vars: Optional[Set[str]] = None) -> TaskFlow:
    """Run flow analysis over one function's behavior."""
    usage = TaskLockUsage(fn)
    effects = task_effects(fn)
    keys = _effect_keys(effects.root) if effects is not None else frozenset()
    declared = getattr(fn, "lock_order", None)
    if declared:
        chain = list(declared)
        usage.acquires.update(chain)
        for index, acquired in enumerate(chain[1:], start=1):
            for holding in chain[:index]:
                usage.nested.append((holding, acquired))
        return TaskFlow(function=fn, effects=effects, usage=usage,
                        declared=True, keys=keys)
    flow = TaskFlow(function=fn, effects=effects, usage=usage, keys=keys)
    if effects is not None:
        shared = shared_vars if shared_vars is not None else {
            target for kind, target in keys if target and kind in (
                "lock", "unlock", "shared_read", "shared_write")
        }
        _LockInterpreter(flow, shared).run(effects.root)
    return flow


def _effect_keys(root: Node) -> FrozenSet[Tuple[str, Optional[str]]]:
    """The ``(kind, target)`` pairs of every effect in the tree."""
    keys: Set[Tuple[str, Optional[str]]] = set()
    stack: List[Node] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Effect):
            keys.add((node.kind, node.target))
        elif isinstance(node, Seq):
            stack.extend(node.items)
        elif isinstance(node, Branch):
            stack.extend(node.arms)
        elif isinstance(node, Loop):
            stack.append(node.body)
    return frozenset(keys)


def analyze_flows(system: Any) -> Dict[str, TaskFlow]:
    """Flow-analyze every function of a built system."""
    shared = {
        name for name, relation in system.relations.items()
        if isinstance(relation, SharedVariable)
    }
    return {
        name: analyze_task(fn, shared)
        for name, fn in system.functions.items()
    }


# ---------------------------------------------------------------------------
# System-level rules
# ---------------------------------------------------------------------------
def check_flow(report: Report, system: Any,
               flows: Dict[str, TaskFlow]) -> None:
    """Report every RTS16x finding of ``flows`` into ``report``."""
    acquirers: Dict[str, Set[str]] = {}
    for name, flow in flows.items():
        for shared in flow.usage.acquires:
            acquirers.setdefault(shared, set()).add(name)
    for name in sorted(flows):
        flow = flows[name]
        _check_paths(report, name, flow, acquirers)
        _check_wcet(report, name, flow)
    _check_races(report, system, flows)
    _check_starvation(report, system, flows)


def _emit(report: Report, flow: TaskFlow, rule_id: str, severity: Severity,
          location: str, message: str, hint: Optional[str],
          line: Optional[int]) -> None:
    """``report.add`` honouring ``# pyrtos: disable=`` behavior pragmas."""
    effects = flow.effects
    if effects is not None and effects.suppresses(rule_id, line):
        diagnostic = report.add(rule_id, severity, location, message, hint,
                                line)
        if diagnostic is not None:
            report.diagnostics.remove(diagnostic)
            report.suppressed.append(diagnostic)
        return
    report.add(rule_id, severity, location, message, hint, line)


def _check_paths(report: Report, name: str, flow: TaskFlow,
                 acquirers: Dict[str, Set[str]]) -> None:
    location = f"function {name}"
    for line, summaries in flow.divergences:
        _emit(
            report, flow, RTS160, report.WARNING, location,
            "branch arms join with different lock states: "
            + " vs ".join(summaries),
            "release in every arm, or acquire before the branch",
            line,
        )
    for target, line in flow.double_acquires:
        severity = report.ERROR if flow.exact else report.WARNING
        _emit(
            report, flow, RTS162, severity, location,
            f"acquires shared {target!r} on a path where it is already "
            "held; lock() blocks while owned, so the task deadlocks "
            "against itself",
            "release before re-acquiring, or restructure the loop so "
            "lock/unlock pair up on every iteration",
            line,
        )
    for held, kind, line in flow.exit_held:
        victims = sorted(
            other
            for shared in held
            for other in acquirers.get(shared, ())
            if other != name
        )
        severity = (
            report.ERROR if flow.exact and victims else report.WARNING
        )
        held_text = ", ".join(repr(h) for h in held)
        message = (
            f"path reaches {kind} still holding shared {held_text}; "
            "the lock is never released"
        )
        if victims:
            message += (
                f" and task(s) {', '.join(dict.fromkeys(victims))} "
                "block forever on the next acquire"
            )
        _emit(
            report, flow, RTS161, severity, location, message,
            "unlock on every exit path (including early returns)",
            line,
        )
    for target, kind, held, line in flow.wait_holding:
        held_text = ", ".join(repr(h) for h in held)
        verb = "waits on event" if kind == "wait" else "reads relation"
        _emit(
            report, flow, RTS163, report.WARNING, location,
            f"{verb} {target!r} while holding shared {held_text}; the "
            "lock stays held for the whole blocking time",
            "release the lock before blocking",
            line,
        )


def _job_body(root: Seq) -> Optional[Node]:
    """The per-job effect subtree for demand inference.

    Periodic shapes are ``Seq([setup..., Loop(infinite, body)])`` -- the
    loop body is one job.  A body with no unbounded loops is one job
    itself.  Anything else (unknown-bound loops) is not claimable.
    """
    loops = [item for item in root.items if isinstance(item, Loop)]
    if (len(loops) == 1 and loops[0].infinite
            and loops[0] is root.items[-1]
            and provably_terminating(Seq(root.items[:-1]))):
        return loops[0].body
    if provably_terminating(root):
        return root
    return None


def _check_wcet(report: Report, name: str, flow: TaskFlow) -> None:
    """RTS164: declared wcet below the static per-job demand floor."""
    fn = flow.function
    declared = getattr(fn, "wcet", None)
    if (isinstance(declared, bool) or not isinstance(declared, int)
            or flow.effects is None or flow.declared):
        return
    job = _job_body(flow.effects.root)
    if job is None:
        return
    demand_lo, demand_hi = cost_interval(job)
    if demand_lo is None or demand_lo <= 0 or declared >= demand_lo:
        return
    hi_text = "unbounded" if demand_hi is None else str(demand_hi)
    _emit(
        report, flow, RTS164, report.WARNING, f"function {name}",
        f"declared wcet {declared} is below the statically inferred "
        f"execute demand interval [{demand_lo}, {hi_text}] per job; "
        "schedulability analysis would reason from an impossible budget",
        f"declare wcet >= {demand_lo}, or reduce the job's execute time",
        None,
    )


# ---------------------------------------------------------------------------
# RTS165: static cross-task container races (SMP/affinity-aware)
# ---------------------------------------------------------------------------
def _cores(fn: Any) -> Optional[FrozenSet[str]]:
    """Core names ``fn`` may execute on, or ``None`` when unmapped."""
    task = getattr(fn, "task", None)
    if task is None:
        return None
    processor = task.processor
    domain = getattr(processor, "domain", None)
    if domain is None or domain.kind == "partitioned":
        cores = {processor.name}
    elif domain.kind == "clustered":
        cluster = getattr(domain, "_cluster_index", {}).get(
            processor.name, domain.members)
        cores = {member.name for member in cluster}
    else:
        cores = {member.name for member in domain.members}
    affinity = getattr(fn, "affinity", None)
    if affinity:
        cores &= set(affinity)
    return frozenset(cores)


def _can_overlap(cores_a: FrozenSet[str],
                 cores_b: FrozenSet[str]) -> bool:
    """Whether two placements admit truly parallel execution."""
    if not cores_a or not cores_b:
        return False  # nowhere to run at all (RTS152 reports that)
    if cores_a == cores_b and len(cores_a) == 1:
        return False  # serialized on one core: interleaved, not parallel
    return True


def _check_races(report: Report, system: Any,
                 flows: Dict[str, TaskFlow]) -> None:
    by_object: Dict[int, List[Tuple[str, str, FrozenSet[str]]]] = {}
    for name in sorted(flows):
        flow = flows[name]
        effects = flow.effects
        if effects is None or not flow.exact:
            continue
        for varname, must_hold in flow.writes.items():
            obj_id = effects.objects.get(varname)
            if obj_id is None:
                continue
            by_object.setdefault(obj_id, []).append(
                (name, varname, must_hold))
    for writers in by_object.values():
        names = sorted({name for name, _, _ in writers})
        if len(names) < 2:
            continue
        varname = writers[0][1]
        placements = {name: _cores(flows[name].function) for name in names}
        parallel_pairs = [
            (a, b)
            for index, a in enumerate(names)
            for b in names[index + 1:]
            if placements[a] is not None and placements[b] is not None
            and _can_overlap(placements[a], placements[b])
        ]
        if not parallel_pairs:
            continue
        common = frozenset.intersection(
            *(must_hold for _, _, must_hold in writers))
        if common:
            continue  # every write site holds a shared lock in common
        pair_text = ", ".join(f"{a}/{b}" for a, b in parallel_pairs)
        flow = flows[names[0]]
        _emit(
            report, flow, RTS165, report.ERROR,
            f"object {varname!r}",
            f"tasks {', '.join(names)} all mutate the closure-shared "
            f"container {varname!r} with no common lock held, and the "
            f"pair(s) {pair_text} can run on different cores "
            "concurrently: a write-write race is reachable (runtime "
            "counterpart: SAN303)",
            "hold one SharedVariable around every mutation, or pin the "
            "tasks to a single core",
            None,
        )


# ---------------------------------------------------------------------------
# RTS166: starvation deadlock on a bounded signal supply
# ---------------------------------------------------------------------------
def _check_starvation(report: Report, system: Any,
                      flows: Dict[str, TaskFlow]) -> None:
    effect_roots: Dict[str, Node] = {}
    for name, flow in flows.items():
        effects = flow.effects
        if effects is None or not effects.exact:
            return  # one opaque function may signal anything: stay silent
        effect_roots[name] = effects.root

    events = {
        name: relation
        for name, relation in system.relations.items()
        if isinstance(relation, EventRelation)
    }
    # A tree with no (kind, event) effect folds to exactly (0, 0), so
    # only trees whose key summary names the event are folded.
    starved: Dict[str, Tuple[List[str], int]] = {}
    starved_waiters: Set[str] = set()
    for event_name in sorted(events):
        supply_hi: Optional[int] = events[event_name].pending()
        signal = ("signal", event_name)
        for name, root in effect_roots.items():
            if signal not in flows[name].keys:
                continue
            _, signals_hi = count_interval(root, "signal", event_name)
            if signals_hi is None:
                supply_hi = None
                break
            assert supply_hi is not None
            supply_hi += signals_hi
        if supply_hi is None:
            continue
        wait = ("wait", event_name)
        waiters = [
            name for name, root in sorted(effect_roots.items())
            if wait in flows[name].keys
            and count_interval(root, "wait", event_name)[0] is None
        ]
        if not waiters:
            continue
        starved[event_name] = (waiters, supply_hi)
        starved_waiters.update(waiters)

    if not starved:
        return
    # ERROR only when nothing can run forever except the starved waiters
    # themselves: then the system provably quiesces with them blocked.
    quiesces = all(
        name in starved_waiters or provably_terminating(root)
        for name, root in effect_roots.items()
    )
    for event_name in sorted(starved):
        waiters, supply_hi = starved[event_name]
        severity = Severity.ERROR if quiesces else Severity.WARNING
        for waiter in waiters:
            _emit(
                report, flows[waiter], RTS166, severity,
                f"function {waiter}",
                f"waits on event {event_name!r} unboundedly often, but "
                f"the whole system signals it at most {supply_hi} "
                "time(s): the task blocks forever once the supply is "
                "exhausted",
                "signal the event from a recurring task, or bound the "
                "waiter's loop",
                None,
            )


__all__ = [
    "TaskFlow",
    "analyze_flows",
    "analyze_task",
    "check_flow",
]
