"""Blocking-aware schedulability: critical sections, blocking terms, RTA.

The RTS103/104/105 rules run the classical feasibility math with zero
blocking terms, yet the effect IR (:mod:`repro.analyze.effects`) already
knows every lock's worst-case hold time.  This module closes that gap:

1. **Critical-section extraction** -- a structural walk over each task's
   effect tree pairs ``lock``/``unlock`` per shared variable and folds
   the execute/delay cost accrued in between into a worst-case *hold*
   per (task, resource), exactness-tracked (loop bounds, branches and
   blocking-while-holding all degrade the claim honestly).
2. **Blocking terms** -- per task, the classical worst-case blocking
   bound under the resource-access protocol actually configured:
   priority inheritance (PIP min-of-two-sums), immediate priority
   ceiling (single longest lower-priority section at or above the
   ceiling), plain mutexes (PIP-shaped bound, never exact: inversion is
   unbounded without a protocol) and cross-processor sharing (sum of
   remote holds, never exact).
3. **Blocking-aware RTA** -- the overhead-aware response-time recurrence
   of :mod:`repro.analyze.response_time` re-run with the blocking term
   charged, refining the zero-blocking verdicts.

Rules (catalogued in ``docs/analysis.md``):

=========  ================================================================
RTS180     task unschedulable once worst-case blocking is charged
RTS181     declared ceiling differs from the computed PCP ceiling
RTS183     worst-case blocking exceeds the declared ``max_blocking``
=========  ================================================================

Severity discipline: RTS180/RTS183 claim ERROR only when every
contributing critical-section interval is exact (script-lowered or
exactly-lowered behavior, bounded, no blocking op inside the section),
otherwise they degrade to WARNING.  RTS181 is a declared-metadata
mismatch and stays WARNING.  RTS180 ERRORs are witnessable as RTS-V002
deadline misses and RTS183 ERRORs as RTS-V004 inversion-bound
violations (see :mod:`repro.verify.witness`).

The companion :mod:`repro.analyze.assign` reuses :class:`BlockingModel`
to run Audsley's optimal priority assignment (RTS182) and the fix
engine (:mod:`repro.analyze.fixes`) reuses both to synthesize patches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..kernel.time import format_time
from ..mcse.shared import SharedVariable
from ..rtos.services import CeilingSharedVariable, InheritanceSharedVariable
from .diagnostics import Report, rule
from .effects import Branch, Effect, Exit, Loop, Node, Seq
from .flow import TaskFlow, _emit
from .response_time import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from .context import LintContext

RTS180 = rule(
    "RTS180", "task unschedulable once blocking is charged",
    explain="The zero-blocking response-time analysis (RTS105) accepts the "
            "task, but charging the worst-case blocking term implied by its "
            "shared-variable usage pushes the response time past the "
            "deadline. The blocking bound follows the configured protocol "
            "(priority inheritance, immediate ceiling, or a plain mutex) "
            "over the critical-section holds extracted from the effect IR. "
            "ERROR when every contributing hold interval is exact, WARNING "
            "otherwise. Shorten the critical sections, reassign priorities "
            "(see RTS182 / `pyrtos-sc lint --fix`), or relax the deadline.",
)
RTS181 = rule(
    "RTS181", "declared ceiling differs from the computed PCP ceiling",
    explain="A ceiling-protocol shared variable declares a ceiling that is "
            "not the priority-ceiling-protocol value computed from its "
            "actual users (the highest priority among tasks that lock it). "
            "A ceiling set too low cannot prevent inversion for the "
            "higher-priority users (RTS112 reports the unsound direction "
            "as an error); one set too high needlessly blocks unrelated "
            "tasks and inflates their blocking terms. Machine-fixable: "
            "`pyrtos-sc lint --fix` rewrites the declaration.",
)
RTS183 = rule(
    "RTS183", "worst-case blocking exceeds the declared max_blocking",
    explain="The function declares a `max_blocking` budget, but the "
            "worst-case blocking term computed from the system's critical "
            "sections exceeds it. ERROR when every contributing hold is "
            "exact (the budget is provably broken), WARNING otherwise. "
            "Dynamically cross-checked: `pyrtos-sc lint --witness` asks the "
            "verifier for an RTS-V004 schedule in which a task really is "
            "blocked behind a lower-priority owner for longer than the "
            "declared bound. Machine-fixable: `--fix` tightens the "
            "declaration to the computed bound.",
)

Bound = Optional[int]  # None = unbounded

#: Effect kinds that can suspend the caller for a data-dependent time;
#: one of these inside a critical section makes the hold unbounded.
_BLOCKING_KINDS = frozenset((
    "wait", "read", "write", "shared_read", "shared_write", "opaque",
))


def _badd(a: Bound, b: Bound) -> Bound:
    if a is None or b is None:
        return None
    return a + b


def _bmax(a: Bound, b: Bound) -> Bound:
    if a is None or b is None:
        return None
    return max(a, b)


def _bgt(a: Bound, b: int) -> bool:
    """``a > b`` with ``None`` as +infinity."""
    return a is None or a > b


def _longer(candidate: Bound, best: Bound) -> bool:
    """Whether ``candidate`` is a strictly longer hold than ``best``."""
    if best is None:
        return False
    return candidate is None or candidate > best


# ---------------------------------------------------------------------------
# Critical-section extraction
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CriticalSection:
    """Worst-case single hold of one resource by one task."""

    task: str
    resource: str
    #: Worst-case hold duration (``None`` = statically unbounded).
    hold: Bound
    #: The hold is a proof: exact lowering, bounded loops, no blocking
    #: op inside the section, lock/unlock balanced on every path.
    exact: bool


class _HoldWalk:
    """Fold one effect tree into the worst-case hold of one resource.

    The state is ``(depth, open)``: the lock nesting depth on the
    resource under analysis and the cost accrued since the outermost
    acquisition.  Execute cost is scaled by the task's processor speed
    (the same ``scale_duration`` the simulator charges); delays count at
    wall-clock value.  Anything the walk cannot bound -- blocking ops
    while holding, unbalanced paths, unbounded loops inside a section --
    collapses to an unbounded, inexact hold.
    """

    def __init__(self, resource: str, scale: Any) -> None:
        self.resource = resource
        self.scale = scale
        self.max_hold: Bound = 0
        self.exact = True

    def run(self, root: Node) -> Tuple[Bound, bool]:
        depth, open_cost = self._node(root, 0, 0)
        if depth != 0:
            # a leak/underflow path (RTS161/RTS162 territory): the
            # still-open section never provably closes
            self.exact = False
            self.max_hold = _bmax(self.max_hold, None)
        if self.max_hold is None:
            self.exact = False
        return self.max_hold, self.exact

    # ------------------------------------------------------------------
    def _node(self, node: Node, depth: int,
              open_cost: Bound) -> Tuple[int, Bound]:
        if isinstance(node, Effect):
            return self._effect(node, depth, open_cost)
        if isinstance(node, Seq):
            for item in node.items:
                depth, open_cost = self._node(item, depth, open_cost)
            return depth, open_cost
        if isinstance(node, Branch):
            results = [self._node(arm, depth, open_cost)
                       for arm in node.arms]
            depths = {d for d, _ in results}
            if len(depths) > 1:
                # arms disagree on the lock state (RTS160): no exact
                # hold claim survives the join
                self.exact = False
                self.max_hold = _bmax(self.max_hold, None)
                return max(depths), None
            out_depth = depths.pop()
            if out_depth == 0:
                return 0, 0
            merged: Bound = results[0][1]
            for _, cost in results[1:]:
                merged = _bmax(merged, cost)
            return out_depth, merged
        if isinstance(node, Loop):
            return self._loop(node, depth, open_cost)
        if isinstance(node, Exit):
            if depth > 0:
                # control leaves the structured region while holding
                self.exact = False
                self.max_hold = _bmax(self.max_hold, None)
            return depth, open_cost
        raise TypeError(f"not an effect node: {node!r}")

    def _loop(self, node: Loop, depth: int,
              open_cost: Bound) -> Tuple[int, Bound]:
        if depth > 0 and _touches(node.body, self.resource):
            # unlock/re-lock of the open section from inside the loop:
            # per-iteration pairing would need a relational analysis
            self.exact = False
            self.max_hold = _bmax(self.max_hold, None)
            return depth, None
        body_depth, body_open = self._node(node.body, depth, 0)
        if body_depth != depth:
            # per-iteration lock drift (lock inside / unlock outside)
            self.exact = False
            self.max_hold = _bmax(self.max_hold, None)
            return body_depth, None
        if depth == 0:
            # sections opened and closed inside one iteration already
            # contributed to max_hold; repetition cannot increase a max
            return 0, 0
        # the whole loop body accrues inside the open section
        if node.infinite or node.count is None:
            self.exact = False
            return depth, None
        if body_open is None:
            return depth, None
        return depth, _badd(open_cost, body_open * node.count)

    def _effect(self, effect: Effect, depth: int,
                open_cost: Bound) -> Tuple[int, Bound]:
        kind = effect.kind
        mine = effect.target == self.resource
        if kind == "lock":
            if mine:
                if depth > 0:
                    # double acquire: self-deadlock (RTS162); the hold
                    # duration is not a meaningful quantity any more
                    self.exact = False
                    return depth + 1, None
                return 1, 0
            if depth > 0:
                # blocking on another resource while holding this one:
                # the hold extends by that (statically unknown) wait
                self.exact = False
                return depth, None
            return depth, open_cost
        if kind == "unlock":
            if mine:
                if depth == 0:
                    self.exact = False  # underflow: unlock without lock
                    return 0, open_cost
                if depth == 1:
                    self.max_hold = _bmax(self.max_hold, open_cost)
                    return 0, 0
                return depth - 1, open_cost
            return depth, open_cost
        if kind in ("execute", "delay"):
            if depth == 0:
                return depth, open_cost
            if effect.cost is None:
                self.exact = False
                return depth, None
            hi: Bound = effect.cost[1]
            if kind == "execute" and hi is not None:
                hi = self.scale(hi)
            return depth, _badd(open_cost, hi)
        if kind in ("shared_read", "shared_write") and mine and depth == 0:
            # convenience op: acquire + copy + release, zero-length hold
            self.max_hold = _bmax(self.max_hold, 0)
            return depth, open_cost
        if kind in _BLOCKING_KINDS and depth > 0:
            self.exact = False
            return depth, None
        return depth, open_cost


def _touches(node: Node, resource: str) -> bool:
    """Whether the subtree locks or unlocks ``resource``."""
    stack: List[Node] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, Effect):
            if item.kind in ("lock", "unlock") and item.target == resource:
                return True
        elif isinstance(item, Seq):
            stack.extend(item.items)
        elif isinstance(item, Branch):
            stack.extend(item.arms)
        elif isinstance(item, Loop):
            stack.append(item.body)
    return False


def _scale_of(fn: Any) -> Any:
    task = getattr(fn, "task", None)
    scale = getattr(getattr(task, "processor", None), "scale_duration", None)
    return scale if scale is not None else (lambda duration: duration)


def critical_sections(
    system: Any, flows: Mapping[str, TaskFlow],
) -> Dict[Tuple[str, str], CriticalSection]:
    """Worst-case holds per (task, shared variable) across the system."""
    shared = {
        name for name, relation in system.relations.items()
        if isinstance(relation, SharedVariable)
    }
    sections: Dict[Tuple[str, str], CriticalSection] = {}
    for name in sorted(flows):
        flow = flows[name]
        resources = sorted(set(flow.usage.acquires) & shared)
        if not resources:
            continue
        effects = flow.effects
        scale = _scale_of(flow.function)
        for resource in resources:
            if effects is None or not flow.exact:
                sections[(name, resource)] = CriticalSection(
                    task=name, resource=resource, hold=None, exact=False)
                continue
            hold, exact = _HoldWalk(resource, scale).run(effects.root)
            sections[(name, resource)] = CriticalSection(
                task=name, resource=resource, hold=hold, exact=exact)
    return sections


# ---------------------------------------------------------------------------
# Blocking terms
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BlockingTerm:
    """Worst-case blocking charged to one task."""

    task: str
    #: Blocking duration (``None`` = statically unbounded).
    time: Bound
    #: All contributing holds exact and protocol-bounded.
    exact: bool
    #: (blocker task, resource, hold) triples behind the bound.
    contributors: Tuple[Tuple[str, str, Bound], ...] = ()


@dataclass(frozen=True)
class _Resource:
    name: str
    protocol: str  # "ceiling" | "inheritance" | "none"
    declared_ceiling: Optional[int]
    users: Tuple[str, ...]  # mapped task/function names that acquire it


class BlockingModel:
    """Everything blocking analysis knows about one built system.

    Priorities are passed per query (as ``{task: priority}``) so
    Audsley's assignment search (:mod:`repro.analyze.assign`) can probe
    hypothetical orderings against the same critical-section table.
    """

    def __init__(self, system: Any, flows: Mapping[str, TaskFlow]) -> None:
        self.system = system
        self.flows = flows
        self.sections = critical_sections(system, flows)
        self.cpu_of: Dict[str, str] = {}
        self.priorities: Dict[str, int] = {}
        for name, fn in system.functions.items():
            task = getattr(fn, "task", None)
            if task is None:
                continue
            self.cpu_of[name] = task.processor.name
            priority = task.base_priority
            if isinstance(priority, int) and not isinstance(priority, bool):
                self.priorities[name] = priority
        self.resources: Dict[str, _Resource] = {}
        for name, relation in sorted(system.relations.items()):
            if not isinstance(relation, SharedVariable):
                continue
            users = tuple(sorted(
                task for (task, resource) in self.sections
                if resource == name and task in self.priorities
            ))
            if isinstance(relation, CeilingSharedVariable):
                protocol = "ceiling"
                declared = getattr(relation, "ceiling", None)
            elif isinstance(relation, InheritanceSharedVariable):
                protocol = "inheritance"
                declared = None
            else:
                protocol = "none"
                declared = None
            self.resources[name] = _Resource(
                name=name, protocol=protocol, declared_ceiling=declared,
                users=users)

    # ------------------------------------------------------------------
    def computed_ceiling(
        self, resource: str,
        priorities: Optional[Mapping[str, int]] = None,
    ) -> Optional[int]:
        """The PCP ceiling: highest priority among the users, if any."""
        info = self.resources.get(resource)
        if info is None or not info.users:
            return None
        table = self.priorities if priorities is None else priorities
        values = [table[user] for user in info.users if user in table]
        return max(values) if values else None

    def effective_ceiling(self, resource: str) -> Optional[int]:
        """The ceiling the runtime actually enforces (declared wins)."""
        info = self.resources.get(resource)
        if info is None:
            return None
        if info.declared_ceiling is not None:
            return info.declared_ceiling
        return self.computed_ceiling(resource)

    # ------------------------------------------------------------------
    def blocking(
        self, task: str,
        priorities: Optional[Mapping[str, int]] = None,
    ) -> BlockingTerm:
        """Worst-case blocking of ``task`` under a priority assignment."""
        table = dict(self.priorities if priorities is None else priorities)
        mine = table.get(task)
        cpu = self.cpu_of.get(task)
        if mine is None or cpu is None:
            return BlockingTerm(task=task, time=0, exact=True)
        total: Bound = 0
        exact = True
        contributors: List[Tuple[str, str, Bound]] = []

        ceiling_part, c_exact, c_contrib = self._ceiling_part(
            task, mine, cpu, table)
        pip_part, p_exact, p_contrib = self._pip_part(
            task, mine, cpu, table, protocol="inheritance", exact_ok=True)
        plain_part, _, n_contrib = self._pip_part(
            task, mine, cpu, table, protocol="none", exact_ok=False)
        remote_part, r_contrib = self._remote_part(task, cpu)

        total = _badd(_badd(ceiling_part, pip_part),
                      _badd(plain_part, remote_part))
        exact = c_exact and p_exact
        if plain_part != 0:
            exact = False  # no protocol: inversion is unbounded
        if remote_part != 0:
            exact = False  # remote interleavings are not modelled exactly
        contributors = c_contrib + p_contrib + n_contrib + r_contrib
        if total is None:
            exact = False
        return BlockingTerm(task=task, time=total, exact=exact,
                            contributors=tuple(contributors))

    # ------------------------------------------------------------------
    def _local_users(self, resource: _Resource, cpu: str,
                     table: Mapping[str, int]) -> List[str]:
        return [user for user in resource.users
                if self.cpu_of.get(user) == cpu and user in table]

    def _ceiling_part(
        self, task: str, mine: int, cpu: str, table: Mapping[str, int],
    ) -> Tuple[Bound, bool, List[Tuple[str, str, Bound]]]:
        """ICPP: blocked at most once, by the longest lower-priority
        section of a resource whose runtime ceiling reaches ``mine``."""
        best: Bound = 0
        exact = True
        contributor: List[Tuple[str, str, Bound]] = []
        for name, resource in self.resources.items():
            if resource.protocol != "ceiling":
                continue
            ceiling = self.effective_ceiling(name)
            if ceiling is None or ceiling < mine:
                continue
            for user in self._local_users(resource, cpu, table):
                if user == task or table[user] >= mine:
                    continue
                section = self.sections[(user, name)]
                if not section.exact:
                    exact = False
                if _longer(section.hold, best):
                    best = section.hold
                    contributor = [(user, name, section.hold)]
        if best is None:
            exact = False
        if best == 0:
            contributor = []
        return best, exact, contributor

    def _pip_part(
        self, task: str, mine: int, cpu: str, table: Mapping[str, int],
        *, protocol: str, exact_ok: bool,
    ) -> Tuple[Bound, bool, List[Tuple[str, str, Bound]]]:
        """The classical PIP bound: min of the per-task and per-resource
        sums of maximal lower-priority sections that can block ``task``.

        For ``protocol="none"`` the same shape bounds the direct
        blocking, but the claim is never exact (a middle-priority task
        can extend the inversion without bound).
        """
        usable: List[_Resource] = []
        for name, resource in self.resources.items():
            if resource.protocol != protocol:
                continue
            local = self._local_users(resource, cpu, table)
            lower = [u for u in local if u != task and table[u] < mine]
            if not lower:
                continue
            if protocol == "none":
                # no inheritance: a lower-priority owner only delays a
                # task that itself wants the resource
                if task not in resource.users:
                    continue
            else:
                # inheritance: the owner is boosted only when a task at
                # or above ``mine`` (possibly ``task`` itself) wants it
                elevated = [u for u in local
                            if u == task or table[u] >= mine]
                if not elevated:
                    continue
            usable.append(resource)
        if not usable:
            return 0, True, []

        exact = exact_ok
        lower_tasks: Set[str] = set()
        for resource in usable:
            for user in self._local_users(resource, cpu, table):
                if user != task and table[user] < mine:
                    lower_tasks.add(user)

        # sum over lower-priority tasks of their longest usable section
        per_task: Bound = 0
        per_task_contrib: List[Tuple[str, str, Bound]] = []
        for user in sorted(lower_tasks):
            best: Bound = 0
            best_resource = None
            for resource in usable:
                section = self.sections.get((user, resource.name))
                if section is None:
                    continue
                if not section.exact:
                    exact = False
                if _longer(section.hold, best):
                    best = section.hold
                    best_resource = resource.name
            if best_resource is not None:
                per_task_contrib.append((user, best_resource, best))
            per_task = _badd(per_task, best)

        # sum over usable resources of their longest lower-priority section
        per_resource: Bound = 0
        per_resource_contrib: List[Tuple[str, str, Bound]] = []
        for resource in usable:
            best = 0
            best_user = None
            for user in sorted(lower_tasks):
                section = self.sections.get((user, resource.name))
                if section is None:
                    continue
                if _longer(section.hold, best):
                    best = section.hold
                    best_user = user
            if best_user is not None:
                per_resource_contrib.append((best_user, resource.name, best))
            per_resource = _badd(per_resource, best)

        if per_resource is None or (per_task is not None
                                    and per_task <= per_resource):
            bound, contrib = per_task, per_task_contrib
        else:
            bound, contrib = per_resource, per_resource_contrib
        if bound is None:
            exact = False
        if bound == 0:
            contrib = []
        return bound, exact, contrib

    def _remote_part(
        self, task: str, cpu: str,
    ) -> Tuple[Bound, List[Tuple[str, str, Bound]]]:
        """Cross-processor sharing: every remote user may hold once."""
        total: Bound = 0
        contrib: List[Tuple[str, str, Bound]] = []
        for name, resource in self.resources.items():
            if task not in resource.users:
                continue
            for user in resource.users:
                if user == task or self.cpu_of.get(user) == cpu:
                    continue
                section = self.sections[(user, name)]
                contrib.append((user, name, section.hold))
                total = _badd(total, section.hold)
        if total == 0:
            contrib = []
        return total, contrib


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------
_PRIORITY_POLICIES = ("priority_preemptive", "priority_round_robin")


def _analysis_domain(processor: Any) -> bool:
    domain = getattr(processor, "domain", None)
    return domain is None or domain.kind == "partitioned"


def _contributor_text(contributors: Sequence[Tuple[str, str, Bound]]) -> str:
    parts = []
    for user, resource, hold in contributors:
        hold_text = "unbounded" if hold is None else format_time(hold)
        parts.append(f"{user} via {resource} ({hold_text})")
    return ", ".join(parts)


def check_blocking(report: Report, context: LintContext) -> None:
    """Run the RTS180/181/183 rules over the lint context."""
    model = context.model
    assert model is not None
    _check_ceilings(report, model)
    for processor in context.system.processors.values():
        if not _analysis_domain(processor):
            continue
        _check_processor_blocking(report, context, processor)


def _check_ceilings(report: Report, model: BlockingModel) -> None:
    """RTS181: declared vs computed PCP ceiling."""
    for name, resource in model.resources.items():
        if resource.protocol != "ceiling":
            continue
        declared = resource.declared_ceiling
        computed = model.computed_ceiling(name)
        if declared is None or computed is None or declared == computed:
            continue
        direction = ("below it: the protocol cannot protect the "
                     "higher-priority users (see RTS112)"
                     if declared < computed else
                     "above it: unrelated tasks at priorities "
                     f"{computed + 1}..{declared} are blocked needlessly")
        report.add(
            RTS181,
            report.WARNING,
            f"shared {name}",
            f"declared ceiling {declared} differs from the computed PCP "
            f"ceiling {computed} (highest priority among users "
            f"{', '.join(resource.users)}) -- it is {direction}",
            hint="set the ceiling to the computed value, or run "
                 "`pyrtos-sc lint --fix` to rewrite it",
        )


def _check_processor_blocking(report: Report, context: LintContext,
                              processor: Any) -> None:
    location = f"processor {processor.name}"
    policy_name = getattr(processor.policy, "name", "")
    if policy_name not in _PRIORITY_POLICIES:
        return
    profiles = context.profiles(processor)
    if not profiles:
        return
    if context.costs(processor) is None:
        return  # RTS120 already reported the broken formula

    model = context.model
    assert model is not None
    baseline = context.zero_blocking_rta(processor)
    terms, charged = context.charged_rta(processor)

    for profile in profiles:
        term = terms[profile.name]
        flow = model.flows.get(profile.name)
        _check_budget(report, model, profile, term, flow, location)
        if term.time == 0:
            continue
        base_response = baseline[profile.name]
        deadline = profile.effective_deadline
        if base_response is None or base_response > deadline:
            continue  # RTS105 already owns the zero-blocking miss
        blocked_response = charged[profile.name]
        if blocked_response is not None and blocked_response <= deadline:
            continue
        severity = (report.ERROR
                    if term.exact and blocked_response is not None
                    else report.WARNING)
        blocked_text = ("diverges" if blocked_response is None
                        else format_time(blocked_response))
        term_text = ("unbounded" if term.time is None
                     else format_time(term.time))
        message = (
            f"schedulable with zero blocking (response "
            f"{format_time(base_response)}), but charging the worst-case "
            f"blocking term {term_text} pushes the response to "
            f"{blocked_text}, past the deadline {format_time(deadline)}"
        )
        if term.contributors:
            message += f"; blocked by {_contributor_text(term.contributors)}"
        _emit_for(report, flow, RTS180, severity,
                  f"{location}/{profile.name}", message,
                  "shorten the critical sections, reassign priorities "
                  "(RTS182 / `pyrtos-sc lint --fix`), or relax the "
                  "deadline")


def _with_blocking(profile: PeriodicTask, term: BlockingTerm) -> PeriodicTask:
    charge = term.time
    if charge is None:
        # unbounded: saturate far past any deadline so the RTA verdict
        # is "miss"; the severity discipline already downgraded to
        # WARNING via ``term.exact``
        charge = profile.effective_deadline * 1000
    return PeriodicTask(
        name=profile.name, wcet=profile.wcet, period=profile.period,
        priority=profile.priority, deadline=profile.deadline,
        blocking=charge,
    )


def _check_budget(report: Report, model: BlockingModel,
                  profile: PeriodicTask, term: BlockingTerm,
                  flow: Optional[TaskFlow], location: str) -> None:
    """RTS183: computed blocking vs the declared ``max_blocking``."""
    fn = model.system.functions.get(profile.name)
    declared = getattr(fn, "max_blocking", None)
    if (fn is None or isinstance(declared, bool)
            or not isinstance(declared, int)):
        return
    if not _bgt(term.time, declared):
        return
    severity = report.ERROR if term.exact else report.WARNING
    term_text = ("unbounded" if term.time is None
                 else format_time(term.time))
    message = (
        f"worst-case blocking {term_text} exceeds the declared "
        f"max_blocking {format_time(declared)}"
    )
    if term.contributors:
        message += f"; blocked by {_contributor_text(term.contributors)}"
    _emit_for(report, flow, RTS183, severity,
              f"{location}/{profile.name}", message,
              "shorten the blocking critical sections, or tighten the "
              "declaration to the computed bound (`pyrtos-sc lint --fix`)")


def _emit_for(report: Report, flow: Optional[TaskFlow], rule_id: str,
              severity: Any, location: str, message: str,
              hint: str) -> None:
    if flow is not None:
        _emit(report, flow, rule_id, severity, location, message, hint, None)
    else:
        report.add(rule_id, severity, location, message, hint)


__all__ = [
    "BlockingModel",
    "BlockingTerm",
    "CriticalSection",
    "check_blocking",
    "critical_sections",
]
