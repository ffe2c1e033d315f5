"""Scheduling domains: N processors dispatching from a shared ready pool.

The paper's model is one Processor owning one ready queue.  A
:class:`SchedulingDomain` coordinates several existing processors into
one multicore scheduling entity with pluggable dispatch:

* ``global`` -- a single logical pool over all member cores.  A task
  waking up may be placed on any idle eligible core (or preempt the
  least-urgent running task); an idle core pulls the most urgent
  eligible ready task from *any* member's queue, migrating it over.
* ``partitioned`` -- static task-to-core assignment.  Each member keeps
  its own policy and queue; the domain only aggregates statistics.  A
  partitioned domain over one core reproduces the standalone-processor
  behavior byte-identically (asserted by the golden-trace tests).
* ``clustered`` -- ``global`` within each named cluster of cores,
  ``partitioned`` across clusters.

Mechanics and invariants:

* A READY task always lives in ``task.processor._ready``; global
  dispatch *pulls* (work-stealing at election time) rather than keeping
  a separate shared queue, so the per-core engine code paths -- idle
  dispatch, preemption requests, overhead charging -- are reused
  unchanged (the ``ProcessorBase._admit_ready`` seam).
* Migration happens lazily at dispatch: when a core's election picks a
  task queued on a sibling, the task moves (``Task.migration_count``,
  a :class:`~repro.trace.records.MigrationRecord`, and the
  ``Overheads.migration`` cost charged on the target just before the
  context load).
* Placement and dispatch ties are verifier choice points: ``place``
  (which eligible core a waking task is delivered to) and ``migrate``
  (equal-urgency dispatch under global EDF/RM).  ``repro.verify``
  explores both and minimizes counterexamples over them.
* Per-task affinity masks (``Task.affinity`` / the builder's
  ``affinity`` function key) restrict which member cores may run a
  task; execution budgets are scaled by the speed of the core the
  ``execute`` *starts* on (heterogeneous-speed migration mid-execute
  keeps the entry core's scaling).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..errors import RTOSError
from ..kernel.simulator import Simulator
from ..rtos.overheads import Overheads, OverheadSpec
from ..rtos.policies import SchedulingPolicy, make_policy
from ..rtos.processor import ProcessorBase
from ..rtos.tcb import Task
from ..trace.records import MigrationRecord, TaskState


# Enum members as module globals: on 3.11 reading one off its class
# goes through EnumType.__getattr__, several times slower.
_READY = TaskState.READY

#: Dispatch disciplines a domain understands.
DOMAIN_KINDS = ("global", "partitioned", "clustered")


class SchedulingDomain:
    """Coordinates member processors through a shared ready pool."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        processors: Sequence[ProcessorBase],
        *,
        kind: str = "global",
        policy: Union[str, SchedulingPolicy, None] = None,
        migration_cost: OverheadSpec = 0,
        clusters: Optional[Sequence[Sequence[ProcessorBase]]] = None,
        **policy_kwargs: object,
    ) -> None:
        if kind not in DOMAIN_KINDS:
            raise RTOSError(
                f"unknown domain kind {kind!r}; pick one of {DOMAIN_KINDS}"
            )
        members = list(processors)
        if not members:
            raise RTOSError(f"domain {name!r} needs at least one processor")
        seen: Set[str] = set()
        for member in members:
            if member.sim is not sim:
                raise RTOSError(
                    f"processor {member.name!r} belongs to a different "
                    f"simulator than domain {name!r}"
                )
            if member.domain is not None:
                raise RTOSError(
                    f"processor {member.name!r} is already in domain "
                    f"{member.domain.name!r}"
                )
            if member.name in seen:
                raise RTOSError(
                    f"duplicate processor {member.name!r} in domain {name!r}"
                )
            seen.add(member.name)
        self.sim = sim
        self.name = name
        self.kind = kind
        self.members: Tuple[ProcessorBase, ...] = tuple(members)
        self.migration_total = 0
        if kind == "partitioned":
            if policy is not None or policy_kwargs:
                raise RTOSError(
                    "partitioned domains keep each member's own policy; "
                    "drop the policy argument"
                )
            if migration_cost:
                raise RTOSError(
                    "partitioned domains never migrate; drop migration_cost"
                )
            if clusters is not None:
                raise RTOSError("clusters only apply to clustered domains")
            self.policy = None
            self._clusters = tuple((m,) for m in self.members)
        else:
            for member in members:
                if member.engine != "procedural":
                    raise RTOSError(
                        f"{kind} domains require procedural-engine members; "
                        f"{member.name!r} uses {member.engine!r}"
                    )
            self.policy = make_policy(
                "global_edf" if policy is None else policy, **policy_kwargs
            )
            # one policy instance on every member so per-core dispatch,
            # placement and victim selection agree on a single ordering
            for member in members:
                member.policy = self.policy
                self.policy.on_attach(member)
            if kind == "clustered":
                self._clusters = self._check_clusters(clusters)
            else:
                if clusters is not None:
                    raise RTOSError("clusters only apply to clustered domains")
                self._clusters = (self.members,)
            if migration_cost:
                for member in members:
                    member.overheads = Overheads(
                        scheduling=member.overheads._scheduling,
                        context_load=member.overheads._context_load,
                        context_save=member.overheads._context_save,
                        migration=migration_cost,
                    )
        self._cluster_index: Dict[str, Tuple[ProcessorBase, ...]] = {}
        for cluster in self._clusters:
            for member in cluster:
                self._cluster_index[member.name] = cluster
        for member in members:
            member.domain = self

    def _check_clusters(
        self, clusters: Optional[Sequence[Sequence[ProcessorBase]]]
    ) -> Tuple[Tuple[ProcessorBase, ...], ...]:
        if not clusters:
            raise RTOSError(
                f"clustered domain {self.name!r} needs an explicit clusters "
                "partition of its members"
            )
        assigned: Dict[str, int] = {}
        out: List[Tuple[ProcessorBase, ...]] = []
        for index, cluster in enumerate(clusters):
            group = tuple(cluster)
            if not group:
                raise RTOSError(f"empty cluster in domain {self.name!r}")
            for member in group:
                if member not in self.members:
                    raise RTOSError(
                        f"cluster processor {member.name!r} is not a member "
                        f"of domain {self.name!r}"
                    )
                if member.name in assigned:
                    raise RTOSError(
                        f"processor {member.name!r} appears in two clusters"
                    )
                assigned[member.name] = index
            out.append(group)
        missing = [m.name for m in self.members if m.name not in assigned]
        if missing:
            raise RTOSError(
                f"clusters of domain {self.name!r} do not cover {missing}"
            )
        return tuple(out)

    # ------------------------------------------------------------------
    # Membership helpers
    # ------------------------------------------------------------------
    def add_member(self, processor: ProcessorBase) -> None:
        """Late-attach ``processor`` (before the simulation starts)."""
        if self.sim.now:
            raise RTOSError("domain membership is fixed once simulation runs")
        if processor.domain is not None:
            raise RTOSError(
                f"processor {processor.name!r} is already in a domain"
            )
        if self.kind == "clustered":
            raise RTOSError(
                "clustered domains take their full member list at "
                "construction; rebuild with explicit clusters"
            )
        if self.kind != "partitioned":
            if processor.engine != "procedural":
                raise RTOSError(
                    f"{self.kind} domains require procedural-engine members"
                )
            processor.policy = self.policy
            self.policy.on_attach(processor)
        self.members = self.members + (processor,)
        if self.kind == "partitioned":
            self._clusters = self._clusters + ((processor,),)
            self._cluster_index[processor.name] = (processor,)
        else:
            self._clusters = (self.members,)
            self._cluster_index = {m.name: self.members for m in self.members}
        processor.domain = self

    def _cluster_of(self, cpu: ProcessorBase) -> Tuple[ProcessorBase, ...]:
        return self._cluster_index[cpu.name]

    @staticmethod
    def _eligible(task: Task, cpu: ProcessorBase) -> bool:
        affinity = task.affinity
        return affinity is None or cpu.name in affinity

    # ------------------------------------------------------------------
    # The two dispatch-seam entry points (called by ProcessorBase)
    # ------------------------------------------------------------------
    def task_ready(self, task: Task, reason: str) -> None:
        """A member task entered Ready: queue it and pick a core to kick.

        The task is queued on its current (home) core -- the invariant a
        READY task lives in ``task.processor._ready`` -- and the chosen
        target core's ordinary decision logic runs against it: inline
        overhead charging when the waker runs on that core, the
        idle-dispatch callback chain or a preemption request otherwise.
        Actual migration happens lazily at the target's election.
        """
        if self.kind == "partitioned":
            task.processor._admit_ready(task, reason)
            return
        home = task.processor
        task.set_state(_READY, reason)
        home._ready.append(task)
        target = self._place(task)
        if target is not None:
            target._reschedule(task)

    def select_for(self, cpu: ProcessorBase) -> Optional[Task]:
        """Elect the next task for ``cpu`` from the cluster-wide pool.

        Equal-urgency candidates (the policy's ``tie_candidates``) are a
        ``migrate`` choice point under verification.  The elected task is
        pulled from whichever member queue holds it, migrating if that
        is not ``cpu``.
        """
        if self.kind == "partitioned":
            return cpu._select_and_remove_local()
        pool = [
            t
            for member in self._cluster_of(cpu)
            for t in member._ready
            if self._eligible(t, cpu)
        ]
        if not pool:
            return None
        chosen = self.policy.select(cpu, pool)
        controller = self.sim.choice_controller
        if controller is not None and chosen is not None:
            candidates = self.policy.tie_candidates(cpu, pool, chosen)
            if len(candidates) > 1:
                index = controller.choose(
                    "migrate", f"{self.name}:{cpu.name}", len(candidates),
                    labels=tuple(t.name for t in candidates),
                )
                chosen = candidates[index]
        if chosen is None:
            return None
        owner = chosen.processor
        owner._ready.remove(chosen)
        if owner is not cpu:
            self._migrate(chosen, cpu)
        return chosen

    def task_preempted(self, task: Task) -> None:
        """A member task was just preempted and re-queued on its core.

        Under global/clustered dispatch it need not wait for its home
        core: kick the first idle eligible sibling so its election
        (which sees the whole pool) can resume the victim immediately.
        """
        if self.kind == "partitioned":
            return
        home = task.processor
        for member in self._cluster_of(home):
            if member is home:
                continue
            if (
                member.running is None
                and not member._scheduling_in_progress
                and self._eligible(task, member)
            ):
                member._external_wake(task)
                return

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _place(self, task: Task) -> Optional[ProcessorBase]:
        """Which member core handles ``task``'s readiness, or None to park.

        Preference order: an idle eligible core (the home core first --
        no migration for free), else the running core whose task is
        least urgent among those the policy would preempt, else nobody
        (the task waits in its home queue until an election pulls it).
        Multiple equivalent targets are a ``place`` choice point.
        """
        home = task.processor
        cluster = self._cluster_of(home)
        idle = [
            m
            for m in cluster
            if m.running is None
            and not m._scheduling_in_progress
            and self._eligible(task, m)
        ]
        if idle:
            if home in idle:
                idle.remove(home)
                idle.insert(0, home)
            return self._choose_target("place", task, idle)
        victims = [
            m
            for m in cluster
            if m.running is not None
            and m.preemptive
            and self._eligible(task, m)
            and self.policy.should_preempt(m, m.running, task)
        ]
        if victims:
            least = [
                v
                for v in victims
                if not any(
                    self.policy.should_preempt(v, w.running, v.running)
                    for w in victims
                    if w is not v
                )
            ]
            return self._choose_target("place", task, least or victims)
        return None

    def _choose_target(
        self, kind: str, task: Task, candidates: List[ProcessorBase]
    ) -> ProcessorBase:
        controller = self.sim.choice_controller
        if controller is not None and len(candidates) > 1:
            index = controller.choose(
                kind, f"{self.name}:{task.name}", len(candidates),
                labels=tuple(m.name for m in candidates),
            )
            return candidates[index]
        return candidates[0]

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def _migrate(self, task: Task, target: ProcessorBase) -> None:
        source = task.processor
        task.processor = target
        task.function.context.processor = target
        task.migration_pending = True
        task.migration_count += 1
        target.migration_count += 1
        self.migration_total += 1
        emit = self.sim._emit
        if emit is not None:
            emit(MigrationRecord(
                self.sim.now, task.name, source.name, target.name,
                domain=self.name,
            ))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def processors(self) -> Tuple[ProcessorBase, ...]:
        return self.members

    def tasks(self) -> List[Task]:
        """All tasks mapped on member cores, in member order."""
        return [task for member in self.members for task in member.tasks]

    def stats(self) -> dict:
        """Summary counters for reports, ``/metrics`` and benchmarks."""
        utilizations = [m.utilization() for m in self.members]
        return {
            "domain": self.name,
            "kind": self.kind,
            "policy": self.policy.name if self.policy is not None else "per-core",
            "processors": [m.name for m in self.members],
            "clusters": [[m.name for m in c] for c in self._clusters],
            "migrations": self.migration_total,
            "per_task_migrations": {
                t.name: t.migration_count
                for t in self.tasks()
                if t.migration_count
            },
            "mean_utilization": (
                sum(utilizations) / len(utilizations) if utilizations else 0.0
            ),
            "per_core_utilization": {
                m.name: u for m, u in zip(self.members, utilizations)
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SchedulingDomain {self.name} {self.kind} "
            f"cores={[m.name for m in self.members]}>"
        )
