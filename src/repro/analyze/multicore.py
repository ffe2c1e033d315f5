"""Multicore schedulability rules over scheduling domains (RTS15x).

Static feasibility checks for :class:`repro.smp.SchedulingDomain`
models, mirroring what :mod:`.schedulability` does per processor:

=========  ================================================================
RTS150     domain load exceeds the total capacity of its member cores
RTS151     load above the global-EDF (GFB) / global-RM (RM-US) bound
RTS152     a task's affinity mask excludes every core of its cluster
RTS153     first-fit-decreasing finds no partitioned assignment
=========  ================================================================

Utilizations are computed from the same periodic profiles (explicit
``wcet``/``period`` annotations or derived script profiles) and the same
``ProcessorBase.scale_duration`` speed scaling the per-core rules use,
so heterogeneous-speed analysis cannot drift from the simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Tuple

from .diagnostics import Report
from .response_time import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from .context import LintContext


def _nominal_utilization(profile: PeriodicTask, task: Any) -> float:
    """WCET/period in *nominal* (speed-1) units."""
    # periodic_profile scales the WCET onto the task's home core; undo
    # that so domain-level math can apply per-core speeds itself
    speed = getattr(task.processor, "speed", 1.0)
    wcet = profile.wcet if speed == 1.0 else profile.wcet * speed
    return wcet / profile.period


def _domain_loc(domain: Any) -> str:
    return f"domain {domain.name}"


def check_domain(report: Report, context: LintContext,
                 domain: Any) -> None:
    """Run every RTS15x rule for one scheduling domain."""
    from .model import RTS150, RTS151, RTS152, RTS153  # circular-import guard

    _check_affinity(report, domain, RTS152)
    utilizations: List[Tuple[Any, float]] = []
    for task in domain.tasks():
        profile = context.profile(task)
        if profile is not None:
            utilizations.append((task, _nominal_utilization(profile, task)))
    if not utilizations:
        return
    capacity = sum(m.speed for m in domain.members)
    total = sum(u for _, u in utilizations)
    if total > capacity:
        report.add(
            RTS150,
            report.ERROR,
            _domain_loc(domain),
            f"periodic load {total:.3f} exceeds the domain capacity "
            f"{capacity:.3f} ({len(domain.members)} core(s)); the set is "
            "unschedulable under any dispatch",
            hint="reduce WCETs, lengthen periods, or add cores to the "
                 "domain",
        )
        return  # the finer bounds would only restate the impossibility
    if domain.kind in ("global", "clustered"):
        _check_global_bound(report, domain, utilizations, RTS151)
    if domain.kind == "partitioned":
        _check_first_fit(report, domain, utilizations, RTS153)


def _check_affinity(report: Report, domain: Any, RTS152) -> None:
    if domain.kind == "partitioned":
        return  # static assignment; affinity masks are not consulted
    for task in domain.tasks():
        cluster = domain._cluster_of(task.processor)
        if any(domain._eligible(task, member) for member in cluster):
            continue
        names = ", ".join(m.name for m in cluster)
        report.add(
            RTS152,
            report.ERROR,
            f"{_domain_loc(domain)}/{task.name}",
            f"affinity mask {list(task.affinity)} excludes every core of "
            f"its cluster ({names}); the task can never be dispatched",
            hint="include at least one cluster core in the mask, or move "
                 "the task's home processor",
        )


def _check_global_bound(report: Report, domain: Any,
                        utilizations: List[Tuple[Any, float]],
                        RTS151) -> None:
    """GFB for global EDF, RM-US for global RM (identical-speed cores)."""
    policy = getattr(domain.policy, "name", "")
    if policy not in ("global_edf", "global_rm"):
        return
    speeds = {m.speed for m in domain.members}
    if len(speeds) != 1:
        return  # the closed-form bounds assume identical cores
    speed = speeds.pop()
    m = len(domain.members)
    scaled = [u / speed for _, u in utilizations]
    total = sum(scaled)
    u_max = max(scaled)
    if policy == "global_edf":
        # Goossens-Funk-Baruah: U <= M - (M-1) * u_max is sufficient
        bound = m - (m - 1) * u_max
        label = f"global-EDF GFB bound {bound:.3f} (M={m}, umax={u_max:.3f})"
    else:
        # Andersson-Baruah-Jonsson RM-US: U <= M^2 / (3M - 2)
        bound = (m * m) / (3 * m - 2)
        label = f"global-RM RM-US bound {bound:.3f} (M={m})"
    if total > bound:
        report.add(
            RTS151,
            report.WARNING,
            _domain_loc(domain),
            f"periodic load {total:.3f} exceeds the {label}; global "
            "feasibility is not guaranteed (Dhall-effect schedules may "
            "miss deadlines)",
            hint="lower per-task utilization, add cores, or switch to a "
                 "partitioned assignment",
        )


def _check_first_fit(report: Report, domain: Any,
                     utilizations: List[Tuple[Any, float]],
                     RTS153) -> None:
    """First-fit-decreasing over member capacities (speed = bin size)."""
    bins = [(member, member.speed) for member in domain.members]
    remaining = {member.name: capacity for member, capacity in bins}
    unplaced = []
    for task, utilization in sorted(
        utilizations, key=lambda item: -item[1]
    ):
        for member, _ in bins:
            if domain._eligible(task, member) and \
                    utilization <= remaining[member.name] + 1e-12:
                remaining[member.name] -= utilization
                break
        else:
            unplaced.append((task, utilization))
    for task, utilization in unplaced:
        report.add(
            RTS153,
            report.WARNING,
            f"{_domain_loc(domain)}/{task.name}",
            f"first-fit-decreasing cannot place the task (utilization "
            f"{utilization:.3f}) on any member core; no static "
            "partitioned assignment is likely to exist",
            hint="reduce the task's WCET, lengthen its period, or use a "
                 "global domain so slack can be pooled",
        )


__all__ = ["check_domain"]
