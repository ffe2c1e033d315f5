"""Multicore scheduling domains over the generic RTOS model.

The paper models a single Processor owning its ready queue; this package
generalizes to N cores coordinated by a :class:`SchedulingDomain` --
``global`` (one shared pool, work-stealing elections, migration),
``partitioned`` (static task-to-core assignment, byte-identical to
standalone processors) and ``clustered`` (global within each cluster) --
with per-task affinity masks, ``Overheads``-accounted migration costs,
and global EDF/RM policies from the shared registry.  Placement and
equal-urgency dispatch are verifier choice points (``place`` /
``migrate``), so :mod:`repro.verify` explores SMP schedules the same
way it explores single-core ties.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "demo": ("smp_miss_spec", "smp_tie_spec"),
    "domain": ("DOMAIN_KINDS", "SchedulingDomain"),
})
