"""A structured design-space exploration driver.

The paper's objective is "to help designers in their design-space
exploration" -- which in practice means running the same model over a
grid of platform parameters and comparing metrics.  This module turns
that loop into a first-class object:

* a :class:`Parameter` grid (policy, overheads, engine, anything),
* a *build* callable turning one configuration into a ready system,
* *metrics* extracted after each run,
* :func:`explore` running the full cross product deterministically, and
* :func:`pareto_front` filtering the non-dominated configurations.

Example::

    space = [
        Parameter("policy", ["priority_preemptive", "fifo"]),
        Parameter("overhead", [0, 5 * US, 50 * US]),
    ]

    def build(config):
        ...return a System ready to run...

    def metrics(config, system):
        return {"latency": ..., "misses": ...}

    results = explore(space, build, metrics, duration=10 * MS)
    best = pareto_front(results, minimize=("latency", "misses"))
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..kernel.time import Time


@dataclass(frozen=True)
class Parameter:
    """One axis of the design space."""

    name: str
    values: Tuple

    def __init__(self, name: str, values: Iterable) -> None:
        values = tuple(values)
        if not values:
            raise ReproError(f"parameter {name!r} has no values")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", values)


@dataclass
class ExplorationResult:
    """One evaluated design point."""

    config: Dict
    metrics: Dict
    simulated_time: Time

    def __getitem__(self, key):
        if key in self.metrics:
            return self.metrics[key]
        return self.config[key]


def configurations(space: Sequence[Parameter]) -> List[Dict]:
    """The full cross product of the space, in deterministic order."""
    names = [p.name for p in space]
    if len(set(names)) != len(names):
        raise ReproError("duplicate parameter names in the space")
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(p.values for p in space))
    ]


def _design_point(build: Callable[[Dict], object],
                  metrics: Callable[[Dict, object], Dict],
                  duration: Optional[Time], config: Dict) -> Dict:
    """The campaign run of one design point: build, run, measure."""
    system = build(dict(config))
    system.run(duration)
    return {"metrics": metrics(dict(config), system),
            "simulated_time": system.now}


def explore(
    space: Sequence[Parameter],
    build: Callable[[Dict], object],
    metrics: Callable[[Dict, object], Dict],
    *,
    duration: Optional[Time] = None,
    workers: int = 1,
    cache=None,
    timeout: Optional[float] = None,
    retries: int = 0,
    progress=False,
    strict: bool = True,
) -> List[ExplorationResult]:
    """Run every configuration; returns one result per design point.

    ``build(config)`` must return a ready
    :class:`~repro.mcse.model.System` (or anything with ``run`` and
    ``now``); ``metrics(config, system)`` extracts the comparison values
    after the run.

    The cross product is executed by the :class:`repro.campaign.Runner`
    (in-process at ``workers=1``); results come back in configuration
    order whatever the worker count.  ``workers > 1`` requires ``build``
    and ``metrics`` to be picklable (module-level functions).  A failed
    design point raises :class:`~repro.errors.CampaignError` naming it;
    ``strict=False`` drops it from the returned list instead -- use the
    Runner directly when the structured failure records are needed.
    """
    configs = configurations(space)

    from .runner import Runner
    from .spec import ExperimentSpec

    spec = ExperimentSpec(
        "explore", functools.partial(_design_point, build, metrics, duration))
    runner = Runner(workers=workers, cache=cache, timeout=timeout,
                    retries=retries, progress=progress)
    outcome = runner.execute(spec, configs)
    if strict:
        outcome.raise_on_failure()
    return [
        ExplorationResult(config=dict(configs[run.index]),
                          metrics=run.metrics["metrics"],
                          simulated_time=run.metrics["simulated_time"])
        for run in outcome.results
    ]


def _dominates(a: ExplorationResult, b: ExplorationResult,
               minimize: Sequence[str]) -> bool:
    at_least_one_strict = False
    for key in minimize:
        if a.metrics[key] > b.metrics[key]:
            return False
        if a.metrics[key] < b.metrics[key]:
            at_least_one_strict = True
    return at_least_one_strict


def pareto_front(
    results: Sequence[ExplorationResult],
    *,
    minimize: Sequence[str],
) -> List[ExplorationResult]:
    """The non-dominated subset w.r.t. the ``minimize`` metrics."""
    if not minimize:
        raise ReproError("pareto_front needs at least one metric")
    front = []
    for candidate in results:
        if not any(
            _dominates(other, candidate, minimize)
            for other in results
            if other is not candidate
        ):
            front.append(candidate)
    return front


def tabulate(
    results: Sequence[ExplorationResult],
    *,
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Render results as a fixed-width text table."""
    if not results:
        return "(no results)"
    if columns is None:
        columns = list(results[0].config) + list(results[0].metrics)
    widths = {
        col: max(len(col), *(len(_cell(r, col)) for r in results))
        for col in columns
    }
    lines = ["  ".join(col.rjust(widths[col]) for col in columns)]
    for result in results:
        lines.append(
            "  ".join(_cell(result, col).rjust(widths[col])
                      for col in columns)
        )
    return "\n".join(lines)


def _cell(result: ExplorationResult, column: str) -> str:
    try:
        value = result[column]
    except KeyError:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
