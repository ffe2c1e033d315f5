"""Monte-Carlo campaigns over stochastic simulations.

One simulation answers "what happens for this seed"; a campaign answers
"what is the latency distribution / the deadline-miss probability".
:func:`monte_carlo` runs a seeded experiment N times and aggregates every
numeric metric into a :class:`MetricSample` with percentile summaries.

Example::

    def experiment(seed):
        soc = Mpeg2Soc(frames=8, seed=seed)
        soc.run()
        return {"e2e": max(soc.latencies("end_to_end"))}

    campaign = monte_carlo(experiment, runs=50)
    campaign["e2e"].p(95)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..errors import ReproError
from ..trace.measurements import latency_summary, percentile


@dataclass
class MetricSample:
    """All observed values of one metric across a campaign."""

    name: str
    values: List = field(default_factory=list)

    def p(self, q: float):
        """The q-th percentile of the metric."""
        return percentile(self.values, q)

    def mean(self) -> float:
        if not self.values:
            raise ReproError(f"metric {self.name!r} has no samples")
        return sum(self.values) / len(self.values)

    def minimum(self):
        return min(self.values)

    def maximum(self):
        return max(self.values)

    def probability(self, predicate: Callable) -> float:
        """Fraction of runs satisfying ``predicate(value)``."""
        if not self.values:
            raise ReproError(f"metric {self.name!r} has no samples")
        hits = sum(1 for value in self.values if predicate(value))
        return hits / len(self.values)

    def summary(self) -> dict:
        return latency_summary(self.values)


class Campaign(dict):
    """Mapping metric name -> :class:`MetricSample`, plus run count.

    :func:`monte_carlo` fills ``failures`` with the runner's structured
    ``RunFailure`` records (only non-empty with ``strict=False``) and
    ``stats`` with its execution summary (wall time, cache hits/misses,
    throughput).
    """

    def __init__(self) -> None:
        super().__init__()
        self.runs = 0
        self.failures: List = []
        self.stats: Dict = {}

    def record(self, metrics: Dict) -> None:
        self.runs += 1
        for name, value in metrics.items():
            self.setdefault(name, MetricSample(name)).values.append(value)


def _seeded(experiment: Callable[[int], Dict], params: Dict) -> Dict:
    """The campaign run of a seeded experiment: ``experiment(seed)``."""
    return experiment(params["seed"])


def monte_carlo(
    experiment: Callable[[int], Dict],
    *,
    runs: int,
    base_seed: int = 0,
    workers: int = 1,
    cache=None,
    timeout: float = None,
    retries: int = 0,
    progress=False,
    strict: bool = True,
) -> Campaign:
    """Run ``experiment(seed)`` for ``runs`` distinct seeds.

    ``experiment`` must build, run and measure one simulation and return
    a dict of numeric metrics.  Seeds are ``base_seed .. base_seed +
    runs - 1``, so campaigns are exactly reproducible and trivially
    shardable.

    Execution goes through the :class:`repro.campaign.Runner`: runs
    stay in-process at ``workers=1`` and are sharded over a process pool
    otherwise, served from the content-addressed result cache when
    enabled, and retried/timed out individually.  Aggregation always
    happens in seed order, so the returned :class:`Campaign` does not
    depend on the worker count.  ``workers > 1`` requires ``experiment``
    to be picklable (a module-level function).  A failed run raises
    :class:`~repro.errors.CampaignError` naming it; ``strict=False``
    collects failed runs on ``campaign.failures`` instead.
    """
    if runs < 1:
        raise ReproError(f"need at least one run, got {runs}")

    from .runner import Runner
    from .spec import ExperimentSpec

    spec = ExperimentSpec(getattr(experiment, "__name__", "experiment"),
                          functools.partial(_seeded, experiment))
    runner = Runner(workers=workers, cache=cache, timeout=timeout,
                    retries=retries, progress=progress)
    outcome = runner.execute(
        spec, [{"seed": base_seed + index} for index in range(runs)])
    if strict:
        outcome.raise_on_failure()
    campaign = Campaign()
    for result in outcome.results:
        campaign.record(result.metrics)
    campaign.failures = outcome.failures
    campaign.stats = outcome.summary()
    return campaign


def format_campaign(campaign: Campaign) -> str:
    """Fixed-width summary table of a campaign."""
    lines = [f"{campaign.runs} runs"]
    name_w = max((len(name) for name in campaign), default=4)
    lines.append(
        f"{'metric':{name_w}} {'min':>12} {'mean':>14} {'p95':>12} "
        f"{'max':>12}"
    )
    for name, sample in campaign.items():
        lines.append(
            f"{name:{name_w}} {sample.minimum():>12} "
            f"{sample.mean():>14.1f} {sample.p(95):>12} "
            f"{sample.maximum():>12}"
        )
    return "\n".join(lines)
