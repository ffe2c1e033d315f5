"""Experiment specifications: what one campaign run *is*.

A campaign executes the same experiment over many parameter points
(Monte-Carlo seeds, design-space configurations, or both).  The unit of
work is described by an :class:`ExperimentSpec` -- a picklable
build/run/metrics triple -- plus one :class:`RunRequest` per point.
Keeping the spec picklable is what lets the :class:`~repro.campaign.
runner.Runner` ship runs to worker processes, and keeping it
*fingerprintable* is what lets the on-disk cache recognise "same code,
same parameters" across interpreter invocations.

Seed discipline: runs are numbered ``0 .. n-1`` and seeds derive
deterministically from ``(base_seed, index)`` via :func:`derive_seed`,
so a campaign is exactly reproducible and trivially shardable no matter
how runs are distributed over workers.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..errors import CampaignError

#: Private parameter key carrying the simulation duration for
#: design-space runs (kept out of user-visible config dicts).
DURATION_KEY = "__duration__"

#: Private metric key carrying the final simulated time of a run.
SIM_NOW_KEY = "__sim_now__"


def derive_seed(base_seed: int, index: int) -> int:
    """The campaign seed for run ``index``: ``base_seed + index``.

    Linear derivation matches the documented :func:`repro.analysis.
    monte_carlo` contract ("seeds are base_seed .. base_seed + runs -
    1"), so campaigns aggregate byte-identically at every worker
    count.
    """
    return base_seed + index


def _public_params(params: Dict) -> Dict:
    """The user-visible view of a parameter point (no ``__...`` keys)."""
    return {k: v for k, v in params.items() if not k.startswith("__")}


def _json_default(value):
    raise CampaignError(
        f"campaign parameter value {value!r} is not JSON-serializable; "
        "cacheable campaigns need plain data (numbers, strings, lists, "
        "dicts) as parameters"
    )


def canonical_json(obj) -> str:
    """A canonical (sorted-key, compact) JSON encoding for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_json_default)


def callable_fingerprint(fn) -> str:
    """A content hash of a callable: its source, or its identity.

    Editing an experiment function changes the fingerprint, which
    invalidates every cached result computed with the old code.
    ``functools.partial`` objects fingerprint as the inner callable plus
    the bound arguments, so parameterized experiments key correctly.
    """
    if isinstance(fn, functools.partial):
        parts = [callable_fingerprint(fn.func)]
        for value in fn.args:
            parts.append(callable_fingerprint(value) if callable(value)
                         else repr(value))
        for key in sorted(fn.keywords):
            value = fn.keywords[key]
            rendered = (callable_fingerprint(value) if callable(value)
                        else repr(value))
            parts.append(f"{key}={rendered}")
        return "partial(" + ",".join(parts) + ")"
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        source = ""
    qualname = getattr(fn, "__qualname__", repr(fn))
    module = getattr(fn, "__module__", "")
    digest = hashlib.sha256(
        f"{module}.{qualname}\n{source}".encode()
    ).hexdigest()
    return digest


@dataclass
class RunRequest:
    """One parameter point of a campaign.

    ``params`` is everything the experiment needs for this run -- for a
    Monte-Carlo campaign a ``{"seed": ...}`` dict, for a design-space
    sweep the configuration (plus private ``__...`` keys added by the
    drivers).  ``index`` orders results deterministically regardless of
    worker completion order.
    """

    index: int
    params: Dict = field(default_factory=dict)


def run_system(params: Dict, system) -> None:
    """Default run step: ``system.run(duration)`` (duration optional)."""
    system.run(params.get(DURATION_KEY))


def no_run(params: Dict, state) -> None:
    """Run step for experiments whose *build* already does everything."""


def _identity_metrics(params: Dict, state) -> Dict:
    """Metrics step for experiments whose build returned the metrics."""
    return dict(state)


def _call_seeded(experiment: Callable[[int], Dict], params: Dict):
    return experiment(params["seed"])


def _design_build(user_build: Callable[[Dict], Any], params: Dict):
    return user_build(_public_params(params))


def _design_metrics(user_metrics: Callable[[Dict, Any], Dict],
                    params: Dict, system) -> Dict:
    merged = {SIM_NOW_KEY: system.now}
    merged.update(user_metrics(_public_params(params), system))
    return merged


@dataclass
class ExperimentSpec:
    """A picklable build/run/metrics triple describing one experiment.

    * ``build(params)`` turns one parameter point into a ready system
      (or any state object);
    * ``run(params, state)`` executes it (default: ``state.run(...)``);
    * ``metrics(params, state)`` extracts a dict of result values.

    All three callables must be module-level (or ``functools.partial``
    over module-level) functions to cross process boundaries; in-process
    runs (``workers=1``) have no such restriction.
    """

    name: str
    build: Callable[[Dict], Any]
    metrics: Callable[[Dict, Any], Dict]
    run: Optional[Callable[[Dict, Any], None]] = None
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.run is None:
            self.run = run_system

    def seed_for(self, index: int) -> int:
        """The deterministic seed of run ``index``."""
        return derive_seed(self.base_seed, index)

    def request(self, index: int, params: Optional[Dict] = None,
                *, seeded: bool = False) -> RunRequest:
        """Build the :class:`RunRequest` for run ``index``."""
        merged = dict(params or {})
        if seeded:
            merged.setdefault("seed", self.seed_for(index))
        return RunRequest(index=index, params=merged)

    def fingerprint(self) -> str:
        """Content hash of the experiment *code* (not its parameters).

        Two specs share a fingerprint exactly when their name, seed
        base and the source of all three callables match -- the cache
        uses this to segregate result files per experiment version.
        """
        payload = "\n".join([
            self.name,
            str(self.base_seed),
            callable_fingerprint(self.build),
            callable_fingerprint(self.run),
            callable_fingerprint(self.metrics),
        ])
        return hashlib.sha256(payload.encode()).hexdigest()

    def execute(self, request: RunRequest) -> Dict:
        """Run one parameter point to completion, returning metrics."""
        state = self.build(request.params)
        self.run(request.params, state)
        return self.metrics(request.params, state)


def spec_from_experiment(experiment: Callable[[int], Dict], *,
                         name: Optional[str] = None,
                         base_seed: int = 0) -> ExperimentSpec:
    """Wrap a Monte-Carlo style ``experiment(seed) -> metrics`` callable."""
    return ExperimentSpec(
        name=name or getattr(experiment, "__name__", "experiment"),
        build=functools.partial(_call_seeded, experiment),
        metrics=_identity_metrics,
        run=no_run,
        base_seed=base_seed,
    )


def spec_from_design(build: Callable[[Dict], Any],
                     metrics: Callable[[Dict, Any], Dict], *,
                     name: str = "explore") -> ExperimentSpec:
    """Wrap design-space ``build(config)`` / ``metrics(config, system)``.

    The resulting metrics dict carries the final simulated time under a
    private key so :func:`repro.analysis.explore` can rebuild its
    :class:`~repro.analysis.dse.ExplorationResult` objects exactly.
    """
    return ExperimentSpec(
        name=name,
        build=functools.partial(_design_build, build),
        metrics=functools.partial(_design_metrics, metrics),
        run=run_system,
    )
