"""Experiment specifications: what one campaign run *is*.

A campaign executes the same experiment over many parameter points
(Monte-Carlo seeds, design-space configurations, or both).  The unit of
work is an :class:`ExperimentSpec` -- a name plus one picklable
``run(params) -> metrics`` function -- and the points are plain param
dicts.  Keeping ``run`` picklable is what lets the :class:`~repro.
campaign.runner.Runner` ship runs to worker processes, and keeping it
*fingerprintable* is what lets the on-disk cache recognise "same code,
same parameters" across interpreter invocations.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from dataclasses import dataclass
from typing import Callable, Dict

from ..errors import CampaignError


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
class ExperimentSpec:
    """One named experiment: ``run(params) -> metrics``.

    ``run`` builds, runs and measures one parameter point and returns a
    dict of plain result values.  It must be a module-level function (or
    a ``functools.partial`` over one) to cross process boundaries;
    in-process runs (``workers=1``) have no such restriction.
    """

    name: str
    run: Callable[[Dict], Dict]

    def fingerprint(self) -> str:
        """Content hash of the experiment *code* (not its parameters).

        Two specs share a fingerprint exactly when their name and the
        fingerprint of ``run`` (source plus bound partial arguments)
        match -- the cache uses this to segregate result files per
        experiment version.
        """
        payload = self.name + "\n" + callable_fingerprint(self.run)
        return hashlib.sha256(payload.encode()).hexdigest()
