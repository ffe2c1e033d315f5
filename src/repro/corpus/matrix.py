"""Declarative batch matrices: a parameter grid fanned through campaign.

A *matrix document* is plain JSON describing a grid of generated
scenarios::

    {
      "name": "utilization-sweep",
      "generator": "periodic",              // or ["periodic", "dag"]
      "seeds": [0, 1, 2],                   // or {"count": 8, "start": 0}
      "parameters": {                       // each key: list of values
        "utilization": [0.5, 0.7, 0.9],
        "n": [3, 5]
      },
      "options": {"horizon": "200ms", "verify": false}
    }

The cartesian product generator x seeds x parameters becomes one
campaign cell each; cells run through the
:class:`repro.campaign.runner.Runner` (process pool, retries, on-disk
:class:`~repro.campaign.cache.ResultCache`), so re-running a matrix
after editing one axis only simulates the new cells.  The report is a
plain dict -- ``pyrtos-sc batch-run`` writes it as JSON and
``pyrtos-sc compare`` diffs two of them.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..campaign.cache import ResultCache
from ..campaign.runner import Runner
from ..campaign.spec import ExperimentSpec
from ..errors import CorpusError
from .generators import GENERATORS, generate, spec_digest
from .pipeline import (
    PipelineOptions,
    merge_static_dynamic,
    run_pipeline,
    verdict_digest,
    violated_properties,
)

_MATRIX_KEYS = frozenset((
    "name", "generator", "seeds", "parameters", "options",
))


def load_matrix(path: Path) -> Dict:
    """Load and validate a matrix document from a JSON file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CorpusError(f"unreadable matrix file {path}: {exc}") from None
    return validate_matrix(doc)


def validate_matrix(doc: Dict) -> Dict:
    """Structurally validate a matrix document (returns it unchanged)."""
    if not isinstance(doc, dict):
        raise CorpusError(
            f"matrix document must be a JSON object, got "
            f"{type(doc).__name__}"
        )
    unknown = set(doc) - _MATRIX_KEYS
    if unknown:
        raise CorpusError(
            f"unknown matrix keys {sorted(unknown)}; "
            f"expected a subset of {sorted(_MATRIX_KEYS)}"
        )
    generators = doc.get("generator", sorted(GENERATORS))
    if isinstance(generators, str):
        generators = [generators]
    bad = set(generators) - set(GENERATORS)
    if bad:
        raise CorpusError(
            f"matrix names unknown generators {sorted(bad)}; "
            f"pick from {sorted(GENERATORS)}"
        )
    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict):
        raise CorpusError("matrix 'parameters' must be an object of lists")
    for key, values in parameters.items():
        if not isinstance(values, list) or not values:
            raise CorpusError(
                f"matrix parameter {key!r} must be a non-empty list, "
                f"got {values!r}"
            )
    _matrix_seeds(doc)  # raises on malformed seed axis
    return doc


def _matrix_seeds(doc: Dict) -> List[int]:
    seeds = doc.get("seeds", [0])
    if isinstance(seeds, dict):
        unknown = set(seeds) - {"count", "start"}
        if unknown:
            raise CorpusError(
                f"matrix seeds object has unknown keys {sorted(unknown)}"
            )
        count = seeds.get("count", 1)
        start = seeds.get("start", 0)
        if not isinstance(count, int) or count < 1:
            raise CorpusError(f"matrix seeds count must be >= 1: {count!r}")
        return list(range(start, start + count))
    if not isinstance(seeds, list) or not all(
            isinstance(s, int) for s in seeds):
        raise CorpusError(
            f"matrix 'seeds' must be a list of integers or "
            f"{{'count', 'start'}}, got {seeds!r}"
        )
    return seeds


def expand_matrix(doc: Dict) -> List[Dict]:
    """The cartesian product: one plain-JSON cell per grid point."""
    validate_matrix(doc)
    generators = doc.get("generator", sorted(GENERATORS))
    if isinstance(generators, str):
        generators = [generators]
    seeds = _matrix_seeds(doc)
    parameters = doc.get("parameters", {})
    options = doc.get("options", {})
    axes = sorted(parameters)
    cells: List[Dict] = []
    for generator in generators:
        for seed in seeds:
            for combo in itertools.product(
                    *(parameters[axis] for axis in axes)):
                cells.append({
                    "generator": generator,
                    "scenario_seed": seed,
                    "params": dict(zip(axes, combo)),
                    "options": dict(options),
                })
    return cells


def cell_key(cell: Dict) -> str:
    """The stable identity of one cell (used by ``compare``)."""
    params = json.dumps(cell.get("params", {}), sort_keys=True,
                        separators=(",", ":"))
    return f"{cell['generator']}:{cell['scenario_seed']}:{params}"


def run_cell(params: Dict) -> Dict:
    """Execute one matrix cell: generate + pipeline -> metrics dict.

    Module-level so the campaign Runner can ship cells to worker
    processes; ``params`` is the plain-JSON cell, which doubles as the
    cache key content.
    """
    spec = generate(params["generator"], params["scenario_seed"],
                    params.get("params") or None)
    options = PipelineOptions.from_dict(params.get("options", {}))
    verdict = run_pipeline(spec, options)
    simulate = verdict.get("simulate", {})
    return {
        "spec_sha256": spec_digest(spec),
        "verdict_sha256": verdict_digest(verdict),
        "properties": violated_properties(verdict),
        "end_time": simulate.get("end_time"),
        "lint_errors": len(verdict.get("lint", {}).get("errors", ())),
        "lint_warnings": len(verdict.get("lint", {}).get("warnings", ())),
        "lint_suppressed": sorted(
            verdict.get("lint", {}).get("suppressed", ())),
        "verify_verdict": verdict.get("verify", {}).get("verdict"),
        "static_dynamic": verdict.get("static_dynamic", {}),
    }


def run_matrix(doc: Dict, *, workers: int = 1,
               cache: Union[bool, str, Path, ResultCache, None] = None,
               timeout: Optional[float] = None,
               progress: bool = False) -> Dict:
    """Run every cell of a matrix document; returns the report dict."""
    validate_matrix(doc)
    cells = expand_matrix(doc)
    if not cells:
        raise CorpusError("matrix expands to zero cells")
    spec = ExperimentSpec(f"corpus-matrix-{doc.get('name', 'matrix')}",
                          run_cell)
    runner = Runner(workers=workers, cache=cache, timeout=timeout,
                    progress=progress)
    outcome = runner.execute(spec, cells)

    report_cells: List[Dict] = []
    by_property: Dict[str, int] = {}
    rule_totals: Dict[str, Dict[str, int]] = {}
    suppressed_totals: Dict[str, int] = {}
    end_times: List[int] = []
    for result in outcome.results:
        metrics = result.metrics
        for prop in metrics.get("properties", ()):
            by_property[prop] = by_property.get(prop, 0) + 1
        for rule_id in metrics.get("lint_suppressed", ()):
            suppressed_totals[rule_id] = suppressed_totals.get(rule_id, 0) + 1
        merge_static_dynamic(rule_totals, metrics.get("static_dynamic", {}))
        if isinstance(metrics.get("end_time"), (int, float)):
            end_times.append(metrics["end_time"])
        report_cells.append({
            "index": result.index,
            "key": cell_key(cells[result.index]),
            "cell": cells[result.index],
            "metrics": metrics,
            "cached": result.cached,
            "wall_s": round(result.wall_s, 6),
        })
    failures = [{
        "index": failure.index,
        "key": cell_key(cells[failure.index]),
        "error_type": failure.error_type,
        "message": failure.message,
    } for failure in outcome.failures]

    summary = {
        "cells": len(cells),
        "completed": len(outcome.results),
        "failed": len(failures),
        "violating": sum(1 for c in report_cells
                         if c["metrics"].get("properties")),
        "by_property": dict(sorted(by_property.items())),
        "static_dynamic": dict(sorted(rule_totals.items())),
        # cells whose verdicts lean on suppressions, counted honestly
        # per muted rule rather than silently folded into "clean"
        "suppressed": dict(sorted(suppressed_totals.items())),
        "cache_hits": outcome.cache_hits,
        "cache_misses": outcome.cache_misses,
        "wall_s": round(outcome.wall_s, 3),
    }
    if end_times:
        summary["end_time"] = {
            "min": min(end_times),
            "max": max(end_times),
            "mean": sum(end_times) / len(end_times),
        }
    return {
        "name": doc.get("name", "matrix"),
        "matrix": doc,
        "cells": report_cells,
        "failures": failures,
        "summary": summary,
    }


__all__ = [
    "cell_key",
    "expand_matrix",
    "load_matrix",
    "run_cell",
    "run_matrix",
    "validate_matrix",
]
