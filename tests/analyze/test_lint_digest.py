"""Pin the linter's exact output over a fixed corpus sample.

A speed-up of the linter must not change a single diagnostic: not its
rule, severity, location, hint, nor any RTA number inside its message.
The digest below hashes the ``repr`` of every diagnostic and every
suppressed diagnostic over seeded specs of all nine corpus generators
(plus PIP/PCP periodic contention sets, which exercise the
blocking-aware RTA and Audsley's OPA).  The second half guards the
"compute once per lint" contract with call counts.

Run this file as a script to print the sample's digest and rule
histogram::

    PYTHONPATH=src python tests/analyze/test_lint_digest.py
"""

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

from repro.analyze import analyze_system, effects, schedulability
from repro.corpus import GENERATORS, generate
from repro.kernel.simulator import Simulator
from repro.mcse.builder import build_system
from repro.rtos.overheads import Overheads

#: sha256 over the sample below, taken from the linter before the
#: per-lint context existed; any change to a diagnostic changes it.
EXPECTED_DIGEST = (
    "08e2087c37e5c351a7b399808911594b96aabbdee42109c833d69428ad4ee202")

SEEDS_PER_KIND = 12
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def sample_specs():
    """(label, spec) pairs: fuzzed specs of every generator, PIP/PCP
    periodic contention, and the example specs (RTS183, SMP)."""
    specs = []
    for kind in sorted(GENERATORS):
        for seed in range(SEEDS_PER_KIND):
            params = GENERATORS[kind].fuzz(
                random.Random(f"lint-digest:{kind}:{seed}"))
            specs.append((f"{kind}:{seed}", generate(kind, seed, params)))
    for protocol in ("inheritance", "ceiling"):
        for seed in range(SEEDS_PER_KIND):
            params = {"protocol": protocol, "periodic": True,
                      "tasks": 3 + seed % 2, "deadline_frac": 0.5,
                      "processors": 1 + seed % 2}
            specs.append((f"contention-{protocol}:{seed}",
                          generate("contention", seed, params)))
    for name in ("blocking_budget.json", "smp_global_edf.json"):
        specs.append((name, json.loads((EXAMPLES / name).read_text())))
    return specs


def lint_sample():
    """The digest and the per-rule histogram of the whole sample."""
    digest = hashlib.sha256()
    rules = Counter()
    for label, spec in sample_specs():
        report = analyze_system(build_system(spec, sim=Simulator(label)))
        digest.update(label.encode())
        digest.update(repr(report.diagnostics).encode())
        digest.update(repr(report.suppressed).encode())
        rules.update(d.rule for d in report.diagnostics)
        rules.update(d.rule for d in report.suppressed)
    return digest.hexdigest(), rules


def test_lint_output_is_pinned():
    digest, rules = lint_sample()
    # the sample must reach the rules whose messages carry RTA numbers
    for rule_id in ("RTS103", "RTS105", "RTS180", "RTS182"):
        assert rules[rule_id] > 0, rule_id
    assert digest == EXPECTED_DIGEST


def _count_calls(codes, action):
    """Run ``action()`` counting calls into each code object."""
    counts = Counter()

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return counts


def test_each_fact_is_computed_once_per_lint():
    spec = generate("contention", 1, {"protocol": "inheritance",
                                      "periodic": True, "tasks": 4,
                                      "deadline_frac": 0.5,
                                      "processors": 2})
    system = build_system(spec, sim=Simulator("calls"))
    codes = {
        effects.task_effects.__code__: "task_effects",
        schedulability.periodic_profile.__code__: "periodic_profile",
        schedulability.probe_overheads.__code__: "probe_overheads",
    }
    counts = _count_calls(codes, lambda: analyze_system(system))
    mapped = [task for cpu in system.processors.values()
              for task in cpu.tasks]
    assert len(system.functions) == 4 and len(system.processors) == 2
    assert counts["task_effects"] == len(system.functions)
    assert counts["periodic_profile"] == len(mapped)
    assert counts["probe_overheads"] == len(system.processors)


def test_each_overhead_formula_is_called_once_per_processor():
    spec = generate("contention", 1, {"protocol": "inheritance",
                                      "periodic": True, "tasks": 4,
                                      "deadline_frac": 0.5,
                                      "processors": 2})
    system = build_system(spec, sim=Simulator("formulas"))
    calls = Counter()

    def formula(component, cost):
        def evaluate(processor):
            calls[processor.name, component] += 1
            return cost
        return evaluate

    for processor in system.processors.values():
        processor.overheads = Overheads(
            scheduling=formula("scheduling", 1000),
            context_load=formula("context_load", 2000),
            context_save=formula("context_save", 3000))
    report = analyze_system(system)
    assert report.by_rule("RTS105") or report.by_rule("RTS180")
    assert calls == {(cpu, component): 1
                     for cpu in system.processors
                     for component in ("scheduling", "context_load",
                                       "context_save")}


if __name__ == "__main__":
    found, histogram = lint_sample()
    print(found)
    for rule_id, count in sorted(histogram.items()):
        print(f"  {rule_id} {count}")
