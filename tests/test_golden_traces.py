"""Golden-trace conformance: the schedules the paper draws are frozen.

The fig6 timeline and fig7 mutex-blocking schedules (built by
``benchmarks/_scenarios.py``) are captured as checked-in traces under
``tests/golden/``.  Every run must reproduce them record-for-record on
the observable dimensions (task states, accesses, preemptions) --
RTK-Spec-TRON-style trace conformance, with :mod:`repro.trace.diff`
producing the failure report.

Regenerating the goldens (only after an *intended* schedule change)::

    PYTHONPATH=src:benchmarks python tests/test_golden_traces.py --regen
"""

import os
import sys

import pytest

from _scenarios import build_fig6_system, build_fig7_system

from repro.trace import TraceRecorder, diff_traces, format_diff

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

FIG7_VARIANTS = ("plain", "ceiling")


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name)


def record_fig6(engine: str) -> TraceRecorder:
    system, _log = build_fig6_system(engine=engine)
    recorder = TraceRecorder(system.sim)
    system.run()
    return recorder


def record_fig7(variant: str) -> TraceRecorder:
    system, recorder, _done = build_fig7_system(variant)
    system.run()
    return recorder


def assert_conforms(fresh: TraceRecorder, golden_name: str) -> None:
    golden = TraceRecorder.load_jsonl(golden_path(golden_name))
    divergences = diff_traces(golden, fresh)
    assert not divergences, (
        f"trace diverges from {golden_name} (left=golden, right=run):\n"
        + format_diff(divergences)
    )


@pytest.mark.parametrize("engine", ["procedural", "threaded"])
def test_fig6_timeline_conforms(engine):
    """Both engines must reproduce the checked-in fig6 schedule."""
    assert_conforms(record_fig6(engine), "fig6_timeline.jsonl")


@pytest.mark.parametrize("variant", FIG7_VARIANTS)
def test_fig7_mutex_blocking_conforms(variant):
    assert_conforms(record_fig7(variant), f"fig7_{variant}.jsonl")


def model_counts(system, recorder):
    cpus = system.processors.values()
    return (
        system.sim.process_switch_count,
        system.sim.delta_count,
        len(recorder.records),
        sum(cpu.dispatch_count for cpu in cpus),
        sum(cpu.preemption_count for cpu in cpus),
    )


#: (process switches, delta cycles, records, dispatches, preemptions) of
#: each golden model.  A pure speed-up leaves every one unchanged; the
#: engines differ only in switches (the threaded RTOS runs as a thread).
GOLDEN_COUNTS = {
    ("fig6", "procedural"): (38, 11, 47, 6, 1),
    ("fig6", "threaded"): (51, 11, 47, 6, 1),
    ("fig7", "plain"): (52, 13, 59, 9, 3),
    ("fig7", "ceiling"): (30, 9, 35, 5, 0),
}


@pytest.mark.parametrize("model,variant", list(GOLDEN_COUNTS))
def test_golden_models_keep_their_kernel_and_rtos_counts(model, variant):
    if model == "fig6":
        system, _log = build_fig6_system(engine=variant)
        recorder = TraceRecorder(system.sim)
    else:
        system, recorder, _done = build_fig7_system(variant)
    system.run()
    assert model_counts(system, recorder) == GOLDEN_COUNTS[model, variant]


def test_goldens_are_nonempty():
    """Guard against silently-empty golden files masking conformance."""
    for name in ["fig6_timeline.jsonl"] + [
        f"fig7_{v}.jsonl" for v in FIG7_VARIANTS
    ]:
        golden = TraceRecorder.load_jsonl(golden_path(name))
        assert len(golden.records) > 20, name


def _regen() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    record_fig6("procedural").save_jsonl(golden_path("fig6_timeline.jsonl"))
    for variant in FIG7_VARIANTS:
        record_fig7(variant).save_jsonl(golden_path(f"fig7_{variant}.jsonl"))
    print(f"regenerated goldens under {GOLDEN_DIR}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
