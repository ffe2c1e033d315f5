"""Audsley OPA priority-assignment analysis (RTS182)."""

from repro.analyze import analyze_system, suggest_priorities
from repro.analyze.assign import opa_assignment
from repro.analyze.context import LintContext
from repro.kernel.simulator import Simulator
from repro.mcse.builder import build_system


def periodic_fn(name, priority, *, wcet, period, deadline=None,
                trailing=None, **extra):
    fn = dict(
        {
            "name": name,
            "priority": priority,
            "processor": "cpu",
            "wcet": wcet,
            "period": period,
            "script": [["loop", None,
                        [["execute", wcet],
                         ["delay", trailing or period]]]],
        },
        **extra,
    )
    if deadline is not None:
        fn["deadline"] = deadline
    return fn


def spec_of(functions, relations=(), policy="priority_preemptive"):
    return {
        "name": "t",
        "relations": list(relations),
        "processors": [{"name": "cpu", "policy": policy}],
        "functions": functions,
    }


def misassigned_spec(policy="priority_preemptive"):
    """Rate-monotonic order fails; deadline-monotonic order works.

    ``urgent`` has the short deadline but the long period, so the
    period-ordered priorities starve it past its deadline; swapping the
    two priority values makes both tasks schedulable.
    """
    return spec_of([
        periodic_fn("urgent", 1, wcet="10us", period="200us",
                    deadline="20us", trailing="190us"),
        periodic_fn("frequent", 2, wcet="30us", period="100us",
                    deadline="100us", trailing="70us"),
    ], policy=policy)


def report_of(spec):
    return analyze_system(build_system(spec, sim=Simulator("assign-test")))


class TestRTS182:
    def test_feasible_reassignment_is_warning_with_fix(self):
        report = report_of(misassigned_spec())
        (diag,) = report.by_rule("RTS182")
        assert diag.severity.name == "WARNING"
        assert "urgent" in diag.message
        assert "--fix" in (diag.hint or "")

    def test_feasible_current_assignment_is_silent(self):
        spec = spec_of([
            periodic_fn("urgent", 2, wcet="10us", period="200us",
                        deadline="20us", trailing="190us"),
            periodic_fn("frequent", 1, wcet="30us", period="100us",
                        deadline="100us", trailing="70us"),
        ])
        assert not report_of(spec).by_rule("RTS182")

    def test_no_feasible_assignment_is_error_when_exact(self):
        # both orderings overrun: utilization fits but deadlines cannot
        spec = spec_of([
            periodic_fn("a", 2, wcet="30us", period="100us",
                        deadline="35us", trailing="70us"),
            periodic_fn("b", 1, wcet="30us", period="100us",
                        deadline="35us", trailing="70us"),
        ])
        report = report_of(spec)
        (diag,) = report.by_rule("RTS182")
        assert diag.severity.name == "ERROR"
        assert "no fixed-priority assignment" in diag.message

    def test_silent_under_non_priority_policy(self):
        report = report_of(misassigned_spec(policy="fifo"))
        assert not report.by_rule("RTS182")


class TestOpaAssignment:
    def _model(self, spec):
        system = build_system(spec, sim=Simulator("opa-test"))
        context = LintContext(system)
        (processor,) = system.processors.values()
        return context.profiles(processor), context.model

    def test_finds_deadline_monotonic_swap(self):
        profiles, model = self._model(misassigned_spec())
        assignment = opa_assignment(
            profiles, model, {"urgent": 1, "frequent": 2}, 0, 0)
        assert assignment == {"urgent": 2, "frequent": 1}

    def test_preserves_the_existing_value_range(self):
        spec = spec_of([
            periodic_fn("urgent", 10, wcet="10us", period="200us",
                        deadline="20us", trailing="190us"),
            periodic_fn("frequent", 40, wcet="30us", period="100us",
                        deadline="100us", trailing="70us"),
        ])
        profiles, model = self._model(spec)
        assignment = opa_assignment(
            profiles, model, {"urgent": 10, "frequent": 40}, 0, 0)
        assert sorted(assignment.values()) == [10, 40]

    def test_infeasible_returns_none(self):
        spec = spec_of([
            periodic_fn("a", 2, wcet="30us", period="100us",
                        deadline="35us", trailing="70us"),
            periodic_fn("b", 1, wcet="30us", period="100us",
                        deadline="35us", trailing="70us"),
        ])
        profiles, model = self._model(spec)
        assert opa_assignment(profiles, model,
                              {"a": 2, "b": 1}, 0, 0) is None


class TestSuggestPriorities:
    def test_suggests_only_changed_tasks(self):
        system = build_system(misassigned_spec(), sim=Simulator("s"))
        changes = suggest_priorities(system)
        assert changes == {"urgent": 2, "frequent": 1}

    def test_empty_when_already_feasible(self):
        spec = spec_of([
            periodic_fn("urgent", 2, wcet="10us", period="200us",
                        deadline="20us", trailing="190us"),
            periodic_fn("frequent", 1, wcet="30us", period="100us",
                        deadline="100us", trailing="70us"),
        ])
        system = build_system(spec, sim=Simulator("s"))
        assert suggest_priorities(system) == {}
