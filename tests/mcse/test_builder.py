"""Tests for the declarative system builder (the 'code generator')."""

import pytest

from repro.errors import BuildError
from repro.kernel.time import US
from repro.mcse import build_system


def fig6_spec():
    """The paper's §5 system as a plain-data specification."""
    return {
        "name": "fig6",
        "relations": [
            {"kind": "event", "name": "Clk", "policy": "fugitive"},
            {"kind": "event", "name": "Event_1", "policy": "boolean"},
        ],
        "processors": [
            {
                "name": "Processor",
                "policy": "priority_preemptive",
                "scheduling_duration": "5us",
                "context_load_duration": "5us",
                "context_save_duration": "5us",
            }
        ],
        "functions": [
            {
                "name": "Function_1",
                "priority": 5,
                "processor": "Processor",
                "script": [
                    ["wait", "Clk"],
                    ["execute", "20us"],
                    ["signal", "Event_1"],
                    ["execute", "10us"],
                ],
            },
            {
                "name": "Function_2",
                "priority": 3,
                "processor": "Processor",
                "script": [["wait", "Event_1"], ["execute", "30us"]],
            },
            {
                "name": "Function_3",
                "priority": 2,
                "processor": "Processor",
                "script": [["execute", "200us"]],
            },
            {
                "name": "Clock",
                "script": [["delay", "100us"], ["signal", "Clk"]],
            },
        ],
    }


class TestBuildFig6:
    def test_elaborates_and_runs(self):
        system = build_system(fig6_spec())
        end = system.run()
        assert end == 345 * US

    def test_same_timing_as_hand_written_model(self):
        """The generated model must match tests.rtos.helpers exactly."""
        from ..rtos.helpers import build_fig6_system

        generated = build_system(fig6_spec())
        generated.run()
        hand_written, _ = build_fig6_system("procedural")
        hand_written.run()
        assert generated.now == hand_written.now
        for name in ("Function_1", "Function_2", "Function_3"):
            g = generated.functions[name]
            h = hand_written.functions[name]
            assert g.state_durations == h.state_durations, name

    def test_mapping_applied(self):
        system = build_system(fig6_spec())
        assert system.functions["Function_1"].task is not None
        assert system.functions["Clock"].task is None  # hardware


class TestScriptOps:
    def test_queue_and_shared_ops(self):
        spec = {
            "relations": [
                {"kind": "queue", "name": "q", "capacity": 2},
                {"kind": "shared", "name": "sv", "initial": 5},
            ],
            "functions": [
                {
                    "name": "producer",
                    "script": [["loop", 3, [["write", "q", 7], ["execute", "1us"]]]],
                },
                {
                    "name": "consumer",
                    "script": [
                        ["loop", 3, [["read", "q"]]],
                        ["lock", "sv"],
                        ["execute", "2us"],
                        ["unlock", "sv"],
                        ["read_shared", "sv"],
                        ["write_shared", "sv", 9],
                    ],
                },
            ],
        }
        system = build_system(spec)
        system.run()
        assert system.relations["q"].total_got == 3
        assert system.relations["sv"].value == 9

    def test_infinite_loop_bounded_by_run(self):
        spec = {
            "relations": [],
            "functions": [
                {"name": "spin", "script": [["loop", None, [["execute", "1us"]]]]}
            ],
        }
        system = build_system(spec)
        system.run(50 * US)
        assert system.now == 50 * US

    def test_set_preemptive_op(self):
        spec = {
            "relations": [],
            "processors": [{"name": "cpu"}],
            "functions": [
                {
                    "name": "t",
                    "processor": "cpu",
                    "script": [
                        ["set_preemptive", False],
                        ["execute", "1us"],
                        ["set_preemptive", True],
                    ],
                }
            ],
        }
        system = build_system(spec)
        system.run()
        assert system.processors["cpu"].preemptive


class TestProcessorParamPassthrough:
    def test_engine_selected_from_spec(self):
        spec = {
            "relations": [],
            "processors": [{"name": "cpu", "engine": "threaded"}],
            "functions": [
                {"name": "f", "processor": "cpu",
                 "script": [["execute", "1us"]]}
            ],
        }
        system = build_system(spec)
        assert system.processors["cpu"].engine == "threaded"
        system.run()

    def test_policy_with_time_slice(self):
        spec = {
            "relations": [],
            "processors": [{"name": "cpu", "policy": "round_robin",
                            "time_slice": "2us"}],
            "functions": [
                {"name": "a", "processor": "cpu",
                 "script": [["execute", "4us"]]},
                {"name": "b", "processor": "cpu",
                 "script": [["execute", "4us"]]},
            ],
        }
        system = build_system(spec)
        assert system.processors["cpu"].policy.name == "round_robin"
        system.run()
        assert system.processors["cpu"].preemption_count > 0

    def test_speed_from_spec(self):
        spec = {
            "relations": [],
            "processors": [{"name": "cpu", "speed": 2.0}],
            "functions": [
                {"name": "f", "processor": "cpu",
                 "script": [["execute", "10us"]]}
            ],
        }
        system = build_system(spec)
        end = system.run()
        assert end == 5 * US

    def test_non_preemptive_from_spec(self):
        spec = {
            "relations": [],
            "processors": [{"name": "cpu", "preemptive": False}],
            "functions": [
                {"name": "f", "processor": "cpu",
                 "script": [["execute", "1us"]]}
            ],
        }
        system = build_system(spec)
        assert not system.processors["cpu"].preemptive


class TestSpecValidation:
    def test_unknown_relation_kind(self):
        with pytest.raises(BuildError, match="unknown relation kind"):
            build_system({"relations": [{"kind": "wormhole", "name": "w"}]})

    def test_missing_function_name(self):
        with pytest.raises(BuildError, match="missing a name"):
            build_system({"functions": [{"script": []}]})

    def test_unknown_processor_reference(self):
        spec = {
            "functions": [
                {"name": "f", "processor": "ghost", "script": [["execute", "1us"]]}
            ]
        }
        with pytest.raises(BuildError, match="unknown processor"):
            build_system(spec)

    def test_unknown_relation_reference(self):
        spec = {"functions": [{"name": "f", "script": [["wait", "ghost"]]}]}
        with pytest.raises(BuildError, match="unknown relation"):
            build_system(spec)

    def test_unknown_op(self):
        spec = {"functions": [{"name": "f", "script": [["teleport", "x"]]}]}
        with pytest.raises(BuildError, match="unknown op"):
            build_system(spec)

    def test_behavior_and_script_exclusive(self):
        def body(fn):
            yield from fn.execute(1 * US)

        spec = {
            "functions": [
                {"name": "f", "behavior": body, "script": [["execute", "1us"]]}
            ]
        }
        with pytest.raises(BuildError, match="not both"):
            build_system(spec)

    def test_function_needs_some_behavior(self):
        with pytest.raises(BuildError, match="needs a behavior"):
            build_system({"functions": [{"name": "f"}]})

    def test_bad_loop_count(self):
        spec = {"functions": [{"name": "f", "script": [["loop", -1, []]]}]}
        with pytest.raises(BuildError, match="loop count"):
            build_system(spec)

    def test_non_dict_spec(self):
        with pytest.raises(BuildError):
            build_system(["not", "a", "dict"])

    def test_python_behavior_callable(self):
        seen = []

        def body(fn):
            yield from fn.execute(3 * US)
            seen.append(fn.sim.now)

        system = build_system({"functions": [{"name": "f", "behavior": body}]})
        system.run()
        assert seen == [3 * US]


class TestValidatedForm:
    """Repeated builds of one spec reuse its validated, parsed form."""

    def test_rebuild_is_an_independent_equal_model(self):
        spec = fig6_spec()
        first, second = build_system(spec), build_system(spec)
        assert first.functions["Function_1"] is not \
            second.functions["Function_1"]
        assert first.run() == second.run() == 345 * US
        for name in ("Function_1", "Function_2", "Function_3"):
            assert first.functions[name].state_durations == \
                second.functions[name].state_durations, name

    def test_rebuild_skips_validation(self, monkeypatch):
        import repro.mcse.builder as builder

        spec = fig6_spec()
        build_system(spec)
        calls = []
        real = builder._validate_block

        def validate_block(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(builder, "_validate_block", validate_block)
        build_system(spec)
        assert calls == []
        build_system(dict(spec, name="renamed"))  # a different spec
        assert calls

    def test_an_edited_spec_is_validated_again(self):
        spec = fig6_spec()
        build_system(spec)
        spec["functions"][0]["script"].append(["bogus"])
        with pytest.raises(BuildError, match="unknown op"):
            build_system(spec)

    def test_errors_are_never_cached(self):
        spec = {"functions": [{"name": "f", "script": [["bogus"]]}]}
        for _ in range(2):
            with pytest.raises(BuildError, match="unknown op"):
                build_system(spec)


class TestTemplates:
    """The per-function template the model checker's symmetry reads."""

    @staticmethod
    def spec(*functions, relations=()):
        return {"name": "templates", "relations": list(relations),
                "processors": [{"name": "cpu"}],
                "functions": list(functions)}

    @staticmethod
    def entry(name, **extra):
        return dict({"name": name, "priority": 1, "processor": "cpu",
                     "script": [["execute", "5us"]]}, **extra)

    def templates(self, spec):
        return {name: fn.template
                for name, fn in build_system(spec).functions.items()}

    def test_copies_share_a_template_up_to_key_order(self):
        first = self.entry("a")
        second = dict(reversed(list(self.entry("b").items())))
        found = self.templates(self.spec(first, second))
        assert found["a"] is not None and found["a"] == found["b"]
        # a rebuild from the validated form stamps the same templates
        assert self.templates(self.spec(first, second)) == found

    def test_any_other_key_tells_copies_apart(self):
        found = self.templates(self.spec(
            self.entry("a"), self.entry("b", deadline="10us"),
            self.entry("c", priority=2),
        ))
        assert len(set(found.values())) == 3

    def test_behavior_and_referenced_names_have_none(self):
        def body(fn):
            yield from fn.execute(5 * US)

        found = self.templates(self.spec(
            self.entry("a"), {"name": "b", "behavior": body},
            self.entry("c", script=[["write", "q", "a"]]),
            relations=[{"kind": "queue", "name": "q"}],
        ))
        assert found["a"] is None  # the value "a" written to q names it
        assert found["b"] is None
        assert found["c"] is not None

    def test_personality_ops_join_the_template(self):
        tasks = [{"name": name, "priority": 2,
                  "script": [["vTaskDelay", delay]]}
                 for name, delay in (("a", "1ms"), ("b", "1ms"),
                                     ("c", "2ms"))]
        found = self.templates({"name": "app", "personality": "freertos",
                                "objects": [], "tasks": tasks})
        assert found["a"] == found["b"] != found["c"]
        assert "vTaskDelay" in found["a"]
