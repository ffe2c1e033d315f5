"""Tests for C code generation (paper §6 future work)."""

import re
import shutil
import subprocess

import pytest

from repro.codegen import CWriter, c_identifier, generate_c
from repro.errors import BuildError

from ..mcse.test_builder import fig6_spec

HAS_CC = shutil.which("cc") is not None


class TestIdentifiers:
    def test_plain_name(self):
        assert c_identifier("Function_1") == "Function_1"

    def test_specials_replaced(self):
        assert c_identifier("my.event-1") == "my_event_1"

    def test_leading_digit(self):
        assert c_identifier("1shot") == "_1shot"

    def test_empty(self):
        assert c_identifier("") == "_"


class TestGeneration:
    def test_all_three_files(self):
        files = generate_c(fig6_spec())
        assert set(files) == {"rtos_api.h", "rtos_port_posix.c", "app.c"}

    def test_app_structure(self):
        app = generate_c(fig6_spec())["app.c"]
        # one task function per model function
        for name in ("Function_1", "Function_2", "Function_3", "Clock"):
            assert f"static void task_{name}(void *arg)" in app
        # relations declared and created with the right policies
        assert "static rtos_event_t *Clk;" in app
        assert 'rtos_event_create("Clk", RTOS_EVENT_FUGITIVE);' in app
        assert 'rtos_event_create("Event_1", RTOS_EVENT_BOOLEAN);' in app
        # behaviors translated op for op
        assert "rtos_event_wait(Clk);" in app
        assert "rtos_busy_us(20);" in app
        assert "rtos_event_signal(Event_1);" in app
        assert "rtos_delay_us(100);" in app
        # tasks registered with their model priorities
        assert 'rtos_task_create("Function_1", task_Function_1, 0, 5);' in app
        assert "rtos_start();" in app

    def test_queue_and_shared_ops(self):
        spec = {
            "name": "qs",
            "relations": [
                {"kind": "queue", "name": "q", "capacity": 4},
                {"kind": "shared", "name": "sv", "initial": 7},
            ],
            "functions": [
                {"name": "p", "script": [
                    ["loop", 3, [["write", "q", 42]]],
                    ["write_shared", "sv", 9],
                ]},
                {"name": "c", "script": [
                    ["loop", 3, [["read", "q"]]],
                    ["lock", "sv"], ["unlock", "sv"],
                    ["read_shared", "sv"],
                ]},
            ],
        }
        app = generate_c(spec)["app.c"]
        assert "rtos_queue_send(q, 42);" in app
        assert "(void)rtos_queue_recv(q);" in app
        assert "rtos_mutex_lock(sv_mutex);" in app
        assert "sv_value = 9;" in app
        assert 'rtos_queue_create("q", 4);' in app
        assert "sv_value = 7;" in app  # initial value

    def test_infinite_loop(self):
        spec = {
            "relations": [],
            "functions": [
                {"name": "spin",
                 "script": [["loop", None, [["delay", "1us"]]]]}
            ],
        }
        app = generate_c(spec)["app.c"]
        assert "for (;;) {" in app

    def test_python_behavior_becomes_stub(self):
        def body(fn):
            yield from fn.execute(1)

        spec = {"relations": [], "functions": [{"name": "f", "behavior": body}]}
        app = generate_c(spec)["app.c"]
        assert "TODO" in app

    def test_set_preemptive(self):
        spec = {
            "relations": [],
            "processors": [{"name": "cpu"}],
            "functions": [
                {"name": "f", "processor": "cpu",
                 "script": [["set_preemptive", False],
                            ["set_preemptive", True]]}
            ],
        }
        app = generate_c(spec)["app.c"]
        assert "rtos_set_preemptive(0);" in app
        assert "rtos_set_preemptive(1);" in app

    def test_unknown_relation_rejected(self):
        spec = {"relations": [],
                "functions": [{"name": "f", "script": [["wait", "ghost"]]}]}
        with pytest.raises(BuildError):
            generate_c(spec)

    def test_untimed_waits_take_forever_and_none(self):
        spec = {
            "relations": [{"kind": "event", "name": "e"},
                          {"kind": "queue", "name": "q"}],
            "functions": [{"name": "f", "script": [
                ["wait", "e", None], ["read", "q", "forever"],
                ["write", "q", 1, None],
            ]}],
        }
        app = generate_c(spec)["app.c"]
        assert "rtos_event_wait(e);" in app
        assert "(void)rtos_queue_recv(q);" in app
        assert "rtos_queue_send(q, 1);" in app

    @pytest.mark.parametrize("op,message", [
        (["wait", "e", 0], "wait with a timeout (0s)"),
        (["wait", "e", "5us"], "wait with a timeout (5us)"),
        (["read", "q", 0], "read with a timeout (0s)"),
        (["write", "q", 1, "2us"], "write with a timeout (2us)"),
        (["delay_until", "1ms"], "delay_until"),
    ])
    def test_inexpressible_op_names_function_and_path(self, op, message):
        spec = {
            "relations": [{"kind": "event", "name": "e"},
                          {"kind": "queue", "name": "q"}],
            "functions": [{"name": "f", "script": [
                ["execute", "1us"], ["loop", 2, [op]],
            ]}],
        }
        with pytest.raises(BuildError, match="^" + re.escape(
                "function 'f': script[1][0]: the generated C API has no "
                + message)):
            generate_c(spec)

    def test_flags_relation_rejected(self):
        spec = {
            "relations": [{"kind": "flags", "name": "fl"}],
            "functions": [{"name": "f", "script": [["set_flag", "fl", 1]]}],
        }
        with pytest.raises(BuildError,
                           match="relation 'fl': the generated C API has no "
                                 "flags relations"):
            generate_c(spec)

    def test_personality_spec_emits_its_lowered_tasks(self):
        spec = {
            "name": "pc",
            "personality": "freertos",
            "objects": [{"kind": "queue", "name": "q", "length": 2}],
            "tasks": [
                {"name": "prod", "priority": 2, "script": [
                    ["loop", None, [["execute", "10us"],
                                    ["xQueueSend", "q", 1],
                                    ["vTaskDelay", "1ms"]]]]},
                {"name": "cons", "priority": 1, "script": [
                    ["loop", None, [["xQueueReceive", "q"],
                                    ["execute", "5us"]]]]},
            ],
        }
        app = generate_c(spec)["app.c"]
        assert 'q = rtos_queue_create("q", 2);' in app
        for name in ("prod", "cons"):
            assert f"static void task_{name}(void *arg)" in app
        assert "rtos_queue_send(q, 1);" in app
        assert "(void)rtos_queue_recv(q);" in app
        assert "rtos_delay_us(1000);" in app

    def test_timed_personality_op_is_rejected(self):
        from repro.corpus import generate

        with pytest.raises(BuildError, match="^" + re.escape(
                "function 'producer0': script[0][1]: the generated C API "
                "has no write with a timeout (5ms)")):
            generate_c(generate("freertos", 0))

    def test_write_to_directory(self, tmp_path):
        paths = generate_c(fig6_spec(), str(tmp_path))
        assert len(paths) == 3
        assert (tmp_path / "app.c").exists()


@pytest.mark.skipif(not HAS_CC, reason="no C compiler available")
class TestCompilation:
    def test_fig6_compiles(self, tmp_path):
        generate_c(fig6_spec(), str(tmp_path))
        binary = tmp_path / "app"
        subprocess.run(
            ["cc", "-O1", "-Wall", "-Werror", "app.c", "rtos_port_posix.c",
             "-lpthread", "-o", str(binary)],
            cwd=tmp_path, check=True, capture_output=True,
        )
        assert binary.exists()

    def test_generated_binary_runs(self, tmp_path):
        """The generated Fig-6 application actually executes on POSIX."""
        generate_c(fig6_spec(), str(tmp_path))
        binary = tmp_path / "app"
        subprocess.run(
            ["cc", "-O1", "app.c", "rtos_port_posix.c", "-lpthread",
             "-o", str(binary)],
            cwd=tmp_path, check=True, capture_output=True,
        )
        result = subprocess.run(
            [str(binary)], timeout=30, capture_output=True
        )
        assert result.returncode == 0
