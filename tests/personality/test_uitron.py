"""µITRON personality: priority inversion-of-convention, counted wakeups,
eventflags, mailboxes."""

import pytest

from repro.errors import BuildError
from repro.kernel.simulator import Simulator
from repro.kernel.time import US
from repro.mcse.builder import build_system
from repro.personality import UITRONPersonality


def lower(spec):
    return UITRONPersonality().lower(spec)


def base_spec(**overrides):
    spec = {
        "name": "app",
        "personality": "uitron",
        "objects": [{"kind": "semaphore", "name": "sem"}],
        "tasks": [
            {"name": "t", "priority": 1, "script": [
                ["wai_sem", "sem"], ["execute", "1us"],
                ["sig_sem", "sem"],
            ]},
        ],
    }
    spec.update(overrides)
    return spec


class TestPriorities:
    def test_itron_priorities_are_negated(self):
        spec = base_spec(tasks=[
            {"name": "urgent", "priority": 1, "script": []},
            {"name": "relaxed", "priority": 5, "script": []},
        ])
        functions = {fn["name"]: fn for fn in lower(spec).spec["functions"]}
        assert functions["urgent"]["priority"] == -1
        assert functions["relaxed"]["priority"] == -5
        # ITRON 1-is-most-urgent maps onto generic larger-is-more-urgent
        assert functions["urgent"]["priority"] > \
            functions["relaxed"]["priority"]

    @pytest.mark.parametrize("bad", (0, -1, "high"))
    def test_priorities_below_one_are_rejected(self, bad):
        spec = base_spec(tasks=[{"name": "t", "priority": bad,
                                 "script": []}])
        with pytest.raises(BuildError, match="start at 1"):
            lower(spec)


class TestObjectLowering:
    def test_semaphore_defaults_full(self):
        relation = lower(base_spec()).spec["relations"][0]
        assert relation == {"kind": "event", "name": "sem",
                            "policy": "counter", "max_count": 1,
                            "initial": 1}

    def test_eventflag_clear_on_wake(self):
        spec = base_spec(
            objects=[{"kind": "eventflag", "name": "flg", "initial": 0b01,
                      "clear_on_wake": True}],
            tasks=[{"name": "t", "priority": 1,
                    "script": [["set_flg", "flg", 0b10]]}],
        )
        relation = lower(spec).spec["relations"][0]
        assert relation == {"kind": "flags", "name": "flg",
                            "initial": 0b01, "clear_on_wake": True}

    def test_mailbox_is_unbounded_by_default(self):
        spec = base_spec(
            objects=[{"kind": "mailbox", "name": "mbx"}],
            tasks=[{"name": "t", "priority": 1,
                    "script": [["snd_mbx", "mbx", 1]]}],
        )
        relation = lower(spec).spec["relations"][0]
        assert relation == {"kind": "queue", "name": "mbx",
                            "capacity": None}


class TestOpLowering:
    def ops(self, script, objects=None):
        spec = base_spec(
            objects=[] if objects is None else objects,
            tasks=[{"name": "t", "priority": 1, "script": script}],
        )
        return lower(spec).spec["functions"][0]["script"]

    def test_sleep_wakeup_use_counted_per_task_events(self):
        spec = base_spec(
            objects=[],
            tasks=[
                {"name": "sleeper", "priority": 1,
                 "script": [["slp_tsk"]]},
                {"name": "waker", "priority": 2,
                 "script": [["wup_tsk", "sleeper"]]},
            ],
        )
        lowering = lower(spec)
        assert lowering.spec["functions"][0]["script"] == \
            [["wait", "sleeper.wup"]]
        assert lowering.spec["functions"][1]["script"] == \
            [["signal", "sleeper.wup"]]
        assert {"kind": "event", "name": "sleeper.wup",
                "policy": "counter"} in lowering.spec["relations"]

    def test_wakeup_target_must_be_a_task(self):
        spec = base_spec(
            objects=[],
            tasks=[{"name": "t", "priority": 1,
                    "script": [["wup_tsk", "ghost"]]}],
        )
        with pytest.raises(BuildError, match="ghost"):
            lower(spec)

    def test_timed_sleep_and_timeout_constants(self):
        assert self.ops([["tslp_tsk", "5ms"]]) == \
            [["wait", "t.wup", "5ms"]]
        assert self.ops([["tslp_tsk", "TMO_FEVR"]]) == [["wait", "t.wup"]]
        assert self.ops([["tslp_tsk", "TMO_POL"]]) == \
            [["wait", "t.wup", 0]]

    def test_mailbox_ops(self):
        objects = [{"kind": "mailbox", "name": "mbx"}]
        assert self.ops([["snd_mbx", "mbx", 9]], objects) == \
            [["write", "mbx", 9]]
        assert self.ops([["trcv_mbx", "mbx", "2ms"]], objects) == \
            [["read", "mbx", "2ms"]]

    def test_timed_mailbox_send(self):
        objects = [{"kind": "mailbox", "name": "mbx", "capacity": 1}]
        assert self.ops([["tsnd_mbx", "mbx", 9, "3ms"],
                         ["tsnd_mbx", "mbx", 8, "TMO_POL"],
                         ["tsnd_mbx", "mbx", 7, "TMO_FEVR"]], objects) == \
            [["write", "mbx", 9, "3ms"], ["write", "mbx", 8, 0],
             ["write", "mbx", 7]]
        with pytest.raises(BuildError, match="tsnd_mbx, mailbox, value, tmo"):
            self.ops([["tsnd_mbx", "mbx", 9]], objects)

    def test_timed_semaphore_wait(self):
        objects = [{"kind": "semaphore", "name": "sem"}]
        assert self.ops([["twai_sem", "sem", "1ms"],
                         ["twai_sem", "sem", "TMO_POL"],
                         ["twai_sem", "sem", "TMO_FEVR"]], objects) == \
            [["wait", "sem", "1ms"], ["wait", "sem", 0], ["wait", "sem"]]
        with pytest.raises(BuildError, match="is a mailbox"):
            self.ops([["twai_sem", "mbx", "1ms"]],
                     [{"kind": "mailbox", "name": "mbx"}])

    def test_flag_ops_and_wait_modes(self):
        objects = [{"kind": "eventflag", "name": "flg"}]
        assert self.ops([["set_flg", "flg", 0b11]], objects) == \
            [["set_flag", "flg", 0b11]]
        assert self.ops([["clr_flg", "flg", 0]], objects) == \
            [["clr_flag", "flg", 0]]
        assert self.ops([["wai_flg", "flg", 0b11, "TWF_ANDW"]],
                        objects) == [["wait_flag", "flg", 0b11, "and"]]
        assert self.ops([["twai_flg", "flg", 0b01, "TWF_ORW", "1ms"]],
                        objects) == \
            [["wait_flag", "flg", 0b01, "or", "1ms"]]

    def test_bad_wait_mode_is_rejected(self):
        objects = [{"kind": "eventflag", "name": "flg"}]
        with pytest.raises(BuildError, match="TWF_ANDW or TWF_ORW"):
            self.ops([["wai_flg", "flg", 1, "TWF_XORW"]], objects)

    def test_unknown_op_lists_the_vocabulary(self):
        with pytest.raises(BuildError, match="slp_tsk"):
            self.ops([["vTaskDelay", "1ms"]])

    def test_isr_variants_share_lowerings(self):
        spec = base_spec(tasks=[
            {"name": "t", "priority": 1, "script": [
                ["isig_sem", "sem"],
            ]},
            {"name": "u", "priority": 1, "script": [
                ["iwup_tsk", "t"],
            ]},
        ])
        functions = lower(spec).spec["functions"]
        assert functions[0]["script"] == [["signal", "sem"]]
        assert functions[1]["script"] == [["signal", "t.wup"]]


class TestBuildIntegration:
    def test_build_and_simulate_wakeup_counting(self):
        # TA_WUPCNT semantics: two wakeups issued before the sleeps are
        # queued, so both slp_tsk calls return without blocking and the
        # sleeper finishes its work.
        spec = {
            "name": "wupcnt",
            "personality": "uitron",
            "tasks": [
                {"name": "waker", "priority": 1, "script": [
                    ["wup_tsk", "sleeper"],
                    ["wup_tsk", "sleeper"],
                    ["execute", "1us"],
                ]},
                {"name": "sleeper", "priority": 2, "script": [
                    ["dly_tsk", "10us"],
                    ["slp_tsk"],
                    ["execute", "2us"],
                    ["slp_tsk"],
                    ["execute", "2us"],
                ]},
            ],
        }
        system = build_system(spec, sim=Simulator("wupcnt"))
        finished_at = system.run()
        assert system.personality == "uitron"
        # delay 10us + 2 x execute 2us (+ the waker's 1us head start);
        # far below any timeout-forever stall.
        assert finished_at < 20 * US

    def test_api_ops_survive_the_lowering(self):
        system = build_system(base_spec(), sim=Simulator("uitron-ops"))
        assert system.functions["t"].personality_ops[0] == \
            ["wai_sem", "sem"]
