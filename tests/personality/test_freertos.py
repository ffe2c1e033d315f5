"""FreeRTOS personality: lowering, config matrix, object/op validation."""

import pytest

from repro.errors import BuildError
from repro.kernel.simulator import Simulator
from repro.mcse.builder import build_system
from repro.personality import (
    PERSONALITIES,
    FreeRTOSPersonality,
    get_personality,
    lower_spec,
)


def lower(spec):
    return FreeRTOSPersonality().lower(spec)


def base_spec(**overrides):
    spec = {
        "name": "app",
        "personality": "freertos",
        "objects": [{"kind": "queue", "name": "q", "length": 4}],
        "tasks": [
            {"name": "t", "priority": 2, "script": [
                ["xQueueSend", "q", 1],
                ["vTaskDelay", "1ms"],
            ]},
        ],
    }
    spec.update(overrides)
    return spec


class TestRegistry:
    def test_freertos_is_registered(self):
        assert "freertos" in PERSONALITIES
        assert get_personality("freertos").name == "freertos"

    def test_unknown_personality_lists_options(self):
        with pytest.raises(BuildError, match="freertos"):
            get_personality("vxworks")

    def test_lower_spec_requires_a_name(self):
        with pytest.raises(BuildError, match="personality"):
            lower_spec({"personality": 7})


class TestSchedulingConfigMatrix:
    def test_preemption_with_time_slicing_is_round_robin(self):
        lowering = lower(base_spec(config={
            "configUSE_PREEMPTION": 1, "configUSE_TIME_SLICING": 1,
            "tick": "2ms",
        }))
        cpu = lowering.spec["processors"][0]
        assert cpu["policy"] == "priority_round_robin"
        assert cpu["time_slice"] == "2ms"

    def test_preemption_without_slicing_is_priority_preemptive(self):
        lowering = lower(base_spec(config={
            "configUSE_PREEMPTION": 1, "configUSE_TIME_SLICING": 0,
        }))
        cpu = lowering.spec["processors"][0]
        assert cpu["policy"] == "priority_preemptive"
        assert "time_slice" not in cpu
        assert "preemptive" not in cpu

    @pytest.mark.parametrize("slicing", (0, 1))
    def test_cooperative_disables_preemption(self, slicing):
        lowering = lower(base_spec(config={
            "configUSE_PREEMPTION": 0, "configUSE_TIME_SLICING": slicing,
        }))
        cpu = lowering.spec["processors"][0]
        assert cpu["policy"] == "priority_preemptive"
        assert cpu["preemptive"] is False

    def test_defaults_are_preemptive_time_sliced(self):
        lowering = lower(base_spec())
        assert lowering.config["configUSE_PREEMPTION"] == 1
        assert lowering.config["configUSE_TIME_SLICING"] == 1
        assert lowering.spec["processors"][0]["policy"] == \
            "priority_round_robin"

    def test_flag_values_are_validated(self):
        with pytest.raises(BuildError, match="0 or 1"):
            lower(base_spec(config={"configUSE_PREEMPTION": 2}))

    def test_overhead_durations_reach_the_processor(self):
        lowering = lower(base_spec(config={
            "scheduling_duration": "5us",
            "context_load_duration": "5us",
            "context_save_duration": "5us",
        }))
        cpu = lowering.spec["processors"][0]
        assert cpu["scheduling_duration"] == "5us"
        assert cpu["context_load_duration"] == "5us"
        assert cpu["context_save_duration"] == "5us"


class TestObjectLowering:
    def test_queue_length_becomes_capacity(self):
        lowering = lower(base_spec())
        assert lowering.spec["relations"][0] == {
            "kind": "queue", "name": "q", "capacity": 4,
        }

    def test_binary_semaphore_is_a_saturating_counter(self):
        spec = base_spec(
            objects=[{"kind": "binary_semaphore", "name": "s",
                      "initial": 1}],
            tasks=[{"name": "t", "priority": 1,
                    "script": [["xSemaphoreTake", "s"]]}],
        )
        relation = lower(spec).spec["relations"][0]
        assert relation == {"kind": "event", "name": "s",
                            "policy": "counter", "max_count": 1,
                            "initial": 1}

    def test_counting_semaphore_keeps_max_and_initial(self):
        spec = base_spec(
            objects=[{"kind": "counting_semaphore", "name": "s",
                      "max_count": 3, "initial": 2}],
            tasks=[{"name": "t", "priority": 1,
                    "script": [["xSemaphoreGive", "s"]]}],
        )
        relation = lower(spec).spec["relations"][0]
        assert relation["max_count"] == 3 and relation["initial"] == 2

    def test_mutex_is_priority_inheritance_shared(self):
        spec = base_spec(
            objects=[{"kind": "mutex", "name": "m"}],
            tasks=[{"name": "t", "priority": 1, "script": [
                ["xSemaphoreTake", "m"], ["execute", "1us"],
                ["xSemaphoreGive", "m"],
            ]}],
        )
        lowering = lower(spec)
        assert lowering.spec["relations"][0] == {
            "kind": "shared", "name": "m", "protocol": "inheritance",
        }
        assert lowering.spec["functions"][0]["script"] == [
            ["lock", "m"], ["execute", "1us"], ["unlock", "m"],
        ]

    def test_unknown_object_kind_lists_the_choices(self):
        spec = base_spec(objects=[{"kind": "timer", "name": "x"}])
        with pytest.raises(BuildError, match="binary_semaphore"):
            lower(spec)

    def test_duplicate_object_names_rejected(self):
        spec = base_spec(objects=[
            {"kind": "queue", "name": "q"},
            {"kind": "mutex", "name": "q"},
        ])
        with pytest.raises(BuildError, match="duplicate"):
            lower(spec)

    def test_counting_semaphore_initial_bounds(self):
        spec = base_spec(
            objects=[{"kind": "counting_semaphore", "name": "s",
                      "max_count": 2, "initial": 5}],
            tasks=[],
        )
        with pytest.raises(BuildError, match="0..2"):
            lower(spec)


class TestOpLowering:
    def ops(self, script, objects=None):
        spec = base_spec(
            objects=objects if objects is not None
            else [{"kind": "queue", "name": "q", "length": 2}],
            tasks=[{"name": "t", "priority": 1, "script": script}],
        )
        return lower(spec).spec["functions"][0]["script"]

    def test_delays(self):
        assert self.ops([["vTaskDelay", "3ms"]]) == [["delay", "3ms"]]
        assert self.ops([["vTaskDelayUntil", "10ms"]]) == \
            [["delay_until", "10ms"]]
        assert self.ops([["taskYIELD"]]) == [["delay", 0]]

    def test_queue_timeouts(self):
        assert self.ops([["xQueueSend", "q", 7]]) == [["write", "q", 7]]
        assert self.ops([["xQueueSend", "q", 7, "2ms"]]) == \
            [["write", "q", 7, "2ms"]]
        assert self.ops([["xQueueSend", "q", 7, "portMAX_DELAY"]]) == \
            [["write", "q", 7]]
        assert self.ops([["xQueueReceive", "q", 0]]) == [["read", "q", 0]]

    def test_from_isr_send_never_blocks(self):
        assert self.ops([["xQueueSendFromISR", "q", 1]]) == \
            [["write", "q", 1, 0]]

    def test_from_isr_give_signals_semaphores_only(self):
        objects = [
            {"kind": "binary_semaphore", "name": "bs"},
            {"kind": "counting_semaphore", "name": "cs", "max_count": 3},
            {"kind": "mutex", "name": "m"},
        ]
        assert self.ops([["xSemaphoreGiveFromISR", "bs"],
                         ["xSemaphoreGiveFromISR", "cs"]], objects) == \
            [["signal", "bs"], ["signal", "cs"]]
        # an ISR cannot own a mutex, so there is no unlock variant
        with pytest.raises(BuildError, match="'m' is a mutex"):
            self.ops([["xSemaphoreGiveFromISR", "m"]], objects)

    def test_notifications_use_implicit_counter_events(self):
        spec = base_spec(
            objects=[],
            tasks=[
                {"name": "worker", "priority": 2,
                 "script": [["ulTaskNotifyTake", "5ms"]]},
                {"name": "boss", "priority": 1,
                 "script": [["xTaskNotifyGive", "worker"]]},
            ],
        )
        lowering = lower(spec)
        assert lowering.spec["functions"][0]["script"] == \
            [["wait", "worker.notify", "5ms"]]
        assert lowering.spec["functions"][1]["script"] == \
            [["signal", "worker.notify"]]
        assert {"kind": "event", "name": "worker.notify",
                "policy": "counter"} in lowering.spec["relations"]

    def test_notify_target_must_be_a_task(self):
        spec = base_spec(
            objects=[],
            tasks=[{"name": "t", "priority": 1,
                    "script": [["xTaskNotifyGive", "ghost"]]}],
        )
        with pytest.raises(BuildError, match="ghost"):
            lower(spec)

    def test_mutex_take_rejects_finite_timeouts(self):
        spec = base_spec(
            objects=[{"kind": "mutex", "name": "m"}],
            tasks=[{"name": "t", "priority": 1,
                    "script": [["xSemaphoreTake", "m", "1ms"]]}],
        )
        with pytest.raises(BuildError, match="portMAX_DELAY"):
            lower(spec)

    def test_loops_lower_recursively(self):
        assert self.ops([["loop", 2, [["vTaskDelay", "1ms"]]]]) == \
            [["loop", 2, [["delay", "1ms"]]]]

    def test_unknown_op_lists_the_vocabulary(self):
        with pytest.raises(BuildError, match="xQueueReceive"):
            self.ops([["osDelay", "1ms"]])

    def test_unknown_object_reference(self):
        with pytest.raises(BuildError, match="unknown object"):
            self.ops([["xQueueSend", "ghost", 1]])

    def test_semaphore_op_on_a_queue_names_both_kinds(self):
        with pytest.raises(BuildError, match="is a queue"):
            self.ops([["xSemaphoreTake", "q"]])


class TestUnknownKeys:
    def test_top_level(self):
        with pytest.raises(BuildError, match="accepted keys"):
            lower(base_spec(taks=[]))

    def test_config_level(self):
        with pytest.raises(BuildError, match="configUSE_PREEMPTION"):
            lower(base_spec(config={"configUSE_PREEMPTON": 1}))

    def test_object_level(self):
        spec = base_spec(objects=[{"kind": "queue", "name": "q",
                                   "depth": 4}])
        with pytest.raises(BuildError, match="length"):
            lower(spec)

    def test_task_level(self):
        spec = base_spec(tasks=[{"name": "t", "priority": 1, "script": [],
                                 "stack_size": 128}])
        with pytest.raises(BuildError, match="stack_size"):
            lower(spec)


class TestBuildIntegration:
    def test_build_system_lowers_transparently(self):
        system = build_system(base_spec(), sim=Simulator("frt"))
        assert system.personality == "freertos"
        assert "t" in system.functions
        assert system.functions["t"].personality_ops == [
            ["xQueueSend", "q", 1],
            ["vTaskDelay", "1ms"],
        ]

    def test_isr_task_stays_unmapped(self):
        spec = base_spec(tasks=[
            {"name": "timer_isr", "isr": True, "script": [
                ["xQueueSendFromISR", "q", 1],
            ]},
            {"name": "t", "priority": 1, "script": [
                ["xQueueReceive", "q"],
            ]},
        ])
        system = build_system(spec, sim=Simulator("frt-isr"))
        assert system.functions["timer_isr"].task is None
        assert system.functions["t"].task is not None

    def test_config_without_personality_is_rejected(self):
        with pytest.raises(BuildError, match="personality"):
            build_system({"name": "x", "config": {}, "functions": []},
                         sim=Simulator("frt-cfg"))

    def test_lowered_system_simulates(self):
        spec = base_spec(tasks=[
            {"name": "producer", "priority": 2, "script": [
                ["loop", 3, [["execute", "10us"], ["xQueueSend", "q", 1]]],
            ]},
            {"name": "consumer", "priority": 1, "script": [
                ["loop", 3, [["xQueueReceive", "q"], ["execute", "5us"]]],
            ]},
        ])
        system = build_system(spec, sim=Simulator("frt-sim"))
        finished_at = system.run()
        assert finished_at > 0
