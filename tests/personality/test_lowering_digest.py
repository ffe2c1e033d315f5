"""Pin every personality lowering, and every lowering error, byte for byte.

A personality is a pure spec-to-spec compiler, so a refactor of the
lowering must not move a single key: not the generic spec (dict order
included, since traces and digests downstream serialize it), not the
preserved ``api_ops``, not the resolved ``config``, and not the text of
any :class:`~repro.errors.BuildError`.  The digests below hash the
``repr`` of all three over a fixed sample: seeded ``freertos`` corpus
specs, the specs the other personality tests use, the differential
matrix scenarios, and hand-written specs of both personalities that
call every API op.  A second digest hashes the message of every error
in a malformed sample per personality.

Run this module to print both digests and every pinned message::

    PYTHONPATH=src python -m tests.personality.test_lowering_digest
"""

import copy
import hashlib
import random

import pytest

from repro.corpus import GENERATORS, generate
from repro.errors import BuildError
from repro.personality import PERSONALITIES, lower_spec
from repro.personality.differential import fairness_spec, preemption_spec

from .test_equivalence import FREERTOS_SPEC, UITRON_SPEC
from .test_freertos import base_spec as freertos_base
from .test_uitron import base_spec as uitron_base

#: sha256 over the valid sample, taken before the lowering was shared.
EXPECTED_LOWERING_DIGEST = (
    "edf0ed1d231a02f3968e771cda1a4f1c989f278ffe80dc851f3af6b505f2dc46")
#: sha256 over the malformed sample's error messages, same origin.
EXPECTED_ERROR_DIGEST = (
    "0669b3010105e07b3ec86b46e50a85b1d60c16300d059fb972eee1e6071f579a")

CORPUS_SEEDS = 24

#: A FreeRTOS spec calling every API op, with every config, object and
#: task key set somewhere.
FREERTOS_ALL_OPS = {
    "name": "all_ops",
    "personality": "freertos",
    "config": {
        "configUSE_PREEMPTION": 1, "configUSE_TIME_SLICING": 1,
        "tick": "2ms", "engine": "threaded", "processor": "mcu",
        "scheduling_duration": "1us", "context_load_duration": "2us",
        "context_save_duration": "3us",
    },
    "objects": [
        {"kind": "queue", "name": "q", "length": 3},
        {"kind": "queue", "name": "q_default"},
        {"kind": "binary_semaphore", "name": "bs", "initial": 1},
        {"kind": "counting_semaphore", "name": "cs", "max_count": 4,
         "initial": 2},
        {"kind": "mutex", "name": "m"},
    ],
    "tasks": [
        {"name": "isr", "isr": True, "priority": 9, "script": [
            ["xQueueSendFromISR", "q", 7],
            ["xSemaphoreGiveFromISR", "bs"],
            ["xSemaphoreGiveFromISR", "cs"],
            ["vTaskNotifyGiveFromISR", "worker"],
        ]},
        {"name": "worker", "priority": 3, "start_time": "1us",
         "wcet": "50us", "period": "1ms", "deadline": "900us",
         "jitter": "1us", "max_blocking": "10us", "affinity": ["mcu"],
         "lint_suppress": ["RTS171"], "script": [
             ["loop", 3, [
                 ["xQueueReceive", "q"],
                 ["xQueueReceive", "q", "5ms"],
                 ["xQueueReceive", "q_default", 0],
                 ["xSemaphoreTake", "bs", "portMAX_DELAY"],
                 ["xSemaphoreTake", "cs", "2ms"],
                 ["xSemaphoreTake", "m"],
                 ["xSemaphoreTake", "m", "forever"],
                 ["execute", "10us"],
                 ["xSemaphoreGive", "m"],
                 ["xSemaphoreGive", "m"],
                 ["xSemaphoreGive", "cs"],
                 ["ulTaskNotifyTake"],
                 ["ulTaskNotifyTake", "1ms"],
                 ["xQueueSend", "q", 1],
                 ["xQueueSend", "q", 2, "forever"],
                 ["xQueueSend", "q", 3, "1ms"],
                 ["xTaskNotifyGive", "peer"],
                 ["taskYIELD"],
                 ["vTaskDelay", "1ms"],
                 ["loop", None, [["execute", "1us"]]],
             ]],
             ["vTaskDelayUntil", "1ms"],
         ]},
        {"name": "peer", "script": [
            ("ulTaskNotifyTake", 0),
            ("xTaskNotifyGive", "worker"),
        ]},
    ],
    "lint_suppress": ["RTS104"],
}

#: A µITRON spec calling every service call, every object kind and
#: both wait modes in both spellings.
UITRON_ALL_OPS = {
    "name": "all_ops",
    "personality": "uitron",
    "config": {
        "processor": "itron_cpu", "scheduling_duration": "1us",
        "context_save_duration": "2us", "context_load_duration": "3us",
    },
    "objects": [
        {"kind": "semaphore", "name": "sem"},
        {"kind": "semaphore", "name": "sem4", "max_count": 4,
         "initial": 0},
        {"kind": "eventflag", "name": "flg", "initial": 2,
         "clear_on_wake": True},
        {"kind": "eventflag", "name": "flg2", "clear_on_wake": False},
        {"kind": "mailbox", "name": "mbx"},
        {"kind": "mailbox", "name": "mbx3", "capacity": 3},
    ],
    "tasks": [
        {"name": "handler", "isr": True, "script": [
            ["isig_sem", "sem"],
            ["iwup_tsk", "main"],
            ["iset_flg", "flg", 1],
        ]},
        {"name": "main", "priority": 2, "start_time": "2us",
         "wcet": "40us", "period": "2ms", "deadline": "2ms",
         "jitter": "3us", "max_blocking": "5us", "affinity": ["itron_cpu"],
         "lint_suppress": ["RTS171"], "script": [
             ["loop", None, [
                 ["slp_tsk"],
                 ["tslp_tsk", "5ms"],
                 ["tslp_tsk", "TMO_FEVR"],
                 ["tslp_tsk", "TMO_POL"],
                 ["wai_sem", "sem"],
                 ["twai_sem", "sem4", "1ms"],
                 ["twai_sem", "sem4", "TMO_POL"],
                 ["sig_sem", "sem4"],
                 ["snd_mbx", "mbx", 1],
                 ["tsnd_mbx", "mbx3", 2, "4ms"],
                 ["tsnd_mbx", "mbx3", 3, "TMO_FEVR"],
                 ["rcv_mbx", "mbx"],
                 ["trcv_mbx", "mbx3", "2ms"],
                 ["trcv_mbx", "mbx3", "TMO_POL"],
                 ["set_flg", "flg2", 0b11],
                 ["clr_flg", "flg2", 0b01],
                 ["wai_flg", "flg", 0b11, "TWF_ANDW"],
                 ["wai_flg", "flg2", 0b01, "or", "TMO_FEVR"],
                 ["twai_flg", "flg", 0b01, "TWF_ORW", "1ms"],
                 ["twai_flg", "flg2", 0b10, "and", "TMO_POL"],
                 ["wup_tsk", "helper"],
                 ["execute", "10us"],
                 ["dly_tsk", "1ms"],
                 ["loop", 2, [["execute", "1us"]]],
             ]],
         ]},
        {"name": "helper", "priority": 7, "script": [
            ("slp_tsk",), ("wup_tsk", "main"),
        ]},
    ],
    "lint_suppress": ["RTS105"],
}


def valid_sample():
    """(label, spec) pairs every lowering of which is pinned."""
    specs = [
        ("freertos:all_ops", FREERTOS_ALL_OPS),
        ("uitron:all_ops", UITRON_ALL_OPS),
        ("equivalence:freertos", FREERTOS_SPEC),
        ("equivalence:uitron", UITRON_SPEC),
        ("freertos:base", freertos_base()),
        ("uitron:base", uitron_base()),
        ("uitron:no_config", {"personality": "uitron", "tasks": [
            {"name": "t", "script": [["execute", "1us"]]}]}),
        ("freertos:empty", {"personality": "freertos"}),
    ]
    for preemption in (0, 1):
        for slicing in (0, 1):
            config = f"{preemption}{slicing}"
            specs.append((f"preemption:{config}",
                          preemption_spec(preemption, slicing)))
            specs.append((f"fairness:{config}",
                          fairness_spec(preemption, slicing)))
    for seed in range(CORPUS_SEEDS):
        params = GENERATORS["freertos"].fuzz(
            random.Random(f"lowering-digest:{seed}"))
        specs.append((f"corpus:{seed}", generate("freertos", seed, params)))
    return specs


def _with(spec, **changes):
    spec = copy.deepcopy(spec)
    spec.update(changes)
    return spec


def _task(personality, script, objects, **task):
    return {"personality": personality, "objects": objects,
            "tasks": [dict({"name": "t", "script": script}, **task)]}


def malformed_sample():
    """(label, spec) pairs that must each raise a :class:`BuildError`."""
    fq = [{"kind": "queue", "name": "q"}, {"kind": "mutex", "name": "m"},
          {"kind": "binary_semaphore", "name": "bs"}]
    us = [{"kind": "semaphore", "name": "sem"},
          {"kind": "eventflag", "name": "flg"},
          {"kind": "mailbox", "name": "mbx"}]
    return [
        ("no_name", {"personality": 7}),
        ("unknown_personality", {"personality": "vxworks"}),
        # FreeRTOS
        ("f:top_key", _with(freertos_base(), bogus=1)),
        ("f:config_key", _with(freertos_base(), config={"tick": "1ms",
                                                        "hz": 1})),
        ("f:flag", _with(freertos_base(),
                         config={"configUSE_PREEMPTION": 2})),
        ("f:object_not_dict", _with(freertos_base(), objects=["q"])),
        ("f:unknown_kind", _with(freertos_base(),
                                 objects=[{"kind": "pipe", "name": "p"}])),
        ("f:object_key", _with(freertos_base(), objects=[
            {"kind": "mutex", "name": "m", "protocol": "ceiling"}])),
        ("f:object_no_name", _with(freertos_base(),
                                   objects=[{"kind": "mutex"}])),
        ("f:duplicate_object", _with(freertos_base(), objects=[
            {"kind": "queue", "name": "q"}, {"kind": "mutex", "name": "q"}])),
        ("f:queue_length", _with(freertos_base(), objects=[
            {"kind": "queue", "name": "q", "length": 0}])),
        ("f:binary_initial", _with(freertos_base(), objects=[
            {"kind": "binary_semaphore", "name": "s", "initial": 2}])),
        ("f:counting_max", _with(freertos_base(), objects=[
            {"kind": "counting_semaphore", "name": "s", "max_count": 0}])),
        ("f:counting_initial", _with(freertos_base(), objects=[
            {"kind": "counting_semaphore", "name": "s", "max_count": 2,
             "initial": 3}])),
        ("f:tasks_not_list", _with(freertos_base(), tasks={"t": {}})),
        ("f:task_not_dict", _with(freertos_base(), tasks=["t"])),
        ("f:task_no_name", _with(freertos_base(), tasks=[{"script": []}])),
        ("f:task_key", _task("freertos", [], fq, stack=128)),
        ("f:no_script", {"personality": "freertos",
                         "tasks": [{"name": "t"}]}),
        ("f:op_shape", _task("freertos", [["execute", "1us"], "x"], fq)),
        ("f:op_empty", _task("freertos", [[]], fq)),
        ("f:op_name", _task("freertos", [[3, "q"]], fq)),
        ("f:unknown_op", _task("freertos", [["slp_tsk"]], fq)),
        ("f:arity", _task("freertos", [["vTaskDelay", "1ms", "2ms"]], fq)),
        ("f:arity_yield", _task("freertos", [["taskYIELD", 1]], fq)),
        ("f:arity_nested", _task("freertos", [
            ["loop", 2, [["execute", "1us"], ["xQueueReceive"]]]], fq)),
        ("f:unknown_object", _task("freertos", [["xQueueSend", "nope", 1]],
                                   fq)),
        ("f:wrong_kind", _task("freertos", [["xQueueReceive", "m"]], fq)),
        ("f:give_isr_mutex", _task("freertos",
                                   [["xSemaphoreGiveFromISR", "m"]], fq)),
        ("f:mutex_timeout", _task("freertos",
                                  [["xSemaphoreTake", "m", "1ms"]], fq)),
        ("f:notify_target", _task("freertos",
                                  [["xTaskNotifyGive", "ghost"]], fq)),
        ("f:loop_body", _task("freertos", [["loop", 2, "body"]], fq)),
        ("f:loop_arity", _task("freertos", [["loop", []]], fq)),
        # µITRON
        ("u:top_key", _with(uitron_base(), bogus=1)),
        ("u:config_key", _with(uitron_base(), config={"tick": "1ms"})),
        ("u:object_not_dict", _with(uitron_base(), objects=[None])),
        ("u:unknown_kind", _with(uitron_base(),
                                 objects=[{"kind": "queue", "name": "q"}])),
        ("u:object_key", _with(uitron_base(), objects=[
            {"kind": "mailbox", "name": "m", "length": 2}])),
        ("u:duplicate_object", _with(uitron_base(), objects=[
            {"kind": "semaphore", "name": "s"},
            {"kind": "mailbox", "name": "s"}])),
        ("u:semaphore_max", _with(uitron_base(), objects=[
            {"kind": "semaphore", "name": "s", "max_count": 0}])),
        ("u:semaphore_initial", _with(uitron_base(), objects=[
            {"kind": "semaphore", "name": "s", "max_count": 2,
             "initial": 5}])),
        ("u:tasks_not_list", _with(uitron_base(), tasks="t")),
        ("u:task_not_dict", _with(uitron_base(), tasks=[["t"]])),
        ("u:task_no_name", _with(uitron_base(), tasks=[{"name": ""}])),
        ("u:task_key", _task("uitron", [], us, stack=128)),
        ("u:no_script", _task("uitron", None, us)),
        ("u:priority_zero", _task("uitron", [], us, priority=0)),
        ("u:priority_type", _task("uitron", [], us, priority="high")),
        ("u:priority_before_ops", _task("uitron", [["nope"]], us,
                                        priority=-1)),
        ("u:op_shape", _task("uitron", [("dly_tsk", "1ms"), 5], us)),
        ("u:unknown_op", _task("uitron", [["vTaskDelay", "1ms"]], us)),
        ("u:arity", _task("uitron", [["slp_tsk", "1ms"]], us)),
        ("u:arity_flag", _task("uitron", [["wai_flg", "flg", 1]], us)),
        ("u:unknown_object", _task("uitron", [["wai_sem", "nope"]], us)),
        ("u:wrong_kind", _task("uitron", [["snd_mbx", "sem", 1]], us)),
        ("u:wrong_kind_flag", _task("uitron", [["set_flg", "mbx", 1]],
                                    us)),
        ("u:wait_mode", _task("uitron", [["wai_flg", "flg", 1, "XOR"]],
                              us)),
        ("u:wait_mode_timed", _task("uitron",
                                    [["twai_flg", "flg", 1, None, "1ms"]],
                                    us)),
        ("u:wakeup_target", _task("uitron", [["wup_tsk", "ghost"]], us)),
        ("u:loop_body", _task("uitron", [["loop", None, {"x": 1}]], us)),
    ]


def lowering_digest():
    digest = hashlib.sha256()
    for label, spec in valid_sample():
        lowering = lower_spec(spec)
        digest.update(label.encode())
        digest.update(repr((lowering.personality, lowering.spec,
                            lowering.api_ops, lowering.config)).encode())
    return digest.hexdigest()


def error_messages():
    messages = []
    for label, spec in malformed_sample():
        try:
            lower_spec(spec)
        except BuildError as exc:
            messages.append(f"{label}: {exc}")
        else:
            raise AssertionError(f"{label}: lowered without an error")
    return messages


def error_digest():
    return hashlib.sha256(
        "\n".join(error_messages()).encode()).hexdigest()


def test_every_lowering_is_pinned():
    assert lowering_digest() == EXPECTED_LOWERING_DIGEST


def test_every_error_message_is_pinned():
    assert error_digest() == EXPECTED_ERROR_DIGEST


@pytest.mark.parametrize("label,spec", valid_sample()[:2])
def test_all_ops_specs_call_every_op(label, spec):
    called = set()

    def collect(ops):
        for op in ops:
            called.add(op[0])
            if op[0] == "loop":
                collect(op[2])

    for task in spec["tasks"]:
        collect(task["script"])
    assert called == set(PERSONALITIES[spec["personality"]].api_ops)


def test_lowering_leaves_its_input_alone():
    for label, spec in valid_sample():
        before = copy.deepcopy(spec)
        lower_spec(spec)
        assert spec == before, label


if __name__ == "__main__":
    print(lowering_digest())
    print(error_digest())
    for message in error_messages():
        print(" ", message)
