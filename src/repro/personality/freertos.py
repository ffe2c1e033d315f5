"""FreeRTOS personality: FreeRTOS objects and API ops on the generic model.

The mapping (documented in full in ``docs/personalities.md``):

================================  ======================================
FreeRTOS object / call            generic lowering
================================  ======================================
queue (length N)                  queue relation, capacity N
binary semaphore                  counter event, max_count 1
counting semaphore                counter event (max_count, initial)
mutex                             shared variable, priority inheritance
task notification                 implicit counter event ``{task}.notify``
``vTaskDelay``                    ``delay``
``vTaskDelayUntil``               ``delay_until``
``xQueueSend``                    ``write`` (+ timeout)
``xQueueSendFromISR``             ``write`` with a zero timeout (polls)
``xQueueReceive``                 ``read`` (+ timeout)
``xSemaphoreTake``                ``wait`` (semaphore) / ``lock`` (mutex)
``xSemaphoreGive``                ``signal`` (semaphore) / ``unlock``
``xSemaphoreGiveFromISR``         ``signal`` (semaphores only)
``xTaskNotifyGive``               ``signal`` on the task's notify event
``vTaskNotifyGiveFromISR``        same (ISR-safe variant)
``ulTaskNotifyTake``              ``wait`` on own notify event (+ timeout)
``taskYIELD``                     ``delay 0`` (relinquish, stay ready)
``execute`` / ``loop``            pass through unchanged
================================  ======================================

The scheduler configuration follows the two classic ``FreeRTOSConfig.h``
switches.  ``configUSE_PREEMPTION`` x ``configUSE_TIME_SLICING`` select
the generic scheduling policy:

=========  ============  ==============================================
PREEMPTION  TIME_SLICING  generic policy
=========  ============  ==============================================
1          1             ``priority_round_robin``, time_slice = tick
1          0             ``priority_preemptive``
0          any           ``priority_preemptive`` with preemption off
                         (scheduling decisions only at yield points)
=========  ============  ==============================================

FreeRTOS task priorities already follow the generic convention (larger
number = more urgent), so they pass through unchanged.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import BuildError
from .base import LowerContext, Personality, copy_overheads, \
    parse_timeout_spec

_SEMAPHORES = ("binary_semaphore", "counting_semaphore")


def _delay(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 1, 1, "[vTaskDelay, duration]")
    return ["delay", args[0]]


def _delay_until(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 1, 1, "[vTaskDelayUntil, period]")
    return ["delay_until", args[0]]


def _yield(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 0, 0, "[taskYIELD]")
    # A zero delay releases the CPU and re-enters the ready queue:
    # exactly FreeRTOS's round-robin-to-equal-priority yield.
    return ["delay", 0]


def _queue_send(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 2, 3, "[xQueueSend, queue, value, tmo?]")
    ctx.object(args[0], where, ("queue",))
    return ctx.with_timeout(["write", args[0], args[1]],
                            args[2] if len(args) > 2 else None)


def _queue_send_isr(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 2, 2, "[xQueueSendFromISR, queue, value]")
    ctx.object(args[0], where, ("queue",))
    # FromISR sends never block: lower to a non-blocking poll.
    return ["write", args[0], args[1], 0]


def _queue_receive(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 1, 2, "[xQueueReceive, queue, tmo?]")
    ctx.object(args[0], where, ("queue",))
    return ctx.with_timeout(["read", args[0]],
                            args[1] if len(args) > 1 else None)


def _take(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 1, 2, "[xSemaphoreTake, sem_or_mutex, tmo?]")
    kind = ctx.object(args[0], where, _SEMAPHORES + ("mutex",))
    timeout = parse_timeout_spec(args[1] if len(args) > 1 else None)
    if kind == "mutex":
        if timeout is not None:
            raise BuildError(
                f"{where}: mutex take supports only portMAX_DELAY "
                "(the generic lock primitive blocks until granted)"
            )
        return ["lock", args[0]]
    return ctx.with_timeout(["wait", args[0]], timeout)


def _give(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 1, 1, "[xSemaphoreGive, sem_or_mutex]")
    kind = ctx.object(args[0], where, _SEMAPHORES + ("mutex",))
    if kind == "mutex":
        return ["unlock", args[0]]
    return ["signal", args[0]]


def _give_isr(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 1, 1, "[xSemaphoreGiveFromISR, sem]")
    ctx.object(args[0], where, _SEMAPHORES)
    return ["signal", args[0]]


def _notify_give(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 1, 1, "[xTaskNotifyGive, task]")
    return ["signal", ctx.event(args[0])]


def _notify_take(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 0, 1, "[ulTaskNotifyTake, tmo?]")
    return ctx.with_timeout(["wait", ctx.event(ctx.task)],
                            args[0] if args else None)


class FreeRTOSPersonality(Personality):
    """Lower a FreeRTOS-flavored spec onto the generic model."""

    name = "freertos"
    label = "FreeRTOS"
    description = (
        "FreeRTOS tasks, queues, semaphores, PI mutexes and task "
        "notifications; configUSE_PREEMPTION x configUSE_TIME_SLICING"
    )
    config_keys = (
        "configUSE_PREEMPTION", "configUSE_TIME_SLICING", "tick", "engine",
        "processor", "scheduling_duration", "context_load_duration",
        "context_save_duration",
    )
    object_keys = {
        "queue": ("kind", "name", "length"),
        "binary_semaphore": ("kind", "name", "initial"),
        "counting_semaphore": ("kind", "name", "max_count", "initial"),
        "mutex": ("kind", "name"),
    }
    task_passthrough = ("priority", "start_time", "wcet", "period",
                        "deadline", "jitter", "max_blocking", "affinity",
                        "lint_suppress")
    ops = {
        "vTaskDelay": _delay,
        "vTaskDelayUntil": _delay_until,
        "taskYIELD": _yield,
        "xQueueSend": _queue_send,
        "xQueueSendFromISR": _queue_send_isr,
        "xQueueReceive": _queue_receive,
        "xSemaphoreTake": _take,
        "xSemaphoreGive": _give,
        "xSemaphoreGiveFromISR": _give_isr,
        "xTaskNotifyGive": _notify_give,
        "vTaskNotifyGiveFromISR": _notify_give,
        "ulTaskNotifyTake": _notify_take,
        "execute": LowerContext.execute,
        "loop": LowerContext.loop,
    }
    # Task notifications: a per-task counter event ``{task}.notify``.
    implicit_suffix = "notify"
    implicit_noun = "notification"
    blocking_ops = frozenset(
        ("vTaskDelay", "vTaskDelayUntil", "xQueueSend", "xQueueReceive",
         "xSemaphoreTake", "ulTaskNotifyTake")
    )
    pollable_ops = frozenset(
        ("xQueueSend", "xQueueReceive", "xSemaphoreTake", "ulTaskNotifyTake")
    )

    # ------------------------------------------------------------------
    def _config(self, config: Dict) -> Dict:
        resolved = {
            "configUSE_PREEMPTION": self._flag(
                config, "configUSE_PREEMPTION", 1),
            "configUSE_TIME_SLICING": self._flag(
                config, "configUSE_TIME_SLICING", 1),
            "tick": config.get("tick", "1ms"),
            "engine": config.get("engine", "procedural"),
            "processor": config.get("processor", "cpu0"),
        }
        return copy_overheads(config, resolved)

    @staticmethod
    def _flag(config: Dict, key: str, default: int) -> int:
        value = config.get(key, default)
        if value not in (0, 1):
            raise BuildError(f"freertos config: {key} must be 0 or 1, "
                             f"got {value!r}")
        return value

    def _processor(self, config: Dict) -> Dict:
        cpu = copy_overheads(
            config, {"name": config["processor"], "engine": config["engine"]})
        if config["configUSE_PREEMPTION"]:
            if config["configUSE_TIME_SLICING"]:
                cpu["policy"] = "priority_round_robin"
                cpu["time_slice"] = config["tick"]
            else:
                cpu["policy"] = "priority_preemptive"
        else:
            # Cooperative: the scheduler only runs at explicit yield
            # points; a ready higher-priority task does not preempt.
            cpu["policy"] = "priority_preemptive"
            cpu["preemptive"] = False
        return cpu

    def _object_relation(self, kind: str, name: str, entry: Dict) -> Dict:
        if kind == "queue":
            length = entry.get("length", 8)
            if not isinstance(length, int) or length < 1:
                raise BuildError(
                    f"freertos queue {name!r}: length must be a positive "
                    f"int, got {length!r}"
                )
            return {"kind": "queue", "name": name, "capacity": length}
        if kind == "binary_semaphore":
            initial = entry.get("initial", 0)
            if initial not in (0, 1):
                raise BuildError(
                    f"freertos binary_semaphore {name!r}: initial must be "
                    f"0 or 1, got {initial!r}"
                )
            return {"kind": "event", "name": name, "policy": "counter",
                    "max_count": 1, "initial": initial}
        if kind == "counting_semaphore":
            max_count = entry.get("max_count")
            if not isinstance(max_count, int) or max_count < 1:
                raise BuildError(
                    f"freertos counting_semaphore {name!r}: max_count must "
                    f"be a positive int, got {max_count!r}"
                )
            initial = entry.get("initial", 0)
            if not isinstance(initial, int) or not 0 <= initial <= max_count:
                raise BuildError(
                    f"freertos counting_semaphore {name!r}: initial must be "
                    f"in 0..{max_count}, got {initial!r}"
                )
            return {"kind": "event", "name": name, "policy": "counter",
                    "max_count": max_count, "initial": initial}
        # mutex: FreeRTOS mutexes always run priority inheritance.
        return {"kind": "shared", "name": name, "protocol": "inheritance"}
