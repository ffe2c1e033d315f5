"""µITRON personality: ITRON service calls on the generic model.

µITRON (the dominant Japanese embedded kernel standard) differs from
FreeRTOS in two interesting ways the lowering must absorb:

* **Priorities are inverted**: ITRON priority 1 is the most urgent.
  Task priorities are negated onto the generic convention (larger =
  more urgent), so ITRON priority 1 becomes generic -1, priority 5
  becomes -5, preserving the ordering.
* **Task sleep/wakeup is counted**: ``wup_tsk`` on a task that is not
  sleeping queues the wakeup (TA_WUPCNT semantics); a later ``slp_tsk``
  returns immediately.  A per-task counter event ``{task}.wup``
  captures exactly that.

Mapping table (full version in ``docs/personalities.md``):

================================  ======================================
ITRON object / service call       generic lowering
================================  ======================================
semaphore                         counter event (max_count, initial)
eventflag                         flags relation (TA_CLR -> clear_on_wake)
mailbox                           queue relation (unbounded by default)
``dly_tsk``                       ``delay``
``slp_tsk`` / ``tslp_tsk``        ``wait`` on own ``{task}.wup`` event
``wup_tsk`` / ``iwup_tsk``        ``signal`` on the target's wup event
``wai_sem`` / ``twai_sem``        ``wait`` (+ timeout)
``sig_sem`` / ``isig_sem``        ``signal``
``snd_mbx`` / ``tsnd_mbx``        ``write`` (+ timeout)
``rcv_mbx`` / ``trcv_mbx``        ``read`` (+ timeout)
``set_flg`` / ``iset_flg``        ``set_flag``
``clr_flg``                       ``clr_flag``
``wai_flg`` / ``twai_flg``        ``wait_flag`` (TWF_ANDW / TWF_ORW)
``execute`` / ``loop``            pass through unchanged
================================  ======================================

The scheduler is the standard's fixed-priority preemptive dispatcher
(there is no configuration matrix; the ``tick`` only feeds overheads).
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import BuildError
from .base import LowerContext, Personality, copy_overheads

_WAIT_MODES = {"TWF_ANDW": "and", "TWF_ORW": "or", "and": "and",
               "or": "or"}


def _dly_tsk(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 1, 1, "[dly_tsk, duration]")
    return ["delay", args[0]]


def _slp_tsk(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 0, 0, "[slp_tsk]")
    return ["wait", ctx.event(ctx.task)]


def _tslp_tsk(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 1, 1, "[tslp_tsk, tmo]")
    return ctx.with_timeout(["wait", ctx.event(ctx.task)], args[0])


def _wup_tsk(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 1, 1, "[wup_tsk, task]")
    return ["signal", ctx.event(args[0])]


def _wai_sem(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 1, 1, "[wai_sem, semaphore]")
    ctx.object(args[0], where, ("semaphore",))
    return ["wait", args[0]]


def _twai_sem(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 2, 2, "[twai_sem, semaphore, tmo]")
    ctx.object(args[0], where, ("semaphore",))
    return ctx.with_timeout(["wait", args[0]], args[1])


def _sig_sem(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 1, 1, "[sig_sem, semaphore]")
    ctx.object(args[0], where, ("semaphore",))
    return ["signal", args[0]]


def _snd_mbx(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 2, 2, "[snd_mbx, mailbox, value]")
    ctx.object(args[0], where, ("mailbox",))
    return ["write", args[0], args[1]]


def _tsnd_mbx(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 3, 3, "[tsnd_mbx, mailbox, value, tmo]")
    ctx.object(args[0], where, ("mailbox",))
    return ctx.with_timeout(["write", args[0], args[1]], args[2])


def _rcv_mbx(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 1, 1, "[rcv_mbx, mailbox]")
    ctx.object(args[0], where, ("mailbox",))
    return ["read", args[0]]


def _trcv_mbx(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 2, 2, "[trcv_mbx, mailbox, tmo]")
    ctx.object(args[0], where, ("mailbox",))
    return ctx.with_timeout(["read", args[0]], args[1])


def _set_flg(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 2, 2, "[set_flg, eventflag, bits]")
    ctx.object(args[0], where, ("eventflag",))
    return ["set_flag", args[0], args[1]]


def _clr_flg(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 2, 2, "[clr_flg, eventflag, mask]")
    ctx.object(args[0], where, ("eventflag",))
    return ["clr_flag", args[0], args[1]]


def _wai_flg(ctx: LowerContext, args: List, where: str) -> List:
    ctx.arity(args, where, 3, 4,
              "[wai_flg, eventflag, bits, TWF_ANDW|TWF_ORW, tmo?]")
    ctx.object(args[0], where, ("eventflag",))
    mode = _WAIT_MODES.get(args[2])
    if mode is None:
        raise BuildError(
            f"{where}: wait mode must be TWF_ANDW or TWF_ORW, "
            f"got {args[2]!r}"
        )
    return ctx.with_timeout(["wait_flag", args[0], args[1], mode],
                            args[3] if len(args) > 3 else None)


class UITRONPersonality(Personality):
    """Lower a µITRON-flavored spec onto the generic model."""

    name = "uitron"
    label = "uITRON"
    description = (
        "uITRON tasks, counted wakeups, semaphores, AND/OR eventflags "
        "and mailboxes under fixed-priority preemptive dispatch"
    )
    config_keys = (
        "engine", "processor", "scheduling_duration",
        "context_load_duration", "context_save_duration",
    )
    object_keys = {
        "semaphore": ("kind", "name", "max_count", "initial"),
        "eventflag": ("kind", "name", "initial", "clear_on_wake"),
        "mailbox": ("kind", "name", "capacity"),
    }
    # ``priority`` is not copied: :meth:`_priority` negates it.
    task_passthrough = ("start_time", "wcet", "period", "deadline",
                        "jitter", "max_blocking", "affinity",
                        "lint_suppress")
    ops = {
        "dly_tsk": _dly_tsk,
        "slp_tsk": _slp_tsk,
        "tslp_tsk": _tslp_tsk,
        "wup_tsk": _wup_tsk,
        "iwup_tsk": _wup_tsk,
        "wai_sem": _wai_sem,
        "twai_sem": _twai_sem,
        "sig_sem": _sig_sem,
        "isig_sem": _sig_sem,
        "snd_mbx": _snd_mbx,
        "tsnd_mbx": _tsnd_mbx,
        "rcv_mbx": _rcv_mbx,
        "trcv_mbx": _trcv_mbx,
        "set_flg": _set_flg,
        "iset_flg": _set_flg,
        "clr_flg": _clr_flg,
        "wai_flg": _wai_flg,
        "twai_flg": _wai_flg,
        "execute": LowerContext.execute,
        "loop": LowerContext.loop,
    }
    # TA_WUPCNT: pending wakeups accumulate in a per-task counter event.
    implicit_suffix = "wup"
    implicit_noun = "wakeup"
    # ITRON only allows the non-blocking i-prefixed calls in handlers.
    blocking_ops = frozenset(
        ("dly_tsk", "slp_tsk", "tslp_tsk", "wai_sem", "twai_sem",
         "snd_mbx", "tsnd_mbx", "rcv_mbx", "trcv_mbx", "wai_flg",
         "twai_flg")
    )
    pollable_ops = frozenset(
        ("tslp_tsk", "twai_sem", "tsnd_mbx", "trcv_mbx", "twai_flg")
    )

    # ------------------------------------------------------------------
    def _config(self, config: Dict) -> Dict:
        config.setdefault("engine", "procedural")
        config.setdefault("processor", "cpu0")
        return config

    def _processor(self, config: Dict) -> Dict:
        return copy_overheads(config, {
            "name": config["processor"],
            "engine": config["engine"],
            "policy": "priority_preemptive",
        })

    def _object_relation(self, kind: str, name: str, entry: Dict) -> Dict:
        if kind == "semaphore":
            max_count = entry.get("max_count", 1)
            if not isinstance(max_count, int) or max_count < 1:
                raise BuildError(
                    f"uitron semaphore {name!r}: max_count must be a "
                    f"positive int, got {max_count!r}"
                )
            initial = entry.get("initial", max_count)
            if not isinstance(initial, int) or not 0 <= initial <= max_count:
                raise BuildError(
                    f"uitron semaphore {name!r}: initial must be in "
                    f"0..{max_count}, got {initial!r}"
                )
            return {"kind": "event", "name": name, "policy": "counter",
                    "max_count": max_count, "initial": initial}
        if kind == "eventflag":
            relation = {"kind": "flags", "name": name}
            if "initial" in entry:
                relation["initial"] = entry["initial"]
            if entry.get("clear_on_wake"):
                relation["clear_on_wake"] = True
            return relation
        # mailbox: ITRON mailboxes are linked lists -> unbounded queue.
        return {"kind": "queue", "name": name,
                "capacity": entry.get("capacity")}

    def _priority(self, entry: Dict, where: str) -> Dict:
        priority = entry.get("priority", 1)
        if not isinstance(priority, int) or priority < 1:
            raise BuildError(
                f"{where}: ITRON priorities start at 1 (most urgent), "
                f"got {priority!r}"
            )
        # Negation maps "1 is most urgent" onto "larger is more urgent"
        # while keeping distinct levels distinct.
        return {"priority": -priority}
