"""Kernel personalities: concrete RTOS APIs over the generic model.

The paper's central claim is that one *generic* RTOS model can stand in
for many concrete kernels during system-level simulation.  This package
cashes that claim in: a personality is a spec-to-spec compiler that
lowers a concrete kernel's objects and API calls (FreeRTOS queues and
``xSemaphoreTake``, µITRON mailboxes and ``slp_tsk``) onto the generic
builder grammar, so one simulation/trace/lint/verification stack serves
every kernel flavor.

Usage is a single spec key::

    spec = {
        "personality": "freertos",
        "config": {"configUSE_PREEMPTION": 1, "configUSE_TIME_SLICING": 0},
        "objects": [{"kind": "queue", "name": "q", "length": 4}],
        "tasks": [...],
    }
    system = build_system(spec)       # lowering happens transparently

The differential-verification test suite runs the bounded model checker
over the same task set under each FreeRTOS scheduling configuration and
checks the preemption/fairness verdict matrix against the published
Spin-model results -- the headline experiment of this subsystem.
"""

from __future__ import annotations

from typing import Dict

from .._exports import lazy_exports
from ..errors import BuildError
from .base import Lowering, Personality
from .freertos import FreeRTOSPersonality
from .uitron import UITRONPersonality

#: Registered personalities by spec name.
PERSONALITIES: Dict[str, Personality] = {
    personality.name: personality
    for personality in (FreeRTOSPersonality(), UITRONPersonality())
}


def get_personality(name: str) -> Personality:
    """Look up a registered personality by name."""
    try:
        return PERSONALITIES[name]
    except KeyError:
        raise BuildError(
            f"unknown personality {name!r}; pick one of "
            f"{sorted(PERSONALITIES)}"
        ) from None


def lower_spec(spec: Dict) -> Lowering:
    """Lower a personality spec into the generic builder format."""
    name = spec.get("personality")
    if not isinstance(name, str):
        raise BuildError(
            f"spec key 'personality' must be a personality name, "
            f"got {name!r}"
        )
    return get_personality(name).lower(spec)


__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "base": ("Lowering", "Personality"),
    "freertos": ("FreeRTOSPersonality",),
    "uitron": ("UITRONPersonality",),
}, own=("PERSONALITIES", "get_personality", "lower_spec"))
