"""Hierarchical modules, the ``sc_module`` equivalent.

Modules give models a naming hierarchy (``top.cpu0.rtos``), own their
processes and events, and are the base class for both the MCSE
:class:`~repro.mcse.function.Function` and the RTOS
:class:`~repro.rtos.processor.Processor`, mirroring the UML diagram of
the paper's Figure 1 (both inherit from ``sc_module``).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterable, List, Optional, Union

from ..errors import ModelError
from .event import Event
from .process import MethodProcess, Process, ThreadBody
from .simulator import Simulator


class Module:
    """A named node in the model hierarchy.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Leaf name; the full name is derived from the parent chain once,
        at construction.
    parent:
        Optional enclosing module.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        parent: Optional["Module"] = None,
    ) -> None:
        if not name:
            raise ModelError("module name must be non-empty")
        self.sim = sim
        self.basename = name
        self.parent = parent
        #: Fully qualified hierarchical name, fixed at elaboration
        #: (nothing reassigns ``parent`` or ``basename``).
        self.name = name if parent is None else f"{parent.name}.{name}"
        self.children: List["Module"] = []
        self._child_names: Dict[str, "Module"] = {}
        if parent is not None:
            parent._adopt(self)

    # ------------------------------------------------------------------
    # Hierarchy
    # ------------------------------------------------------------------
    def _adopt(self, child: "Module") -> None:
        if child.basename in self._child_names:
            raise ModelError(
                f"duplicate child name {child.basename!r} under {self.name!r}"
            )
        self._child_names[child.basename] = child
        self.children.append(child)

    def child(self, basename: str) -> "Module":
        """Look up a direct child by its leaf name."""
        try:
            return self._child_names[basename]
        except KeyError:
            raise ModelError(
                f"{self.name!r} has no child named {basename!r}"
            ) from None

    def walk(self) -> Iterable["Module"]:
        """Yield this module and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    # ------------------------------------------------------------------
    # Factories scoped to this module's name
    # ------------------------------------------------------------------
    def event(self, basename: str = "event") -> Event:
        return self.sim.event(f"{self.name}.{basename}")

    def thread(
        self,
        body: Union[Generator, ThreadBody],
        *args,
        name: Optional[str] = None,
        **kwargs,
    ) -> Process:
        if name is None:
            name = getattr(body, "__name__", "thread")
        return self.sim.thread(body, *args, name=f"{self.name}.{name}", **kwargs)

    def method(
        self,
        fn: Callable[[], object],
        sensitive: Iterable[Event] = (),
        *,
        name: Optional[str] = None,
        initialize: bool = True,
    ) -> MethodProcess:
        if name is None:
            name = getattr(fn, "__name__", "method")
        return self.sim.method(
            fn, sensitive, name=f"{self.name}.{name}", initialize=initialize
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
