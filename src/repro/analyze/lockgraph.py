"""Shared-variable acquisition facts: the lock graph and its cycles.

Historically this module walked behavior ASTs *in textual order* to
approximate lock nesting.  That walker is gone: nesting facts now come
from the path-sensitive lock-set interpreter in
:mod:`repro.analyze.flow`, which runs over the unified effect IR
(:mod:`repro.analyze.effects`) and tracks branches, loops and early
exits instead of smearing them into one linear order.  What remains
here is the data shape (:class:`TaskLockUsage`) and the cycle finder
the RTS110 deadlock rule runs over the held->acquired graph.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple


class TaskLockUsage:
    """What one function does with shared variables."""

    def __init__(self, fn: Any) -> None:
        self.function = fn
        #: Names of shared variables the function ever acquires.
        self.acquires: Set[str] = set()
        #: (held, acquired) nesting pairs observed on some path.
        self.nested: List[Tuple[str, str]] = []


def find_cycles(edges: Dict[str, Set[str]]) -> List[List[str]]:
    """Elementary cycles in the held->acquired graph (DFS, deduplicated)."""
    cycles: List[List[str]] = []
    seen: Set[Tuple[str, ...]] = set()

    def visit(node: str, path: List[str], on_path: Set[str]) -> None:
        for nxt in sorted(edges.get(node, ())):
            if nxt in on_path:
                cycle = path[path.index(nxt):]
                key = tuple(sorted(cycle))
                if key not in seen:
                    seen.add(key)
                    cycles.append(cycle + [nxt])
                continue
            visit(nxt, path + [nxt], on_path | {nxt})

    for start in sorted(edges):
        visit(start, [start], {start})
    return cycles
