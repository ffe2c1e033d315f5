#!/usr/bin/env python3
"""Generate docs/api_reference.md from the package's public API.

Walks every ``repro`` subpackage, collects the names exported through
``__all__`` (or public module-level callables/classes when ``__all__``
is absent), and emits a markdown index with signatures and first
docstring lines.  Run after changing a public interface:

    python tools/gen_api_docs.py

``tests/test_api_docs.py`` fails when the checked-in file is stale.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys

MODULES = [
    "repro",
    "repro.kernel",
    "repro.kernel.time",
    "repro.mcse",
    "repro.rtos",
    "repro.smp",
    "repro.trace",
    "repro.analyze",
    "repro.personality",
    "repro.personality.differential",
    "repro.verify",
    "repro.campaign",
    "repro.corpus",
    "repro.serve",
    "repro.baselines",
    "repro.comm",
    "repro.codegen",
    "repro.workloads",
]

HEADER = """\
# API reference

Public names per package, with signatures and one-line summaries.
Generated by `tools/gen_api_docs.py` -- do not edit by hand.
"""


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].rstrip(".")


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            name for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isclass(value) or inspect.isfunction(value))
            and getattr(value, "__module__", "").startswith("repro")
        ]
    return sorted(names)


def render_entry(module, name: str) -> str:
    obj = getattr(module, name)
    summary = first_line(obj)
    if inspect.isclass(obj):
        methods = []
        for method_name, method in sorted(vars(obj).items()):
            if method_name.startswith("_"):
                continue
            if callable(method):
                methods.append(f"`.{method_name}{signature_of(method)}`")
            elif isinstance(method, property):
                methods.append(f"`.{method_name}` *(property)*")
        lines = [f"- **class `{name}{signature_of(obj)}`** — {summary}"]
        if methods:
            lines.append("  - " + "; ".join(methods))
        return "\n".join(lines)
    if inspect.isfunction(obj):
        return f"- `{name}{signature_of(obj)}` — {summary}"
    if isinstance(obj, int):
        return f"- `{name}` = `{obj}` (constant)"
    return f"- `{name}` — {summary or type(obj).__name__}"


def generate() -> str:
    parts = [HEADER]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        parts.append(f"\n## `{module_name}`\n")
        doc = first_line(module)
        if doc:
            parts.append(doc + ".\n")
        for name in public_names(module):
            parts.append(render_entry(module, name))
    return "\n".join(parts) + "\n"


def main() -> int:
    out_path = os.path.join(
        os.path.dirname(__file__), "..", "docs", "api_reference.md"
    )
    text = generate()
    with open(out_path, "w") as handle:
        handle.write(text)
    print(f"wrote {os.path.normpath(out_path)} "
          f"({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
