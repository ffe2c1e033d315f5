"""Packages meet at public names only.

An underscore-prefixed name is private to the subpackage that defines
it: a module may import one from its own subpackage, never from
another (``repro.cli`` and ``repro.errors`` count as subpackages of
their own).  The scan reads the source with :mod:`ast`, so it sees
imports inside functions too, and imports nothing.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def modules():
    """Yield ``(dotted name, is package, path)`` for every module."""
    root = os.path.join(SRC, "repro")
    for directory, _, files in os.walk(root):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            parts = os.path.relpath(path, SRC)[:-3].split(os.sep)
            package = parts[-1] == "__init__"
            if package:
                parts.pop()
            yield ".".join(parts), package, path


def owner(module: str) -> str:
    """The subpackage a dotted ``repro`` module belongs to."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


def private_imports(module: str, package: bool, path: str):
    """Yield ``(line, source module, name)`` for each private import."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    here = module.split(".") if package else module.split(".")[:-1]
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = here[:len(here) - node.level + 1]
            source = ".".join(base + ([node.module] if node.module else []))
        else:
            source = node.module or ""
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.endswith("__"):
                yield node.lineno, source, name


def test_scan_sees_relative_private_imports(tmp_path):
    path = tmp_path / "app.py"
    path.write_text("def f():\n    from ..cli import _emit_json\n")
    found = list(private_imports("repro.serve.app", False, str(path)))
    assert found == [(2, "repro.cli", "_emit_json")]


def test_no_private_name_crosses_a_subpackage():
    crossings = [
        f"{module}:{line} imports {name} from {source}"
        for module, package, path in modules()
        for line, source, name in private_imports(module, package, path)
        if source.startswith("repro") and owner(source) != owner(module)
    ]
    assert crossings == []
