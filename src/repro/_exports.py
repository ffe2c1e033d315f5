"""Lazy package exports (PEP 562).

A package ``__init__`` declares what it exports as one table of
``{submodule: names}`` instead of importing every submodule, so
``import repro.trace`` costs nothing until a name is used::

    __getattr__, __dir__, __all__ = lazy_exports(globals(), {
        "recorder": ("TraceRecorder",),
        "svg": ("render_svg", "save_svg"),
    })

The first access to an exported name imports its submodule and caches
the value in the package namespace; later accesses are plain attribute
reads.  Any other public attribute that names a submodule
(``repro.trace.vcd``) imports it on first access, as an eager
``__init__`` used to.  Names the ``__init__`` defines or imports itself
are passed as ``own`` so ``__all__`` lists them too.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, \
    MutableMapping, Tuple


def lazy_exports(
    namespace: MutableMapping[str, Any],
    table: Mapping[str, Iterable[str]],
    *,
    own: Iterable[str] = (),
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """Return ``(__getattr__, __dir__, __all__)`` for a package.

    ``table`` maps a submodule path relative to the package (dotted
    paths allowed) to the names it exports.  An exported name may not
    also name a submodule of the table: importing that submodule would
    rebind the package attribute to the module.
    """
    package = namespace["__name__"]
    submodules = {path.split(".")[0] for path in table}
    origin: Dict[str, str] = {}
    for path, names in table.items():
        for name in names:
            if name in submodules:
                raise ImportError(
                    f"{package}: export {name!r} shadows submodule "
                    f"{package}.{name}"
                )
            origin[name] = path

    def __getattr__(name: str) -> Any:
        path = origin.get(name)
        if path is not None:
            value = getattr(importlib.import_module(f"{package}.{path}"),
                            name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            fullname = f"{package}.{name}"
            try:
                return importlib.import_module(fullname)
            except ModuleNotFoundError as exc:
                if exc.name != fullname:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, sorted({*own, *origin})
