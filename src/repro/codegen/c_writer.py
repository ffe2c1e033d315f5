"""C code generation from declarative system specifications.

Implements the paper's §6 future work: generating software for a final
implementation from the validated model.  The same specification dict
that :func:`repro.mcse.builder.build_system` elaborates into a simulation
is emitted as a compilable C application against the generic RTOS API of
:mod:`repro.codegen.api` (a POSIX reference port is emitted alongside,
so the output builds and runs on a host out of the box):

    spec -> app.c + rtos_api.h + rtos_port_posix.c

Only *script* behaviors can be generated (they are the analysable
form a capture tool produces); functions defined as Python callables
yield a clearly marked stub for hand implementation.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional

from ..errors import BuildError
from ..kernel.time import US, format_time
from ..mcse.builder import RELATION_OPS, build_system
from ..personality import lower_spec
from .api import RTOS_API_H, RTOS_PORT_POSIX_C

_IDENT_RE = re.compile(r"[^0-9a-zA-Z_]")


def c_identifier(name: str) -> str:
    """Turn a model name into a valid C identifier."""
    ident = _IDENT_RE.sub("_", name)
    if not ident or ident[0].isdigit():
        ident = "_" + ident
    return ident


#: The C statements of each relation op the generated API expresses:
#: ``{r}`` is the relation's identifier, ``{v}`` the op's value.
_C_CALLS = {
    "wait": ("rtos_event_wait({r});",),
    "signal": ("rtos_event_signal({r});",),
    "read": ("(void)rtos_queue_recv({r});",),
    "write": ("rtos_queue_send({r}, {v});",),
    "lock": ("rtos_mutex_lock({r}_mutex);",),
    "unlock": ("rtos_mutex_unlock({r}_mutex);",),
    "read_shared": ("rtos_mutex_lock({r}_mutex);", "(void){r}_value;",
                    "rtos_mutex_unlock({r}_mutex);"),
    "write_shared": ("rtos_mutex_lock({r}_mutex);", "{r}_value = {v};",
                     "rtos_mutex_unlock({r}_mutex);"),
}


class CWriter:
    """Generates the C application for one specification."""

    def __init__(self, spec: Dict) -> None:
        if spec.get("personality"):
            # emit the tasks and relations the personality lowers to
            spec = lower_spec(spec).spec
        # the simulator's builder validates the spec, so generated code
        # and simulation share one notion of a well-formed script
        self.system = build_system(spec)
        self.spec = spec
        self.name = spec.get("name", "system")
        self.relations: Dict[str, Dict] = {
            rel["name"]: rel for rel in spec.get("relations", ())
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self) -> Dict[str, str]:
        """Return ``{filename: contents}`` for the full application."""
        return {
            "rtos_api.h": RTOS_API_H,
            "rtos_port_posix.c": RTOS_PORT_POSIX_C,
            "app.c": self._app_c(),
        }

    def write(self, directory: str) -> List[str]:
        """Write all files into ``directory``; returns the paths."""
        os.makedirs(directory, exist_ok=True)
        paths = []
        for filename, contents in self.generate().items():
            path = os.path.join(directory, filename)
            with open(path, "w") as handle:
                handle.write(contents)
            paths.append(path)
        return paths

    # ------------------------------------------------------------------
    # app.c
    # ------------------------------------------------------------------
    def _app_c(self) -> str:
        parts: List[str] = [
            f"/* app.c -- generated from model {self.name!r} by pyrtos-sc.",
            " * Build:  cc -O2 app.c rtos_port_posix.c -lpthread -o app",
            " */",
            '#include "rtos_api.h"',
            "",
        ]
        parts.extend(self._relation_declarations())
        parts.append("")
        for fn_spec in self.spec.get("functions", ()):
            parts.extend(self._task_function(dict(fn_spec)))
            parts.append("")
        parts.extend(self._main())
        return "\n".join(parts) + "\n"

    def _relation_declarations(self) -> List[str]:
        lines = ["/* relations */"]
        for name, rel in self.relations.items():
            ident = c_identifier(name)
            kind = rel.get("kind")
            if kind == "event":
                lines.append(f"static rtos_event_t *{ident};")
            elif kind == "queue":
                lines.append(f"static rtos_queue_t *{ident};")
            elif kind == "shared":
                lines.append(f"static rtos_mutex_t *{ident}_mutex;")
                lines.append(f"static volatile intptr_t {ident}_value;")
            else:
                raise BuildError(
                    f"relation {name!r}: the generated C API has no {kind} "
                    "relations"
                )
        return lines

    def _task_function(self, fn_spec: Dict) -> List[str]:
        name = fn_spec["name"]
        ident = c_identifier(name)
        lines = [f"static void task_{ident}(void *arg) {{", "    (void)arg;"]
        ops = getattr(self.system.functions[name], "script_ops", None)
        if ops is None:
            lines += [
                f"    /* TODO: behavior of {name!r} was given as Python",
                "     * code; implement it here by hand. */",
            ]
        else:
            lines.extend(
                self._emit_block(ops, 1, f"function {name!r}: script"))
        lines.append("}")
        return lines

    def _emit_block(self, ops: List, indent: int, path: str) -> List[str]:
        pad = "    " * indent
        lines: List[str] = []
        for index, (op_name, args) in enumerate(ops):
            where = f"{path}[{index}]"
            if op_name == "execute":
                cost = args[0]
                if isinstance(cost, tuple):
                    cost = cost[0]  # interval: generate the nominal bound
                lines.append(f"{pad}rtos_busy_us({_us(cost)});")
            elif op_name == "delay":
                lines.append(f"{pad}rtos_delay_us({_us(args[0])});")
            elif op_name in _C_CALLS:
                parsers = RELATION_OPS[op_name][2]
                if len(args) > 1 + len(parsers) and args[-1] is not None:
                    raise BuildError(
                        f"{where}: the generated C API has no {op_name} "
                        f"with a timeout ({format_time(args[-1])})"
                    )
                value = _message(args[1]) if parsers else ""
                lines += [
                    pad + line.format(r=c_identifier(args[0]), v=value)
                    for line in _C_CALLS[op_name]
                ]
            elif op_name == "set_preemptive":
                lines.append(
                    f"{pad}rtos_set_preemptive({1 if args[0] else 0});"
                )
            elif op_name == "loop":
                count, body = args
                if count is None:
                    lines.append(f"{pad}for (;;) {{")
                else:
                    lines.append(
                        f"{pad}for (int i_{indent} = 0; "
                        f"i_{indent} < {count}; i_{indent}++) {{"
                    )
                lines.extend(self._emit_block(body, indent + 1, where))
                lines.append(f"{pad}}}")
            else:
                raise BuildError(
                    f"{where}: the generated C API has no {op_name}"
                )
        return lines

    # ------------------------------------------------------------------
    # main()
    # ------------------------------------------------------------------
    def _main(self) -> List[str]:
        lines = ["int main(void) {", "    rtos_init();"]
        for name, rel in self.relations.items():
            ident = c_identifier(name)
            kind = rel.get("kind")
            if kind == "event":
                policy = rel.get("policy", "fugitive").upper()
                lines.append(
                    f'    {ident} = rtos_event_create("{name}", '
                    f"RTOS_EVENT_{policy});"
                )
            elif kind == "queue":
                capacity = rel.get("capacity", 8) or 0
                lines.append(
                    f'    {ident} = rtos_queue_create("{name}", {capacity});'
                )
            elif kind == "shared":
                lines.append(
                    f'    {ident}_mutex = rtos_mutex_create("{name}");'
                )
                initial = rel.get("initial", 0)
                lines.append(f"    {ident}_value = {_message(initial)};")
        for fn_spec in self.spec.get("functions", ()):
            name = fn_spec["name"]
            ident = c_identifier(name)
            priority = fn_spec.get("priority", 0)
            lines.append(
                f'    rtos_task_create("{name}", task_{ident}, 0, '
                f"{priority});"
            )
        lines += ["    rtos_start();", "    return 0;", "}"]
        return lines


def _us(duration_fs: int) -> int:
    return max(0, round(duration_fs / US))


def _message(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "0"
    return f"0 /* value: {value!r} */"


def generate_c(spec: Dict, directory: Optional[str] = None):
    """Generate the C application for ``spec``.

    With ``directory`` the files are written and their paths returned;
    otherwise the ``{filename: contents}`` dict is returned.
    """
    writer = CWriter(spec)
    if directory is not None:
        return writer.write(directory)
    return writer.generate()
