"""Source-level lint: the failure classes that silently break campaigns.

An AST pass (stdlib :mod:`ast`, no third-party dependency) over user
experiment/model files, catching the two classes of mistakes that do not
crash anything but quietly destroy campaign reproducibility and caching:

* **SRC201 / SRC202 -- hidden nondeterminism**: the process-global
  :mod:`random` generator used unseeded inside a function body, and
  wall-clock reads (``time.time``, ``datetime.now``) feeding model code.
  Both make a "deterministic" simulation differ between runs and between
  cache hits and misses.
* **SRC210 -- unpicklable experiment callables**: lambdas or nested
  (closure) functions handed to :class:`~repro.campaign.spec.
  ExperimentSpec` / ``monte_carlo`` / ``explore``, which cannot cross
  the process boundary once ``workers > 1``.

Suppression: a ``# pyrtos: disable=SRC201`` comment appended to the
offending line suppresses that rule on that line; the same comment on a
line of its own suppresses the rule for the whole file.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .diagnostics import Report, _pragmas, rule

SRC000 = rule("SRC000", "source file does not parse")
SRC201 = rule("SRC201", "process-global random generator used unseeded")
SRC202 = rule("SRC202", "wall-clock read inside model/experiment code")
SRC210 = rule("SRC210", "experiment callable cannot cross process boundary")

#: ``random.<fn>`` calls that consume the process-global RNG stream.
_GLOBAL_RNG_FNS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "gammavariate", "lognormvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "triangular", "getrandbits",
    "randbytes",
}

#: Wall-clock reads (host-time sources that are *not* elapsed-time
#: measurement helpers; ``perf_counter``/``monotonic`` are fine for
#: timing a run, they never feed model state deterministically cached).
_WALL_CLOCK_TIME_FNS = {"time", "time_ns", "ctime", "localtime", "gmtime"}
_WALL_CLOCK_DATETIME_FNS = {"now", "today", "utcnow"}

#: Campaign entry points whose callable arguments must be picklable.
_SPEC_CONSTRUCTORS = {"ExperimentSpec", "monte_carlo", "explore"}

class _SourceVisitor(ast.NodeVisitor):
    def __init__(self, report: Report, location: str,
                 per_line: Dict[int, Set[str]]) -> None:
        self.report = report
        self.location = location
        self.per_line = per_line
        #: Names bound to the modules of interest by imports.
        self.module_alias: Dict[str, str] = {}
        #: Bare names imported from those modules (``from random import x``).
        self.from_imports: Dict[str, str] = {}
        #: Function-definition nesting depth (0 = module level).
        self.depth = 0
        #: Names bound to lambdas or nested function defs (unpicklable).
        self.local_callables: Set[str] = set()
        self.global_seed_called = False

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in ("random", "time", "datetime"):
                self.module_alias[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in ("random", "time", "datetime"):
            for alias in node.names:
                self.from_imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # -- scope tracking -------------------------------------------------
    def visit_FunctionDef(self, node: ast.AST) -> None:
        if self.depth >= 1:
            self.local_callables.add(node.name)
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.local_callables.add(target.id)
        self.generic_visit(node)

    # -- findings -------------------------------------------------------
    def _dotted(self, func: ast.AST) -> Optional[str]:
        """``module.attr`` for a call target, resolving import aliases."""
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = self.module_alias.get(func.value.id)
            if base is not None:
                return f"{base}.{func.attr}"
            # from datetime import datetime; datetime.now()
            origin = self.from_imports.get(func.value.id)
            if origin == "datetime.datetime":
                return f"datetime.{func.attr}"
            # datetime.datetime.now(): one extra attribute hop
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)):
            base = self.module_alias.get(func.value.value.id)
            if base == "datetime":
                return f"datetime.{func.attr}"
        if isinstance(func, ast.Name):
            return self.from_imports.get(func.id)
        return None

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted == "random.seed":
            self.global_seed_called = True
        elif dotted is not None and self.depth > 0:
            module, _, attr = dotted.partition(".")
            if module == "random" and attr in _GLOBAL_RNG_FNS:
                self._flag_random(node, dotted)
            elif module == "time" and attr in _WALL_CLOCK_TIME_FNS:
                self._flag_wall_clock(node, dotted)
            elif module == "datetime" and attr in _WALL_CLOCK_DATETIME_FNS:
                self._flag_wall_clock(node, dotted)
        func_name = node.func.id if isinstance(node.func, ast.Name) else (
            node.func.attr if isinstance(node.func, ast.Attribute) else None
        )
        if func_name in _SPEC_CONSTRUCTORS:
            self._check_picklable(node, func_name)
        self.generic_visit(node)

    def _flag_random(self, node: ast.Call, dotted: str) -> None:
        self.report.add(
            SRC201,
            self.report.WARNING,
            self.location,
            f"{dotted}() draws from the process-global RNG"
            + ("" if self.global_seed_called else
               " and no random.seed(...) call is visible in this file")
            + "; repeated runs (and cache replays) will diverge",
            hint="use a local random.Random(seed) instance derived from "
                 "the experiment seed",
            line=node.lineno,
        )

    def _flag_wall_clock(self, node: ast.Call, dotted: str) -> None:
        self.report.add(
            SRC202,
            self.report.WARNING,
            self.location,
            f"{dotted}() reads the wall clock inside a function body; "
            "values differ between runs, breaking determinism and cache "
            "keying",
            hint="derive times from the simulator clock (sim.now) or "
                 "pass timestamps in as parameters",
            line=node.lineno,
        )

    def _check_picklable(self, node: ast.Call, func_name: str) -> None:
        candidates: List[Tuple[ast.AST, str]] = []
        for arg in node.args:
            candidates.append((arg, "positional argument"))
        for keyword in node.keywords:
            if keyword.arg is not None:
                candidates.append((keyword.value, f"argument {keyword.arg!r}"))
        for value, describe in candidates:
            if isinstance(value, ast.Lambda):
                what = "a lambda"
            elif (isinstance(value, ast.Name)
                    and value.id in self.local_callables):
                what = f"locally-defined function {value.id!r}"
            else:
                continue
            self.report.add(
                SRC210,
                self.report.WARNING,
                self.location,
                f"{func_name}(...) receives {what} as {describe}; it "
                "cannot be pickled, so the campaign fails (or falls "
                "back) as soon as workers > 1",
                hint="move the callable to module level (or wrap it in "
                     "functools.partial over a module-level function)",
                line=value.lineno,
            )


def analyze_source(path: str, text: Optional[str] = None) -> Report:
    """Lint one Python source file; returns a :class:`Report`."""
    if text is None:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    file_wide, per_line = _pragmas(text)
    report = Report(suppress=file_wide)
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        report.add(
            SRC000,
            report.ERROR,
            path,
            f"source does not parse: {exc.msg}",
            line=exc.lineno,
        )
        return report
    visitor = _SourceVisitor(report, path, per_line)
    visitor.visit(tree)
    if per_line:
        kept = []
        for diagnostic in report.diagnostics:
            if diagnostic.rule in per_line.get(diagnostic.line or -1, ()):
                report.suppressed.append(diagnostic)
            else:
                kept.append(diagnostic)
        report.diagnostics = kept
    return report
