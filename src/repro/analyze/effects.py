"""The unified effect IR every behavior-flow analysis runs on.

Task behaviors come in two shapes -- declarative ``script_ops`` attached
by the builder, and plain Python generator functions -- and both are
lowered here into one small structured tree:

* :class:`Effect` leaves -- one kernel-visible action each: ``execute``
  / ``delay`` (with a ``(lo, hi)`` cost interval), ``wait`` / ``signal``
  / ``read`` / ``write`` on a relation, ``lock`` / ``unlock`` /
  ``shared_read`` / ``shared_write`` on a shared variable, ``obj_write``
  (a mutation of a closure-captured Python container -- the static
  counterpart of the SAN303 watch list), and ``opaque`` (a delegation
  the analyzer cannot see through);
* :class:`Seq` / :class:`Branch` / :class:`Loop` / :class:`Exit`
  interior nodes -- the control skeleton, with loop bounds (exact
  count, proven-infinite, or unknown) preserved.

Script lowering is *exact*: the op grammar has no opaque corners.
Python lowering parses the generator source with :mod:`ast`, resolves
argument names through closure cells and globals (the same trick the
old textual lock walker used), and keeps an ``exact`` bit: any
unresolvable relation argument or unrecognized ``yield from``
delegation clears it, so downstream rules can refuse to claim
ERROR-severity findings they cannot prove.

:func:`interval` is the shared structural evaluator: it folds any
per-effect contribution (cost, signal count, wait count) into a
``(lo, hi)`` interval with ``None`` standing for *unbounded*, handling
branch min/max, loop multiplication and early exits conservatively.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..mcse.builder import RELATION_OPS
from .diagnostics import _pragmas

#: Leaf effect kinds (see the module docstring).
EFFECT_KINDS = frozenset((
    "execute", "delay", "wait", "signal", "read", "write",
    "lock", "unlock", "shared_read", "shared_write",
    "obj_write", "opaque",
))

#: ``Function`` methods that surface as effects, and the kinds they map
#: to.  Matches the behavior driver's surface exactly.
_METHOD_KINDS: Dict[str, str] = {
    "execute": "execute",
    "delay": "delay",
    "wait": "wait",
    "signal": "signal",
    "read": "read",
    "write": "write",
    "lock": "lock",
    "unlock": "unlock",
    "read_shared": "shared_read",
    "write_shared": "shared_write",
    "set_flag": "signal",
    "clear_flag": "signal",
    "wait_flag": "wait",
}

#: Container methods that mutate their receiver in place.  A call to one
#: of these on a closure-captured container is an ``obj_write`` effect
#: (mirrors what the runtime sanitizer's snapshot diffing would see).
_MUTATOR_METHODS = frozenset((
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "sort", "reverse", "add", "update", "discard", "setdefault",
    "difference_update", "intersection_update",
    "symmetric_difference_update",
))

#: Closure-cell contents of these types are race candidates -- kept in
#: lockstep with ``repro.analyze.sanitize._WATCHABLE``.
_WATCHABLE = (list, dict, set, bytearray)


@dataclass(frozen=True)
class Effect:
    """One kernel-visible action; ``cost`` is a ``(lo, hi)`` interval."""

    kind: str
    target: Optional[str] = None
    cost: Optional[Tuple[int, int]] = None
    line: Optional[int] = None


@dataclass(frozen=True)
class Seq:
    """Sequential composition."""

    items: Tuple["Node", ...]


@dataclass(frozen=True)
class Branch:
    """Alternative arms (an ``if``/``else``; the else arm may be empty)."""

    arms: Tuple["Node", ...]
    line: Optional[int] = None


@dataclass(frozen=True)
class Loop:
    """A loop: ``count`` iterations exactly, proven infinite, or unknown.

    ``count`` is an ``int`` only when the bound is statically exact;
    ``infinite`` is only ``True`` when the loop provably never exits
    forward (``loop(None, ...)`` scripts, ``while True`` with no
    ``break``).  ``count is None and not infinite`` means *unknown*:
    zero or more iterations.
    """

    body: "Node"
    count: Optional[int] = None
    infinite: bool = False
    line: Optional[int] = None


@dataclass(frozen=True)
class Exit:
    """A ``return`` / ``break`` / ``continue`` control transfer."""

    kind: str
    line: Optional[int] = None


Node = Union[Effect, Seq, Branch, Loop, Exit]


@dataclass
class TaskEffects:
    """The lowered effect tree of one function, plus provenance."""

    root: Seq
    #: ``"script"`` or ``"behavior"``.
    source: str
    #: Every potential effect was resolved; ERROR-severity flow rules
    #: only claim findings on exact trees.
    exact: bool = True
    #: Closure-captured watchable containers: variable name -> ``id()``.
    objects: Dict[str, int] = field(default_factory=dict)
    #: ``# pyrtos: disable=`` pragmas in the behavior source.
    pragma_file: Set[str] = field(default_factory=set)
    pragma_lines: Dict[int, Set[str]] = field(default_factory=dict)

    def suppresses(self, rule_id: str, line: Optional[int]) -> bool:
        """Whether a source pragma suppresses ``rule_id`` at ``line``."""
        if rule_id in self.pragma_file:
            return True
        if line is None:
            return False
        return rule_id in self.pragma_lines.get(line, set())


def resolve_names(behavior: Any) -> Dict[str, object]:
    """Map of variable names visible to ``behavior`` -> bound objects.

    Closure cells shadow globals, exactly like the interpreter.
    """
    resolved: Dict[str, object] = {}
    code = getattr(behavior, "__code__", None)
    closure = getattr(behavior, "__closure__", None)
    if code is not None and closure:
        for name, cell in zip(code.co_freevars, closure):
            try:
                resolved[name] = cell.cell_contents
            except ValueError:  # pragma: no cover - empty cell
                pass
    for name, value in (getattr(behavior, "__globals__", None) or {}).items():
        resolved.setdefault(name, value)
    return resolved


# ---------------------------------------------------------------------------
# Script lowering (exact by construction)
# ---------------------------------------------------------------------------
def lower_script(ops: Sequence[Any]) -> TaskEffects:
    """Lower a validated builder op list into an exact effect tree."""
    return TaskEffects(root=Seq(tuple(_script_nodes(ops))), source="script")


def _script_nodes(ops: Sequence[Any]) -> Iterator[Node]:
    for name, args in ops:
        if name in ("execute", "delay"):
            raw = args[0]
            cost = tuple(raw) if type(raw) is tuple else (raw, raw)
            yield Effect(name, cost=(int(cost[0]), int(cost[1])))
        elif name == "loop":
            count, body = args
            yield Loop(
                body=Seq(tuple(_script_nodes(body))),
                count=count if count is not None else None,
                infinite=count is None,
            )
        elif name == "delay_until":
            # cadence-relative delay: anywhere from 0 (already late) to
            # one full period of wall-clock suspension
            yield Effect("delay", cost=(0, int(args[0])))
        elif name != "set_preemptive":  # a mode toggle: no flow effect
            yield Effect(_METHOD_KINDS[RELATION_OPS[name][0]], target=args[0])


# ---------------------------------------------------------------------------
# Python behavior lowering (approximate where it must be, and says so)
# ---------------------------------------------------------------------------
class _LowerContext:
    def __init__(self, names: Dict[str, object]) -> None:
        self.names = names
        self.exact = True
        self.objects: Dict[str, int] = {}


def lower_behavior(behavior: Any) -> Optional[TaskEffects]:
    """Lower a Python generator behavior, or ``None`` when unparseable."""
    try:
        source = textwrap.dedent(inspect.getsource(behavior))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        return None
    fndef = next(
        (node for node in ast.walk(tree)
         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))),
        None,
    )
    if fndef is None:
        return None
    context = _LowerContext(resolve_names(behavior))
    nodes = _lower_stmts(fndef.body, context)
    file_wide, per_line = _pragmas(source)
    return TaskEffects(
        root=Seq(tuple(nodes)),
        source="behavior",
        exact=context.exact,
        objects=context.objects,
        pragma_file=file_wide,
        pragma_lines=per_line,
    )


def _lower_stmts(stmts: Sequence[ast.stmt],
                 context: _LowerContext) -> List[Node]:
    out: List[Node] = []
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom,
                             ast.Global, ast.Nonlocal, ast.Pass)):
            continue  # no effects execute here
        if isinstance(stmt, ast.If):
            out.append(Branch(
                arms=(Seq(tuple(_lower_stmts(stmt.body, context))),
                      Seq(tuple(_lower_stmts(stmt.orelse, context)))),
                line=stmt.lineno,
            ))
        elif isinstance(stmt, ast.While):
            has_break = _has_break(stmt.body)
            infinite = (
                isinstance(stmt.test, ast.Constant)
                and stmt.test.value is True
                and not has_break
            )
            out.append(Loop(
                body=Seq(tuple(_lower_stmts(stmt.body, context))),
                count=None,
                infinite=infinite,
                line=stmt.lineno,
            ))
            out.extend(_lower_stmts(stmt.orelse, context))
        elif isinstance(stmt, ast.For):
            count = _range_count(stmt.iter, context.names)
            if _has_break(stmt.body):
                count = None
            out.append(Loop(
                body=Seq(tuple(_lower_stmts(stmt.body, context))),
                count=count,
                infinite=False,
                line=stmt.lineno,
            ))
            out.extend(_lower_stmts(stmt.orelse, context))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                out.extend(_expr_effects(stmt.value, stmt, context))
            out.append(Exit("return", line=stmt.lineno))
        elif isinstance(stmt, ast.Break):
            out.append(Exit("break", line=stmt.lineno))
        elif isinstance(stmt, ast.Continue):
            out.append(Exit("continue", line=stmt.lineno))
        elif isinstance(stmt, ast.Try):
            # Exceptional control flow is approximated: the handlers may
            # run after any prefix of the body, so exactness is lost.
            context.exact = False
            out.append(Seq(tuple(_lower_stmts(stmt.body, context))))
            for handler in stmt.handlers:
                out.append(Branch(
                    arms=(Seq(tuple(_lower_stmts(handler.body, context))),
                          Seq(())),
                    line=handler.lineno,
                ))
            out.extend(_lower_stmts(stmt.orelse, context))
            out.extend(_lower_stmts(stmt.finalbody, context))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                out.extend(_expr_effects(item.context_expr, stmt, context))
            out.extend(_lower_stmts(stmt.body, context))
        else:
            out.extend(_stmt_effects(stmt, context))
    return out


def _has_break(stmts: Sequence[ast.stmt]) -> bool:
    """Whether a ``break`` at this loop's level exists in ``stmts``."""
    for stmt in stmts:
        if isinstance(stmt, ast.Break):
            return True
        if isinstance(stmt, (ast.For, ast.While, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # a break in there binds to the inner loop/def
        if isinstance(stmt, ast.If):
            if _has_break(stmt.body) or _has_break(stmt.orelse):
                return True
        elif isinstance(stmt, ast.Try):
            if (_has_break(stmt.body) or _has_break(stmt.orelse)
                    or _has_break(stmt.finalbody)
                    or any(_has_break(h.body) for h in stmt.handlers)):
                return True
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            if _has_break(stmt.body):
                return True
    return False


def _stmt_effects(stmt: ast.stmt, context: _LowerContext) -> List[Node]:
    """Effects of one straight-line statement, in textual order."""
    out: List[Node] = []
    # Container mutations through subscript assignment.
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, ast.Subscript) and \
                isinstance(target.value, ast.Name):
            effect = _container_write(target.value.id, stmt.lineno, context)
            if effect is not None:
                out.append(effect)
    for node in _preorder(stmt):
        if isinstance(node, ast.Yield):
            out.append(Effect("opaque", line=node.lineno))
            context.exact = False
        elif isinstance(node, ast.YieldFrom):
            if not _is_effect_call(node.value):
                out.append(Effect("opaque", line=node.lineno))
                context.exact = False
        elif isinstance(node, ast.Call):
            effect = _call_effect(node, context)
            if effect is not None:
                out.append(effect)
    return out


def _expr_effects(expr: ast.expr, stmt: ast.stmt,
                  context: _LowerContext) -> List[Node]:
    wrapper = ast.Expr(value=expr)
    ast.copy_location(wrapper, stmt)
    return _stmt_effects(wrapper, context)


def _preorder(tree: ast.AST) -> Iterator[ast.AST]:
    """Depth-first pre-order walk: nodes come out in source order."""
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _is_effect_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _METHOD_KINDS
    )


def _call_effect(node: ast.Call,
                 context: _LowerContext) -> Optional[Effect]:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    method = func.attr
    if method in _METHOD_KINDS:
        kind = _METHOD_KINDS[method]
        line = node.lineno
        if kind in ("execute", "delay"):
            cost = None
            if node.args:
                value = _const_int(node.args[0], context.names)
                if value is not None and value >= 0:
                    cost = (value, value)
            return Effect(kind, cost=cost, line=line)
        target = _relation_name(node.args[0], context.names) \
            if node.args else None
        if target is None:
            context.exact = False
        return Effect(kind, target=target, line=line)
    if method in _MUTATOR_METHODS and isinstance(func.value, ast.Name):
        return _container_write(func.value.id, node.lineno, context)
    return None


def _container_write(varname: str, line: int,
                     context: _LowerContext) -> Optional[Effect]:
    obj = context.names.get(varname)
    if not isinstance(obj, _WATCHABLE):
        return None
    if type(obj).__module__.split(".")[0] == "repro":
        return None  # model objects have kernel-defined semantics
    context.objects[varname] = id(obj)
    return Effect("obj_write", target=varname, line=line)


def _relation_name(node: ast.expr,
                   names: Dict[str, object]) -> Optional[str]:
    """The model-relation name an argument refers to, if resolvable."""
    target: object = None
    if isinstance(node, ast.Name):
        target = names.get(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        owner = names.get(node.value.id)
        if owner is not None:
            target = getattr(owner, node.attr, None)
    if target is None:
        return None
    if type(target).__module__.split(".")[0] != "repro":
        return None
    name = getattr(target, "name", None)
    return name if isinstance(name, str) else None


def _const_int(node: ast.expr, names: Dict[str, object]) -> Optional[int]:
    """Statically evaluate a duration expression to an int, if possible."""
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, bool) or not isinstance(value, int):
            return None
        return value
    if isinstance(node, ast.Name):
        value = names.get(node.id)
        if isinstance(value, bool) or not isinstance(value, int):
            return None
        return value
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        owner = names.get(node.value.id)
        if owner is None:
            return None
        value = getattr(owner, node.attr, None)
        if isinstance(value, bool) or not isinstance(value, int):
            return None
        return value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_int(node.operand, names)
        return None if inner is None else -inner
    if isinstance(node, ast.BinOp):
        left = _const_int(node.left, names)
        right = _const_int(node.right, names)
        if left is None or right is None:
            return None
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.FloorDiv) and right != 0:
            return left // right
    return None


# ---------------------------------------------------------------------------
# Unified entry point
# ---------------------------------------------------------------------------
def task_effects(fn: Any) -> Optional[TaskEffects]:
    """The effect tree of one function, or ``None`` when fully opaque.

    Declarative ``script_ops`` win (exact); otherwise the Python
    behavior is lowered from source.
    """
    ops = getattr(fn, "script_ops", None)
    if ops:
        return lower_script(ops)
    behavior = getattr(fn, "_behavior", None)
    if behavior is None:
        # class-based functions override ``behavior()`` instead
        behavior = getattr(type(fn), "behavior", None)
    if behavior is None:
        return None
    return lower_behavior(behavior)


# ---------------------------------------------------------------------------
# Structural interval evaluation
# ---------------------------------------------------------------------------
Bound = Optional[int]  # None = unbounded


def _iadd(a: Bound, b: Bound) -> Bound:
    return None if a is None or b is None else a + b


def _imul(a: Bound, k: int) -> Bound:
    if k == 0 or a == 0:
        return 0
    return None if a is None else a * k


@dataclass(frozen=True)
class _Fold:
    lo: Bound
    hi: Bound
    may_stop: bool    # a return/break/continue may cut what follows
    must_stop: bool   # control never falls through this node
    may_return: bool  # a return may escape enclosing loops


_ZERO = _Fold(0, 0, False, False, False)


def interval(node: Node,
             value: Callable[[Effect], Tuple[int, Bound]]) -> Tuple[Bound,
                                                                    Bound]:
    """Fold per-effect contributions into a sound ``(lo, hi)`` interval.

    ``value(effect)`` returns the contribution interval of one leaf
    (``(0, 0)`` for effects the query ignores).  ``lo`` is a guaranteed
    minimum over every path, ``hi`` a maximum (``None`` = unbounded);
    early exits and unknown loop bounds collapse the affected side
    conservatively.
    """
    fold = _fold(node, value)
    return fold.lo, fold.hi


def _fold(node: Node,
          value: Callable[[Effect], Tuple[int, Bound]]) -> _Fold:
    if isinstance(node, Effect):
        lo, hi = value(node)
        return _Fold(lo, hi, False, False, False)
    if isinstance(node, Exit):
        return _Fold(0, 0, True, True, node.kind == "return")
    if isinstance(node, Seq):
        lo: Bound = 0
        hi: Bound = 0
        may_stop = must_stop = may_return = False
        for item in node.items:
            if must_stop:
                break
            fold = _fold(item, value)
            lo = _iadd(lo, 0 if may_stop else fold.lo)
            hi = _iadd(hi, fold.hi)
            may_stop = may_stop or fold.may_stop
            must_stop = must_stop or fold.must_stop
            may_return = may_return or fold.may_return
        return _Fold(lo, hi, may_stop, must_stop, may_return)
    if isinstance(node, Branch):
        folds = [_fold(arm, value) for arm in node.arms] or [_ZERO]
        return _Fold(
            lo=min((f.lo for f in folds if f.lo is not None), default=None)
            if any(f.lo is not None for f in folds) else None,
            hi=max(folds, key=lambda f: (f.hi is None, f.hi or 0)).hi,
            may_stop=any(f.may_stop for f in folds),
            must_stop=all(f.must_stop for f in folds),
            may_return=any(f.may_return for f in folds),
        )
    if isinstance(node, Loop):
        body = _fold(node.body, value)
        if node.infinite:
            diverges = body.lo != 0 and not body.may_stop
            lo: Bound = None if diverges else 0
            hi: Bound = 0 if body.hi == 0 else None
            if not body.may_return:
                # the loop provably never exits: nothing after it runs
                return _Fold(lo, hi, True, True, False)
            return _Fold(lo, hi, True, False, True)
        if node.count is not None:
            return _Fold(
                lo=0 if body.may_stop else _imul(body.lo, node.count),
                hi=_imul(body.hi, node.count),
                may_stop=body.may_return,
                must_stop=False,
                may_return=body.may_return,
            )
        return _Fold(
            lo=0,
            hi=0 if body.hi == 0 else None,
            may_stop=body.may_return,
            must_stop=False,
            may_return=body.may_return,
        )
    raise TypeError(f"not an effect node: {node!r}")


def _range_count(iterator: ast.expr,
                 names: Dict[str, object]) -> Optional[int]:
    """The exact trip count of ``for _ in range(...)``, if resolvable."""
    if not (isinstance(iterator, ast.Call)
            and isinstance(iterator.func, ast.Name)
            and iterator.func.id == "range"
            and not iterator.keywords):
        return None
    bounds = [_const_int(arg, names) for arg in iterator.args]
    if any(bound is None for bound in bounds):
        return None
    if len(bounds) == 1:
        return max(0, bounds[0] or 0)
    if len(bounds) == 2:
        return max(0, (bounds[1] or 0) - (bounds[0] or 0))
    if len(bounds) == 3 and bounds[2] not in (0, None):
        start, stop, step = bounds[0] or 0, bounds[1] or 0, bounds[2] or 1
        span = stop - start
        if (span > 0) != (step > 0):
            return 0
        return max(0, (abs(span) + abs(step) - 1) // abs(step))
    return None


def count_interval(node: Node, kind: str,
                   target: Optional[str] = None) -> Tuple[Bound, Bound]:
    """How often an effect of ``kind`` (on ``target``) can occur."""
    def value(effect: Effect) -> Tuple[int, Bound]:
        if effect.kind != kind:
            return 0, 0
        if target is not None and effect.target != target:
            return 0, 0
        return 1, 1

    return interval(node, value)


def cost_interval(node: Node,
                  kinds: Tuple[str, ...] = ("execute",)) -> Tuple[Bound,
                                                                  Bound]:
    """The accumulated cost interval of ``kinds`` effects (CPU demand)."""
    def value(effect: Effect) -> Tuple[int, Bound]:
        if effect.kind not in kinds:
            return 0, 0
        if effect.cost is None:
            return 0, None  # unknown duration: no lower-bound claim
        return effect.cost[0], effect.cost[1]

    return interval(node, value)


def provably_terminating(node: Node) -> bool:
    """Whether every loop in the tree has a statically exact bound."""
    if isinstance(node, Loop):
        if node.count is None:
            return False
        return provably_terminating(node.body)
    if isinstance(node, Seq):
        return all(provably_terminating(item) for item in node.items)
    if isinstance(node, Branch):
        return all(provably_terminating(arm) for arm in node.arms)
    return True


__all__ = [
    "Branch",
    "Effect",
    "Exit",
    "Loop",
    "Node",
    "Seq",
    "TaskEffects",
    "cost_interval",
    "count_interval",
    "interval",
    "lower_behavior",
    "lower_script",
    "provably_terminating",
    "resolve_names",
    "task_effects",
]
