"""Nondeterminism-hazard AST lints (``DET0xx``) over the simulator core.

The DES is only reproducible if nothing in it depends on Python-level
accidents: set iteration order, the process RNG, the wall clock, or
memory addresses.  These passes walk the :mod:`ast` of the simulation
packages (:data:`SIM_PACKAGES` under the source root) and flag the
hazard patterns statically:

* ``DET001`` — iterating a set (or other unordered collection) with an
  order-sensitive body: float accumulation (``+=``/``sum`` folds) or
  calls that schedule engine work.  Set order varies with hash seeding
  and insertion history, so such loops can produce run-to-run drift
  (WARNING — the perturbation differ confirms or refutes);
* ``DET002`` — ``set.pop()``, which removes an *arbitrary* element
  (WARNING);
* ``DET010`` — module-level :mod:`random` calls with no ``random.seed``
  in the same file: irreproducible by construction (ERROR);
* ``DET011`` — ``random.Random()`` instantiated without a seed
  (WARNING);
* ``DET020`` — wall-clock reads (``time.time``, ``datetime.now``, ...)
  inside simulation code, which must know only the engine's virtual
  clock (ERROR);
* ``DET030`` — ordering by ``id(...)`` (a ``sorted``/``min``/``max``/
  ``.sort`` key), which is memory-layout-dependent (ERROR);
* ``DET040`` — mutable default arguments, which leak state across
  invocations of event callbacks (WARNING).

The passes read only the packages whose code runs under the engine
(:data:`SIM_PACKAGES`, through the context's shared parse — see
:mod:`~repro.analysis.program`); the analysis layer itself (this
package included) is out of scope.  On trees that have none of the
known package directories — unit-test fixtures — the whole tree is read
instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from ..context import AnalysisContext
from ..findings import Finding, Severity
from ..program import dotted
from ..registry import register_pass

#: Packages under the source root whose code runs inside the DES; only
#: these are in scope for the determinism lints.
SIM_PACKAGES = (
    "sim", "runtime", "collectives", "parallel", "faults", "hardware",
    "cluster", "inference",
)

#: Method names whose call inside a set-iteration body means the loop is
#: feeding the scheduler: the iteration order becomes the event order.
_SCHEDULING_ATTRS = frozenset({
    "schedule_at", "succeed", "transfer", "record", "add_callback",
    "process", "timeout", "note_touch",
})

#: Order-sensitive reduction callables over an unordered iterable.
_FOLD_CALLS = frozenset({"sum", "fsum"})

#: ``random`` module functions that consume the global RNG stream.
_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "vonmisesvariate",
})

#: Dotted call targets that read the wall clock.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.date.today", "date.today",
})

# ---------------------------------------------------------------------------
# DET001/DET002 — unordered iteration feeding order-sensitive work
# ---------------------------------------------------------------------------

def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def _set_names(tree: ast.Module) -> Set[str]:
    """Names bound (anywhere in the module) to a set-typed value."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not _is_set_expr(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def _iterates_set(node: ast.expr, set_names: Set[str]) -> str:
    """The display name of the set being iterated, or ''."""
    if _is_set_expr(node):
        return "a set literal"
    if isinstance(node, ast.Name) and node.id in set_names:
        return repr(node.id)
    if isinstance(node, ast.Attribute) and node.attr in set_names:
        return repr(node.attr)
    return ""


def _order_sensitive_stmt(body: List[ast.stmt]) -> Tuple[str, int]:
    """(reason, lineno) for the first order-sensitive statement, if any."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                return ("accumulates with an augmented assignment",
                        node.lineno)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _SCHEDULING_ATTRS):
                return (f"calls {node.func.attr}() (schedules engine work)",
                        node.lineno)
    return "", 0


@register_pass(
    "det-set-iteration", family="source", cheap=False,
    description="no scheduling or float folds driven by set iteration order",
    codes=("DET001", "DET002"),
)
def det_set_iteration(ctx: AnalysisContext) -> Iterator[Finding]:
    for location, tree in ctx.modules(SIM_PACKAGES):
        set_names = _set_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                which = _iterates_set(node.iter, set_names)
                if not which:
                    continue
                reason, line = _order_sensitive_stmt(node.body)
                if reason:
                    yield Finding(
                        "det-set-iteration", Severity.WARNING, "DET001",
                        f"loop over set {which} {reason}; set order is "
                        f"arbitrary, so this can drift run-to-run",
                        location=f"{location}:{node.lineno}",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute) and func.attr == "pop"
                        and not node.args and not node.keywords
                        and _iterates_set(func.value, set_names)):
                    yield Finding(
                        "det-set-iteration", Severity.WARNING, "DET002",
                        f"set {_iterates_set(func.value, set_names)}."
                        f"pop() removes an arbitrary element",
                        location=f"{location}:{node.lineno}",
                    )
                elif (isinstance(func, ast.Name)
                        and func.id in _FOLD_CALLS and node.args):
                    arg = node.args[0]
                    if isinstance(arg, ast.GeneratorExp):
                        which = _iterates_set(
                            arg.generators[0].iter, set_names)
                        if which:
                            yield Finding(
                                "det-set-iteration", Severity.WARNING,
                                "DET001",
                                f"{func.id}() folds a generator over set "
                                f"{which}; float accumulation order "
                                f"follows the arbitrary set order",
                                location=f"{location}:{node.lineno}",
                            )


# ---------------------------------------------------------------------------
# DET010/DET011 — RNG discipline
# ---------------------------------------------------------------------------

@register_pass(
    "det-unseeded-random", family="source", cheap=False,
    description="no unseeded random streams in simulation code",
    codes=("DET010", "DET011"),
)
def det_unseeded_random(ctx: AnalysisContext) -> Iterator[Finding]:
    for location, tree in ctx.modules(SIM_PACKAGES):
        module_seeded = any(
            isinstance(node, ast.Call)
            and dotted(node.func) == "random.seed"
            for node in ast.walk(tree)
        )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if (name.startswith("random.")
                    and name[len("random."):] in _RANDOM_FNS
                    and not module_seeded):
                yield Finding(
                    "det-unseeded-random", Severity.ERROR, "DET010",
                    f"{name}() draws from the unseeded process-global "
                    f"RNG; use a seeded random.Random instance",
                    location=f"{location}:{node.lineno}",
                )
            elif name in ("random.Random", "Random") and not node.args:
                yield Finding(
                    "det-unseeded-random", Severity.WARNING, "DET011",
                    "random.Random() without a seed draws entropy from "
                    "the OS; pass an explicit seed",
                    location=f"{location}:{node.lineno}",
                )


# ---------------------------------------------------------------------------
# DET020 — wall-clock reads
# ---------------------------------------------------------------------------

@register_pass(
    "det-wall-clock", family="source", cheap=False,
    description="simulation code reads only the engine's virtual clock",
    codes=("DET020",),
)
def det_wall_clock(ctx: AnalysisContext) -> Iterator[Finding]:
    for location, tree in ctx.modules(SIM_PACKAGES):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if name in _WALL_CLOCK:
                yield Finding(
                    "det-wall-clock", Severity.ERROR, "DET020",
                    f"{name}() reads the wall clock inside simulation "
                    f"code; the DES must know only Engine.now",
                    location=f"{location}:{node.lineno}",
                )


# ---------------------------------------------------------------------------
# DET030 — id()-based ordering
# ---------------------------------------------------------------------------

def _key_uses_id(keyword: ast.keyword) -> bool:
    value = keyword.value
    if isinstance(value, ast.Name) and value.id == "id":
        return True
    if isinstance(value, ast.Lambda):
        return any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "id"
            for node in ast.walk(value)
        )
    return False


@register_pass(
    "det-id-ordering", family="source", cheap=False,
    description="no sort/min/max keyed on id() (memory-layout ordering)",
    codes=("DET030",),
)
def det_id_ordering(ctx: AnalysisContext) -> Iterator[Finding]:
    for location, tree in ctx.modules(SIM_PACKAGES):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_order_call = (
                (isinstance(func, ast.Name)
                 and func.id in ("sorted", "min", "max"))
                or (isinstance(func, ast.Attribute) and func.attr == "sort")
            )
            if not is_order_call:
                continue
            for keyword in node.keywords:
                if keyword.arg == "key" and _key_uses_id(keyword):
                    yield Finding(
                        "det-id-ordering", Severity.ERROR, "DET030",
                        "ordering by id() depends on memory layout and "
                        "varies across runs; key on a stable field",
                        location=f"{location}:{node.lineno}",
                    )


# ---------------------------------------------------------------------------
# DET040 — mutable default arguments
# ---------------------------------------------------------------------------

def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set", "bytearray"))


@register_pass(
    "det-mutable-default", family="source", cheap=False,
    description="no mutable default arguments on simulation callables",
    codes=("DET040",),
)
def det_mutable_default(ctx: AnalysisContext) -> Iterator[Finding]:
    for location, tree in ctx.modules(SIM_PACKAGES):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = [
                *node.args.defaults,
                *(d for d in node.args.kw_defaults if d is not None),
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield Finding(
                        "det-mutable-default", Severity.WARNING, "DET040",
                        f"{node.name}() has a mutable default argument; "
                        f"state leaks across event-callback invocations",
                        subject=node.name,
                        location=f"{location}:{default.lineno}",
                    )
