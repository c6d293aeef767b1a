"""Source-hygiene AST lint over the simulator's own source tree.

This pass walks the stdlib :mod:`ast` of every module under
``src/repro`` (every module but ``units.py``, through the context's
shared parse — see :mod:`~repro.analysis.program`) and flags:

* ``SRC000`` — files the parser rejects outright, including files that
  are not valid UTF-8 (ERROR); it is the one pass that reports them,
  every other source pass skips them;
* ``SRC003`` — generator processes yielding plain constants instead of
  :class:`~repro.sim.engine.BaseEvent` objects, which the engine rejects
  only at runtime (ERROR).

The unit-discipline checks that used to live here (``SRC001`` magic
unit constants, ``SRC002`` float ``==`` on simulated times) moved to the
``dims`` family as ``DIM010``/``DIM011`` when the dimensional-analysis
engine arrived (:mod:`repro.analysis.dimensions.vocabulary`); baselines
naming the retired codes are migrated on load.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from .context import AnalysisContext
from .findings import Finding, Severity
from .registry import register_pass

PASS_NAME = "source-hygiene"

#: Engine methods whose return values are events; a generator yielding
#: one of these is a DES process.
_EVENT_FACTORIES = frozenset(
    {"timeout", "event", "all_of", "any_of", "process"}
)


def _lint_module(tree: ast.Module, location: str) -> Iterator[Finding]:
    # SRC003 — process generators yielding non-events.
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yields = [
            node for node in ast.walk(func) if isinstance(node, ast.Yield)
        ]
        if not any(_yields_event_factory(y) for y in yields):
            continue
        for node in yields:
            if node.value is None or isinstance(node.value, ast.Constant):
                shown = (
                    "a bare yield" if node.value is None
                    else f"the constant {node.value.value!r}"
                )
                yield Finding(
                    PASS_NAME, Severity.ERROR, "SRC003",
                    f"process generator {func.name!r} yields {shown}; "
                    f"processes must yield BaseEvent instances",
                    subject=func.name,
                    location=f"{location}:{node.lineno}",
                )


def _yields_event_factory(node: ast.Yield) -> bool:
    value = node.value
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr in _EVENT_FACTORIES
    )


@register_pass(
    PASS_NAME, family="source", cheap=False,
    description="sources parse; processes yield events",
    codes=("SRC000", "SRC003"),
)
def source_hygiene(ctx: AnalysisContext) -> Iterator[Finding]:
    for location, tree in ctx.sources():
        if Path(location).name == "units.py":
            continue
        if isinstance(tree, ast.Module):
            yield from _lint_module(tree, location)
        else:
            yield Finding(
                PASS_NAME, Severity.ERROR, "SRC000",
                f"cannot parse: {tree}",
                location=f"{location}:{getattr(tree, 'lineno', 0) or 0}",
            )
