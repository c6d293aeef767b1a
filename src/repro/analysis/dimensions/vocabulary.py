"""Unit-vocabulary lints: the syntactic half of the ``DIM`` namespace.

These two checks predate the flow-sensitive engine (they shipped as
``SRC001``/``SRC002`` under the unit-hygiene pass) and were folded into
the ``DIM`` namespace when it arrived, since both are unit discipline,
not general source hygiene:

* ``DIM010`` — magic unit constants (``1e9``, ``2**30``, ...) where a
  :mod:`repro.units` name exists (WARNING; ``units.py`` itself defines
  them and is exempt);
* ``DIM011`` — float ``==``/``!=`` on simulated-time expressions, which
  are accumulated floats and must be compared with tolerances (WARNING).

Unlike the abstract interpreter, these are single-node syntactic checks
and read the *whole* package root (every module but ``units.py``), not
just the simulation packages — a magic ``2**30`` in a reporter is as
wrong as one in the engine.
Loading a legacy baseline still works: entries naming the retired
``SRC001``/``SRC002`` codes are migrated to their ``DIM`` successors on
read (see :mod:`~repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ... import units
from ..findings import Finding, Severity

PASS_NAME = "dim-vocabulary"

#: Literal values with a canonical :mod:`repro.units` name.  Time
#: constants (1e-3, 1e-6, 1e-9) are deliberately absent: the same values
#: appear as comparison tolerances everywhere, which are not unit bugs.
_UNIT_NAMES = {
    units.MB: "MB (or GFLOPS/MBPS as appropriate)",
    units.GB: "GB (or GFLOPS/GBPS/billion as appropriate)",
    units.TB: "TB (or TFLOPS as appropriate)",
    float(units.MIB): "MIB",
    float(units.GIB): "GIB",
    float(units.TIB): "TIB",
}

#: Exponents of ``2**N`` expressions that spell binary units.
_POW2_UNITS = {10: "KIB", 20: "MIB", 30: "GIB", 40: "TIB"}

#: Identifier tokens (underscore-separated) that mark an expression as a
#: simulated time.  Matched per token, not as substrings, so names like
#: ``endpoint`` do not read as times.
_TIME_TOKENS = frozenset({
    "time", "times", "now", "start", "started", "end", "ended",
    "duration", "latency", "deadline", "elapsed",
})


def _is_timeish(node: ast.expr) -> bool:
    name = ""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    tokens = name.lower().split("_")
    return any(token in _TIME_TOKENS for token in tokens)


def _unit_suggestion(node: ast.expr) -> str:
    """The units name a literal expression should use, or ''."""
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, bool):
            return ""
        if isinstance(value, float) and value in _UNIT_NAMES:
            return _UNIT_NAMES[value]
        if isinstance(value, int) and float(value) in _UNIT_NAMES:
            return _UNIT_NAMES[float(value)]
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant) and node.left.value == 2
            and isinstance(node.right, ast.Constant)
            and node.right.value in _POW2_UNITS):
        return _POW2_UNITS[node.right.value]
    return ""


def lint_module(tree: ast.Module, location: str) -> Iterator[Finding]:
    """The DIM010/DIM011 findings of one parsed module."""
    # DIM010 — magic unit constants.
    pow2_spans = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            suggestion = _unit_suggestion(node)
            if suggestion:
                pow2_spans.add((node.left.lineno, node.left.col_offset))
                pow2_spans.add((node.right.lineno, node.right.col_offset))
                yield Finding(
                    PASS_NAME, Severity.WARNING, "DIM010",
                    f"magic constant 2**{node.right.value}; use "
                    f"repro.units.{suggestion}",
                    location=f"{location}:{node.lineno}",
                )
        elif isinstance(node, ast.Constant):
            if (node.lineno, node.col_offset) in pow2_spans:
                continue
            suggestion = _unit_suggestion(node)
            if suggestion:
                yield Finding(
                    PASS_NAME, Severity.WARNING, "DIM010",
                    f"magic constant {node.value!r}; use "
                    f"repro.units.{suggestion}",
                    location=f"{location}:{node.lineno}",
                )

    # DIM011 — float equality on simulated times.
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            timeish = [_is_timeish(left), _is_timeish(right)]
            if all(timeish):
                flag = True
            elif any(timeish):
                other = right if timeish[0] else left
                flag = (isinstance(other, ast.Constant)
                        and isinstance(other.value, float)
                        and other.value != 0.0)
            else:
                flag = False
            if flag:
                yield Finding(
                    PASS_NAME, Severity.WARNING, "DIM011",
                    "exact float comparison on a simulated time; compare "
                    "with a tolerance instead",
                    location=f"{location}:{node.lineno}",
                )
