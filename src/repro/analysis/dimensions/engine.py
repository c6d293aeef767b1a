"""The dimensional abstract interpreter (the ``dim-flow`` pass).

The units domain of the shared program core (:mod:`~repro.analysis.
program`), which scans the tree, keeps the function table, resolves
calls, runs the fixpoint and routes control flow.  This module keeps
what is particular to units:

1. **Summary** — a :class:`UnitSignature` per function: parameter and
   return dimensions from unit annotations (``Bytes``/``Seconds``/... —
   see :mod:`~repro.analysis.dimensions.stubs`).  :class:`UnitsProgram`
   also keeps each module's import map for :mod:`repro.units` names and
   an attribute table from annotated class fields and properties.
2. **Fixpoint inference** — functions without a declared return
   dimension get one inferred by abstract interpretation of their body
   (the join of their return expressions); functions with one are
   skipped.  This is what makes the analysis *interprocedural*: an
   unannotated helper that returns ``num_bytes / self.bandwidth``
   carries ``s`` into every caller.  Same-named definitions resolve
   only when their return and parameter dimensions agree.
3. **Checking** — re-interpret every function body with findings
   enabled: add/sub and comparisons require equal dimensions, calls are
   checked against summaries, unit stubs, and sink contracts, returns
   against declared dimensions.

The interpreter is flow-sensitive (an environment of variable -> Dim
maps through straight-line code; branches are analyzed separately and
joined, and a branch that ends in raise/return/continue/break does not
reach the code after it) and deliberately conservative: a finding is
only emitted when *both* sides of an operation carry a known,
non-dimensionless dimension and those dimensions disagree.  ``unknown``
and bare numeric literals never flag — the engine's job is catching unit
algebra that is provably wrong, not demanding annotations everywhere.
"""

from __future__ import annotations

import ast
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    ContextManager,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..context import AnalysisContext
from ..findings import Finding, Severity
from ..program import Function, Module, Program, Walker, dotted
from .lattice import DIMENSIONLESS, TIME, UNKNOWN, Dim
from .stubs import (
    ANNOTATION_DIMS,
    COUNTER_UNITS,
    SINK_CONTRACTS,
    UNITS_CONSTANTS,
    UNITS_FUNCTIONS,
)

PASS_NAME = "dim-flow"

#: packages under the source root whose arithmetic is in scope; a root
#: containing none of them (a unit-test fixture tree) is scanned whole.
DIM_PACKAGES = (
    "sim", "runtime", "collectives", "parallel", "hardware", "model",
    "telemetry", "trace", "faults",
)

#: builtins whose result carries the (joined) dimension of their args
_PASS_THROUGH_BUILTINS = frozenset({"abs", "float", "round", "int"})

#: folds whose result carries the dimension of the folded elements
_FOLD_BUILTINS = frozenset({"sum", "min", "max", "sorted"})

Env = Dict[str, Dim]


@dataclass(frozen=True)
class UnitSignature:
    """The units summary of one function definition."""

    param_dims: Dict[str, Dim]
    declared_return: Optional[Dim]
    is_property: bool
    inferred_return: Dim = UNKNOWN

    @property
    def return_dim(self) -> Dim:
        if self.declared_return is not None:
            return self.declared_return
        return self.inferred_return


def _annotation_to_dim(node: Optional[ast.expr]) -> Optional[Dim]:
    """The dimension an AST annotation denotes, or ``None``.

    Understands bare aliases (``Bytes``), dotted spellings
    (``units.Bytes``), string annotations, and ``Optional[Bytes]``.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return ANNOTATION_DIMS.get(node.value.rsplit(".", 1)[-1])
    if isinstance(node, ast.Name):
        return ANNOTATION_DIMS.get(node.id)
    if isinstance(node, ast.Attribute):
        return ANNOTATION_DIMS.get(node.attr)
    if isinstance(node, ast.Subscript):
        # Optional[Bytes] / Final[Seconds]: look inside one level.
        inner = node.slice
        if isinstance(inner, ast.Index):  # pragma: no cover - py3.8 only
            inner = inner.value  # type: ignore[attr-defined]
        return _annotation_to_dim(inner)
    return None


def _units_imports(tree: ast.Module) -> Tuple[List[str], Dict[str, str]]:
    """Local names bound to the :mod:`repro.units` module object, and
    local name -> units member name (``from ..units import GB as G``)."""
    aliases: List[str] = []
    members: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "units" or module.endswith(".units"):
                for alias in node.names:
                    members[alias.asname or alias.name] = alias.name
            else:
                for alias in node.names:
                    if alias.name == "units":
                        aliases.append(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "units" or alias.name.endswith(".units"):
                    aliases.append(alias.asname or alias.name.split(".")[0])
    return aliases, members


class _Interpreter(Walker):
    """Abstract interpretation of one function body."""

    pass_name = PASS_NAME
    program: "UnitsProgram"

    def __init__(self, program: "UnitsProgram", module: Module,
                 fn: Function, *, collect: bool) -> None:
        super().__init__(program, module, fn, collect=collect)
        self.units_aliases, self.units_members = \
            program.imports[module.location]
        self.return_dim: Optional[Dim] = None

    # -- entry point -------------------------------------------------------
    def run(self) -> Dim:
        env: Env = {}
        args = self.fn.node.args
        for param in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            env[param.arg] = self.fn.summary.param_dims.get(param.arg,
                                                            UNKNOWN)
        self.exec_block(self.fn.node.body, env)
        return self.return_dim if self.return_dim is not None else UNKNOWN

    # -- statements --------------------------------------------------------
    def fork(self, env: Env) -> Env:
        return dict(env)

    def join(self, a: Env, b: Env) -> Env:
        return {key: a.get(key, UNKNOWN).join(b.get(key, UNKNOWN))
                for key in set(a) | set(b)}

    def transfer(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, ast.Assign):
            dim, elements = self._eval_value(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, dim, env, elements)
        elif isinstance(stmt, ast.AnnAssign):
            declared = _annotation_to_dim(stmt.annotation)
            dim = (self.eval(stmt.value, env)
                   if stmt.value is not None else UNKNOWN)
            if declared is not None:
                if (stmt.value is not None and dim.known
                        and not dim.is_dimensionless
                        and not dim.compatible(declared)):
                    self.emit(
                        Severity.ERROR, "DIM001",
                        f"assigning {dim} to a variable annotated {declared}",
                        stmt.lineno,
                    )
                dim = declared
            self._bind(stmt.target, dim, env)
        elif isinstance(stmt, ast.AugAssign):
            target_dim = self._lookup_target(stmt.target, env)
            value_dim = self.eval(stmt.value, env)
            if isinstance(stmt.op, (ast.Add, ast.Sub)):
                self._check_additive(target_dim, value_dim, stmt.lineno,
                                     verb="augmented-assigns")
                result = target_dim.join(value_dim) \
                    if target_dim.compatible(value_dim) else UNKNOWN
            elif isinstance(stmt.op, ast.Mult):
                result = target_dim.mul(value_dim)
            elif isinstance(stmt.op, (ast.Div, ast.FloorDiv)):
                result = target_dim.div(value_dim)
            else:
                result = UNKNOWN
            self._bind(stmt.target, result, env)
        elif isinstance(stmt, ast.Return):
            dim = (self.eval(stmt.value, env)
                   if stmt.value is not None else DIMENSIONLESS)
            declared = self.fn.summary.declared_return
            if (declared is not None and stmt.value is not None
                    and dim.known and not dim.is_dimensionless
                    and not dim.compatible(declared)):
                self.emit(
                    Severity.ERROR, "DIM005",
                    f"{self.fn.qualname}() is annotated to return "
                    f"{declared} but returns {dim}",
                    stmt.lineno,
                )
            if stmt.value is not None:
                self.return_dim = (dim if self.return_dim is None
                                   else self.return_dim.join(dim))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        # pass/break/continue/import/global/del: nothing to track

    def enter_for(self, stmt: Union[ast.For, ast.AsyncFor],
                  env: Env) -> Env:
        self._bind(stmt.target, self._element_dim(stmt.iter, env), env)
        self.eval(stmt.iter, env)
        return dict(env)

    def enter_with(self, stmt: Union[ast.With, ast.AsyncWith],
                   env: Env) -> ContextManager[None]:
        for item in stmt.items:
            self.eval(item.context_expr, env)
            if item.optional_vars is not None:
                self._bind(item.optional_vars, UNKNOWN, env)
        return nullcontext()

    def bind_exception(self, name: str, env: Env) -> None:
        env[name] = UNKNOWN

    def _bind(self, target: ast.expr, dim: Dim, env: Env,
              elements: Optional[List[Dim]] = None) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = dim
        elif isinstance(target, ast.Attribute):
            path = dotted(target)
            if path:
                env[path] = dim
        elif isinstance(target, (ast.Tuple, ast.List)):
            if elements is None or len(elements) != len(target.elts):
                elements = [UNKNOWN] * len(target.elts)
            for sub_target, sub_dim in zip(target.elts, elements):
                self._bind(sub_target, sub_dim, env)

    def _eval_value(self, value: ast.expr,
                    env: Env) -> Tuple[Dim, Optional[List[Dim]]]:
        """An assigned value's dimension, plus each element's when it is
        a tuple or list display (what unpacking binds to its targets)."""
        if isinstance(value, (ast.Tuple, ast.List)):
            return UNKNOWN, [self.eval(elt, env) for elt in value.elts]
        return self.eval(value, env), None

    def _lookup_target(self, target: ast.expr, env: Env) -> Dim:
        if isinstance(target, ast.Name):
            return env.get(target.id, UNKNOWN)
        if isinstance(target, ast.Attribute):
            return self._attribute_dim(target, env)
        return UNKNOWN

    def _element_dim(self, iterable: ast.expr, env: Env) -> Dim:
        """Dimension of the loop variable for ``for x in iterable``."""
        if isinstance(iterable, ast.Call) and \
                isinstance(iterable.func, ast.Name) and \
                iterable.func.id == "range":
            return DIMENSIONLESS
        return UNKNOWN

    # -- expressions -------------------------------------------------------
    def eval(self, node: Optional[ast.expr], env: Env) -> Dim:
        if node is None:
            return UNKNOWN
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or node.value is None or \
                    isinstance(node.value, str):
                return UNKNOWN
            if isinstance(node.value, (int, float)):
                return DIMENSIONLESS
            return UNKNOWN
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            member = self.units_members.get(node.id)
            if member is not None and member in UNITS_CONSTANTS:
                return UNITS_CONSTANTS[member]
            return UNKNOWN
        if isinstance(node, ast.Attribute):
            return self._attribute_dim(node, env)
        if isinstance(node, ast.BinOp):
            return self._binop_dim(node, env)
        if isinstance(node, ast.UnaryOp):
            inner = self.eval(node.operand, env)
            return inner if isinstance(node.op, (ast.USub, ast.UAdd)) \
                else UNKNOWN
        if isinstance(node, ast.Compare):
            return self._compare_dim(node, env)
        if isinstance(node, ast.Call):
            return self._call_dim(node, env)
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            return self.eval(node.body, env).join(
                self.eval(node.orelse, env))
        if isinstance(node, ast.BoolOp):
            dims = [self.eval(value, env) for value in node.values]
            result = dims[0]
            for dim in dims[1:]:
                result = result.join(dim)
            return result
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child, env)
            return UNKNOWN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._comprehension_dim(node, env)
        if isinstance(node, ast.Subscript):
            self.eval(node.value, env)
            if isinstance(node.slice, ast.expr):
                self.eval(node.slice, env)
            return UNKNOWN
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        if isinstance(node, ast.NamedExpr):
            dim = self.eval(node.value, env)
            self._bind(node.target, dim, env)
            return dim
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.eval(value.value, env)
            return UNKNOWN
        if isinstance(node, ast.Lambda):
            return UNKNOWN
        return UNKNOWN

    def _comprehension_dim(self, node: ast.expr,
                           env: Env) -> Dim:
        comp_env = dict(env)
        for generator in node.generators:  # type: ignore[attr-defined]
            self.eval(generator.iter, comp_env)
            self._bind(generator.target,
                       self._element_dim(generator.iter, comp_env), comp_env)
            for condition in generator.ifs:
                self.eval(condition, comp_env)
        if isinstance(node, ast.DictComp):
            self.eval(node.key, comp_env)
            self.eval(node.value, comp_env)
            return UNKNOWN
        return self.eval(node.elt, comp_env)  # type: ignore[attr-defined]

    def _attribute_dim(self, node: ast.Attribute,
                       env: Env) -> Dim:
        path = dotted(node)
        if path and path in env:
            return env[path]
        root = path.split(".", 1)[0] if path else ""
        if root in self.units_aliases:
            member = path.split(".", 1)[1] if "." in path else ""
            if member in UNITS_CONSTANTS:
                return UNITS_CONSTANTS[member]
            return UNKNOWN
        self._eval_receiver(node, env)
        return self.program.attr_dims.get(node.attr, UNKNOWN)

    def _eval_receiver(self, node: ast.Attribute,
                       env: Env) -> None:
        # Evaluate the receiver expression for findings, but only when it
        # is itself compound (a bare name receiver has nothing to check).
        if not isinstance(node.value, (ast.Name, ast.Attribute)):
            self.eval(node.value, env)

    def _binop_dim(self, node: ast.BinOp, env: Env) -> Dim:
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        if isinstance(node.op, ast.Mult):
            return left.mul(right)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            return left.div(right)
        if isinstance(node.op, ast.Mod):
            return left
        if isinstance(node.op, ast.Pow):
            if isinstance(node.right, ast.Constant) and \
                    isinstance(node.right.value, int):
                return left.pow(node.right.value)
            return UNKNOWN
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_additive(left, right, node.lineno, verb="combines")
            if left.compatible(right):
                return left.join(right) if not left.scale_conflict(right) \
                    else Dim(left.exps)
            return UNKNOWN
        return UNKNOWN

    def _check_additive(self, left: Dim, right: Dim, line: int, *,
                        verb: str) -> None:
        if not left.compatible(right):
            if left.is_dimensionless or right.is_dimensionless:
                return  # adding a literal offset: not provably wrong
            self.emit(
                Severity.ERROR, "DIM001",
                f"{verb} {left} with {right}; addition/subtraction "
                f"requires equal dimensions",
                line,
            )
        elif left.scale_conflict(right):
            self.emit(
                Severity.WARNING, "DIM003",
                f"{verb} decimal-scaled (GB) and binary-scaled (GiB) "
                f"byte quantities; these differ by 7 % per power of 1000",
                line,
            )

    def _compare_dim(self, node: ast.Compare, env: Env) -> Dim:
        operands = [node.left, *node.comparators]
        dims = [self.eval(operand, env) for operand in operands]
        for op, (left, right) in zip(node.ops, zip(dims, dims[1:])):
            if isinstance(op, (ast.In, ast.NotIn, ast.Is, ast.IsNot)):
                continue
            if not left.compatible(right):
                if left.is_dimensionless or right.is_dimensionless:
                    continue
                self.emit(
                    Severity.ERROR, "DIM002",
                    f"comparing {left} with {right}; a comparison "
                    f"requires equal dimensions",
                    node.lineno,
                )
            elif left.scale_conflict(right):
                self.emit(
                    Severity.WARNING, "DIM003",
                    "comparing decimal-scaled (GB) against binary-scaled "
                    "(GiB) byte quantities; these differ by 7 % per "
                    "power of 1000",
                    node.lineno,
                )
        return DIMENSIONLESS

    # -- calls -------------------------------------------------------------
    def _call_dim(self, node: ast.Call, env: Env) -> Dim:
        arg_dims = [self.eval(arg, env) for arg in node.args]
        kwarg_dims = {kw.arg: self.eval(kw.value, env)
                      for kw in node.keywords if kw.arg is not None}
        for kw in node.keywords:
            if kw.arg is None:
                self.eval(kw.value, env)

        func = node.func
        if isinstance(func, ast.Name):
            return self._name_call_dim(node, func.id, arg_dims, kwarg_dims)
        if isinstance(func, ast.Attribute):
            self._eval_receiver(func, env)
            return self._method_call_dim(node, func, arg_dims, kwarg_dims,
                                         env)
        self.eval(func, env)
        return UNKNOWN

    def _name_call_dim(self, node: ast.Call, name: str,
                       arg_dims: List[Dim],
                       kwarg_dims: Env) -> Dim:
        member = self.units_members.get(name)
        if member is not None and member in UNITS_FUNCTIONS:
            return self._check_units_fn(node, member, arg_dims)
        if name in _PASS_THROUGH_BUILTINS and len(arg_dims) == 1:
            return arg_dims[0]
        if name in _FOLD_BUILTINS and node.args:
            folded = arg_dims[0]
            for dim in arg_dims[1:]:
                folded = folded.join(dim)
            return folded
        if name == "len" or name == "range":
            return DIMENSIONLESS
        if name == "CounterTrack":
            self._check_counter_track(node, kwarg_dims)
            return UNKNOWN
        resolved = self.program.resolve(self.module, name, node)
        if resolved is not None and not resolved.is_method:
            self._check_resolved_args(node, resolved, arg_dims, kwarg_dims,
                                      offset=0)
            return resolved.summary.return_dim
        return UNKNOWN

    def _method_call_dim(self, node: ast.Call, func: ast.Attribute,
                         arg_dims: List[Dim], kwarg_dims: Env,
                         env: Env) -> Dim:
        name = func.attr
        root = dotted(func).split(".", 1)[0]
        if root in self.units_aliases and name in UNITS_FUNCTIONS:
            return self._check_units_fn(node, name, arg_dims)
        contract = SINK_CONTRACTS.get(name)
        if contract is not None:
            params, return_dim, (lo, hi) = contract
            if lo <= len(node.args) <= hi:
                for index, (expected, got) in enumerate(
                        zip(params, arg_dims)):
                    if expected is None:
                        continue
                    if got.known and not got.is_dimensionless and \
                            not got.compatible(expected):
                        self.emit(
                            Severity.ERROR, "DIM006",
                            f".{name}() expects {expected} for argument "
                            f"{index + 1}, got {got}",
                            node.lineno,
                        )
                return return_dim
        resolved = self.program.resolve(self.module, name, node)
        if resolved is not None:
            offset = 1 if resolved.is_method else 0
            self._check_resolved_args(node, resolved, arg_dims, kwarg_dims,
                                      offset=offset)
            return resolved.summary.return_dim
        return UNKNOWN

    def _check_units_fn(self, node: ast.Call, name: str,
                        arg_dims: List[Dim]) -> Dim:
        params, return_dim = UNITS_FUNCTIONS[name]
        for index, (expected, got) in enumerate(zip(params, arg_dims)):
            if got.known and not got.is_dimensionless and \
                    not got.compatible(expected):
                self.emit(
                    Severity.ERROR, "DIM004",
                    f"units.{name}() expects {expected}, got {got}",
                    node.lineno,
                )
        return return_dim

    def _check_resolved_args(self, node: ast.Call, fn: Function,
                             arg_dims: List[Dim],
                             kwarg_dims: Env,
                             offset: int) -> None:
        names = fn.param_names[offset:]
        for index, got in enumerate(arg_dims):
            if index >= len(names):
                break
            expected = fn.summary.param_dims.get(names[index])
            if expected is None:
                continue
            if got.known and not got.is_dimensionless and \
                    not got.compatible(expected):
                self.emit(
                    Severity.ERROR, "DIM004",
                    f"{fn.qualname}() expects {expected} for "
                    f"{names[index]!r}, got {got}",
                    node.lineno,
                )
        for keyword, got in kwarg_dims.items():
            expected = fn.summary.param_dims.get(keyword)
            if expected is None or keyword not in names:
                continue
            if got.known and not got.is_dimensionless and \
                    not got.compatible(expected):
                self.emit(
                    Severity.ERROR, "DIM004",
                    f"{fn.qualname}() expects {expected} for "
                    f"{keyword!r}, got {got}",
                    node.lineno,
                )

    def _check_counter_track(self, node: ast.Call,
                             kwarg_dims: Env) -> None:
        for kw in node.keywords:
            if kw.arg == "unit" and isinstance(kw.value, ast.Constant) \
                    and isinstance(kw.value.value, str):
                if kw.value.value not in COUNTER_UNITS:
                    self.emit(
                        Severity.ERROR, "DIM006",
                        f"CounterTrack unit {kw.value.value!r} is not in "
                        f"the counter-unit vocabulary "
                        f"{sorted(COUNTER_UNITS)}",
                        node.lineno,
                    )
            elif kw.arg in ("start", "period"):
                got = kwarg_dims.get(kw.arg, UNKNOWN)
                if got.known and not got.is_dimensionless and \
                        not got.compatible(TIME):
                    self.emit(
                        Severity.ERROR, "DIM006",
                        f"CounterTrack {kw.arg}= must be seconds, "
                        f"got {got}",
                        node.lineno,
                    )


class UnitsProgram(Program):
    """The units domain over the scanned tree."""

    packages = DIM_PACKAGES
    walker = _Interpreter

    def __init__(self, modules: Iterable[Tuple[str, ast.Module]]) -> None:
        #: module location -> its units aliases and members
        self.imports: Dict[str, Tuple[List[str], Dict[str, str]]] = {}
        #: attribute name -> dimension, from annotated class fields and
        #: properties; names whose definitions disagree are dropped.
        self.attr_dims: Dict[str, Dim] = {}
        self._attr_conflicts: Set[str] = set()
        super().__init__(modules)

    def collect(self, module: Module) -> None:
        self.imports[module.location] = _units_imports(module.tree)
        super().collect(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                dim = _annotation_to_dim(stmt.annotation)
                if dim is None:
                    continue
                # Class-level fields (dataclasses) and annotated instance
                # attributes (``self.now: Seconds = 0.0``) both count.
                if isinstance(stmt.target, ast.Name):
                    self._note_attr(stmt.target.id, dim)
                elif (isinstance(stmt.target, ast.Attribute)
                      and isinstance(stmt.target.value, ast.Name)
                      and stmt.target.value.id == "self"):
                    self._note_attr(stmt.target.attr, dim)

    def initial(self, fn: Function) -> UnitSignature:
        param_dims: Dict[str, Dim] = {}
        for param in [*fn.node.args.posonlyargs, *fn.node.args.args]:
            dim = _annotation_to_dim(param.annotation)
            if dim is not None:
                param_dims[param.arg] = dim
        signature = UnitSignature(
            param_dims=param_dims,
            declared_return=_annotation_to_dim(fn.node.returns),
            is_property=("property" in fn.decorators
                         or "cached_property" in fn.decorators),
        )
        if signature.is_property and signature.declared_return is not None:
            self._note_attr(fn.name, signature.declared_return)
        return signature

    def summarize(self, module: Module, fn: Function) -> UnitSignature:
        if fn.summary.declared_return is not None:
            return fn.summary  # declared: nothing to infer
        inferred = _Interpreter(self, module, fn, collect=False).run()
        if fn.summary.is_property:
            self._note_attr(fn.name, inferred)
        return replace(fn.summary, inferred_return=inferred)

    def agree(self, a: Function, b: Function) -> bool:
        return (a.summary.return_dim == b.summary.return_dim
                and a.summary.param_dims == b.summary.param_dims
                and a.param_names == b.param_names)

    def _note_attr(self, name: str, dim: Dim) -> None:
        if not dim.known or name in self._attr_conflicts:
            return
        held = self.attr_dims.get(name)
        if held is None:
            self.attr_dims[name] = dim
        elif held != dim:
            del self.attr_dims[name]
            self._attr_conflicts.add(name)


def analyze_tree(root: Path) -> List[Finding]:
    """Run the full dimensional analysis over every module under ``root``."""
    return UnitsProgram.over(AnalysisContext(source_root=Path(root))).check()
