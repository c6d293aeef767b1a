"""The program core shared by the source analyzers.

Every ``source`` and ``dims`` pass reads a source tree, and the
interprocedural dimensional analysis (``DIM0xx``,
:mod:`~repro.analysis.dimensions.engine`) runs a domain-agnostic machine
over it.  This module is that machine; the domain keeps only its
lattice, its per-function summary and its transfer functions.

1. **One scan and parse.**  A pass names its scope as a tuple of package
   names; :func:`source_files` lists the ``.py`` files under them in
   path order, and a root containing none of them (a unit-test fixture
   tree) is read whole.  :func:`parse` reads a file as bytes, so a file
   that is not valid UTF-8 is a ``SyntaxError`` like any other.
   :meth:`AnalysisContext.sources <repro.analysis.context.
   AnalysisContext.sources>` memoizes the parse: each file is parsed at
   most once per context, ``source-hygiene`` reports a file that does
   not parse as ``SRC000``, and every other pass skips it.
2. **One function table, resolver and fixpoint.**  :class:`Program`
   collects every function and method definition per module.  A call
   resolves by name, among the definitions its arguments bind to, to the
   calling module's own first; a tree-wide match resolves only when every
   such definition is of the same kind (function or method) and the
   domain's :meth:`Program.agree` holds between them.  :meth:`Program.infer` recomputes every
   summary for at most :data:`MAX_ROUNDS` rounds, stopping at the first
   round that changes none; :meth:`Program.check` re-walks every
   function with findings on and sorts them.
3. **One statement walker.**  :class:`Walker` owns the statements that
   only route control — ``if``, ``for``, ``while``, ``try``, ``with``,
   ``raise``/``assert`` and nested definitions — including forking the
   state at a branch and joining it afterwards.  A branch whose last
   statement is ``raise``/``return``/``continue``/``break`` does not fall
   through: the state after its ``if`` is the other branch's alone.
4. **One** :func:`dotted` **and one** :func:`decorator_names`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    ContextManager,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from .findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .context import AnalysisContext

#: The simulator's own package root — what ``repro analyze`` scans when
#: no other root is given.
DEFAULT_SOURCE_ROOT = Path(__file__).resolve().parent.parent

#: fixpoint round cap; summaries stabilize in 2-3 rounds in practice
MAX_ROUNDS = 5

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: a parsed module, or the error that kept the file from parsing
Parsed = Union[ast.Module, SyntaxError, OSError]


# ---------------------------------------------------------------------------
# scan and parse
# ---------------------------------------------------------------------------

def source_files(root: Path, packages: Sequence[str] = ()) -> List[Path]:
    """The ``.py`` files under ``root``'s ``packages``, in path order.

    A root containing none of the packages (or an empty scope) is
    scanned whole.
    """
    dirs = [root / name for name in packages if (root / name).is_dir()]
    return sorted(path for directory in (dirs or [root])
                  for path in directory.rglob("*.py"))


def parse(path: Path) -> Parsed:
    """The module parsed from ``path``'s bytes, or the error it raised."""
    try:
        return ast.parse(path.read_bytes())
    except (OSError, SyntaxError) as error:
        return error


def dotted(node: ast.expr) -> str:
    """``a.b.c`` for an attribute chain rooted at a Name, else ''."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def decorator_names(node: FunctionNode) -> List[str]:
    """The bare names of ``node``'s decorators (``@a.b(...)`` is ``b``)."""
    names = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, ast.Attribute):
            names.append(target.attr)
    return names


# ---------------------------------------------------------------------------
# function table, resolution and fixpoint
# ---------------------------------------------------------------------------

@dataclass
class Function:
    """One function definition and its domain's summary of it."""

    name: str
    qualname: str
    location: str
    node: FunctionNode
    is_method: bool
    decorators: List[str]
    param_names: List[str]
    summary: Any = None


@dataclass
class Module:
    """One parsed module and the functions it defines."""

    location: str
    tree: ast.Module
    #: name -> the first definition of that name in the module
    functions: Dict[str, Function] = field(default_factory=dict)


class Program:
    """Every function of the scanned modules, summarized by one domain.

    A domain subclasses this with its scope (:attr:`packages`), its
    walker (:attr:`walker`) and its summary: :meth:`initial` before the
    fixpoint, :meth:`summarize` each round, :meth:`agree` for
    same-named definitions.
    """

    #: the packages this domain reads (its pass's scope)
    packages: Tuple[str, ...] = ()
    #: the walker that interprets one function body
    walker: Type["Walker"]

    def __init__(self, modules: Iterable[Tuple[str, ast.Module]]) -> None:
        self.modules: List[Module] = []
        #: bare function name -> every definition carrying that name
        self.by_name: Dict[str, List[Function]] = {}
        for location, tree in modules:
            module = Module(location, tree)
            self.collect(module)
            self.modules.append(module)

    @classmethod
    def over(cls, ctx: "AnalysisContext") -> "Program":
        """The program over ``ctx``'s tree, summaries at their fixpoint."""
        program = cls(ctx.modules(cls.packages))
        program.infer()
        return program

    # -- domain hooks ------------------------------------------------------
    def initial(self, fn: Function) -> Any:
        """``fn``'s summary before the fixpoint's first round."""
        raise NotImplementedError

    def summarize(self, module: Module, fn: Function) -> Any:
        """``fn``'s summary given every other function's current one."""
        raise NotImplementedError

    def agree(self, a: Function, b: Function) -> bool:
        """Whether a call may use ``a``'s summary for ``b``'s as well."""
        raise NotImplementedError

    # -- collection --------------------------------------------------------
    def collect(self, module: Module) -> None:
        """Add ``module``'s functions and methods to the table."""
        def visit(body: Iterable[ast.stmt], class_name: str = "") -> None:
            for node in body:
                if isinstance(node, ast.ClassDef):
                    visit(node.body, node.name)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    decorators = decorator_names(node)
                    params = [*node.args.posonlyargs, *node.args.args]
                    fn = Function(
                        name=node.name,
                        qualname=(f"{class_name}.{node.name}"
                                  if class_name else node.name),
                        location=module.location,
                        node=node,
                        is_method=(bool(class_name)
                                   and "staticmethod" not in decorators),
                        decorators=decorators,
                        param_names=[p.arg for p in params],
                    )
                    fn.summary = self.initial(fn)
                    module.functions.setdefault(node.name, fn)
                    self.by_name.setdefault(node.name, []).append(fn)

        visit(module.tree.body)

    # -- resolution, fixpoint, check --------------------------------------
    def resolve(self, module: Module, name: str,
                call: ast.Call) -> Optional[Function]:
        """The function ``call``, by bare or method name, resolves to.

        Only a definition ``call``'s arguments bind to is a candidate.
        A definition in the calling module wins; otherwise the first
        tree-wide candidate, provided every other one is of the same
        kind and :meth:`agree` holds with it.
        """
        local = module.functions.get(name)
        if local is not None and _binds(local, call):
            return local
        candidates = [fn for fn in self.by_name.get(name, [])
                      if _binds(fn, call)]
        if not candidates:
            return None
        first = candidates[0]
        if all(c.is_method == first.is_method and self.agree(c, first)
               for c in candidates[1:]):
            return first
        return None

    def infer(self) -> None:
        """Iterate every summary to a fixpoint (at most MAX_ROUNDS)."""
        for _ in range(MAX_ROUNDS):
            changed = False
            for module in self.modules:
                for fn in module.functions.values():
                    summary = self.summarize(module, fn)
                    if summary != fn.summary:
                        fn.summary = summary
                        changed = True
            if not changed:
                return

    def check(self) -> List[Finding]:
        """Walk every function with findings on; sorted findings."""
        findings: List[Finding] = []
        for module in self.modules:
            for fn in module.functions.values():
                walker = self.walker(self, module, fn, collect=True)
                walker.run()
                findings.extend(walker.findings)
        findings.sort(key=lambda f: (f.location, f.code, f.message))
        return findings


def _binds(fn: Function, call: ast.Call) -> bool:
    """Whether ``call``'s arguments can bind to ``fn``'s parameters,
    ``self`` skipped for a method (a ``*``/``**`` argument binds)."""
    spec = fn.node.args
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
            keyword.arg is None for keyword in call.keywords):
        return True
    params = [*spec.posonlyargs, *spec.args]
    skip = 1 if fn.is_method and params else 0
    if len(call.args) > len(params) - skip and spec.vararg is None:
        return False
    bound = {param.arg for param in params[skip:skip + len(call.args)]}
    named = {param.arg for param in [*spec.args, *spec.kwonlyargs]}
    for keyword in call.keywords:
        if keyword.arg in bound or (keyword.arg not in named
                                    and spec.kwarg is None):
            return False
        bound.add(keyword.arg)
    required = params[skip:len(params) - len(spec.defaults)] + [
        param for param, default in zip(spec.kwonlyargs, spec.kw_defaults)
        if default is None]
    return all(param.arg in bound for param in required)


# ---------------------------------------------------------------------------
# statement walker
# ---------------------------------------------------------------------------

def _exits(body: Sequence[ast.stmt]) -> bool:
    """True when a block never falls through to the next statement
    (the early-exit guard shape ``if x is None: raise/return``)."""
    return bool(body) and isinstance(body[-1],
                                     (ast.Raise, ast.Return, ast.Continue,
                                      ast.Break))


class Walker:
    """Abstract interpretation of one function body.

    The walker routes control; a domain subclasses it with its state
    (:meth:`fork` at a branch, :meth:`join` after it) and its transfer
    functions (:meth:`eval`, :meth:`transfer`, :meth:`enter_for`,
    :meth:`enter_with`, :meth:`bind_exception`).  Statements update the
    state in place; a statement that branches returns the joined state,
    so :meth:`exec_block` threads whatever each statement returns.
    """

    #: pass name stamped on this domain's findings
    pass_name = ""

    def __init__(self, program: Program, module: Module, fn: Function, *,
                 collect: bool) -> None:
        self.program = program
        self.module = module
        self.fn = fn
        self.collect = collect
        self.findings: List[Finding] = []

    def run(self) -> Any:
        """Interpret the whole body; the domain's result for the summary."""
        raise NotImplementedError

    def emit(self, severity: Severity, code: str, message: str,
             line: int) -> None:
        if not self.collect:
            return
        self.findings.append(Finding(
            self.pass_name, severity, code, message,
            subject=self.fn.qualname,
            location=f"{self.module.location}:{line}",
        ))

    # -- domain hooks ------------------------------------------------------
    def fork(self, state: Any) -> Any:
        """An independent copy of ``state`` for one branch."""
        raise NotImplementedError

    def join(self, a: Any, b: Any) -> Any:
        """The state after two paths meet."""
        raise NotImplementedError

    def eval(self, node: ast.expr, state: Any) -> Any:
        """Interpret one expression."""
        raise NotImplementedError

    def transfer(self, stmt: ast.stmt, state: Any) -> None:
        """Interpret a statement that does not branch (assignments,
        ``return``, expression statements, ``del``, ...)."""
        raise NotImplementedError

    def enter_for(self, stmt: Union[ast.For, ast.AsyncFor],
                  state: Any) -> Any:
        """Evaluate the iterable and bind the target; the body's state."""
        raise NotImplementedError

    def enter_with(self, stmt: Union[ast.With, ast.AsyncWith],
                   state: Any) -> ContextManager[None]:
        """Evaluate and bind the with items; the context spans the body."""
        raise NotImplementedError

    def bind_exception(self, name: str, state: Any) -> None:
        """Bind an ``except ... as name`` variable."""
        raise NotImplementedError

    # -- statements --------------------------------------------------------
    def exec_block(self, body: Iterable[ast.stmt], state: Any) -> Any:
        for stmt in body:
            state = self.exec_stmt(stmt, state)
        return state

    def exec_stmt(self, stmt: ast.stmt, state: Any) -> Any:
        if isinstance(stmt, ast.If):
            self.eval(stmt.test, state)
            then, orelse = self.fork(state), self.fork(state)
            then = self.exec_block(stmt.body, then)
            orelse = self.exec_block(stmt.orelse, orelse)
            if _exits(stmt.body):
                return orelse
            if _exits(stmt.orelse):
                return then
            return self.join(then, orelse)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            body = self.exec_block(stmt.body, self.enter_for(stmt, state))
            return self.join(self.exec_block(stmt.orelse, body), state)
        if isinstance(stmt, ast.While):
            self.eval(stmt.test, state)
            body = self.exec_block(stmt.body, self.fork(state))
            return self.join(self.exec_block(stmt.orelse, body), state)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            with self.enter_with(stmt, state):
                return self.exec_block(stmt.body, state)
        if isinstance(stmt, ast.Try):
            state = self.exec_block(stmt.body, state)
            for handler in stmt.handlers:
                branch = self.fork(state)
                if handler.name:
                    self.bind_exception(handler.name, branch)
                state = self.join(self.exec_block(handler.body, branch),
                                  state)
            state = self.exec_block(stmt.orelse, state)
            return self.exec_block(stmt.finalbody, state)
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child, state)
            return state
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return state  # nested definitions are analyzed on their own
        self.transfer(stmt, state)
        return state
