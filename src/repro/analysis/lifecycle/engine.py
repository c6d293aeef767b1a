"""The resource-lifecycle typestate interpreter (the ``res-typestate`` pass).

The lifecycle domain of the shared program core (:mod:`~repro.analysis.
program`) — the same scan, function table, call resolution, fixpoint and
statement walker the dimensional engine (:mod:`~repro.analysis.
dimensions.engine`) runs on.  This module keeps what is particular to
resource lifecycles:

1. **Summary** — every function gets an interprocedural *lifecycle
   summary* (:class:`LifecycleSummary`): which parameter positions it
   releases, which it escapes (stores/returns/containers), and whether
   it returns a freshly acquired handle.  Summaries are iterated to a
   fixpoint so a helper that forwards its argument to ``cache.unlock``
   counts as a release in every caller; same-named definitions resolve
   only when their summaries agree.
2. **Checking** — re-interpret every function body with findings
   enabled, running each tracked handle through the typestate machine::

       acquired --release--> released --release--> RES003 (double)
       acquired --exit----------------------------> RES001 (leak)
       acquired --risky call, unguarded release---> RES002 (warning)
       released --use-----------------------------> RES004
       (never acquired) --release-----------------> RES005
       acquired --escape (return/yield/store)-----> silent (escaped)

The interpreter is flow-sensitive (branches analyzed separately and
joined; a branch ending in raise/return/continue/break is audited where
it leaves and does not reach the code after it) and alias-aware: the
environment maps variable names to handle *identities*, with states held
in a side table, so ``r2 = r1; unlock(r2); unlock(r1)`` is recognized as
a double release of one handle.  It is deliberately conservative — the
escape lattice (owned → borrowed → escaped) silences anything whose
ownership provably or plausibly moved elsewhere, and a state that
differs between branches joins to ``maybe`` which never flags.  The
engine's job is catching protocol usage that is wrong on *every* path,
not demanding a style.
"""

from __future__ import annotations

import ast
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ..context import AnalysisContext
from ..findings import Finding, Severity
from ..program import Function, Module, Program, Walker, dotted
from .protocols import (
    ACQUIRE_METHODS,
    CONSTRUCTORS,
    CONTEXT_METHODS,
    PROTOCOLS,
    RELEASE_METHODS,
    SAFE_TOKEN_SINKS,
    Protocol,
)

PASS_NAME = "res-typestate"

#: packages under the source root whose resource handling is in scope; a
#: root containing none of them (a unit-test fixture tree) is scanned
#: whole.
LIFECYCLE_PACKAGES = (
    "sim", "runtime", "collectives", "parallel", "hardware", "model",
    "telemetry", "trace", "faults", "campaign", "core",
)

# -- handle states ---------------------------------------------------------

ACQUIRED = "acquired"
RELEASED = "released"
ESCAPED = "escaped"      # ownership moved (returned/yielded/stored)
MANAGED = "managed"      # produced by a with-statement context acquire
BORROWED = "borrowed"    # came in as a parameter; caller owns it
MAYBE = "maybe"          # differs between joined branches; never flags

#: states that silence every subsequent check on the handle
_QUIET = frozenset({ESCAPED, MANAGED, MAYBE})


@dataclass
class Handle:
    """One tracked resource handle (identity lives in the env)."""

    protocol: Protocol
    state: str
    line: int = 0
    #: dotted receiver path of the acquire (``self.cache``)
    receiver: str = ""
    #: label-shape handles: the literal label
    label: str = ""
    #: parameter position for borrowed handles (summary building)
    param_index: Optional[int] = None
    #: a non-protocol call ran while this handle was acquired, so an
    #: exception there would leak it (RES002 input)
    risky: bool = False
    #: line of the releasing call (RES003/RES004 messages)
    released_line: int = 0

    def copy(self) -> "Handle":
        return replace(self)


#: environment value for names that are provably not handles
_NOT_HANDLE = -1

Env = Dict[str, int]
States = Dict[int, Handle]
#: a walker state: the name -> handle-id environment and the handle table
State = Tuple[Env, States]


@dataclass(frozen=True)
class LifecycleSummary:
    """The lifecycle summary of one function definition."""

    #: parameter positions whose handle this function releases
    releases: Tuple[int, ...] = ()
    #: parameter positions whose handle this function escapes
    escapes: Tuple[int, ...] = ()
    #: protocol name when the function returns a freshly acquired token
    returns_fresh: Optional[str] = None


class _Interpreter(Walker):
    """Typestate interpretation of one function body."""

    pass_name = PASS_NAME

    def __init__(self, program: Program, module: Module, fn: Function, *,
                 collect: bool) -> None:
        super().__init__(program, module, fn, collect=collect)
        self._ids = itertools.count()
        #: summary outputs (read after run())
        self.released_params: Set[int] = set()
        self.escaped_params: Set[int] = set()
        self.returns_fresh: Optional[str] = None
        #: protocols this function releases somewhere — the *intent*
        #: signal that arms label-shape leak reporting (a function that
        #: never frees anything is a planner, not a leaker)
        self._released_protocols: Set[str] = set()
        #: names bound to protocol-class constructor calls; resources on
        #: them die with the function, so leaks there are silent but
        #: releasing a never-acquired handle is provably wrong
        self._local_receivers: Set[str] = set()
        #: stack of with-block context variable name sets (RES006)
        self._with_ctx: List[Set[str]] = []
        #: label-shape leaks found at branch exits (deduped at exit)
        self._leaks: Dict[int, Handle] = {}

    # -- entry point -------------------------------------------------------
    def run(self) -> LifecycleSummary:
        env: Env = {}
        states: States = {}
        args = self.fn.node.args
        params = [*args.posonlyargs, *args.args]
        for index, param in enumerate(params):
            hid = next(self._ids)
            env[param.arg] = hid
            states[hid] = Handle(protocol=_ANY, state=BORROWED,
                                 param_index=index)
        for param in args.kwonlyargs:
            env[param.arg] = _NOT_HANDLE
        env, states = self.exec_block(self.fn.node.body, (env, states))
        self._check_exit(states)
        return LifecycleSummary(tuple(sorted(self.released_params)),
                                tuple(sorted(self.escaped_params)),
                                self.returns_fresh)

    def _check_exit(self, states: States) -> None:
        for handle in states.values():
            self._note_leak_candidate(handle)
        for handle in self._leaks.values():
            if handle.protocol.shape == "label":
                what = (f"label {handle.label!r} allocated on "
                        f"{handle.receiver}")
            else:
                what = (f"{handle.protocol.name} token from "
                        f"{handle.receiver or 'acquire'}")
            self.emit(
                Severity.ERROR, "RES001",
                f"{what} is never released on some path through "
                f"{self.fn.qualname}() ({handle.protocol.name} protocol)",
                handle.line,
            )

    def _note_leak_candidate(self, handle: Handle) -> None:
        """Queue an acquired-at-exit handle for RES001, per intent rules."""
        if handle.state != ACQUIRED or handle.param_index is not None:
            return
        root = handle.receiver.split(".", 1)[0]
        if root in self._local_receivers:
            return  # the pool/cache itself dies with this function
        if handle.protocol.shape == "label" and \
                handle.protocol.name not in self._released_protocols:
            # A function that allocates labels and never frees any is a
            # planner handing long-lived state to its caller, not a
            # leaker; only mixed acquire/release functions must balance.
            return
        if self.collect:
            self._leaks[id(handle)] = handle

    # -- statements --------------------------------------------------------
    def fork(self, state: State) -> State:
        env, states = state
        return dict(env), _copy(states)

    def join(self, left: State, right: State) -> State:
        left_env, left_states = left
        right_env, right_states = right
        env: Env = {}
        states: States = {}
        for hid in set(left_states) | set(right_states):
            a = left_states.get(hid)
            b = right_states.get(hid)
            if a is None:
                states[hid] = b.copy()  # type: ignore[union-attr]
            elif b is None:
                states[hid] = a.copy()
            else:
                joined = a.copy()
                joined.state = _join(a.state, b.state)
                joined.risky = a.risky or b.risky
                states[hid] = joined
        for name in set(left_env) | set(right_env):
            a_id = left_env.get(name)
            b_id = right_env.get(name)
            if a_id == b_id and a_id is not None:
                env[name] = a_id
            # a name bound to different handles per branch is dropped;
            # the handles themselves stay in ``states`` for exit audit
        return env, states

    def eval(self, node: ast.expr, state: State) -> Optional[int]:
        return self._eval(node, *state)

    def before(self, stmt: ast.stmt, state: State) -> None:
        """Before a statement with non-protocol calls runs, every live
        handle becomes exception-exposed (the RES002 precondition).

        Marking *before* interpreting the statement keeps a handle's own
        acquire expression from poisoning it (the acquire runs last)."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if not any(self._call_is_risky(node)
                   for node in ast.walk(stmt)
                   if isinstance(node, ast.Call)):
            return
        for handle in state[1].values():
            if handle.state == ACQUIRED:
                handle.risky = True

    @staticmethod
    def _call_is_risky(node: ast.Call) -> bool:
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name in ACQUIRE_METHODS or name in RELEASE_METHODS or \
                    name in CONTEXT_METHODS:
                return False
            return True
        if isinstance(node.func, ast.Name):
            return node.func.id not in SAFE_TOKEN_SINKS
        return True

    def transfer(self, stmt: ast.stmt, state: State) -> None:
        env, states = state
        if isinstance(stmt, ast.Assign):
            hid = self._eval(stmt.value, env, states)
            for target in stmt.targets:
                self._bind(target, hid, env, states, value=stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            hid = self._eval(stmt.value, env, states) \
                if stmt.value is not None else None
            self._bind(stmt.target, hid, env, states, value=stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value, env, states)
        elif isinstance(stmt, ast.Return):
            self._exec_return(stmt, env, states)
        elif isinstance(stmt, ast.Expr):
            hid = self._eval(stmt.value, env, states)
            self._check_discarded(stmt.value, hid, states)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # pass/break/continue/import/global: nothing to track

    def enter_for(self, stmt: Union[ast.For, ast.AsyncFor],
                  state: State) -> State:
        self._eval(stmt.iter, *state)
        body = self.fork(state)
        self._bind(stmt.target, None, *body)
        return body

    def bind_exception(self, name: str, state: State) -> None:
        state[0][name] = _NOT_HANDLE

    def _exec_return(self, stmt: ast.Return, env: Env,
                     states: States) -> None:
        if stmt.value is None:
            self.exit_branch((env, states))
            return
        hid = self._eval(stmt.value, env, states)
        if hid is not None and hid != _NOT_HANDLE and hid in states:
            handle = states[hid]
            if handle.state == ACQUIRED:
                if handle.protocol.shape == "token":
                    self.returns_fresh = handle.protocol.name
                self._check_scope_escape(handle, stmt.lineno,
                                         verb="returned")
                handle.state = ESCAPED
            elif handle.state == BORROWED and \
                    handle.param_index is not None:
                self.escaped_params.add(handle.param_index)
        self._escape_names(stmt.value, env, states, line=stmt.lineno,
                           verb="returned")
        self.exit_branch((env, states))

    def exit_branch(self, state: State) -> None:
        """A path leaves the function here; audit its live handles."""
        for handle in state[1].values():
            self._note_leak_candidate(handle)

    @contextmanager
    def enter_with(self, stmt: Union[ast.With, ast.AsyncWith],
                   state: State) -> Iterator[None]:
        env, states = state
        ctx_names: Set[str] = set()
        for item in stmt.items:
            self._eval(item.context_expr, env, states)
            is_protocol_ctx = (
                isinstance(item.context_expr, ast.Call)
                and isinstance(item.context_expr.func, ast.Attribute)
                and item.context_expr.func.attr in CONTEXT_METHODS
            )
            if item.optional_vars is not None and \
                    isinstance(item.optional_vars, ast.Name):
                name = item.optional_vars.id
                ctx_names.add(name)
                hid = next(self._ids)
                env[name] = hid
                states[hid] = Handle(
                    protocol=(CONTEXT_METHODS[item.context_expr.func.attr]
                              if is_protocol_ctx else _ANY),
                    state=MANAGED, line=stmt.lineno)
            elif item.optional_vars is not None:
                self._bind(item.optional_vars, None, env, states)
        self._with_ctx.append(ctx_names)
        try:
            yield
        finally:
            self._with_ctx.pop()

    def _check_scope_escape(self, handle: Handle, line: int, *,
                            verb: str) -> None:
        """RES006: a token acquired from a with-managed receiver must not
        outlive the with block (the context exit revokes its backing —
        the fault-revert / lease-teardown escape)."""
        root = handle.receiver.split(".", 1)[0]
        if any(root in names for names in self._with_ctx):
            self.emit(
                Severity.WARNING, "RES006",
                f"{handle.protocol.name} token acquired from "
                f"with-managed {handle.receiver!r} is {verb} out of its "
                f"with block; the context exit revokes it",
                line,
            )

    def _check_discarded(self, value: ast.expr, hid: Optional[int],
                         states: States) -> None:
        """RES010: a token-acquire result dropped on the floor can never
        be released."""
        if hid is None or hid == _NOT_HANDLE or hid not in states:
            return
        handle = states[hid]
        if handle.state != ACQUIRED or handle.protocol.shape != "token":
            return
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in ACQUIRE_METHODS):
            return
        self.emit(
            Severity.WARNING, "RES010",
            f"result of {handle.receiver}."
            f"{value.func.attr}() is discarded; the "
            f"{handle.protocol.name} token is unreleasable without it",
            value.lineno,
        )
        handle.state = ESCAPED  # don't double-report as RES001

    # -- env plumbing ------------------------------------------------------
    def _bind(self, target: ast.expr, hid: Optional[int], env: Env,
              states: States, value: Optional[ast.expr] = None) -> None:
        if isinstance(target, ast.Name):
            if value is not None and isinstance(value, ast.Call) and \
                    isinstance(value.func, ast.Name) and \
                    value.func.id in CONSTRUCTORS:
                self._local_receivers.add(target.id)
            if hid is None:
                env.pop(target.id, None)
            else:
                env[target.id] = hid
        elif isinstance(target, ast.Attribute):
            # Storing a handle on an object escapes it (long-lived owner)
            if hid is not None and hid != _NOT_HANDLE and hid in states:
                handle = states[hid]
                if handle.state == ACQUIRED:
                    self._check_scope_escape(handle, target.lineno,
                                             verb="stored")
                    handle.state = ESCAPED
                elif handle.state == BORROWED and \
                        handle.param_index is not None:
                    self.escaped_params.add(handle.param_index)
        elif isinstance(target, ast.Subscript):
            if hid is not None and hid != _NOT_HANDLE and hid in states:
                handle = states[hid]
                if handle.state == ACQUIRED:
                    handle.state = ESCAPED
                elif handle.state == BORROWED and \
                        handle.param_index is not None:
                    self.escaped_params.add(handle.param_index)
            self._eval(target.value, env, states)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and \
                    len(value.elts) == len(target.elts):
                for sub_target, sub_value in zip(target.elts, value.elts):
                    sub_id = env.get(sub_value.id) \
                        if isinstance(sub_value, ast.Name) else None
                    self._bind(sub_target, sub_id, env, states)
            else:
                for sub_target in target.elts:
                    self._bind(sub_target, None, env, states)

    def _escape_names(self, node: ast.expr, env: Env, states: States, *,
                      line: int, verb: str) -> None:
        """Every handle named inside ``node`` escapes (containers,
        yields, returns of compound expressions)."""
        for child in ast.walk(node):
            if not isinstance(child, ast.Name):
                continue
            hid = env.get(child.id)
            if hid is None or hid == _NOT_HANDLE or hid not in states:
                continue
            handle = states[hid]
            if handle.state == ACQUIRED:
                self._check_scope_escape(handle, line, verb=verb)
                handle.state = ESCAPED
            elif handle.state == BORROWED and \
                    handle.param_index is not None:
                self.escaped_params.add(handle.param_index)

    # -- expressions -------------------------------------------------------
    def _eval(self, node: Optional[ast.expr], env: Env,
              states: States) -> Optional[int]:
        """Interpret an expression; returns the handle identity it
        evaluates to (``_NOT_HANDLE`` for provable non-handles, ``None``
        for unknown)."""
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            return _NOT_HANDLE
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env, states)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self._eval(node.value, env, states)
                self._escape_names(node.value, env, states,
                                   line=node.lineno, verb="yielded")
            return None
        if isinstance(node, ast.Await):
            return self._eval(node.value, env, states)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env, states)
            left = self._eval(node.body, env, states)
            right = self._eval(node.orelse, env, states)
            return left if left == right else None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, env, states)
            self._escape_names(node, env, states, line=node.lineno,
                               verb="stored in a container and passed on")
            return _NOT_HANDLE
        if isinstance(node, ast.NamedExpr):
            hid = self._eval(node.value, env, states)
            self._bind(node.target, hid, env, states, value=node.value)
            return hid
        if isinstance(node, ast.Attribute):
            if not isinstance(node.value, (ast.Name, ast.Attribute)):
                self._eval(node.value, env, states)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            comp_env, comp_states = dict(env), states
            for generator in node.generators:
                self._eval(generator.iter, comp_env, comp_states)
                self._bind(generator.target, None, comp_env, comp_states)
                for condition in generator.ifs:
                    self._eval(condition, comp_env, comp_states)
            if isinstance(node, ast.DictComp):
                self._eval(node.key, comp_env, comp_states)
                self._eval(node.value, comp_env, comp_states)
            else:
                self._eval(node.elt, comp_env,  # type: ignore[attr-defined]
                           comp_states)
            return _NOT_HANDLE
        # BinOp/BoolOp/Compare/UnaryOp/Subscript/JoinedStr/Starred/...:
        # recurse for nested calls, never a handle themselves
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child, env, states)
        return _NOT_HANDLE if isinstance(
            node, (ast.BinOp, ast.BoolOp, ast.Compare, ast.UnaryOp,
                   ast.JoinedStr)) else None

    # -- calls -------------------------------------------------------------
    def _eval_call(self, node: ast.Call, env: Env,
                   states: States) -> Optional[int]:
        for kw in node.keywords:
            self._eval(kw.value, env, states)
        if isinstance(node.func, ast.Attribute):
            return self._eval_method_call(node, env, states)
        if isinstance(node.func, ast.Name):
            return self._eval_name_call(node, env, states)
        self._eval(node.func, env, states)
        for arg in node.args:
            self._eval(arg, env, states)
        self._escape_args(node, env, states)
        return None

    def _eval_method_call(self, node: ast.Call, env: Env,
                          states: States) -> Optional[int]:
        func = node.func
        assert isinstance(func, ast.Attribute)
        method = func.attr
        receiver = dotted(func.value)
        npos = len(node.args)
        self._check_receiver_use(receiver, env, states, node.lineno,
                                 method)
        arg_ids = [env.get(arg.id) if isinstance(arg, ast.Name)
                   else self._eval(arg, env, states)
                   for arg in node.args]

        protocol = RELEASE_METHODS.get(method)
        if protocol is not None and _in_arity(protocol.releases[method],
                                              npos):
            self._do_release(node, protocol, method, receiver,
                             arg_ids[0] if arg_ids else None, env,
                             states)
            return _NOT_HANDLE

        protocol = ACQUIRE_METHODS.get(method)
        if protocol is not None and _in_arity(protocol.acquires[method],
                                              npos):
            return self._do_acquire(node, protocol, receiver, env,
                                    states)

        if method in CONTEXT_METHODS:
            hid = next(self._ids)
            states[hid] = Handle(protocol=CONTEXT_METHODS[method],
                                 state=MANAGED, line=node.lineno,
                                 receiver=receiver)
            return hid

        # ordinary method call: resolve interprocedurally, else assume
        # the callee takes ownership of handle arguments (conservative)
        resolved = self.program.resolve(self.module, method, node)
        self._apply_summary(node, resolved, env, states,
                            offset=1 if resolved is not None
                            and resolved.is_method else 0,
                            arg_ids=arg_ids)
        if resolved is not None and resolved.summary.returns_fresh is not None:
            return self._fresh_from_summary(resolved, node, receiver,
                                            states)
        return None

    def _eval_name_call(self, node: ast.Call, env: Env,
                        states: States) -> Optional[int]:
        func = node.func
        assert isinstance(func, ast.Name)
        name = func.id
        if name in SAFE_TOKEN_SINKS:
            for arg in node.args:
                if not isinstance(arg, ast.Name):
                    self._eval(arg, env, states)
            return _NOT_HANDLE
        if name in CONSTRUCTORS:
            for arg in node.args:
                self._eval(arg, env, states)
            return None  # _bind records the local receiver
        resolved = self.program.resolve(self.module, name, node)
        if resolved is not None and resolved.is_method:
            resolved = None  # a bare name cannot be a bound method here
        arg_ids = [env.get(arg.id) if isinstance(arg, ast.Name)
                   else self._eval(arg, env, states)
                   for arg in node.args]
        self._apply_summary(node, resolved, env, states, offset=0,
                            arg_ids=arg_ids)
        if resolved is not None and resolved.summary.returns_fresh is not None:
            return self._fresh_from_summary(resolved, node, "", states)
        return None

    def _fresh_from_summary(self, resolved: Function, node: ast.Call,
                            receiver: str, states: States) -> int:
        protocol = next((p for p in PROTOCOLS
                         if p.name == resolved.summary.returns_fresh), None)
        if protocol is None:  # pragma: no cover - summary invariant
            return _NOT_HANDLE
        hid = next(self._ids)
        states[hid] = Handle(protocol=protocol, state=ACQUIRED,
                             line=node.lineno,
                             receiver=receiver or resolved.qualname)
        return hid

    def _apply_summary(self, node: ast.Call,
                       resolved: Optional[Function], env: Env,
                       states: States, *, offset: int,
                       arg_ids: Optional[List[Optional[int]]] = None
                       ) -> None:
        """Propagate a callee's lifecycle effects onto handle arguments.

        An unresolvable callee is assumed to take ownership (escape) —
        the conservative choice that avoids false leak reports.
        ``arg_ids`` carries the already-evaluated handle id per
        positional argument, so handles born inline in an argument
        expression (``sink.push(cache.lock(key))``) are covered too."""
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Name):
                hid = env.get(arg.id)
                name = arg.id
            elif arg_ids is not None:
                hid = arg_ids[index]
                name = "<expression>"
            else:
                continue
            if hid is None or hid == _NOT_HANDLE or hid not in states:
                continue
            handle = states[hid]
            callee_pos = index + offset
            if handle.state == RELEASED:
                self._use_after_release(handle, name, node.lineno)
                continue
            if resolved is None:
                self._escape_handle(handle)
            elif callee_pos in resolved.summary.releases:
                self._release_handle(handle, node.lineno,
                                     via=resolved.qualname)
            elif callee_pos in resolved.summary.escapes:
                self._escape_handle(handle)
        for kw in node.keywords:
            if isinstance(kw.value, ast.Name):
                hid = env.get(kw.value.id)
                if hid is not None and hid != _NOT_HANDLE and \
                        hid in states:
                    self._escape_handle(states[hid])

    def _escape_args(self, node: ast.Call, env: Env,
                     states: States) -> None:
        for arg in node.args:
            if isinstance(arg, ast.Name):
                hid = env.get(arg.id)
                if hid is not None and hid != _NOT_HANDLE and \
                        hid in states:
                    self._escape_handle(states[hid])

    def _escape_handle(self, handle: Handle) -> None:
        if handle.state == ACQUIRED:
            handle.state = ESCAPED
        elif handle.state == BORROWED and handle.param_index is not None:
            self.escaped_params.add(handle.param_index)

    def _release_handle(self, handle: Handle, line: int, *,
                        via: str) -> None:
        if handle.state == ACQUIRED:
            self._check_unguarded(handle, line)
            handle.state = RELEASED
            handle.released_line = line
        elif handle.state == BORROWED:
            if handle.param_index is not None:
                self.released_params.add(handle.param_index)
            handle.state = RELEASED
            handle.released_line = line
        elif handle.state == RELEASED:
            self.emit(
                Severity.ERROR, "RES003",
                f"handle released again via {via}() after the release on "
                f"line {handle.released_line} (double release)",
                line,
            )

    def _use_after_release(self, handle: Handle, name: str,
                           line: int) -> None:
        self.emit(
            Severity.ERROR, "RES004",
            f"{name!r} is used after its release on line "
            f"{handle.released_line}; an unlocked/freed handle is dead",
            line,
        )

    def _check_receiver_use(self, receiver: str, env: Env,
                            states: States, line: int,
                            method: str) -> None:
        """Calling a method *on* a released token is a use (RES004)."""
        root = receiver.split(".", 1)[0]
        hid = env.get(root)
        if hid is None or hid == _NOT_HANDLE or hid not in states:
            return
        handle = states[hid]
        if handle.state == RELEASED and receiver == root:
            self._use_after_release(handle, root, line)

    # -- protocol verbs ----------------------------------------------------
    def _do_release(self, node: ast.Call, protocol: Protocol,
                    method: str, receiver: str, arg_id: Optional[int],
                    env: Env, states: States) -> None:
        self._released_protocols.add(protocol.name)
        if any(kw.arg in protocol.lenient_keywords
               for kw in node.keywords):
            return  # documented idempotent teardown; exempt
        arg = node.args[0] if node.args else None
        if protocol.shape == "token":
            self._release_token(node, protocol, method, arg, arg_id,
                                env, states)
        else:
            self._release_label(node, protocol, method, receiver, arg,
                                env, states)

    def _release_token(self, node: ast.Call, protocol: Protocol,
                       method: str, arg: Optional[ast.expr],
                       arg_id: Optional[int], env: Env,
                       states: States) -> None:
        if not isinstance(arg, ast.Name):
            # releasing a fresh sub-expression (``unlock(make())``) or a
            # stored attribute: close the inline handle if we made one
            if arg_id is not None and arg_id != _NOT_HANDLE and \
                    arg_id in states and states[arg_id].state == ACQUIRED:
                states[arg_id].state = RELEASED
                states[arg_id].released_line = node.lineno
            return
        hid = env.get(arg.id)
        if hid is None:
            return  # unknown binding (global, closure): stay silent
        if hid == _NOT_HANDLE:
            self.emit(
                Severity.ERROR, "RES005",
                f"{arg.id!r} passed to {method}() was never acquired "
                f"from a {protocol.name} acquire call",
                node.lineno,
            )
            return
        handle = states.get(hid)
        if handle is None:
            return
        if handle.state in _QUIET:
            return
        if handle.state == RELEASED:
            self.emit(
                Severity.ERROR, "RES003",
                f"{arg.id!r} released again via {method}() after the "
                f"release on line {handle.released_line} "
                f"(double release)",
                node.lineno,
            )
            return
        if handle.state == BORROWED:
            if handle.param_index is not None:
                self.released_params.add(handle.param_index)
            handle.state = RELEASED
            handle.released_line = node.lineno
            return
        if handle.protocol.shape == "token" and \
                handle.protocol.name != protocol.name:
            self.emit(
                Severity.ERROR, "RES005",
                f"{arg.id!r} is a {handle.protocol.name} token but "
                f"{method}() releases {protocol.name} handles",
                node.lineno,
            )
            return
        self._check_unguarded(handle, node.lineno)
        handle.state = RELEASED
        handle.released_line = node.lineno

    def _release_label(self, node: ast.Call, protocol: Protocol,
                       method: str, receiver: str,
                       arg: Optional[ast.expr], env: Env,
                       states: States) -> None:
        label = _literal_str(arg)
        if label is None:
            return  # computed labels are not provably matchable
        key = f"{receiver}::{label}"
        hid = env.get(key)
        handle = states.get(hid) if hid is not None and \
            hid != _NOT_HANDLE else None
        if handle is not None:
            if handle.state == ACQUIRED:
                self._check_unguarded(handle, node.lineno)
                handle.state = RELEASED
                handle.released_line = node.lineno
            elif handle.state == RELEASED:
                self.emit(
                    Severity.ERROR, "RES003",
                    f"label {label!r} freed again via {method}() after "
                    f"the free on line {handle.released_line} "
                    f"(double free)",
                    node.lineno,
                )
            return
        root = receiver.split(".", 1)[0]
        if root in self._local_receivers:
            # the receiver was constructed here and every acquire on it
            # is visible, so this label provably was never allocated
            self.emit(
                Severity.ERROR, "RES005",
                f"label {label!r} freed on locally-constructed "
                f"{receiver} but never allocated there",
                node.lineno,
            )
            return
        # Unknown history on a borrowed receiver: record the release so
        # a *second* free of the same label still flags as double-free.
        hid = next(self._ids)
        env[key] = hid
        states[hid] = Handle(protocol=protocol, state=RELEASED,
                             line=node.lineno, receiver=receiver,
                             label=label,
                             released_line=node.lineno)

    def _do_acquire(self, node: ast.Call, protocol: Protocol,
                    receiver: str, env: Env,
                    states: States) -> Optional[int]:
        if protocol.shape == "token":
            hid = next(self._ids)
            states[hid] = Handle(protocol=protocol, state=ACQUIRED,
                                 line=node.lineno, receiver=receiver)
            return hid
        label = _literal_str(node.args[0] if node.args else None)
        if label is None:
            return _NOT_HANDLE  # computed labels are not tracked
        key = f"{receiver}::{label}"
        hid = env.get(key)
        existing = states.get(hid) if hid is not None and \
            hid != _NOT_HANDLE else None
        if existing is not None:
            # labels accumulate; re-allocation after free is legal
            existing.state = ACQUIRED
            existing.risky = False
            return _NOT_HANDLE
        hid = next(self._ids)
        env[key] = hid
        states[hid] = Handle(protocol=protocol, state=ACQUIRED,
                             line=node.lineno, receiver=receiver,
                             label=label)
        return _NOT_HANDLE

    def _check_unguarded(self, handle: Handle, line: int) -> None:
        """RES002: the acquire..release window contained a call that can
        raise, and this release is not in a ``finally`` block, so the
        exception path leaks."""
        if not handle.risky or self.finally_depth > 0:
            return
        what = (f"label {handle.label!r}" if handle.protocol.shape ==
                "label" else f"{handle.protocol.name} token")
        self.emit(
            Severity.WARNING, "RES002",
            f"{what} acquired on line {handle.line} is released here "
            f"outside any finally block, but calls in between can "
            f"raise; an exception would leak it (wrap in try/finally "
            f"or use the protocol's context manager)",
            line,
        )


#: placeholder protocol for borrowed parameters / generic with-vars
_ANY = Protocol(name="any", shape="token", acquires={}, releases={})


def _join(a: str, b: str) -> str:
    if a == b:
        return a
    if ESCAPED in (a, b) or MANAGED in (a, b):
        return ESCAPED
    return MAYBE


def _in_arity(window: Tuple[int, int], count: int) -> bool:
    low, high = window
    return low <= count <= high


def _literal_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _copy(states: States) -> States:
    return {hid: handle.copy() for hid, handle in states.items()}


class LifecycleProgram(Program):
    """The lifecycle domain over the scanned tree."""

    packages = LIFECYCLE_PACKAGES
    walker = _Interpreter

    def initial(self, fn: Function) -> LifecycleSummary:
        return LifecycleSummary()

    def summarize(self, module: Module, fn: Function) -> LifecycleSummary:
        return _Interpreter(self, module, fn, collect=False).run()

    def agree(self, a: Function, b: Function) -> bool:
        return a.summary == b.summary


def analyze_tree(root: Path) -> List[Finding]:
    """Run the full lifecycle analysis over every module under ``root``."""
    return LifecycleProgram.over(
        AnalysisContext(source_root=Path(root))).check()
