"""The layer table, and the attribution of profiled self time to layers.

A function's layer is the most specific entry of :data:`LAYERS` that
prefixes its qualified name — a package, a module or a class, so
``repro.hardware.link.BandwidthLedger.record`` lands in
``hardware.link.BandwidthLedger`` while the rest of ``repro.hardware``
lands in ``hardware``.  Functions outside ``repro`` (the standard
library, builtins, numpy) pass their self time up the caller table, in
proportion to the time each caller spent in them, to the nearest
``repro`` caller.  Time with no ``repro`` caller at all is ``other``.

This module imports nothing from ``repro``; qualified names come from
the profiled code locations and the sources' syntax trees.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

#: Qualified-name prefix -> layer.  The longest matching prefix wins.
LAYERS: Dict[str, str] = {
    "repro": "core",
    "repro.sim.engine": "sim.engine",
    "repro.sim.flows": "sim.flows",
    "repro.hardware": "hardware",
    "repro.hardware.link.BandwidthLedger": "hardware.link.BandwidthLedger",
    "repro.collectives": "collectives",
    "repro.sim.fastpath.memo": "collectives",
    "repro.runtime": "runtime",
    "repro.cluster": "cluster",
    "repro.inference": "inference",
    "repro.parallel": "parallel",
    "repro.model": "model",
    "repro.analysis": "analysis",
    "repro.sim.sanitizer": "analysis",
    "repro.telemetry": "telemetry",
    "repro.trace": "trace",
    "repro.sim.fastpath": "sim.fastpath",
    "repro.sim.leaksan": "sim.leaksan",
    "repro.faults": "faults",
}

OTHER = "other"

#: Every layer, in report order; ``other`` last.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(LAYERS.values())) + (OTHER,)

#: Named counters: calls into one public function each.
NAMED_CALLS: Dict[str, str] = {
    "sim.engine.dispatches": "repro.sim.engine.Engine.step",
    "sim.flows.transfers": "repro.sim.flows.FlowNetwork.transfer",
    "hardware.link.BandwidthLedger.records":
        "repro.hardware.link.BandwidthLedger.record",
    "collectives.launches": "repro.collectives.nccl.NcclCommunicator.run",
    "hardware.MemoryPool.allocs": "repro.hardware.devices.MemoryPool.allocate",
}

#: A profiled function, as :mod:`pstats` keys it: (file, first line, name).
Func = Tuple[str, int, str]


def layer_of(name: str) -> str:
    """The layer of a qualified name (``other`` outside ``repro``)."""
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        layer = LAYERS.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return OTHER


def module_name(path: Path, src: Path) -> Optional[str]:
    """The dotted module a source file under ``src`` defines, if any."""
    try:
        relative = path.resolve().relative_to(src.resolve())
    except ValueError:
        return None
    if relative.suffix != ".py":
        return None
    parts = relative.with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _scopes(path: Path) -> List[Tuple[int, int, str]]:
    """``(first line, last line, dotted name)`` of every def and class.

    The first line includes decorators, matching ``co_firstlineno``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found: List[Tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                found.append((first, child.end_lineno or child.lineno, name))
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


class QualifiedNames:
    """Qualified names of profiled functions whose code lives under
    ``src/repro``; ``None`` for everything else."""

    def __init__(self, src: Path) -> None:
        self.src = src
        self._files: Dict[str, Optional[Tuple[str, list]]] = {}

    def __call__(self, func: Func) -> Optional[str]:
        filename, line, _ = func
        if filename not in self._files:
            module = module_name(Path(filename), self.src)
            self._files[filename] = (
                (module, _scopes(Path(filename)))
                if module is not None and module.split(".")[0] == "repro"
                else None)
        entry = self._files[filename]
        if entry is None:
            return None
        module, scopes = entry
        enclosing = [scope for scope in scopes
                     if scope[0] <= line <= scope[1]]
        if not enclosing:
            return module
        return f"{module}.{max(enclosing)[2]}"


def attribute(stats: Mapping[Func, tuple], src: Path) -> Dict[str, object]:
    """Per-layer self seconds and calls, plus the named call counters.

    ``stats`` is :attr:`pstats.Stats.stats`: ``func -> (primitive calls,
    calls, self s, cumulative s, {caller: (calls, primitive calls,
    self s, cumulative s)})``.  ``calls`` counts calls of the layer's own
    functions; time handed up from non-``repro`` code adds to self
    seconds only.
    """
    qualify = QualifiedNames(src)
    names = {func: qualify(func) for func in stats}
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES[:-1], 0)
    counters = dict.fromkeys(NAMED_CALLS, 0)
    counter_of = {target: counter for counter, target in NAMED_CALLS.items()}
    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, visiting: FrozenSet[Func]) -> Dict[str, float]:
        """How a non-``repro`` function's self time splits over layers."""
        if func in memo:
            return memo[func]
        callers = stats[func][4]
        weights = {caller: timing[2] for caller, timing in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: timing[0] for caller, timing in callers.items()}
        total = sum(weights.values())
        split: Dict[str, float] = {}
        if total <= 0:
            split[OTHER] = 1.0
        for caller in sorted(weights):
            weight = weights[caller] / total if total > 0 else 0.0
            if weight == 0.0:
                continue
            name = names.get(caller)
            if name is not None:
                parts = {layer_of(name): 1.0}
            elif caller in visiting or caller == func or caller not in stats:
                parts = {OTHER: 1.0}
            else:
                parts = shares(caller, visiting | {func})
            for layer, share in parts.items():
                split[layer] = split.get(layer, 0.0) + weight * share
        memo[func] = split
        return split

    for func in sorted(stats):
        _, ncalls, tottime, _, _ = stats[func]
        name = names[func]
        if name is None:
            for layer, share in shares(func, frozenset()).items():
                self_s[layer] += tottime * share
            continue
        layer = layer_of(name)
        self_s[layer] += tottime
        calls[layer] += ncalls
        if name in counter_of:
            counters[counter_of[name]] += ncalls
    total = sum(self_s.values())
    layers = {
        layer: {"self_s": self_s[layer],
                "share": self_s[layer] / total if total > 0 else 0.0,
                **({"calls": calls[layer]} if layer in calls else {})}
        for layer in LAYER_NAMES
    }
    return {"layers": layers, "counters": counters}
