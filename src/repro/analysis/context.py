"""Input bundle handed to every analysis pass."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan
from ..hardware.cluster import Cluster
from ..model.config import ModelConfig, TrainingConfig
from ..parallel.placement import PlacementConfig
from ..parallel.strategy import StrategyContext, TrainingStrategy
from .program import DEFAULT_SOURCE_ROOT, Parsed, parse, source_files


@dataclass
class AnalysisContext:
    """Everything known about a run before the engine fires an event.

    ``cluster`` may be absent for source-only analysis (the ``source``
    family lints a tree, not a machine); every hardware-facing pass goes
    through :meth:`require_cluster`.  ``strategy``/``model`` may be
    absent for topology-only analysis.  ``tensor_parallel``/
    ``pipeline_parallel`` are *requested* degrees (CLI overrides): they
    let the divisibility lints vet a degree the shipped strategies would
    never derive themselves, e.g. TP=3 on 8 GPUs.  ``fault_plan`` is the
    fault-injection schedule, when the run has one; the ``faults``
    family of passes vets it against the cluster.  ``source_root`` is
    the tree the ``source`` and ``dims`` families scan (defaults to the
    installed ``repro`` package); :meth:`sources` parses each of its
    files at most once per context.
    """

    cluster: Optional[Cluster] = None
    strategy: Optional[TrainingStrategy] = None
    model: Optional[ModelConfig] = None
    training: Optional[TrainingConfig] = None
    placement: Optional[PlacementConfig] = None
    tensor_parallel: Optional[int] = None
    pipeline_parallel: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None
    source_root: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.training is None:
            self.training = TrainingConfig()
        self._parsed: Dict[Path, Parsed] = {}

    def sources(self, packages: Sequence[str] = ()
                ) -> List[Tuple[str, Parsed]]:
        """``(location, tree or parse error)`` for every ``.py`` file of
        ``packages`` under the source root, in path order.

        A root containing none of the packages (or an empty scope) is
        read whole; locations are root-relative POSIX paths.
        """
        root = (self.source_root if self.source_root is not None
                else DEFAULT_SOURCE_ROOT)
        pairs = []
        for path in source_files(root, packages):
            if path not in self._parsed:
                self._parsed[path] = parse(path)
            pairs.append((path.relative_to(root).as_posix(),
                          self._parsed[path]))
        return pairs

    def modules(self, packages: Sequence[str] = ()
                ) -> List[Tuple[str, ast.Module]]:
        """:meth:`sources` without the files that do not parse (the
        ``source-hygiene`` pass reports those as ``SRC000``)."""
        return [(location, tree) for location, tree in self.sources(packages)
                if isinstance(tree, ast.Module)]

    def require_cluster(self) -> Cluster:
        if self.cluster is None:
            raise ValueError("this analysis pass requires a cluster")
        return self.cluster

    @property
    def world_size(self) -> int:
        return self.require_cluster().num_gpus

    def strategy_context(self) -> StrategyContext:
        if self.strategy is None or self.model is None:
            raise ValueError("strategy and model required for strategy lints")
        assert self.training is not None
        return StrategyContext(self.require_cluster(), self.model,
                               self.training)
