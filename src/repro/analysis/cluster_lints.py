"""Scheduler-determinism lints over the cluster service (``CLU0xx``).

The cluster service's whole value proposition is that a scenario is a
pure function of its spec: same arrival seed and policy, same
:class:`~repro.cluster.report.ClusterReport`, field for field.  The
generic ``DET0xx`` passes already cover the :mod:`repro.cluster` package
(it is listed in :data:`~repro.analysis.determinism.det_lints.
SIM_PACKAGES`), but scheduler code deserves stricter treatment: where
``DET010`` only flags *unseeded module-level* RNG use and ``DET011``
warns, anything in the scheduling path that consults the wall clock or
the process-global RNG stream breaks replayability outright.  Hence the
dedicated block:

* ``CLU001`` — scheduler code reads the wall clock (ERROR): time in the
  service is :attr:`Engine.now <repro.sim.engine.Engine.now>` and
  nothing else, including in "harmless" logging or tiebreaks;
* ``CLU002`` — scheduler code draws from the process-global
  :mod:`random` stream or builds an unseeded :class:`random.Random`
  (ERROR, regardless of any ``random.seed`` call elsewhere in the
  file: arrivals must thread explicit seeds).

Scope is the ``cluster`` package under the source root, read through
the context's shared parse (:mod:`~repro.analysis.program`); a tree with
no ``cluster`` directory (a unit-test fixture) is read whole, the same
convention as every other source pass.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .context import AnalysisContext
from .determinism.det_lints import _RANDOM_FNS, _WALL_CLOCK
from .findings import Finding, Severity
from .program import dotted
from .registry import register_pass

#: the packages this pass reads
CLUSTER_PACKAGES = ("cluster",)


@register_pass(
    "clu-scheduler-determinism", family="source", cheap=False,
    description="cluster scheduler code knows only Engine.now and "
                "explicitly seeded RNG streams",
    codes=("CLU001", "CLU002"),
)
def clu_scheduler_determinism(ctx: AnalysisContext) -> Iterator[Finding]:
    for location, tree in ctx.modules(CLUSTER_PACKAGES):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if name in _WALL_CLOCK:
                yield Finding(
                    "clu-scheduler-determinism", Severity.ERROR, "CLU001",
                    f"{name}() reads the wall clock in scheduler code; "
                    f"scheduling decisions must depend only on Engine.now",
                    location=f"{location}:{node.lineno}",
                )
            elif (name.startswith("random.")
                    and name[len("random."):] in _RANDOM_FNS):
                yield Finding(
                    "clu-scheduler-determinism", Severity.ERROR, "CLU002",
                    f"{name}() draws from the process-global RNG in "
                    f"scheduler code; thread a seeded random.Random "
                    f"through the scenario instead",
                    location=f"{location}:{node.lineno}",
                )
            elif name in ("random.Random", "Random") and not node.args:
                yield Finding(
                    "clu-scheduler-determinism", Severity.ERROR, "CLU002",
                    "random.Random() without a seed in scheduler code; "
                    "arrival and tie seeds must come from the scenario",
                    location=f"{location}:{node.lineno}",
                )
