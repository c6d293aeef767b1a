"""The registered ``dims``-family passes and the ``DIM0xx`` catalog.

============  ========  ====================================================
code          severity  meaning
============  ========  ====================================================
``DIM001``    ERROR     addition/subtraction of incompatible dimensions
                        (``ms`` added to ``s``-canonical time, bytes plus
                        bytes/s, ...)
``DIM002``    ERROR     comparison of incompatible dimensions
``DIM003``    WARNING   decimal-scaled (GB) and binary-scaled (GiB) byte
                        quantities mixed additively or compared
``DIM004``    ERROR     argument dimension contradicts the callee's unit
                        annotation or units-helper stub
``DIM005``    ERROR     returned dimension contradicts the function's
                        declared return annotation
``DIM006``    ERROR     sink-contract violation: ledger charges, event
                        durations, counter-track units/periods
``DIM010``    WARNING   magic unit constant with a ``repro.units`` name
                        (formerly ``SRC001``)
``DIM011``    WARNING   float ``==`` on a simulated time (formerly
                        ``SRC002``)
============  ========  ====================================================

Both passes read a source tree (``ctx.source_root``) through the
context's shared parse, not a cluster: ``dim-flow`` reads
:data:`~repro.analysis.dimensions.engine.DIM_PACKAGES`,
``dim-vocabulary`` the whole tree.  They are expensive (full-tree parse
+ fixpoint), so they are ``cheap=False`` and run only from ``repro
analyze --dims`` and the CI ``dims`` job.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from ..context import AnalysisContext
from ..findings import Finding
from ..registry import register_pass
from .engine import UnitsProgram
from .vocabulary import lint_module

#: codes the abstract interpreter may emit
FLOW_CODES = ("DIM001", "DIM002", "DIM003", "DIM004", "DIM005", "DIM006")

#: codes the syntactic vocabulary lints may emit
VOCABULARY_CODES = ("DIM010", "DIM011")


@register_pass(
    "dim-flow", family="dims", cheap=False,
    description="flow-sensitive dimensional analysis: unit algebra in "
                "arithmetic, calls, returns, and sink contracts",
    codes=FLOW_CODES,
)
def dim_flow(ctx: AnalysisContext) -> Iterator[Finding]:
    yield from UnitsProgram.over(ctx).check()


@register_pass(
    "dim-vocabulary", family="dims", cheap=False,
    description="units vocabulary used for magic constants; no float== "
                "on simulated times",
    codes=VOCABULARY_CODES,
)
def dim_vocabulary(ctx: AnalysisContext) -> Iterator[Finding]:
    for location, tree in ctx.modules():
        if Path(location).name != "units.py":
            yield from lint_module(tree, location)
