"""The registered ``lifecycle``-family pass and the ``RES0xx`` catalog.

============  ========  ====================================================
code          severity  meaning
============  ========  ====================================================
``RES001``    ERROR     handle acquired but never released on some path
                        through the function (leak on normal exit)
``RES002``    WARNING   acquire..release window contains calls that can
                        raise and the release is not exception-guarded
                        (leak on the exception path; use try/finally or
                        the protocol's context manager)
``RES003``    ERROR     double release (second ``free``/``unlock`` of
                        the same handle)
``RES004``    ERROR     use of a handle after its release
``RES005``    ERROR     release of a handle that was provably never
                        acquired (wrong token type, unacquired label on a
                        locally-built pool, non-handle value)
``RES006``    WARNING   handle acquired inside a ``with`` scope escapes it
                        (returned/yielded/stored); the context exit
                        revokes its backing
``RES010``    WARNING   token-acquire result discarded; the handle can
                        never be released without it
============  ========  ====================================================

``RES007`` and ``RES009`` belong to the runtime half of the subsystem
(:mod:`repro.sim.leaksan` claims them via
:func:`~repro.analysis.registry.claim_codes`): ``RES007`` a pool label
or flow still held at teardown, ``RES009`` cross-validation — a static
RES finding matched (or contradicted) by an observed runtime leak.

The pass reads :data:`~repro.analysis.lifecycle.engine.
LIFECYCLE_PACKAGES` of a source tree (``ctx.source_root``) through the
context's shared parse, not a cluster, and is expensive (full-tree
parse + interprocedural fixpoint), so it is ``cheap=False`` and runs
only from ``repro analyze --lifecycle`` and the CI lifecycle job.
"""

from __future__ import annotations

from typing import Iterator

from ..context import AnalysisContext
from ..findings import Finding
from ..registry import register_pass
from .engine import LifecycleProgram

#: codes the typestate interpreter may emit
RES_CODES = ("RES001", "RES002", "RES003", "RES004", "RES005", "RES006",
             "RES010")


@register_pass(
    "res-typestate", family="lifecycle", cheap=False,
    description="interprocedural acquire/release typestate analysis over "
                "the paired-resource protocols (memory pool, cache "
                "lock)",
    codes=RES_CODES,
)
def res_typestate(ctx: AnalysisContext) -> Iterator[Finding]:
    yield from LifecycleProgram.over(ctx).check()
