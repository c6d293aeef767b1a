"""Pre-run static analysis: config/topology lints, DES liveness, source
hygiene, the determinism race detector, and the interprocedural
dimensional analysis (``DIM0xx``).

See DESIGN.md ("Static analysis" and "Determinism guarantees") for the
pass catalog and how to write a new pass.  The CLI front end is ``repro
analyze``; the perturbation differ lives in
:mod:`repro.analysis.determinism.differ` (imported explicitly, not
here — it needs the training runner).
"""

from .api import (
    DEFAULT_SOURCE_ROOT,
    analyze_dimensions,
    analyze_run_config,
    analyze_source,
    run_passes,
)
from .baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from .context import AnalysisContext
from .determinism import sanitizer_findings
from .findings import Finding, Report, Severity
from .liveness import check_liveness, diagnose
from .registry import (
    AnalysisPass,
    claim_codes,
    code_owners,
    iter_passes,
    register_pass,
    self_check,
)
from .reporters import render_json, render_text

__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "BaselineEntry",
    "DEFAULT_SOURCE_ROOT",
    "Finding",
    "Report",
    "Severity",
    "analyze_dimensions",
    "analyze_run_config",
    "analyze_source",
    "apply_baseline",
    "check_liveness",
    "claim_codes",
    "code_owners",
    "diagnose",
    "iter_passes",
    "load_baseline",
    "register_pass",
    "render_json",
    "render_text",
    "run_passes",
    "sanitizer_findings",
    "self_check",
    "write_baseline",
]
