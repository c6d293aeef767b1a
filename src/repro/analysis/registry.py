"""Plugin registry for static-analysis passes.

A *pass* is a named function from an :class:`~repro.analysis.context.
AnalysisContext` to an iterable of :class:`~repro.analysis.findings.
Finding`s, tagged with a family and a cost class:

* family ``config`` — validates a Strategy x Cluster pairing;
* family ``topology`` — validates the hardware graph on its own;
* family ``faults`` — validates a fault-injection plan against the
  cluster (targets exist, kinds match, events inside the horizon);
* family ``source`` — AST lints over the codebase itself (unit hygiene
  and the ``DET0xx`` nondeterminism-hazard passes);
* family ``dims`` — the interprocedural dimensional analysis
  (``DIM0xx``): a flow-sensitive abstract interpreter enforcing
  byte/second/bandwidth unit algebra across the simulator.

``cheap`` passes are safe to run on *every* simulation (the
:func:`repro.core.runner.run_training` hook runs them); expensive or
advisory passes (e.g. static memory-capacity prediction, which duplicates
the runtime OOM signal, or the source lints, which walk the whole tree)
only run from ``repro analyze``.

Writing a new pass::

    from repro.analysis.registry import register_pass
    from repro.analysis.findings import Finding, Severity

    @register_pass("my-check", family="config",
                   description="what it validates", codes=("CFG999",))
    def my_check(ctx):
        if something_wrong(ctx):
            yield Finding("my-check", Severity.ERROR, "CFG999", "...")

Importing the module that defines the pass registers it; the built-in
pass modules are imported by :mod:`repro.analysis.api`.

**Finding-code discipline.**  Every stable code (``CFG001``-style) is
claimed by exactly one owner: ``register_pass(codes=...)`` claims codes
for a pass, and dynamic reporters (the schedule sanitizer, the
perturbation differ) claim theirs through :func:`claim_codes`.  A
collision raises at import time, and :func:`self_check` re-verifies the
whole table (codes well-formed and uniquely owned, every family known,
every declared-code pass honest) — the registry's own regression test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from .context import AnalysisContext
from .findings import Finding

PassFn = Callable[[AnalysisContext], Iterable[Finding]]

FAMILIES = ("config", "topology", "faults", "source", "dims")

#: Stable finding codes look like ``CFG001`` / ``TOPO020`` / ``DET101``.
_CODE_RE = re.compile(r"^[A-Z]{3,4}\d{3}$")


@dataclass(frozen=True)
class AnalysisPass:
    """One registered pass."""

    name: str
    family: str
    description: str
    cheap: bool
    fn: PassFn
    #: the stable finding codes this pass may emit; enforced by run()
    codes: Tuple[str, ...] = ()

    def run(self, ctx: AnalysisContext) -> List[Finding]:
        findings = list(self.fn(ctx))
        if self.codes:
            for finding in findings:
                if finding.code not in self.codes:
                    raise ConfigurationError(
                        f"pass {self.name!r} emitted undeclared finding "
                        f"code {finding.code!r}; declared: {self.codes}"
                    )
        return findings


_REGISTRY: Dict[str, AnalysisPass] = {}

#: finding code -> owner (pass name or dynamic-reporter name)
_CODE_OWNERS: Dict[str, str] = {}


def claim_codes(owner: str, codes: Iterable[str]) -> None:
    """Claim stable finding codes for ``owner``; collisions raise.

    Re-claiming a code for the same owner is a no-op (module reimports).
    """
    for code in codes:
        if not _CODE_RE.match(code):
            raise ConfigurationError(
                f"malformed finding code {code!r} claimed by {owner!r} "
                f"(want e.g. CFG001 / TOPO020 / DET101)"
            )
        holder = _CODE_OWNERS.get(code)
        if holder is not None and holder != owner:
            raise ConfigurationError(
                f"finding code {code!r} claimed by both {holder!r} "
                f"and {owner!r}"
            )
        _CODE_OWNERS[code] = owner


def code_owners() -> Dict[str, str]:
    """A copy of the finding-code claim table (for diagnostics/tests)."""
    return dict(_CODE_OWNERS)


def register_pass(name: str, *, family: str, description: str,
                  cheap: bool = True,
                  codes: Tuple[str, ...] = ()) -> Callable[[PassFn], PassFn]:
    """Decorator registering a pass function under ``name``."""
    if family not in FAMILIES:
        raise ConfigurationError(f"unknown pass family {family!r}")

    def decorate(fn: PassFn) -> PassFn:
        if name in _REGISTRY:
            raise ConfigurationError(f"duplicate pass name {name!r}")
        claim_codes(name, codes)
        _REGISTRY[name] = AnalysisPass(
            name=name, family=family, description=description,
            cheap=cheap, fn=fn, codes=codes,
        )
        return fn

    return decorate


def get_pass(name: str) -> AnalysisPass:
    return _REGISTRY[name]


def iter_passes(families: Optional[Iterable[str]] = None, *,
                cheap_only: bool = False) -> Iterator[AnalysisPass]:
    """Registered passes, filtered by family and cost class."""
    wanted = set(families) if families is not None else set(FAMILIES)
    for name in sorted(_REGISTRY):
        p = _REGISTRY[name]
        if p.family not in wanted:
            continue
        if cheap_only and not p.cheap:
            continue
        yield p


def self_check() -> Dict[str, object]:
    """Validate the registry's internal consistency; raise on violation.

    Checks, in order:

    * every registered pass belongs to a known family;
    * every declared finding code is well-formed and claimed by exactly
      one owner (pass-declared codes must match the claim table);
    * no two passes share a finding code.

    Returns a small summary (pass/code counts) for reporting.
    """
    for p in _REGISTRY.values():
        if p.family not in FAMILIES:
            raise ConfigurationError(
                f"pass {p.name!r} has unknown family {p.family!r}"
            )
        for code in p.codes:
            if not _CODE_RE.match(code):
                raise ConfigurationError(
                    f"pass {p.name!r} declares malformed code {code!r}"
                )
            owner = _CODE_OWNERS.get(code)
            if owner != p.name:
                raise ConfigurationError(
                    f"pass {p.name!r} declares code {code!r} but the "
                    f"claim table says it belongs to {owner!r}"
                )
    return {
        "passes": len(_REGISTRY),
        "claimed_codes": len(_CODE_OWNERS),
        "families": sorted({p.family for p in _REGISTRY.values()}),
    }
