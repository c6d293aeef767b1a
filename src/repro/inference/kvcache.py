"""KV-cache accounting: owner-tagged reservations in the memory pools.

The cache is a fixed byte *budget* carved out of each tensor-parallel
rank's device :class:`~repro.hardware.devices.MemoryPool` and handed
out to requests as owner-tagged labels (``{tag}kv/{request}``), so

* every resident request is visible in ``usage_by_label()`` exactly
  like a training run's parameter/gradient labels,
* the runtime leak sanitizer's pool audit (``RES007``) catches any
  request whose reservation outlives the run, and
* on the shared cluster fabric, the pools' byte conservation holds
  across concurrent train + inference jobs.

**Budget + slack.**  The unreserved remainder of the budget is held in
the pools under a ``{tag}kv/slack`` label, so the pool's *footprint* is
the full budget for the whole run: a co-scheduled job can never grab
bytes the server will need mid-decode (admission over-commit), and
reserve/release resize the slack label rather than changing the pool
total.  ``close()`` returns the slack and fails loudly if any request
label is still live.

**Reservation policy.**  A request reserves KV for its *full* context
(prompt + maximum output) at admission — the conservative vLLM-style
"reserve max" policy.  No reservation ever needs to grow mid-flight,
so a decode step can never hit OOM; the cost is admission pessimism,
which the report surfaces as ``kv_peak_bytes`` vs the budget.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import ConfigurationError
from ..hardware.devices import MemoryPool

SLACK = "kv/slack"


class KvCache:
    """Per-request KV reservations over one serving instance's pools."""

    def __init__(self, pools: Sequence[MemoryPool], *,
                 budget_per_rank: float, bytes_per_token_per_rank: float,
                 tag: str = "") -> None:
        if not pools:
            raise ConfigurationError("KvCache needs at least one pool")
        if budget_per_rank <= 0:
            raise ConfigurationError("KV budget must be positive")
        if bytes_per_token_per_rank <= 0:
            raise ConfigurationError("KV bytes per token must be positive")
        self.pools = list(pools)
        self.budget_per_rank = float(budget_per_rank)
        self.bytes_per_token_per_rank = float(bytes_per_token_per_rank)
        self.tag = tag
        self._tokens: Dict[str, int] = {}
        self._reserved_per_rank = 0.0
        self.peak_reserved_per_rank = 0.0
        for pool in self.pools:
            pool.allocate(self._label(SLACK), self.budget_per_rank)

    def _label(self, name: str) -> str:
        return f"{self.tag}{name}"

    # -- accounting ------------------------------------------------------------
    @property
    def resident_requests(self) -> List[str]:
        return sorted(self._tokens)

    def bytes_for_tokens(self, tokens: int) -> float:
        """Per-rank reservation a ``tokens``-long context costs."""
        return tokens * self.bytes_per_token_per_rank

    def fits(self, tokens: int) -> bool:
        """Admission pre-check: would a ``tokens`` reservation fit?"""
        needed = self.bytes_for_tokens(tokens)
        return self._reserved_per_rank + needed <= self.budget_per_rank + 1e-6

    # -- reservations ----------------------------------------------------------
    def reserve(self, owner: str, tokens: int) -> None:
        """Reserve ``tokens`` of KV for ``owner`` on every rank."""
        if owner in self._tokens:
            raise ConfigurationError(
                f"request {owner!r} already holds a KV reservation"
            )
        if not self.fits(tokens):
            raise ConfigurationError(
                f"KV admission violated: {owner!r} needs "
                f"{self.bytes_for_tokens(tokens):.0f} B/rank but only "
                f"{self.budget_per_rank - self._reserved_per_rank:.0f} B "
                f"of the budget is free (call fits() before reserve())"
            )
        needed = self.bytes_for_tokens(tokens)
        for pool in self.pools:
            # Shrink slack first so the pool never exceeds its budget
            # footprint, then tag the bytes with their owner.
            pool.free(self._label(SLACK))
            pool.allocate(
                self._label(SLACK),
                max(0.0, self.budget_per_rank
                    - self._reserved_per_rank - needed))
            pool.allocate(self._label(f"kv/{owner}"), needed)
        self._tokens[owner] = tokens
        self._reserved_per_rank += needed
        self.peak_reserved_per_rank = max(self.peak_reserved_per_rank,
                                          self._reserved_per_rank)

    def release(self, owner: str) -> None:
        """Return ``owner``'s reservation to the slack on every rank."""
        tokens = self._tokens.pop(owner, None)
        if tokens is None:
            raise ConfigurationError(
                f"request {owner!r} holds no KV reservation"
            )
        freed = self.bytes_for_tokens(tokens)
        self._reserved_per_rank -= freed
        for pool in self.pools:
            pool.free(self._label(f"kv/{owner}"))
            pool.free(self._label(SLACK))
            pool.allocate(
                self._label(SLACK),
                max(0.0, self.budget_per_rank - self._reserved_per_rank))

    def close(self) -> None:
        """Tear down the budget; every request must have released."""
        if self._tokens:
            raise ConfigurationError(
                f"KV cache closed with live reservations: "
                f"{sorted(self._tokens)}"
            )
        for pool in self.pools:
            pool.free(self._label(SLACK))
