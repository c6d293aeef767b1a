"""Canonical serializable inference workload: the :class:`InferenceSpec`.

The serving analog of :class:`repro.api.RunSpec`.  An ``InferenceSpec``
pins one tensor-parallel serving instance (model size, TP degree, node
count), its open-loop traffic (seeded Poisson parameters or an explicit
request trace), the batching policy and admission limits, and the
latency SLOs the report scores against.  Its codec and cache key come
from :class:`repro.api.spec.Spec` under ``KIND = "inference"``, so
campaigns sweep and cache serving runs exactly like training runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..api.spec import TIE_ORDERS, Spec
from ..errors import ConfigurationError
from .requests import REQUEST_MIXES, Request, poisson_requests, trace_requests

#: Batch-admission policies the serving scheduler implements.
#: ``continuous`` admits at every token-level step (Orca/vLLM-style
#: continuous batching); ``static`` drains the whole running batch
#: before admitting the next one (the classical serving baseline).
BATCHING_POLICIES = ("continuous", "static")


@dataclass(frozen=True)
class InferenceSpec(Spec):
    """One simulated serving run, as pure serializable data.

    Exactly one of ``size_billions`` / ``num_layers`` selects the model
    depth, mirroring ``RunSpec``.  ``gpus`` is the tensor-parallel
    degree of the single serving instance; with ``nodes > 1`` the TP
    all-reduces cross the NIC exactly like training collectives.
    ``arrivals`` selects the traffic profile: ``"poisson"`` generates
    ``num_requests`` seeded arrivals at ``rate_per_second`` from
    ``request_mix``; ``"trace"`` replays ``trace_requests`` verbatim.
    """

    KIND = "inference"

    size_billions: Optional[float] = None
    num_layers: Optional[int] = None
    gpus: int = 4
    nodes: int = 1
    #: open-loop traffic
    arrivals: str = "poisson"
    rate_per_second: float = 4.0
    num_requests: int = 32
    arrival_seed: int = 7
    request_mix: str = "chat"
    trace_requests: Tuple[Dict[str, object], ...] = ()
    #: batching / admission
    batching: str = "continuous"
    max_batch_tokens: int = 8192
    max_batch_requests: int = 16
    #: fraction of post-weights free device memory given to the KV budget
    kv_fraction: float = 0.9
    #: latency SLOs the report scores attainment against
    slo_ttft_s: float = 1.0
    slo_tpot_s: float = 0.2
    precision_bytes: int = 2
    #: determinism / observability hooks (same semantics as RunSpec)
    tie_order: str = "fifo"
    tie_seed: int = 7
    trace: bool = False
    leak_check: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.size_billions is None) == (self.num_layers is None):
            raise ConfigurationError(
                "InferenceSpec needs exactly one of size_billions / num_layers"
            )
        if self.size_billions is not None and self.size_billions <= 0:
            raise ConfigurationError("size_billions must be positive")
        if self.num_layers is not None and self.num_layers < 1:
            raise ConfigurationError("num_layers must be >= 1")
        if self.gpus < 1:
            raise ConfigurationError("gpus (tensor-parallel degree) must be >= 1")
        if self.nodes < 1:
            raise ConfigurationError("nodes must be >= 1")
        if self.arrivals not in ("poisson", "trace"):
            raise ConfigurationError(
                f"unknown arrival profile {self.arrivals!r} "
                f"(expected 'poisson' or 'trace')"
            )
        if self.arrivals == "poisson":
            if self.rate_per_second <= 0:
                raise ConfigurationError("rate_per_second must be positive")
            if self.num_requests < 1:
                raise ConfigurationError("num_requests must be >= 1")
            if self.request_mix not in REQUEST_MIXES:
                raise ConfigurationError(
                    f"unknown request mix {self.request_mix!r}; "
                    f"known: {sorted(REQUEST_MIXES)}"
                )
        elif not self.trace_requests:
            raise ConfigurationError(
                "trace arrivals need at least one trace_requests entry"
            )
        if self.batching not in BATCHING_POLICIES:
            raise ConfigurationError(
                f"unknown batching policy {self.batching!r} "
                f"(expected one of {BATCHING_POLICIES})"
            )
        if self.max_batch_tokens < 1:
            raise ConfigurationError("max_batch_tokens must be >= 1")
        if self.max_batch_requests < 1:
            raise ConfigurationError("max_batch_requests must be >= 1")
        if not 0 < self.kv_fraction <= 1:
            raise ConfigurationError("kv_fraction must be in (0, 1]")
        if self.slo_ttft_s <= 0 or self.slo_tpot_s <= 0:
            raise ConfigurationError("SLO targets must be positive")
        if self.precision_bytes not in (2, 4):
            raise ConfigurationError("precision must be fp16 (2) or fp32 (4)")
        if self.tie_order not in TIE_ORDERS:
            raise ConfigurationError(
                f"unknown tie order {self.tie_order!r} "
                f"(expected one of {TIE_ORDERS})"
            )

    def expand_requests(self) -> List[Request]:
        """The spec's concrete request stream, deterministically.

        Also enforces the liveness invariant the scheduler relies on:
        every request must fit an *empty* batch (token budget), or it
        could never be admitted and the run would never terminate.
        """
        if self.arrivals == "poisson":
            stream = poisson_requests(
                self.rate_per_second, self.num_requests,
                seed=self.arrival_seed, mix=self.request_mix)
        else:
            stream = trace_requests(self.trace_requests)
        for request in stream:
            if request.total_tokens > self.max_batch_tokens:
                raise ConfigurationError(
                    f"request {request.name!r} needs {request.total_tokens} "
                    f"batch tokens but max_batch_tokens is "
                    f"{self.max_batch_tokens}; it could never be admitted"
                )
        return stream

    @property
    def label(self) -> str:
        """A short human-readable identity, used for job ids."""
        size = (f"{self.size_billions:g}b" if self.size_billions is not None
                else f"{self.num_layers}l")
        traffic = (f"p{self.rate_per_second:g}x{self.num_requests}"
                   if self.arrivals == "poisson"
                   else f"t{len(self.trace_requests)}")
        return (f"infer-{size}-tp{self.gpus}-n{self.nodes}"
                f"-{self.batching}-{traffic}")

    def run(self):
        """Simulate this spec (see :func:`repro.inference.run_inference`)."""
        from .service import run_inference

        return run_inference(self)
