"""Inference serving on the training repo's fabric model.

The paper characterizes training bandwidth; this package serves the
same GPT-2-like models on the same simulated hardware — prefill/decode
cost models over the :class:`~repro.runtime.kernels.GpuComputeModel`
roofline, tensor-parallel all-reduces through the real collectives
layer, KV-cache accounting as owner-tagged
:class:`~repro.hardware.devices.MemoryPool` reservations, and a
continuous-batching scheduler driven by seeded open-loop request
arrivals.  The public entry points::

    from repro.inference import InferenceSpec, run_inference

    run = run_inference(InferenceSpec(size_billions=1.4, gpus=4))
    print(run.report.ttft_p99_s, run.report.goodput_requests_per_s)

:class:`InferenceSpec` shares :class:`repro.api.RunSpec`'s codec
(:class:`repro.api.spec.Spec`) under its own cache-key ``KIND``, so
serving runs slot into campaigns, the result cache and the cluster
daemon exactly like training runs; ``repro serve`` is the CLI.
"""

from .batching import RequestRecord, ServingScheduler, ServingStats
from .costmodel import (
    PhaseCostModel,
    decode_flops,
    kv_bytes_per_token,
    prefill_flops,
    weight_bytes,
)
from .kvcache import KvCache
from .report import InferenceReport, build_report
from .requests import REQUEST_MIXES, Request, poisson_requests, trace_requests
from .service import InferenceRun, run_inference
from .spec import BATCHING_POLICIES, InferenceSpec

__all__ = [
    "BATCHING_POLICIES",
    "InferenceReport",
    "InferenceRun",
    "InferenceSpec",
    "KvCache",
    "PhaseCostModel",
    "REQUEST_MIXES",
    "Request",
    "RequestRecord",
    "ServingScheduler",
    "ServingStats",
    "build_report",
    "decode_flops",
    "kv_bytes_per_token",
    "poisson_requests",
    "prefill_flops",
    "run_inference",
    "trace_requests",
    "weight_bytes",
]
