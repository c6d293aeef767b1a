"""Prefill/decode phase cost models on the training repo's hardware.

Inference reuses the exact accounting the training side already has —
:mod:`repro.model.flops`'s 2mkn GEMM convention, the
:class:`~repro.runtime.kernels.GpuComputeModel` roofline, and the
collectives layer for tensor-parallel all-reduces — it just evaluates
them at serving shapes:

*Prefill* processes the whole prompt in one pass, so it looks like a
training forward at batch 1 / sequence ``prompt_tokens`` with a
one-token LM head (only the last position's logits are sampled).
Compute-bound: big GEMMs at good efficiency.

*Decode* generates one token per step against the KV cache, so its
GEMMs are matrix-vector products and the step is memory-bound — every
step must stream the (tensor-parallel shard of the) weights plus the
active requests' K/V blocks through HBM.  The step time is the roofline
max of the GEMM time and that stream time, which is why continuous
batching pays: more requests per step amortizes the same weight read.

Tensor parallelism divides both FLOPs and resident bytes by the TP
degree and adds two all-reduces per layer (attention output + MLP
output) of the layer activation — the payload/launch-count shapes the
batching scheduler hands to :class:`~repro.collectives.nccl.
NcclCommunicator`.

A serving run evaluates a decode step once per generated token, so
:class:`PhaseCostModel` derives what is fixed per instance — its
compute model, the per-rank weight and KV bytes, and the two terms of
the decode FLOPs — once, on first use, and caches it.  Decode FLOPs
are a per-request constant plus a per-context-token coefficient; both
are Python ints, so a batch's ``n·fixed + coefficient·Σcontext`` is its
per-request sum exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from ..errors import ConfigurationError
from ..hardware.gpu import GpuSpec
from ..model.config import ModelConfig
from ..runtime.kernels import GpuComputeModel
from ..units import Bytes, Flops, Seconds

#: Serving GEMM efficiency (fraction of peak FP16).  Prefill GEMMs are
#: large and dense like training forwards, but serving runs without the
#: backward pass's long accumulation chains, so we sit between the DDP
#: training calibration (0.42) and the theoretical ceiling.
SERVING_GEMM_EFFICIENCY = 0.50

#: All-reduces per transformer layer under tensor parallelism
#: (Megatron-style: one after attention output, one after the MLP).
TP_ALL_REDUCES_PER_LAYER = 2


def prefill_flops(config: ModelConfig, prompt_tokens: int) -> Flops:
    """Forward FLOPs to prefill one prompt of ``prompt_tokens``.

    Same per-component accounting as :func:`repro.model.flops.
    forward_flops` at batch 1 and sequence length ``prompt_tokens``,
    except the LM head projects only the final position (serving samples
    one next token; it never needs logits for the whole prompt).
    """
    if prompt_tokens < 1:
        raise ConfigurationError("prompt_tokens must be >= 1")
    t = prompt_tokens
    h = config.hidden_size
    ffn = config.ffn_hidden
    L = config.num_layers
    attention_gemm = L * (2 * t * h * (3 * h) + 2 * t * h * h)
    attention_scores = L * 2 * (2 * config.num_heads * t * t * config.head_dim)
    mlp = L * (2 * t * h * ffn + 2 * t * ffn * h)
    lm_head = 2 * h * config.vocab_size
    return attention_gemm + attention_scores + mlp + lm_head


def _decode_flop_terms(config: ModelConfig) -> Tuple[Flops, Flops]:
    """``(fixed, per_context_token)``: decoding one token against ``c``
    tokens of KV costs ``fixed + per_context_token * c`` FLOPs.

    The new token's Q/K/V and MLP GEMMs are matrix-vector products
    (sequence length 1) and, with the LM head, do not depend on the
    context; attention scores read the whole cached context.
    """
    h = config.hidden_size
    ffn = config.ffn_hidden
    L = config.num_layers
    attention_gemm = L * (2 * h * (3 * h) + 2 * h * h)
    mlp = L * (2 * h * ffn + 2 * ffn * h)
    lm_head = 2 * h * config.vocab_size
    attention_scores = L * 2 * 2 * config.num_heads * config.head_dim
    return attention_gemm + mlp + lm_head, attention_scores


def decode_flops(config: ModelConfig, context_tokens: int) -> Flops:
    """Forward FLOPs to decode one token against ``context_tokens`` of KV."""
    if context_tokens < 1:
        raise ConfigurationError("context_tokens must be >= 1")
    fixed, per_context_token = _decode_flop_terms(config)
    return fixed + per_context_token * context_tokens


def kv_bytes_per_token(config: ModelConfig, precision_bytes: int) -> Bytes:
    """K and V cache bytes one token occupies across all layers."""
    return 2 * config.num_layers * config.hidden_size * precision_bytes


def weight_bytes(config: ModelConfig, precision_bytes: int) -> Bytes:
    """Resident parameter bytes for serving (no optimizer state).

    Per layer: 4h² attention (QKV + output projection) + 2·h·ffn MLP;
    plus the (tied) token embedding.
    """
    h = config.hidden_size
    per_layer = 4 * h * h + 2 * h * config.ffn_hidden
    embeddings = config.vocab_size * h
    if not config.tied_embeddings:
        embeddings *= 2
    return (config.num_layers * per_layer + embeddings) * precision_bytes


@dataclass(frozen=True)
class PhaseCostModel:
    """Per-phase timing for one tensor-parallel serving instance."""

    config: ModelConfig
    gpu: GpuSpec
    tensor_parallel: int
    precision_bytes: int = 2
    gemm_efficiency: float = SERVING_GEMM_EFFICIENCY

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1:
            raise ConfigurationError("tensor_parallel must be >= 1")

    @cached_property
    def compute(self) -> GpuComputeModel:
        return GpuComputeModel(self.gpu, self.gemm_efficiency)

    @cached_property
    def kv_token_bytes(self) -> Bytes:
        return kv_bytes_per_token(self.config, self.precision_bytes)

    @cached_property
    def kv_token_bytes_per_rank(self) -> Bytes:
        """KV bytes per token on each TP rank (heads are sharded)."""
        return self.kv_token_bytes / self.tensor_parallel

    @cached_property
    def weight_bytes_per_rank(self) -> Bytes:
        return weight_bytes(self.config, self.precision_bytes) / self.tensor_parallel

    @cached_property
    def decode_flop_terms(self) -> Tuple[Flops, Flops]:
        """``(fixed, per_context_token)``: the two terms of
        :func:`decode_flops`."""
        return _decode_flop_terms(self.config)

    def prefill_time(self, prompt_tokens: int) -> Seconds:
        """Compute seconds to prefill one prompt (TP-sharded, no comm)."""
        flops = prefill_flops(self.config, prompt_tokens)
        return self.compute.gemm_time(flops / self.tensor_parallel)

    def decode_step_time(self, context_tokens_per_request: "list[int]") -> Seconds:
        """Compute seconds for one batched decode step (no comm).

        Roofline: the GEMM time for every request's token, against the
        HBM time to stream the weight shard once plus each request's KV
        shard — the batched-decode memory wall.
        """
        contexts = context_tokens_per_request
        if not contexts:
            return 0.0
        if min(contexts) < 1:
            raise ConfigurationError("context_tokens must be >= 1")
        fixed, per_context_token = self.decode_flop_terms
        flops = len(contexts) * fixed + per_context_token * sum(contexts)
        gemm = self.compute.gemm_time(flops / self.tensor_parallel)
        per_token = self.kv_token_bytes_per_rank
        streamed = self.weight_bytes_per_rank + sum(
            context * per_token for context in contexts)
        return max(gemm, self.compute.memory_bound_time(streamed))

    def activation_payload(self, tokens: int) -> Bytes:
        """All-reduce payload for ``tokens`` positions of activations."""
        return tokens * self.config.hidden_size * self.precision_bytes

    @cached_property
    def all_reduces_per_pass(self) -> int:
        """Real NCCL launches one forward pass issues under TP."""
        return TP_ALL_REDUCES_PER_LAYER * self.config.num_layers
