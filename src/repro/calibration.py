"""Calibration constants tying the simulator to the paper's testbed.

Everything the analytic hardware model cannot derive from first principles
is concentrated here, each entry annotated with the paper observation it
is calibrated against.  The calibration is deliberately coarse — the goal
is to reproduce the *shape* of every result (who wins, by what rough
factor, where crossovers fall), not testbed-exact numbers.

Two kinds of constants:

* **Throughput** — the attained fraction of A100 Tensor-Core peak for each
  strategy's GEMM mix (DeepSpeed/Megatron kernels differ in fusion and
  GEMM shapes), plus fixed per-iteration host overhead.
* **Memory** — framework buffer allocations (NCCL channels, DeepSpeed
  bucket buffers, Megatron pipeline/logit buffers) that determine where
  the max-model-size search lands (Fig. 6).  These are reverse-engineered
  from the published achieved sizes and documented per entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .units import GB


@dataclass(frozen=True)
class StrategyCalibration:
    """Per-strategy throughput/memory constants."""

    #: Attained fraction of FP16 Tensor-Core peak during compute phases.
    gemm_efficiency: float
    #: Fixed per-iteration host-side overhead (launches, python, profiler).
    fixed_overhead_s: float
    #: GPU-resident framework buffers, independent of model size.
    gpu_buffer_bytes: float
    #: GPU-resident buffers that scale inversely with data-parallel degree
    #: (partition-sized communication buckets).
    gpu_buffer_bytes_per_dp: float = 0.0
    #: NCCL's attained fraction of stress-test RoCE bandwidth for this
    #: strategy's collective mix.  Large pipelined all-reduces (Megatron)
    #: sustain a higher fraction than bucketed bursty partition traffic
    #: (DDP buckets, ZeRO's reduce/gather paths in DeepSpeed 0.7.1).
    #: Calibrated per strategy against the paper's dual-node Fig. 7-b.
    internode_efficiency: float = 0.35


#: PyTorch DDP with AMP.  Efficiency calibrated to Fig. 7-a's 438 TFLOP/s;
#: buffers cover the DDP reducer's bucket pool.
DDP = StrategyCalibration(
    gemm_efficiency=0.42,
    fixed_overhead_s=0.040,
    gpu_buffer_bytes=2.0 * GB,
    internode_efficiency=0.42,
)

#: Extra GPU bytes per parameter DDP/AMP holds beyond the 16 B mixed-
#: precision states: fp32 gradient working copies (+4 B) and the reducer's
#: flattened fp16 bucket mirror (+2 B).  Calibrated so 1.4 B fits and the
#: grid's next size (2.9 B) does not (Fig. 6-a).
DDP_EXTRA_BYTES_PER_PARAM = 6.0

#: Megatron-LM TP+PP.  Efficiency reflects TP-sharded (narrower) GEMMs;
#: the pipeline bubble is modelled structurally by the schedule.  Buffers:
#: fp32 vocab-parallel logits for in-flight micro-batches, TP all-reduce
#: workspaces, and pipeline send/recv buffers — calibrated so 5.5 B fits a
#: single node and 11.4 B fits two (Fig. 6).
MEGATRON = StrategyCalibration(
    gemm_efficiency=0.39,
    fixed_overhead_s=0.040,
    gpu_buffer_bytes=10.5 * GB,
    gpu_buffer_bytes_per_dp=0.0,
    internode_efficiency=0.64,
)
#: Megatron per-model-parallel-rank buffer term (vocab-parallel logits
#: shrink as mp grows): bytes added = MEGATRON_BUFFER_PER_MP / mp_degree.
MEGATRON_BUFFER_PER_MP = 8.0 * GB
#: Pipeline bubble: fraction of compute time lost to fill/drain with the
#: paper's m = mp in-flight micro-batches (Fig. 5 shows four forward/
#: backward pairs on four GPUs).
MEGATRON_BUBBLE_FRACTION = 0.25

#: DeepSpeed ZeRO stages.  Efficiencies calibrated to Fig. 7-a
#: (391 / 524 / 381 TFLOP/s); buffer terms to the Fig. 6 size boundaries.
ZERO1 = StrategyCalibration(
    gemm_efficiency=0.36,
    fixed_overhead_s=0.040,
    gpu_buffer_bytes=0.3 * GB,
    gpu_buffer_bytes_per_dp=3.2 * GB,   # updated-parameter all-gather bucket
    internode_efficiency=0.28,
)
ZERO2 = StrategyCalibration(
    gemm_efficiency=0.47,
    fixed_overhead_s=0.040,
    gpu_buffer_bytes=0.3 * GB,
    gpu_buffer_bytes_per_dp=28.0 * GB,  # reduce bucket + fp32 partition staging
    internode_efficiency=0.20,
)
ZERO3 = StrategyCalibration(
    gemm_efficiency=0.36,
    fixed_overhead_s=0.040,
    gpu_buffer_bytes=6.0 * GB,          # gathered-parameter working set + prefetch
    gpu_buffer_bytes_per_dp=0.0,
    internode_efficiency=0.45,
)

#: ZeRO-Offload / ZeRO-Infinity variants inherit their base stage's GEMM
#: efficiency; offload data movement is modelled physically.  The paper's
#: offloaded runs keep more GPU memory free for buffers, so the search
#: uses the same buffer constants as the base stage.
OFFLOAD_FIXED_OVERHEAD_S = 0.060

#: GPU-resident buffer pool when model states are offloaded: DeepSpeed
#: shrinks its buckets and keeps pinned staging slabs instead (calibrated
#: so ZeRO-2 (CPU) fits 14.2 B on one node but not the grid's 20.6 B,
#: Fig. 13-a).
OFFLOAD_GPU_BUFFER_BYTES = 4.0 * GB

#: Fraction of the socket's streaming DRAM bandwidth DeepSpeed's AVX CPU
#: Adam attains while two ranks share one socket.  Well below 1: the
#: paper observes the offload engine is NUMA-unaware ("the offloading
#: mechanism may not take into account the topology of the platform",
#: Section V-A3), so optimizer streams cross NUMA domains and the xGMI
#: link instead of staying channel-local.  Calibrated to Fig. 11-a's
#: 191 TFLOP/s for ZeRO-2 (CPU) at 11.4 B parameters.
CPU_ADAM_SHARE_EFFICIENCY = 0.40

#: Fraction of a socket's DRAM the kernel allows as page-locked (pinned)
#: allocations for DeepSpeed's aio staging.  This — not total DRAM — is
#: what stops ZeRO-Infinity's model growth on the paper's nodes
#: (calibrated so the single-node maximum lands at ~33 B parameters,
#: Fig. 13-a).
PINNED_MEMORY_FRACTION = 0.68

#: Memory-plan labels that count against the pinned ceiling.
PINNED_LABELS = frozenset({"pinned_buffers", "nvme_staging", "param_staging"})

#: Host-DRAM bytes DeepSpeed pins per offloaded parameter beyond the fp32
#: optimizer partition itself: fp32 gradient staging + double buffers for
#: overlapping PCIe traffic (paper Section V-A2 explains the 39.5 % extra
#: total memory vs. Megatron as "double buffers").
CPU_OFFLOAD_PINNED_BYTES_PER_PARAM = 12.0

#: NVMe swap traffic per parameter per iteration with optimizer offload:
#: the fp32 optimizer partition is read and written back each step, but
#: DeepSpeed's swapper holds a slice pinned in host DRAM, so the observed
#: media traffic is ~half of the naive 24 B (calibrated to Table VI's
#: PCIe-NVME averages and Fig. 11-a throughputs).
NVME_SWAP_READ_BYTES_PER_PARAM = 6.0
NVME_SWAP_WRITE_BYTES_PER_PARAM = 6.0
#: Additional NVMe traffic per parameter with parameter offload (fp16
#: weights in for forward and backward, updated weights out).
NVME_PARAM_READ_BYTES_PER_PARAM = 4.0
NVME_PARAM_WRITE_BYTES_PER_PARAM = 2.0
#: ZeRO-Infinity's host staging tier is a pool of *fixed-size* pinned aio
#: buffers, not proportional to the model: the paper's host usage grows
#: only ~5 B/param between its 11.4 B and 33.3 B runs while staging stays
#: ~constant (Figs. 11-b and 13-c).  Slab sizes calibrated to 317 GB
#: (optimizer-only) and 488 GB (optimizer+parameter) host usage at 11.4 B.
NVME_STAGING_SLAB_BYTES = 63.0 * GB      # per rank, optimizer swapper
NVME_PARAM_STAGING_SLAB_BYTES = 43.0 * GB  # per rank, parameter swapper
NVME_MEDIA_OVERPROVISION = 1.15  # swap-file slack on the volume

#: Host background activity visible in the paper's counters even when all
#: model states live on GPU (Section IV-E1 reports 1.5-3.5 GB/s DRAM and
#: sub-GB/s xGMI averages): data-loader workers, pinned-buffer refills,
#: NCCL host proxies, and OS noise.  Charged per socket / per node for
#: the duration of the run.
HOST_BACKGROUND_DRAM_BYTES_PER_S = 1.1e9   # per socket
HOST_BACKGROUND_XGMI_BYTES_PER_S = 0.20e9  # per node
#: Input-batch staging traffic per rank per iteration (token ids plus the
#: pinned-memory bounce buffer), visible on the PCIe-GPU roots.
INPUT_STAGING_BYTES_PER_ITERATION = 100e6

#: Baseline host memory per node unrelated to model states: OS, CUDA/NCCL
#: runtime, dataset cache (paper Section IV-D: 18-25 GB per node).
HOST_BASE_BYTES_PER_NODE = 20.0 * GB

#: Efficiency of DeepSpeed's async-IO (aio) layer relative to raw media
#: bandwidth (queue management, alignment, pinned-buffer copies).
AIO_EFFICIENCY = 0.85

