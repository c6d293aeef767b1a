"""Property-based tests (hypothesis) on core data structures/invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.primitives import (
    CollectiveKind,
    ring_step_count,
    ring_traffic_factor,
)
from repro.core.runner import run_training
from repro.core.search import model_for_billions
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.hardware import single_node_cluster
from repro.hardware.link import BandwidthLedger
from repro.model.config import paper_model
from repro.model.params import layers_for_target_params, total_parameters
from repro.model.states import (
    OffloadTarget,
    ZeroStage,
    zero_states,
)
from repro.parallel import zero2
from repro.parallel.schedule import layer_chunks
from repro.sim.engine import Engine


# --- bandwidth ledger ---------------------------------------------------------
@given(
    records=st.lists(
        st.tuples(
            st.floats(0.0, 100.0),
            st.floats(0.001, 50.0),
            st.floats(1.0, 1e12),
        ),
        min_size=1, max_size=20,
    ),
    num_bins=st.integers(1, 64),
)
@settings(max_examples=60, deadline=None)
def test_ledger_sampling_conserves_bytes(records, num_bins):
    """Bytes inside the window equal the integral of the sampled series."""
    ledger = BandwidthLedger()
    window_end = 200.0
    for start, duration, num_bytes in records:
        ledger.record(start, start + duration, num_bytes)
    samples = ledger.sample(0.0, window_end, num_bins)
    bin_width = window_end / num_bins
    integral = sum(s * bin_width for s in samples)
    total = ledger.total_bytes
    assert integral == pytest.approx(total, rel=1e-6)


# --- ring collectives ---------------------------------------------------------
@given(n=st.integers(2, 1024))
@settings(max_examples=50, deadline=None)
def test_ring_factors_bounded(n):
    for kind in CollectiveKind:
        factor = ring_traffic_factor(kind, n)
        assert 0.0 < factor <= 2.0
        assert ring_step_count(kind, n) >= 1


@given(n=st.integers(2, 1024))
@settings(max_examples=50, deadline=None)
def test_all_reduce_equals_gather_plus_scatter(n):
    ar = ring_traffic_factor(CollectiveKind.ALL_REDUCE, n)
    ag = ring_traffic_factor(CollectiveKind.ALL_GATHER, n)
    rs = ring_traffic_factor(CollectiveKind.REDUCE_SCATTER, n)
    assert ar == pytest.approx(ag + rs)


# --- parameter counting ---------------------------------------------------------
@given(billions=st.floats(0.3, 50.0))
@settings(max_examples=50, deadline=None)
def test_layers_for_target_is_minimal(billions):
    target = billions * 1e9
    layers = layers_for_target_params(paper_model(1), target)
    assert total_parameters(paper_model(layers)) >= target
    if layers > 1:
        assert total_parameters(paper_model(layers - 1)) < target


# --- state partitioning ----------------------------------------------------------
@given(
    params=st.floats(1e6, 1e11),
    dp=st.integers(1, 64),
    stage=st.sampled_from([ZeroStage.OPTIMIZER, ZeroStage.GRADIENTS,
                           ZeroStage.PARAMETERS]),
)
@settings(max_examples=80, deadline=None)
def test_zero_partitioning_never_exceeds_replication(params, dp, stage):
    placement = zero_states(params, stage, dp)
    assert placement.gpu_total <= 16 * params * (1 + 1e-12)
    assert placement.gpu_total >= 16 * params / dp * (1 - 1e-12)


@given(
    params=st.floats(1e6, 1e11),
    dp=st.integers(1, 64),
)
@settings(max_examples=50, deadline=None)
def test_offload_moves_but_never_loses_optimizer_bytes(params, dp):
    on_gpu = zero_states(params, ZeroStage.PARAMETERS, dp)
    offloaded = zero_states(params, ZeroStage.PARAMETERS, dp,
                            optimizer_target=OffloadTarget.NVME)
    assert offloaded.nvme_optimizer == pytest.approx(on_gpu.gpu_optimizer)
    assert offloaded.gpu_optimizer == 0.0


# --- layer chunking -----------------------------------------------------------------
@given(layers=st.integers(1, 2000), max_chunks=st.integers(1, 128))
@settings(max_examples=100, deadline=None)
def test_layer_chunks_partition(layers, max_chunks):
    chunks = layer_chunks(layers, max_chunks)
    assert len(chunks) <= max_chunks
    assert sum(count for _, count in chunks) == layers
    cursor = 0
    for start, count in chunks:
        assert start == cursor
        assert count >= 1
        cursor += count


# --- engine ------------------------------------------------------------------------
@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_engine_fires_in_time_order(delays):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.schedule_at(delay, lambda d=delay: fired.append(d))
    engine.run()
    assert fired == sorted(fired)
    assert engine.now == pytest.approx(max(delays))


# --- fault injection --------------------------------------------------------
_FAULT_WINDOW = (0.05, 1.05)  # covers most of the 0.7B/2-iteration run


def _fault_run(plan):
    cluster = single_node_cluster()
    metrics = run_training(cluster, zero2(), model_for_billions(0.7),
                           iterations=2, fault_plan=plan)
    return cluster, metrics


_BASELINE_TIME = None


def _baseline_time():
    global _BASELINE_TIME
    if _BASELINE_TIME is None:
        _, metrics = _fault_run(None)
        _BASELINE_TIME = metrics.execution.total_time
    return _BASELINE_TIME


@given(
    magnitude=st.floats(0.0, 0.9),
    straggler=st.booleans(),
)
@settings(max_examples=5, deadline=None)
def test_faults_never_increase_throughput(magnitude, straggler):
    """A fault can only remove capacity, so runs never get faster."""
    start, end = _FAULT_WINDOW
    if straggler:
        event = FaultEvent(target="rank0", kind=FaultKind.GPU_STRAGGLER,
                           start=start, duration=end - start,
                           magnitude=magnitude)
    else:
        event = FaultEvent(target="node0/gpu0", kind=FaultKind.LINK_DEGRADE,
                           start=start, duration=end - start,
                           magnitude=magnitude)
    _, metrics = _fault_run(FaultPlan(events=[event]))
    assert metrics.execution.total_time >= _baseline_time() - 1e-9


@given(
    kind=st.sampled_from([FaultKind.LINK_DEGRADE, FaultKind.GPU_STRAGGLER,
                          FaultKind.NVME_SLOWDOWN]),
    start=st.floats(0.0, 10.0),
    duration=st.floats(1e-6, 10.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_zero_magnitude_plans_materialize_empty(kind, start, duration, seed):
    """mag=0 faults are no-ops by construction, not by near-cancellation."""
    plan = FaultPlan(events=[FaultEvent(
        target="node0/gpu0", kind=kind, start=start, duration=duration,
        magnitude=0.0,
    )], seed=seed)
    assert plan.materialize() == []


@given(loss=st.floats(0.3, 0.9))
@settings(max_examples=4, deadline=None)
def test_degraded_window_bounds_ledger_rates(loss):
    """No record fully inside a degraded window moves faster than the
    degraded capacity allows (small tolerance for flow-split rounding)."""
    start, end = _FAULT_WINDOW
    event = FaultEvent(target="node0/gpu0", kind=FaultKind.LINK_DEGRADE,
                       start=start, duration=end - start, magnitude=loss)
    cluster, _ = _fault_run(FaultPlan(events=[event]))
    checked = 0
    for link in cluster.topology.links_of_device("node0/gpu0"):
        degraded_capacity = link.base_capacity_per_direction * (1.0 - loss)
        for record in link.ledger:
            span = record.end - record.start
            if span <= 1e-9 or record.start < start or record.end > end:
                continue
            checked += 1
            assert record.num_bytes / span <= degraded_capacity * 1.05
    assert checked > 0  # the fault window did see traffic
