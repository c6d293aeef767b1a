"""Trace data model: span types, counter tracks, native JSON schema."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.runtime.kernels import KernelKind
from repro.trace.model import (
    TRACE_SCHEMA,
    CollectiveSpan,
    CounterTrack,
    FaultSpan,
    FlowSpan,
    Lane,
    LinkAccount,
    Span,
    Trace,
)


@pytest.fixture()
def trace():
    return Trace(
        meta={"strategy": "ddp", "total_time": 1.0, "iterations": 2},
        spans=[
            Span(0, Lane.COMPUTE, KernelKind.GEMM, "fwd", 0.0, 0.5),
            Span(0, Lane.COMMUNICATION, KernelKind.NCCL_ALL_REDUCE,
                 "ar", 0.4, 0.7),
            Span(1, Lane.COMPUTE, KernelKind.OPTIMIZER, "adam", 0.5, 1.0),
        ],
        collectives=[
            CollectiveSpan("dp", 0, "all_reduce", 1024.0, 2, (0, 1),
                           0.4, 0.7),
        ],
        flows=[
            FlowSpan(7, "grad", "node0.gpu0", "node0.gpu1",
                     ("node0.nvlink.gpu0-gpu1",), 4096.0, 0.4, 0.6),
        ],
        faults=[FaultSpan("down", "node0.nic0", 0.0, 0.2, 0.3)],
        links=[LinkAccount("node0.nvlink.gpu0-gpu1", "nvlink", 4096.0, 1,
                           degraded=((0.2, 0.3),))],
        counters=[CounterTrack("link:node0.nvlink.gpu0-gpu1", "bytes/s",
                               0.0, 0.25, (0.0, 16384.0, 0.0, 0.0))],
    )


class TestLane:
    def test_values_are_stable(self):
        assert int(Lane.COMPUTE) == 0
        assert int(Lane.COMMUNICATION) == 1
        assert int(Lane.HOST_IO) == 2

    def test_str_is_lowercase_name(self):
        assert str(Lane.HOST_IO) == "host_io"

    def test_round_trip_through_str(self):
        for lane in Lane:
            assert Lane[str(lane).upper()] is lane


class TestSpanTypes:
    def test_span_duration(self):
        span = Span(0, Lane.COMPUTE, KernelKind.GEMM, "fwd", 0.25, 0.75)
        assert span.duration == pytest.approx(0.5)

    def test_span_round_trip(self):
        span = Span(3, Lane.HOST_IO, KernelKind.NVME_IO, "swap", 1.5, 2.0)
        again = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert again == span
        assert again.lane is Lane.HOST_IO
        assert again.kind is KernelKind.NVME_IO

    def test_collective_round_trip(self):
        coll = CollectiveSpan("dp", 2, "all_gather", 8.5, 4, (0, 1, 2, 3),
                              0.1, 0.2)
        again = CollectiveSpan.from_dict(
            json.loads(json.dumps(coll.to_dict()))
        )
        assert again == coll
        assert again.ranks == (0, 1, 2, 3)

    def test_flow_round_trip_keeps_completed_flag(self):
        flow = FlowSpan(9, "", "a", "b", ("l1", "l2"), 10.0, 0.0, 1.0,
                        completed=False)
        again = FlowSpan.from_dict(json.loads(json.dumps(flow.to_dict())))
        assert again == flow
        assert again.completed is False

    def test_flow_completed_defaults_true(self):
        assert FlowSpan.from_dict({
            "id": 1, "label": "x", "src": "a", "dst": "b", "links": [],
            "bytes": 1.0, "start": 0.0, "end": 1.0,
        }).completed is True

    def test_fault_round_trip(self):
        fault = FaultSpan("degrade", "node0.roce0", 0.5, 1.0, 2.0)
        again = FaultSpan.from_dict(json.loads(json.dumps(fault.to_dict())))
        assert again == fault
        assert again.duration == pytest.approx(1.0)

    def test_link_account_round_trip(self):
        account = LinkAccount("l", "roce", 123.0, 4, ((0.0, 0.5),))
        again = LinkAccount.from_dict(
            json.loads(json.dumps(account.to_dict()))
        )
        assert again == account


#: one of each per-event record, with every non-default flag set
RECORDS = [
    Span(0, Lane.COMPUTE, KernelKind.GEMM, "fwd", 0.25, 0.75,
         synthetic=True),
    CollectiveSpan("dp", 1, "all_gather", 8.5, 4, (0, 1, 2, 3), 0.1, 0.35,
                   synthetic=True),
    FlowSpan(9, "grad", "a", "b", ("l1", "l2"), 10.0, 0.5, 1.5,
             completed=False, synthetic=True),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
class TestRecordContract:
    """Span, CollectiveSpan and FlowSpan are immutable, hashable value
    records whose serialized form keeps every field."""

    def test_assignment_raises(self, record):
        with pytest.raises(AttributeError):
            record.start = 0.0
        with pytest.raises(AttributeError):
            record.synthetic = False

    def test_hashable_by_value(self, record):
        twin = type(record)(*record)
        assert twin == record and hash(twin) == hash(record)
        assert len({record, twin}) == 1

    def test_duration(self, record):
        assert record.duration == record.end - record.start

    def test_round_trip_keeps_flags(self, record):
        again = type(record).from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert again == record
        assert again.synthetic is True
        assert getattr(again, "completed", False) is False

    def test_replace_copies_and_cleared_flag_is_omitted(self, record):
        plain = record._replace(synthetic=False)
        assert "synthetic" not in plain.to_dict()
        assert type(record).from_dict(plain.to_dict()).synthetic is False
        assert record.synthetic is True


def test_record_flag_defaults():
    """Records built without their flags are simulated and, for flows,
    completed."""
    span = Span(0, Lane.COMPUTE, KernelKind.GEMM, "fwd", 0.0, 1.0)
    collective = CollectiveSpan("dp", 0, "all_reduce", 1.0, 1, (0, 1),
                                0.0, 1.0)
    flow = FlowSpan(1, "", "a", "b", ("l1",), 1.0, 0.0, 1.0)
    assert span.synthetic is False and collective.synthetic is False
    assert flow.completed is True and flow.synthetic is False


class TestCounterTrack:
    def test_rejects_non_positive_period(self):
        with pytest.raises(ConfigurationError):
            CounterTrack("c", "bytes/s", 0.0, 0.0, (1.0,))
        with pytest.raises(ConfigurationError):
            CounterTrack("c", "bytes/s", 0.0, -1.0, (1.0,))

    def test_end_and_integral(self):
        track = CounterTrack("c", "bytes/s", 1.0, 0.5, (2.0, 4.0, 6.0))
        assert track.end == pytest.approx(2.5)
        assert track.integral() == pytest.approx(6.0)

    def test_round_trip(self):
        track = CounterTrack("c", "bytes", 0.0, 0.1, (1.0, 2.0))
        again = CounterTrack.from_dict(
            json.loads(json.dumps(track.to_dict()))
        )
        assert again == track


class TestTraceQueries:
    def test_ranks(self, trace):
        assert trace.ranks == [0, 1]

    def test_span_bounds(self, trace):
        assert trace.span_bounds == (0.0, 1.0)
        assert Trace().span_bounds == (0.0, 0.0)

    def test_link_account_lookup(self, trace):
        assert trace.link_account("node0.nvlink.gpu0-gpu1").total_bytes \
            == 4096.0
        assert trace.link_account("nope") is None

    def test_counter_lookup(self, trace):
        assert trace.counter("link:node0.nvlink.gpu0-gpu1").unit == "bytes/s"
        assert trace.counter("nope") is None

    def test_per_link_bytes(self, trace):
        assert trace.per_link_bytes() == {"node0.nvlink.gpu0-gpu1": 4096.0}

    def test_flow_bytes_by_link_charges_every_traversed_link(self):
        trace = Trace(flows=[
            FlowSpan(1, "", "a", "c", ("l1", "l2"), 10.0, 0.0, 1.0),
            FlowSpan(2, "", "a", "b", ("l1",), 5.0, 0.0, 1.0),
        ])
        assert trace.flow_bytes_by_link() == {"l1": 15.0, "l2": 10.0}


class TestTraceSerialization:
    def test_round_trip_is_lossless(self, trace):
        again = Trace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert again.meta == trace.meta
        assert again.spans == trace.spans
        assert again.collectives == trace.collectives
        assert again.flows == trace.flows
        assert again.faults == trace.faults
        assert again.links == trace.links
        assert again.counters == trace.counters

    def test_schema_tag_present(self, trace):
        assert trace.to_dict()["schema"] == TRACE_SCHEMA

    def test_unknown_schema_rejected(self, trace):
        data = trace.to_dict()
        data["schema"] = "repro-trace/999"
        with pytest.raises(ConfigurationError):
            Trace.from_dict(data)
        with pytest.raises(ConfigurationError):
            Trace.from_dict({})

    def test_empty_sections_tolerated(self):
        trace = Trace.from_dict({"schema": TRACE_SCHEMA})
        assert trace.spans == [] and trace.links == []
