"""Link specs and the bandwidth ledger."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hardware.link import (
    BandwidthLedger,
    Link,
    LinkClass,
    LinkSpec,
    SERDES_CLASSES,
    TransferRecord,
    merge_intervals,
)


def make_spec(**overrides):
    base = dict(link_class=LinkClass.PCIE_GPU,
                bandwidth_per_direction=32e9, latency=1e-6,
                efficiency=0.9)
    base.update(overrides)
    return LinkSpec(**base)


class TestLinkSpec:
    def test_bidirectional_duplex(self):
        spec = make_spec()
        assert spec.bandwidth_bidirectional == pytest.approx(64e9)

    def test_bidirectional_half_duplex(self):
        spec = make_spec(duplex=False)
        assert spec.bandwidth_bidirectional == pytest.approx(32e9)

    def test_attainable_applies_efficiency(self):
        spec = make_spec(efficiency=0.5)
        assert spec.attainable_per_direction == pytest.approx(16e9)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            make_spec(bandwidth_per_direction=0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ConfigurationError):
            make_spec(efficiency=0.0)
        with pytest.raises(ConfigurationError):
            make_spec(efficiency=1.5)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            make_spec(latency=-1e-9)


class TestLink:
    def test_capacity_scales_with_count(self):
        link = Link("l", make_spec(), "a", "b", count=4)
        assert link.capacity_per_direction == pytest.approx(4 * 32e9 * 0.9)

    def test_capacity_bidirectional_uses_theoretical(self):
        link = Link("l", make_spec(), "a", "b", count=2)
        assert link.capacity_bidirectional == pytest.approx(2 * 64e9)

    def test_other_end(self):
        link = Link("l", make_spec(), "a", "b")
        assert link.other_end("a") == "b"
        assert link.other_end("b") == "a"

    def test_other_end_rejects_stranger(self):
        link = Link("l", make_spec(), "a", "b")
        with pytest.raises(ConfigurationError):
            link.other_end("c")

    def test_connects(self):
        link = Link("l", make_spec(), "a", "b")
        assert link.connects("a", "b")
        assert link.connects("b", "a")
        assert not link.connects("a", "c")

    def test_rejects_zero_count(self):
        with pytest.raises(ConfigurationError):
            Link("l", make_spec(), "a", "b", count=0)


class TestSerdesClasses:
    def test_pcie_and_xgmi_are_serdes(self):
        for cls in (LinkClass.XGMI, LinkClass.PCIE_GPU,
                    LinkClass.PCIE_NVME, LinkClass.PCIE_NIC):
            assert cls in SERDES_CLASSES

    def test_nvlink_dram_roce_are_not(self):
        for cls in (LinkClass.NVLINK, LinkClass.DRAM, LinkClass.ROCE):
            assert cls not in SERDES_CLASSES


class TestBandwidthLedger:
    def test_total_bytes(self):
        ledger = BandwidthLedger()
        ledger.record(0.0, 1.0, 10e9)
        ledger.record(1.0, 2.0, 5e9)
        assert ledger.total_bytes == pytest.approx(15e9)

    def test_zero_byte_records_are_dropped(self):
        ledger = BandwidthLedger()
        ledger.record(0.0, 1.0, 0.0)
        assert len(ledger) == 0

    def test_rejects_reversed_interval(self):
        ledger = BandwidthLedger()
        with pytest.raises(ConfigurationError):
            ledger.record(2.0, 1.0, 1.0)

    def test_rejects_negative_bytes(self):
        ledger = BandwidthLedger()
        with pytest.raises(ConfigurationError):
            ledger.record(0.0, 1.0, -5.0)

    def test_utilization_at_instant(self):
        ledger = BandwidthLedger()
        ledger.record(0.0, 2.0, 20e9)  # 10 GB/s
        ledger.record(1.0, 2.0, 5e9)   # 5 GB/s
        assert ledger.utilization_at(0.5) == pytest.approx(10e9)
        assert ledger.utilization_at(1.5) == pytest.approx(15e9)
        assert ledger.utilization_at(2.5) == 0.0

    def test_sample_conserves_bytes(self):
        ledger = BandwidthLedger()
        ledger.record(0.1, 0.9, 8e9)
        samples = ledger.sample(0.0, 1.0, 10)
        bin_width = 0.1
        assert sum(s * bin_width for s in samples) == pytest.approx(8e9)

    def test_sample_uniform_rate(self):
        ledger = BandwidthLedger()
        ledger.record(0.0, 1.0, 10e9)
        samples = ledger.sample(0.0, 1.0, 4)
        for s in samples:
            assert s == pytest.approx(10e9)

    def test_sample_instantaneous_record(self):
        ledger = BandwidthLedger()
        ledger.record(0.5, 0.5, 1e9)
        samples = ledger.sample(0.0, 1.0, 10)
        assert sum(s * 0.1 for s in samples) == pytest.approx(1e9)

    def test_sample_rejects_bad_window(self):
        ledger = BandwidthLedger()
        with pytest.raises(ConfigurationError):
            ledger.sample(1.0, 1.0, 10)
        with pytest.raises(ConfigurationError):
            ledger.sample(0.0, 1.0, 0)

    def test_clear(self):
        ledger = BandwidthLedger()
        ledger.record(0.0, 1.0, 1e9)
        ledger.clear()
        assert len(ledger) == 0
        assert ledger.total_bytes == 0.0

    def test_sample_outside_window_is_zero(self):
        ledger = BandwidthLedger()
        ledger.record(10.0, 11.0, 1e9)
        samples = ledger.sample(0.0, 1.0, 5)
        assert all(s == 0.0 for s in samples)


class ListLedger:
    """The list-of-:class:`TransferRecord` ledger the columnar one replaced,
    kept as the reference its results must equal bit for bit."""

    def __init__(self):
        self.records = []
        self.replicas = []

    def record(self, start, end, num_bytes, *, degraded=False):
        if num_bytes:
            self.records.append(
                TransferRecord(start, end, num_bytes, degraded=degraded))

    def replicate_shifted(self, template, period, count):
        if count > 0 and template:
            self.replicas.append((tuple(template), period, count))

    def __iter__(self):
        yield from self.records
        for template, period, count in self.replicas:
            for k in range(1, count + 1):
                shift = k * period
                for r in template:
                    yield TransferRecord(r.start + shift, r.end + shift,
                                         r.num_bytes, degraded=r.degraded)

    def __len__(self):
        return (len(self.records)
                + sum(len(t) * c for t, _, c in self.replicas))

    @property
    def total_bytes(self):
        total = sum(r.num_bytes for r in self.records)
        for template, _, count in self.replicas:
            total += count * sum(r.num_bytes for r in template)
        return total

    def degraded_intervals(self):
        return merge_intervals((r.start, r.end) for r in self if r.degraded)

    def sample(self, start, end, num_samples):
        width = (end - start) / num_samples
        bins = [0.0] * num_samples
        last_bin = num_samples - 1
        for r in self:
            if r.end <= start or r.start >= end:
                continue
            lo = r.start if r.start > start else start
            hi = r.end if r.end < end else end
            duration = r.end - r.start
            if duration <= 0:
                idx = int((lo - start) / width)
                bins[idx if idx < last_bin else last_bin] += r.num_bytes
                continue
            rate = r.num_bytes / duration
            first = int((lo - start) / width)
            last = min(int((hi - start) / width), last_bin)
            for idx in range(first, last + 1):
                b_lo = start + idx * width
                b_hi = b_lo + width
                overlap = min(hi, b_hi) - max(lo, b_lo)
                if overlap > 0:
                    bins[idx] += rate * overlap
        return [b / width for b in bins]


def _bits(value):
    return float(value).hex()


def _record_bits(record):
    return (_bits(record.start), _bits(record.end), _bits(record.num_bytes),
            record.degraded)


_records = st.lists(st.tuples(
    st.floats(0.0, 5.0),                        # start
    st.one_of(st.just(0.0), st.floats(0.0, 2.0)),  # duration (0: instant)
    st.floats(1.0, 1e10),                       # bytes
    st.booleans(),                              # degraded
), max_size=30)


@given(records=_records,
       blocks=st.lists(st.tuples(st.integers(0, 10), st.floats(0.01, 3.0),
                                 st.integers(0, 4)), max_size=3),
       window=st.tuples(st.floats(0.0, 4.0), st.floats(0.1, 20.0),
                        st.integers(1, 64)))
@settings(max_examples=300, deadline=None)
def test_columnar_ledger_matches_the_record_list_bit_for_bit(
        records, blocks, window):
    """Plain, instantaneous, degraded and replicated records: ``len``,
    iteration, ``total_bytes``, ``degraded_intervals`` and ``sample`` of
    the columnar ledger equal the record-list reference bit for bit."""
    ledger, reference = BandwidthLedger(), ListLedger()
    for start, duration, num_bytes, degraded in records:
        for target in (ledger, reference):
            target.record(start, start + duration, num_bytes,
                          degraded=degraded)
    for size, period, count in blocks:
        template = list(reference)[-size:] if size else []
        for target in (ledger, reference):
            target.replicate_shifted(template, period, count)
    assert len(ledger) == len(reference)
    assert ([_record_bits(r) for r in ledger]
            == [_record_bits(r) for r in reference])
    assert _bits(ledger.total_bytes) == _bits(reference.total_bytes)
    assert ([tuple(map(_bits, span)) for span in ledger.degraded_intervals()]
            == [tuple(map(_bits, span))
                for span in reference.degraded_intervals()])
    start, width, bins = window
    assert ([_bits(v) for v in ledger.sample(start, start + width, bins)]
            == [_bits(v) for v in reference.sample(start, start + width,
                                                    bins)])
