"""Interconnect link model.

Every interconnect in the paper's Table III (DRAM channels, xGMI, PCIe to
GPU/NIC/NVMe, NVLink, RoCE) is represented by :class:`Link` instances built
from a :class:`LinkSpec`.  A link is a full-duplex channel with a
per-direction theoretical bandwidth, a base latency, and an attainable
efficiency (protocol overhead).  Links carry a :class:`BandwidthLedger` that
accumulates every byte moved over them, timestamped, so the telemetry layer
can reconstruct the avg/90th-percentile/peak utilization figures the paper
reports (Table IV) and the time-series plots (Figs. 9, 10, 12).
"""

from __future__ import annotations

import enum
import itertools
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from ..units import GB, Bytes, BytesPerSecond, Seconds


class LinkClass(enum.Enum):
    """Interconnect classes as grouped in the paper's Table III / Table IV."""

    DRAM = "DRAM"
    XGMI = "xGMI"
    PCIE_GPU = "PCIe-GPU"
    PCIE_NVME = "PCIe-NVME"
    PCIE_NIC = "PCIe-NIC"
    NVLINK = "NVLink"
    ROCE = "RoCE"
    INTERNAL = "Internal"  # on-package paths not reported by the paper

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Link classes that terminate in an EPYC IOD I/O SerDes set.  Traffic whose
#: route enters *and* leaves through SerDes suffers the contention the paper
#: hypothesizes in Section III-C4.
SERDES_CLASSES = frozenset(
    {LinkClass.XGMI, LinkClass.PCIE_GPU, LinkClass.PCIE_NVME, LinkClass.PCIE_NIC}
)


@dataclass(frozen=True)
class LinkSpec:
    """Static description of one link type.

    Parameters
    ----------
    link_class:
        Which Table III interconnect class the link belongs to.
    bandwidth_per_direction:
        Theoretical bandwidth in bytes/s for each direction (the paper's
        Table III footnotes give these: e.g. 32 GBps/direction for PCIe 4.0
        x16, 25 GBps/direction for one NVLink 3.0 link).
    latency:
        Base one-way latency in seconds for a minimum-size message.
    efficiency:
        Fraction of the theoretical bandwidth attainable by a single
        well-behaved stream (protocol/encoding overhead).
    duplex:
        ``True`` for full-duplex links (everything except DRAM, which the
        paper's footnote 2 marks half-duplex).
    """

    link_class: LinkClass
    bandwidth_per_direction: BytesPerSecond
    latency: Seconds
    efficiency: float = 1.0
    duplex: bool = True

    def __post_init__(self) -> None:
        if self.bandwidth_per_direction <= 0:
            raise ConfigurationError("link bandwidth must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigurationError("link efficiency must be in (0, 1]")
        if self.latency < 0:
            raise ConfigurationError("link latency must be non-negative")

    @property
    def bandwidth_bidirectional(self) -> BytesPerSecond:
        """Theoretical bidirectional bandwidth (the paper's headline figure)."""
        if self.duplex:
            return 2.0 * self.bandwidth_per_direction
        return self.bandwidth_per_direction

    @property
    def attainable_per_direction(self) -> BytesPerSecond:
        """Single-stream attainable bandwidth per direction."""
        return self.bandwidth_per_direction * self.efficiency


@dataclass
class TransferRecord:
    """One completed transfer interval over a link (one direction).

    ``degraded`` marks intervals settled while the link's capacity was
    reduced by an injected fault (see :mod:`repro.faults`), so bandwidth
    timelines can show the fault window.  Ledgers store records in
    columns and build these rows only when iterated.
    """

    start: Seconds
    end: Seconds
    num_bytes: Bytes
    degraded: bool = field(default=False, compare=False)

    @property
    def duration(self) -> Seconds:
        return self.end - self.start

    @property
    def rate(self) -> BytesPerSecond:
        """Average bytes/s over the interval (0 for instantaneous records)."""
        if self.duration <= 0:
            return 0.0
        return self.num_bytes / self.duration


class _Columns:
    """Transfer records stored field by field, in record order.

    One ``array('d')`` each for start, end and bytes plus a ``bytearray``
    of degraded flags: 25 bytes a record, against a slotted
    :class:`TransferRecord` holding three boxed floats.
    """

    __slots__ = ("starts", "ends", "sizes", "degraded")

    def __init__(self, records: Iterable[TransferRecord] = ()) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.sizes = array("d")
        self.degraded = bytearray()
        for r in records:
            self.starts.append(r.start)
            self.ends.append(r.end)
            self.sizes.append(r.num_bytes)
            self.degraded.append(r.degraded)

    def __len__(self) -> int:
        return len(self.starts)

    def rows(self, shift: Optional[Seconds] = None
             ) -> Iterator[Tuple[float, float, float, int]]:
        """``(start, end, bytes, degraded)`` per record, times shifted."""
        rows = zip(self.starts, self.ends, self.sizes, self.degraded)
        if shift is None:
            return rows
        return ((s + shift, e + shift, b, d) for s, e, b, d in rows)

    def degraded_spans(self, shift: Optional[Seconds] = None
                       ) -> Iterator[Tuple[float, float]]:
        """``(start, end)`` of the degraded records, times shifted."""
        index = self.degraded.find(1)
        while index != -1:
            if shift is None:
                yield self.starts[index], self.ends[index]
            else:
                yield self.starts[index] + shift, self.ends[index] + shift
            index = self.degraded.find(1, index + 1)


class BandwidthLedger:
    """Append-only record of transfers over one link.

    The ledger stores ``(start, end, bytes)`` intervals.  Utilization at any
    instant is the sum of the rates of the intervals covering it; the
    telemetry layer samples this on a regular grid to produce the paper's
    average/90th/peak statistics and time-series plots.  Records live in
    columns (:class:`_Columns`); iteration hands out
    :class:`TransferRecord` views built on the fly.
    """

    def __init__(self) -> None:
        self._columns = _Columns()
        #: lazy replication blocks ``(template, period, count)`` appended
        #: by :meth:`replicate_shifted`: the k-th copy (k = 1..count) of
        #: each template record is shifted by ``k * period``.  Blocks are
        #: expanded on demand, so a hybrid run never materializes the
        #: hundreds of thousands of records it extrapolates unless a
        #: consumer actually walks them.
        self._replicas: List[Tuple[_Columns, Seconds, int]] = []

    def record(self, start: Seconds, end: Seconds, num_bytes: Bytes, *,
               degraded: bool = False) -> None:
        """Record a transfer of ``num_bytes`` between ``start`` and ``end``."""
        if end < start:
            raise ConfigurationError(
                f"transfer interval is reversed: start={start} end={end}"
            )
        if num_bytes < 0:
            raise ConfigurationError("cannot record a negative byte count")
        if num_bytes == 0:
            return
        columns = self._columns
        columns.starts.append(start)
        columns.ends.append(end)
        columns.sizes.append(num_bytes)
        columns.degraded.append(degraded)

    def replicate_shifted(self, template: List[TransferRecord],
                          period: Seconds, count: int) -> None:
        """Lazily append ``count`` copies of ``template``, the k-th copy
        shifted forward by ``k * period``.

        The hybrid extrapolator replicates one steady iteration's records
        tens of times; storing the block instead of materializing every
        shifted record keeps extrapolation O(template) rather than
        O(template x count).  Length, byte totals, sampling, and
        iteration all account for the replicas.
        """
        if count <= 0 or not template:
            return
        self._replicas.append((_Columns(template), period, count))

    def _blocks(self) -> Iterator[Tuple[_Columns, Optional[Seconds]]]:
        """Every stored block with its time shift, in record order."""
        yield self._columns, None
        for template, period, count in self._replicas:
            for k in range(1, count + 1):
                yield template, k * period

    def __len__(self) -> int:
        return (len(self._columns)
                + sum(len(t) * c for t, _, c in self._replicas))

    def __iter__(self) -> Iterator[TransferRecord]:
        for columns, shift in self._blocks():
            for start, end, num_bytes, degraded in columns.rows(shift):
                yield TransferRecord(start, end, num_bytes,
                                     degraded=bool(degraded))

    @property
    def total_bytes(self) -> Bytes:
        total = sum(self._columns.sizes)
        for template, _, count in self._replicas:
            total += count * sum(template.sizes)
        return total

    def clear(self) -> None:
        self._columns = _Columns()
        self._replicas.clear()

    def degraded_intervals(self) -> List[Tuple[float, float]]:
        """Merged ``(start, end)`` windows covered by degraded records."""
        return merge_intervals(itertools.chain.from_iterable(
            columns.degraded_spans(shift)
            for columns, shift in self._blocks()
        ))

    def utilization_at(self, instant: Seconds) -> BytesPerSecond:
        """Instantaneous bytes/s at ``instant`` (sum of covering intervals)."""
        return sum(
            r.rate for r in self if r.start <= instant < r.end
        )

    def sample(self, start: Seconds, end: Seconds,
               num_samples: int) -> List[BytesPerSecond]:
        """Sample utilization on a regular grid of ``num_samples`` bins.

        Each bin reports the *average* bytes/s within it (bytes transferred
        in-bin divided by bin width), which matches how hardware counters
        sampled at a fixed period behave.
        """
        if num_samples <= 0:
            raise ConfigurationError("num_samples must be positive")
        if end <= start:
            raise ConfigurationError("sample window must have positive width")
        width = (end - start) / num_samples
        bins = [0.0] * num_samples
        last_bin = num_samples - 1
        # Hot loop (hundreds of thousands of records on long runs):
        # locals instead of attribute/property lookups, arithmetic kept
        # expression-identical so results stay bit-exact.
        for columns, shift in self._blocks():
            for r_start, r_end, num_bytes, _ in columns.rows(shift):
                if r_end <= start or r_start >= end:
                    continue
                lo = r_start if r_start > start else start
                hi = r_end if r_end < end else end
                duration = r_end - r_start
                if duration <= 0:
                    # Instantaneous transfer: deposit in the containing bin.
                    idx = int((lo - start) / width)
                    bins[idx if idx < last_bin else last_bin] += num_bytes
                    continue
                rate = num_bytes / duration
                first = int((lo - start) / width)
                last = int((hi - start) / width)
                if last > last_bin:
                    last = last_bin
                for idx in range(first, last + 1):
                    b_lo = start + idx * width
                    b_hi = b_lo + width
                    overlap = min(hi, b_hi) - max(lo, b_lo)
                    if overlap > 0:
                        bins[idx] += rate * overlap
        return [b / width for b in bins]


def merge_intervals(intervals) -> List[Tuple[float, float]]:
    """Coalesce overlapping/touching ``(start, end)`` intervals, sorted."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class Link:
    """One physical link instance between two devices.

    ``endpoint_a``/``endpoint_b`` are device names (see
    :mod:`repro.hardware.topology`).  ``count`` aggregates identical parallel
    links (e.g. the four NVLink lanes between one GPU pair, or the three
    xGMI links between sockets) into a single simulated channel with summed
    bandwidth, which is how NCCL and the Infinity Fabric stripe traffic.
    """

    def __init__(
        self,
        name: str,
        spec: LinkSpec,
        endpoint_a: str,
        endpoint_b: str,
        *,
        count: int = 1,
    ) -> None:
        if count < 1:
            raise ConfigurationError("link count must be >= 1")
        self.name = name
        self.spec = spec
        self.endpoint_a = endpoint_a
        self.endpoint_b = endpoint_b
        self.count = count
        #: rated capacity; the spec is frozen, so it is fixed for life
        self._base_capacity = spec.attainable_per_direction * count
        self.ledger = BandwidthLedger()
        #: current usable fraction of the rated capacity (faults lower it)
        self._capacity_fraction = 1.0
        #: piecewise-constant history of (time, fraction) change points,
        #: so post-run validation can reconstruct the capacity in effect
        #: at any instant of the simulation.
        self._capacity_history: List[Tuple[float, float]] = [(0.0, 1.0)]

    # -- capacity ----------------------------------------------------------
    @property
    def link_class(self) -> LinkClass:
        return self.spec.link_class

    @property
    def base_capacity_per_direction(self) -> BytesPerSecond:
        """Rated aggregate attainable bytes/s per direction (fault-free)."""
        return self._base_capacity

    @property
    def capacity_per_direction(self) -> BytesPerSecond:
        """Aggregate attainable bytes/s in each direction, right now."""
        return self._base_capacity * self._capacity_fraction

    @property
    def capacity_fraction(self) -> float:
        return self._capacity_fraction

    @property
    def is_degraded(self) -> bool:
        """True while an injected fault is holding capacity below rated."""
        return self._capacity_fraction < 1.0

    @property
    def is_down(self) -> bool:
        """True while the link carries no traffic at all (hard outage)."""
        return self._capacity_fraction <= 0.0

    def set_capacity_fraction(self, fraction: float,
                              at_time: Seconds = 0.0) -> None:
        """Degrade (or restore) the link to ``fraction`` of rated capacity.

        ``at_time`` stamps the change point into the capacity history;
        callers must apply changes in non-decreasing time order.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(
                f"capacity fraction must be in [0, 1], got {fraction}"
            )
        last_time, last_fraction = self._capacity_history[-1]
        if at_time < last_time:
            raise ConfigurationError(
                f"capacity change at t={at_time} precedes the last change "
                f"at t={last_time}"
            )
        self._capacity_fraction = fraction
        if at_time > last_time:
            if fraction != last_fraction:
                self._capacity_history.append((at_time, fraction))
        else:
            # Same instant as the last change point: overwrite it, so
            # stacked faults applied in one callback leave one entry.
            self._capacity_history[-1] = (last_time, fraction)

    def reset_capacity(self) -> None:
        """Restore rated capacity and forget the degradation history."""
        self._capacity_fraction = 1.0
        self._capacity_history = [(0.0, 1.0)]

    def capacity_fraction_at(self, instant: Seconds) -> float:
        """The capacity fraction in effect at ``instant``."""
        fraction = self._capacity_history[0][1]
        for time, value in self._capacity_history:
            if time > instant:
                break
            fraction = value
        return fraction

    def max_capacity_over(self, start: Seconds,
                          end: Seconds) -> BytesPerSecond:
        """Highest per-direction capacity in effect anywhere in [start, end).

        This is the tightest *sound* bound for a ledger record spanning the
        interval: a record overlapping both healthy and degraded regimes may
        legitimately average up to the healthy rate for part of its span.
        """
        if end < start:
            raise ConfigurationError(
                f"capacity window is reversed: start={start} end={end}"
            )
        if not end > start:
            # Degenerate [t, t) window: the fraction in effect at t.
            return (self.base_capacity_per_direction
                    * self.capacity_fraction_at(start))
        history = self._capacity_history
        best = 0.0
        for index, (time, fraction) in enumerate(history):
            segment_end = (
                history[index + 1][0] if index + 1 < len(history)
                else float("inf")
            )
            if time < end and segment_end > start:
                best = max(best, fraction)
        return self.base_capacity_per_direction * best

    @property
    def capacity_bidirectional(self) -> BytesPerSecond:
        """Aggregate theoretical bidirectional bytes/s (Table III numbers)."""
        return self.spec.bandwidth_bidirectional * self.count

    @property
    def latency(self) -> Seconds:
        return self.spec.latency

    def other_end(self, endpoint: str) -> str:
        if endpoint == self.endpoint_a:
            return self.endpoint_b
        if endpoint == self.endpoint_b:
            return self.endpoint_a
        raise ConfigurationError(
            f"{endpoint!r} is not an endpoint of link {self.name!r}"
        )

    def connects(self, a: str, b: str) -> bool:
        return {a, b} == {self.endpoint_a, self.endpoint_b}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Link({self.name!r}, {self.link_class}, "
            f"{self.capacity_per_direction / GB:.1f} GB/s/dir x{self.count})"
        )
