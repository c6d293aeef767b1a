"""Interconnect link model.

Every interconnect in the paper's Table III (DRAM channels, xGMI, PCIe to
GPU/NIC/NVMe, NVLink, RoCE) is represented by :class:`Link` instances built
from a :class:`LinkSpec`.  A link is a full-duplex channel with a
per-direction theoretical bandwidth, a base latency, and an attainable
efficiency (protocol overhead).  Every byte moved over a link is kept,
timestamped, so the telemetry layer can reconstruct the
avg/90th-percentile/peak utilization figures the paper reports (Table IV)
and the time-series plots (Figs. 9, 10, 12).  A fabric writes each settled
transfer interval once, into its :class:`IntervalLog`, naming every link
the interval loaded (for a flow group, every member's links); each
link's :class:`BandwidthLedger` reads its own records back from the log.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

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
    timelines can show the fault window.  Ledgers build these rows from
    the interval log only when iterated.
    """

    start: Seconds
    end: Seconds
    num_bytes: Bytes
    degraded: bool = field(default=False, compare=False)


#: Records per numpy pass over a ledger; bounds the temporaries.
_CHUNK = 2048


class _Replica(NamedTuple):
    """A lazy replication block: the k-th copy (k = 1..count) of every
    template row, shifted forward by ``k * period``."""

    starts: np.ndarray
    ends: np.ndarray
    sizes: np.ndarray
    keys: np.ndarray
    period: Seconds
    count: int


def _numpy(column: array) -> np.ndarray:
    """A numpy view of a log column.  Keep only what indexing it with
    rows copies out: an ``array`` that exports its buffer cannot grow."""
    if not column:
        return np.empty(0, column.typecode)
    return np.frombuffer(column, column.typecode)


class IntervalLog:
    """Every transfer interval settled on one fabric, one row each.

    A row holds start, end and bytes (``array('d')`` columns) and a key
    (``array('i')``), interned per log, naming the ledger slots the
    interval loaded, in route order, and a bitmask of the positions whose
    link was degraded while it ran.  So an interval is written once, in
    28 bytes, however many links it crossed.  One constant-rate interval
    of a flow group is one row too: its key names every member's slots,
    member after member, and each position is charged the row's bytes.
    Each link's :class:`BandwidthLedger` is the read-only view of its
    slot.  A :class:`~repro.hardware.topology.Topology` owns one log; a
    link outside any topology keeps a private one.  :meth:`replicate`
    stores the hybrid extrapolator's copies as blocks, expanded only
    while a consumer walks them.
    """

    def __init__(self) -> None:
        #: bumped by every capacity change of a link on this log, so a
        #: route re-reads its degraded mask only after one
        self.capacity_epoch = 0
        #: bumped by :meth:`replicate` and :meth:`clear`; with the row
        #: count it tells a ledger when its view is stale
        self.revision = 0
        self._key_ids: Dict[Tuple[Tuple[int, ...], int], int] = {}
        #: per slot, ``(key id, degraded bit)`` for each position the
        #: slot holds in a key
        self._slot_keys: List[List[Tuple[int, int]]] = []
        self.clear()

    def __len__(self) -> int:
        """Rows written; replica blocks are not counted."""
        return len(self.starts)

    def attach(self, ledger: "BandwidthLedger") -> None:
        """Make ``ledger`` the view of this log's next slot."""
        ledger.log = self
        ledger.slot = len(self._slot_keys)
        self._slot_keys.append([])

    def key(self, slots: Tuple[int, ...], degraded_mask: int) -> int:
        """The key of an interval over ``slots``; bit ``i`` of
        ``degraded_mask`` flags ``slots[i]`` as degraded."""
        entry = (slots, degraded_mask)
        key_id = self._key_ids.get(entry)
        if key_id is None:
            key_id = self._key_ids[entry] = len(self._key_ids)
            for position, slot in enumerate(slots):
                self._slot_keys[slot].append(
                    (key_id, degraded_mask >> position & 1))
        return key_id

    def add_interval(self, start: Seconds, end: Seconds, num_bytes: Bytes,
                     key: int) -> None:
        """Record ``num_bytes`` moved over [start, end] under ``key``."""
        if end < start:
            raise ConfigurationError(
                f"transfer interval is reversed: start={start} end={end}"
            )
        if num_bytes < 0:
            raise ConfigurationError("cannot record a negative byte count")
        if num_bytes == 0:
            return
        self.starts.append(start)
        self.ends.append(end)
        self.sizes.append(num_bytes)
        self.keys.append(key)

    def replicate(self, cutoff: Seconds, period: Seconds,
                  count: int) -> None:
        """Lazily append ``count`` copies of the rows that start at or
        after ``cutoff``, the k-th copy shifted forward by ``k * period``.

        Every ledger's length, byte total, degraded windows, samples and
        iteration account for the copies.
        """
        if count <= 0:
            return
        template = np.flatnonzero(_numpy(self.starts) >= cutoff)
        self.replicas.append(_Replica(
            _numpy(self.starts)[template], _numpy(self.ends)[template],
            _numpy(self.sizes)[template], _numpy(self.keys)[template],
            period, count,
        ))
        self.revision += 1

    def clear(self) -> None:
        """Drop every row and replica block; keys stay interned."""
        self.starts = array("d")
        self.ends = array("d")
        self.sizes = array("d")
        self.keys = array("i")
        self.replicas: List[_Replica] = []
        self.revision += 1

    def view(self, slot: int):
        """Which records are ``slot``'s: ``(rows, degraded)`` over the
        log's rows, then ``(block, rows, degraded)`` per replica block.

        A row whose key holds the slot twice (a route that crosses a link
        twice, or two members of a flow group that cross it) is listed
        twice, since it charged the link twice.
        """
        count = np.zeros(len(self._key_ids), np.intp)
        flags = np.zeros(len(self._key_ids), bool)
        for key_id, bit in self._slot_keys[slot]:
            count[key_id] += 1
            flags[key_id] = bit

        def select(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            rows = np.repeat(np.arange(len(keys), dtype=np.int32),
                             count[keys])
            return rows, flags[keys[rows]]

        rows, degraded = select(_numpy(self.keys))
        return rows, degraded, [(block, *select(block.keys))
                                for block in self.replicas]


class BandwidthLedger:
    """The transfer records of one link.

    The ledger is the read-only view of one slot of an
    :class:`IntervalLog`: the slot's rows in log order, then its copies
    in each replica block.  Utilization at any instant is the sum of the
    rates of the intervals covering it; the telemetry layer samples this
    on a regular grid to produce the paper's average/90th/peak
    statistics and time-series plots.  Iteration builds
    :class:`TransferRecord` views on the fly.
    """

    log: IntervalLog
    slot: int

    def __init__(self) -> None:
        self._stamp: Optional[Tuple[IntervalLog, int, int]] = None
        IntervalLog().attach(self)

    def record(self, start: Seconds, end: Seconds, num_bytes: Bytes, *,
               degraded: bool = False) -> None:
        """Charge ``num_bytes`` between ``start`` and ``end`` to this link
        alone (flows charge their whole route through ``Route.record``)."""
        log = self.log
        log.add_interval(start, end, num_bytes,
                         log.key((self.slot,), int(degraded)))

    def _view(self):
        """The log's :meth:`IntervalLog.view` of this slot, rebuilt only
        after the log changed."""
        log = self.log
        stamp = (log, log.revision, len(log))
        if self._stamp != stamp:
            self._cached = log.view(self.slot)
            self._stamp = stamp
        return self._cached

    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray]]:
        """``(starts, ends, sizes, degraded)`` of the records in record
        order, at most :data:`_CHUNK` records at a time."""
        log = self.log
        rows, degraded, blocks = self._view()
        for at in range(0, len(rows), _CHUNK):
            part = rows[at:at + _CHUNK]
            yield (_numpy(log.starts)[part], _numpy(log.ends)[part],
                   _numpy(log.sizes)[part], degraded[at:at + _CHUNK])
        for block, rows, degraded in blocks:
            starts, ends = block.starts[rows], block.ends[rows]
            sizes = block.sizes[rows]
            for k in range(1, block.count + 1):
                shift = k * block.period
                for at in range(0, len(rows), _CHUNK):
                    yield (starts[at:at + _CHUNK] + shift,
                           ends[at:at + _CHUNK] + shift,
                           sizes[at:at + _CHUNK], degraded[at:at + _CHUNK])

    def __len__(self) -> int:
        rows, _, blocks = self._view()
        return len(rows) + sum(len(rows) * block.count
                               for block, rows, _ in blocks)

    def __iter__(self) -> Iterator[TransferRecord]:
        for starts, ends, sizes, degraded in self.chunks():
            for start, end, num_bytes, flag in zip(
                    starts.tolist(), ends.tolist(), sizes.tolist(),
                    degraded.tolist()):
                yield TransferRecord(start, end, num_bytes, degraded=flag)

    @property
    def total_bytes(self) -> Bytes:
        # Python float addition in record order: numpy's pairwise sum
        # would change the last bits.
        rows, _, blocks = self._view()
        total = sum(_numpy(self.log.sizes)[rows].tolist())
        for block, rows, _ in blocks:
            total += block.count * sum(block.sizes[rows].tolist())
        return total

    def degraded_intervals(self) -> List[Tuple[float, float]]:
        """Merged ``(start, end)`` windows covered by degraded records."""
        return merge_intervals(
            span for starts, ends, _, degraded in self.chunks()
            for span in zip(starts[degraded].tolist(),
                            ends[degraded].tolist())
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
        bins = np.zeros(num_samples)
        for starts, ends, sizes, _ in self.chunks():
            bins = _deposit(bins, starts, ends, sizes, start, end, width)
        return (bins / width).tolist()


def _deposit(bins: np.ndarray, starts: np.ndarray, ends: np.ndarray,
             sizes: np.ndarray, start: Seconds, end: Seconds,
             width: Seconds) -> np.ndarray:
    """``bins`` plus the bytes each record moved in each bin of the grid
    over [start, end): its rate times its overlap with each bin it
    touches, or, if instantaneous, all its bytes in the bin holding it.

    The expressions are those of adding one record at a time, and
    ``np.bincount`` adds in input order with the running bins first, so
    each bin sums in record order, bit for bit.
    """
    keep = (ends > start) & (starts < end)
    starts, ends, sizes = starts[keep], ends[keep], sizes[keep]
    last_bin = len(bins) - 1
    lo = np.where(starts > start, starts, start)
    hi = np.where(ends < end, ends, end)
    duration = ends - starts
    instant = duration <= 0
    first = ((lo - start) / width).astype(np.int64)
    last = np.minimum(((hi - start) / width).astype(np.int64), last_bin)
    first = np.where(instant, np.minimum(first, last_bin), first)
    last = np.where(instant, first, last)
    touched = np.maximum(last - first + 1, 0)
    if len(touched) > 1 and touched.sum() > 4 * _CHUNK:
        half = len(touched) // 2
        bins = _deposit(bins, starts[:half], ends[:half], sizes[:half],
                        start, end, width)
        return _deposit(bins, starts[half:], ends[half:], sizes[half:],
                        start, end, width)
    record = np.repeat(np.arange(len(touched)), touched)
    index = (first[record] + np.arange(len(record))
             - (np.cumsum(touched) - touched)[record])
    b_lo = start + index * width
    overlap = (np.minimum(hi[record], b_lo + width)
               - np.maximum(lo[record], b_lo))
    rate = sizes / np.where(instant, 1.0, duration)
    share = np.where(instant[record], sizes[record], rate[record] * overlap)
    hit = instant[record] | (overlap > 0)
    return np.bincount(
        np.concatenate((np.arange(len(bins)), index[hit])),
        weights=np.concatenate((bins, share[hit])), minlength=len(bins),
    )


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
        self.ledger.log.capacity_epoch += 1
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
        self.ledger.log.capacity_epoch += 1

    def capacity_fraction_at(self, instant: Seconds) -> float:
        """The capacity fraction in effect at ``instant``."""
        fraction = self._capacity_history[0][1]
        for time, value in self._capacity_history:
            if time > instant:
                break
            fraction = value
        return fraction

    def lowest_capacity(self) -> BytesPerSecond:
        """The lowest per-direction capacity since the last reset."""
        return self.base_capacity_per_direction * min(
            fraction for _, fraction in self._capacity_history)

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
