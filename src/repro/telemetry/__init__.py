"""Measurement layer: bandwidth counters, energy, memory, throughput."""

from .bandwidth import DEFAULT_SAMPLE_PERIOD, BandwidthMonitor, BandwidthStats
from .energy import EnergyReport, PowerModel, estimate_energy
from .flops_profiler import FlopsProfiler, ThroughputReport
from .memory import MemoryReport, snapshot
from .report import (
    BANDWIDTH_HEADERS,
    bandwidth_row,
    format_table,
    series_block,
    sparkline,
)

__all__ = [
    "BANDWIDTH_HEADERS",
    "BandwidthMonitor",
    "BandwidthStats",
    "DEFAULT_SAMPLE_PERIOD",
    "EnergyReport",
    "PowerModel",
    "estimate_energy",
    "FlopsProfiler",
    "MemoryReport",
    "ThroughputReport",
    "bandwidth_row",
    "format_table",
    "series_block",
    "snapshot",
    "sparkline",
]
