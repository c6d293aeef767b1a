"""AMD EPYC I/O-die SerDes contention model.

Section III-C4 of the paper observes that any data path that is forwarded
*between two x16 SerDes sets on the same I/O die* (PCIe<->PCIe, PCIe<->xGMI,
xGMI<->xGMI) attains roughly half the expected bandwidth under a sustained
streaming load, while paths between a SerDes set and the DRAM controllers
run at full speed.  The authors hypothesize contention in the
Infinity-Fabric intra-die crossbar between SerDes pairs.

We make that hypothesis an explicit, ablatable model.  A route is a
sequence of links joined at intermediate devices; every *joint* whose two
adjacent links are both SerDes-backed (xGMI or any PCIe flavour) is one
SerDes-to-SerDes forwarding event on one IOD.  NVLink, RoCE-wire, and DRAM
hops never count.  The derate is ``base ** 1 * extra ** (joints - 1)`` so
one contended IOD costs the calibrated base factor and each further
contended IOD erodes a bit more.

Published calibration points (Figs. 3 and 4; attained fraction of
theoretical RoCE bandwidth):

* same-socket CPU-RoCE  (DRAM->NIC both ends;       0 joints): 93 %
* cross-socket CPU-RoCE (DRAM->xGMI->NIC, one side; 1-2 joints): 47 %
* same-socket GPU-RoCE  (GPU->NIC both ends;        2 joints): 52 %
* cross-socket GPU-RoCE (GPU->xGMI->NIC both ends;  4 joints): 42 %
* cross-socket small-message latency is ~7x same-socket (Fig. 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .link import Link, LinkClass, SERDES_CLASSES


class TrafficProfile(enum.Enum):
    """How a flow loads the fabric over time.

    SUSTAINED — a constant stream (stress-test kernels, Megatron-LM's
    continuous all-reduce traffic).  BURSTY — peak-and-trough collectives
    (DDP gradient buckets, ZeRO's phase-aligned all-gathers), which the
    paper found less prone to the crossbar contention (Section IV-E2).
    """

    SUSTAINED = "sustained"
    BURSTY = "bursty"


def serdes_joints(route: Sequence[Link]) -> int:
    """Count SerDes-to-SerDes forwarding joints along a route.

    Links appear in traversal order; consecutive links meet at one
    intermediate device (an EPYC IOD whenever both neighbours are
    SerDes-backed).  Each such meeting is one contended crossbar traversal.
    """
    joints = 0
    for previous, current in zip(route, list(route)[1:]):
        if (previous.link_class in SERDES_CLASSES
                and current.link_class in SERDES_CLASSES):
            joints += 1
    return joints


@dataclass(frozen=True)
class SerdesContentionModel:
    """Derating policy for SerDes-to-SerDes forwarding on EPYC IODs.

    Parameters
    ----------
    enabled:
        Master switch — the ablation bench disables it to show dual-node
        Megatron-LM recovering most of its lost throughput.
    sustained_factor:
        Bandwidth multiplier for the first contended joint under a
        SUSTAINED profile.  Calibrated to Fig. 4.
    bursty_factor:
        First-joint multiplier for BURSTY flows; the paper observes these
        are "somehow less prone" to the contention.
    per_extra_joint_factor:
        Additional multiplier for every contended joint past the first.
    latency_inflation:
        Small-message latency multiplier once any joint is contended
        (Fig. 3: cross-socket ~7x same-socket).
    """

    enabled: bool = True
    sustained_factor: float = 0.58
    bursty_factor: float = 0.88
    per_extra_joint_factor: float = 0.90
    latency_inflation: float = 5.6

    def contended_joints(self, route: Sequence[Link]) -> int:
        if not self.enabled:
            return 0
        return serdes_joints(route)

    def derate(self, route: Sequence[Link],
               profile: TrafficProfile = TrafficProfile.SUSTAINED) -> float:
        """Bandwidth multiplier in (0, 1] for ``route`` under ``profile``."""
        joints = self.contended_joints(route)
        if joints == 0:
            return 1.0
        base = (
            self.sustained_factor
            if profile is TrafficProfile.SUSTAINED
            else self.bursty_factor
        )
        return base * (self.per_extra_joint_factor ** (joints - 1))

    def latency_factor(self, route: Sequence[Link]) -> float:
        """Latency multiplier for contended routes."""
        joints = self.contended_joints(route)
        if joints == 0:
            return 1.0
        return self.latency_inflation * (1.05 ** (joints - 1))


def disabled_contention_model() -> SerdesContentionModel:
    """A no-op contention model for ablation studies."""
    return SerdesContentionModel(enabled=False)


def route_crosses_socket(route: Sequence[Link]) -> bool:
    """True when the route traverses an xGMI (inter-socket) hop."""
    return any(link.link_class is LinkClass.XGMI for link in route)
