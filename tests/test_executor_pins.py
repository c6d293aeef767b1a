"""Exact span streams and mid-run fault results of fixed training runs.

Each pin is the SHA-256 of one run's output, so a change anywhere in how
the executor records spans, or in when it reads a value that faults
change mid-run, fails here on the first differing bit:

* span streams: every rank-lane span (``to_dict()``, in recording order)
  plus the iteration times, for one run of each step family the
  executor interprets: collectives (ddp, and zero3 on two nodes), idle
  pipeline bubbles (megatron), CPU optimizer work (zero2_opt_cpu), NVMe
  stripes (zero3_opt_nvme_param_nvme) and the hybrid fast path's
  synthetic spans;
* mid-run faults: the iteration times and every link's ledger total of
  a run whose fault starts after the first iteration, once the
  executor has laid out its per-run state.  An NVMe slowdown on a
  stripe member, a GPU straggler and an xGMI degrade reproduce their
  pins only while the drive's media bandwidth, the rank's slowdown and
  the link's capacity are read when work launches, not when the run is
  laid out.

A change that moves a pin on purpose updates it here and names it in
CHANGES.md; any other move is a change in what the simulator does.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import RunSpec, build_cluster, run_spec

SPAN_PINS = {
    "ddp": (
        RunSpec("ddp", 0.7, iterations=3),
        "b33e49c501d40597b4f815d5f03afdfe"
        "aa642af57a3094de34e9935311ebf73f",
    ),
    "megatron": (
        RunSpec("megatron", 0.7, iterations=3),
        "53e563c769e219d2a9226c00f63d7e4e"
        "5a2846555abe4b1791cd49416289d9a1",
    ),
    "zero3_two_nodes": (
        RunSpec("zero3", 0.7, nodes=2, iterations=3),
        "b7959466531b3d6e4d5cce1e7a026b4a"
        "1f3d81ea1db0247cfaa58eb025e1d945",
    ),
    "zero2_opt_cpu": (
        RunSpec("zero2_opt_cpu", 0.7, iterations=3),
        "4831198eaa0c2fe8eeaef943b48a121e"
        "f29d05a7aada164a6897c08dbcb683ef",
    ),
    "zero3_opt_nvme_param_nvme": (
        RunSpec("zero3_opt_nvme_param_nvme", 0.7, iterations=3),
        "cc493a815240486e48de7f275cec0446"
        "d21d025bfa715a514f7ff85014c441eb",
    ),
    "zero2_hybrid": (
        RunSpec("zero2", 0.7, iterations=12, fidelity="hybrid"),
        "4af2d4c60ae3cff3e2a682253b466f14"
        "71162ad80530b2ccc4250d90de695474",
    ),
}

#: iterations take 3.85 s on the NVMe run and 0.42 s on two nodes, so
#: every fault opens during the second iteration and closes before the
#: last one ends
FAULT_PINS = {
    "nvme_slow_stripe_member": (
        RunSpec("zero3_opt_nvme_param_nvme", 0.7, iterations=4,
                faults=("node0/nvme2:nvme_slow@t=5s,dur=4s,mag=3",)),
        "1d092983048191bdbdf7e40bda9f89fb"
        "416c0e4dab359ed0bf737758411883ec",
    ),
    "gpu_straggler": (
        RunSpec("zero3", 0.7, nodes=2, iterations=4,
                faults=("node1/gpu2:straggler@t=0.6,dur=0.5,mag=0.3",)),
        "7287e6c77363c743766860bcd2d62750"
        "a07335c584a9b726f5b6bb1e5b65812e",
    ),
    "xgmi_degrade": (
        RunSpec("zero3", 0.7, nodes=2, iterations=4,
                faults=("node0/xgmi:degrade@t=0.6,dur=0.5,mag=0.5",)),
        "c8cfdf4a993c6fb6cd0858ea63d7e31a"
        "1774c705ad47b280b4137d332cf1b13a",
    ),
}


def _sha256(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def span_digest(spec: RunSpec) -> str:
    execution = run_spec(spec, cluster=build_cluster(spec)).execution
    return _sha256({
        "spans": [span.to_dict() for span in execution.spans],
        "iteration_times": [t.hex() for t in execution.iteration_times],
    })


def fault_digest(spec: RunSpec) -> str:
    cluster = build_cluster(spec)
    execution = run_spec(spec, cluster=cluster).execution
    return _sha256({
        "iteration_times": [t.hex() for t in execution.iteration_times],
        "links": {link.name: float(link.ledger.total_bytes).hex()
                  for link in cluster.topology.links},
    })


@pytest.mark.parametrize("name", sorted(SPAN_PINS))
def test_span_stream(name):
    spec, digest = SPAN_PINS[name]
    assert span_digest(spec) == digest


@pytest.mark.parametrize("name", sorted(FAULT_PINS))
def test_mid_run_fault(name):
    spec, digest = FAULT_PINS[name]
    assert fault_digest(spec) == digest
