"""Result serialization: RunMetrics <-> plain dicts / JSON files.

Lets the CLI, the benchmark harness, the campaign result cache, and
downstream analysis scripts persist simulated measurements without
pickling live simulator objects.  Only the measurement payload is
serialized (not timelines/ledgers, which can be regenerated
deterministically from the same configuration).

Schema v2 embeds the canonical :class:`~repro.api.RunSpec` the run was
materialized from (``payload["spec"]``, ``None`` for object-level
``run_training`` calls), making a saved result fully round-trippable:
:func:`load_run_spec` recovers the exact configuration, and re-running
it reproduces the payload field for field.

Schema v3 adds ``payload["fastpath"]`` — the
:class:`~repro.sim.fastpath.FastpathReport` describing what the hybrid
fast path did (``None`` for plain full-fidelity runs).  The field is
*provenance*, not measurement: :func:`headline_from_payload` skips it
(with the spec and the leak audit, :data:`PROVENANCE_KEYS`) so hybrid
and full results of the same steady workload flatten to the same
headline, which is exactly what the differential tests assert.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import ConfigurationError
from .runner import RunMetrics

#: v3: adds the ``fastpath`` provenance block (hybrid-fidelity runs).
#: The version is mixed into every cache salt (:func:`repro.api.spec.
#: default_salt`), so bumping it wholesale-invalidates cached results.
SCHEMA_VERSION = 3


def metrics_to_dict(metrics: RunMetrics) -> Dict[str, object]:
    """A JSON-safe summary of one run."""
    return {
        "schema_version": SCHEMA_VERSION,
        "strategy": metrics.strategy_name,
        "spec": metrics.spec.to_dict() if metrics.spec is not None else None,
        "fastpath": (metrics.fastpath.to_dict()
                     if metrics.fastpath is not None else None),
        # Additive (leak-checked runs only), so v3 payloads round-trip.
        "leaks": (metrics.leaks.to_dict()
                  if metrics.leaks is not None else None),
        "model_parameters": int(metrics.model_parameters),
        "nodes": metrics.num_nodes,
        "gpus": metrics.num_gpus,
        "tflops": metrics.tflops,
        "iteration_seconds": metrics.iteration_time,
        "iteration_times": list(metrics.throughput.iteration_times),
        "flops_per_iteration": metrics.throughput.flops_per_iteration,
        "measurement_window": list(metrics.measurement_window),
        "memory_bytes": {
            "gpu": metrics.memory.gpu_used,
            "cpu": metrics.memory.cpu_used,
            "nvme": metrics.memory.nvme_used,
        },
        "memory_by_label": {
            "gpu": dict(metrics.memory.gpu_by_label),
            "cpu": dict(metrics.memory.cpu_by_label),
            "nvme": dict(metrics.memory.nvme_by_label),
        },
        "bandwidth_gbps": {
            str(cls): {
                "avg": stats.average_gbps,
                "p90": stats.p90_gbps,
                "peak": stats.peak_gbps,
            }
            for cls, stats in metrics.bandwidth.items()
        },
    }


def save_metrics(metrics: RunMetrics, path: Union[str, Path]) -> Path:
    """Write one run's summary as JSON; returns the path written."""
    target = Path(path)
    target.write_text(json.dumps(metrics_to_dict(metrics), indent=2))
    return target


def load_metrics_dict(path: Union[str, Path]) -> Dict[str, object]:
    """Read a summary back; validates the schema version."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported results schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return payload


def load_run_spec(payload: Dict[str, object]):
    """The :class:`~repro.api.RunSpec` a saved payload was produced from.

    Returns ``None`` for results of object-level ``run_training`` calls
    (schema v2 payloads with ``spec: null``).  Re-running the returned
    spec through :func:`repro.api.run_spec` regenerates the payload
    deterministically — the round trip the campaign cache relies on.
    """
    from ..api.spec import RunSpec

    spec_payload = payload.get("spec")
    if spec_payload is None:
        return None
    if not isinstance(spec_payload, dict):
        raise ConfigurationError(
            f"results payload has a malformed spec: {type(spec_payload)}"
        )
    return RunSpec.from_dict(spec_payload)


def compare_runs(runs: List[Dict[str, object]],
                 metric: str = "tflops") -> List[Dict[str, object]]:
    """Rank saved runs by a top-level metric, best first."""
    missing = [r for r in runs if metric not in r]
    if missing:
        raise ConfigurationError(f"runs missing metric {metric!r}")
    return sorted(runs, key=lambda r: r[metric], reverse=True)


#: Provenance (how a result was obtained, not what it measured): no
#: headline includes these payload keys.
PROVENANCE_KEYS = frozenset({"schema_version", "spec", "fastpath", "leaks"})


def headline_from_payload(payload: Dict[str, object],
                          prefix: str = "") -> Dict[str, object]:
    """Flatten a results payload of any kind into scalar ``{field:
    value}`` pairs: nested dicts as ``name.key``, list items as
    ``name[i]``, dict items of a list as ``name[i].key``.
    """
    flat: Dict[str, object] = {}
    for key, value in payload.items():
        if key in PROVENANCE_KEYS:
            continue
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(headline_from_payload(value, prefix=f"{name}."))
        elif isinstance(value, list):
            for index, item in enumerate(value):
                if isinstance(item, dict):
                    flat.update(headline_from_payload(
                        item, prefix=f"{name}[{index}]."))
                else:
                    flat[f"{name}[{index}]"] = item
        else:
            flat[name] = value
    return flat


def numeric_headline(payload: Dict[str, object]) -> Dict[str, float]:
    """The headline's numeric fields as floats (strings are spec
    identity, not measurement)."""
    return {
        key: float(value)
        for key, value in headline_from_payload(payload).items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
