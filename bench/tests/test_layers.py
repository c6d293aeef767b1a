"""The layer table covers the simulator, and attribution follows it."""

import importlib

import pytest

from bench import SRC
from bench.layers import (
    LAYER_NAMES,
    LAYERS,
    NAMED_CALLS,
    OTHER,
    QualifiedNames,
    attribute,
    layer_of,
    module_name,
)


def repro_modules():
    return sorted(module_name(path, SRC)
                  for path in (SRC / "repro").rglob("*.py"))


def resolve(dotted):
    """The module or module attribute a dotted name refers to."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:end]))
        except ModuleNotFoundError:
            continue
        for attr in parts[end:]:
            target = getattr(target, attr)
        return target
    raise LookupError(dotted)


@pytest.mark.parametrize("module", repro_modules())
def test_every_module_maps_to_exactly_one_layer(module):
    matches = [prefix for prefix in LAYERS
               if module == prefix or module.startswith(prefix + ".")]
    longest = [prefix for prefix in matches
               if len(prefix) == max(map(len, matches))]
    assert len(longest) == 1
    assert layer_of(module) == LAYERS[longest[0]] != OTHER


def test_every_table_entry_names_real_code():
    for prefix in LAYERS:
        resolve(prefix)
    for target in NAMED_CALLS.values():
        assert callable(resolve(target))


def test_every_layer_owns_some_module():
    owned = {layer_of(module) for module in repro_modules()}
    owned.add(layer_of("repro.hardware.link.BandwidthLedger"))
    assert owned == set(LAYER_NAMES) - {OTHER}


def test_most_specific_prefix_wins():
    assert layer_of("repro.hardware.link.BandwidthLedger.record") == (
        "hardware.link.BandwidthLedger")
    assert layer_of("repro.hardware.link.Link.capacity") == "hardware"
    assert layer_of("repro.sim.fastpath.memo.lookup") == "collectives"
    assert layer_of("repro.sim.fastpath.extrapolate") == "sim.fastpath"
    assert layer_of("repro.sim") == "core"
    assert layer_of("json.decoder") == OTHER


def test_qualified_names_come_from_source_lines():
    import repro.hardware.link as link

    code = link.BandwidthLedger.record.__code__
    qualify = QualifiedNames(SRC)
    func = (code.co_filename, code.co_firstlineno, code.co_name)
    assert qualify(func) == "repro.hardware.link.BandwidthLedger.record"
    assert qualify(("~", 0, "<built-in method builtins.len>")) is None


def test_time_outside_repro_goes_to_the_nearest_repro_caller():
    import repro.sim.engine as engine

    code = engine.Engine.step.__code__
    step = (code.co_filename, code.co_firstlineno, code.co_name)
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    helper = ("/usr/lib/python3/heapq.py", 10, "helper")
    orphan = ("~", 0, "<built-in method time.perf_counter>")
    stats = {
        step: (5, 5, 1.0, 4.0, {}),
        helper: (2, 2, 1.0, 2.0, {step: (2, 2, 1.0, 2.0)}),
        heappop: (7, 7, 2.0, 2.0, {step: (5, 5, 1.5, 1.5),
                                   helper: (2, 2, 0.5, 0.5)}),
        orphan: (1, 1, 0.25, 0.25, {}),
    }
    result = attribute(stats, SRC)
    layers = result["layers"]
    assert layers["sim.engine"]["self_s"] == pytest.approx(4.0)
    assert layers["sim.engine"]["calls"] == 5
    assert layers[OTHER]["self_s"] == pytest.approx(0.25)
    assert sum(entry["share"] for entry in layers.values()) == pytest.approx(1)
    assert result["counters"]["sim.engine.dispatches"] == 5
