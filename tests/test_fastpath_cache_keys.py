"""Cache-key correctness for the fast path (satellite of the DES fast
path): changing ``fidelity`` must miss in every cache, and fault-plan
degradation must invalidate the collective-cost memo's topology keying.
"""

import pytest

from repro.api.spec import RunSpec
from repro.campaign import ResultCache
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSpec
from repro.hardware import dual_node_cluster
from repro.sim.fastpath import collective_cost_key


BASE_RUN = dict(strategy="zero2", num_layers=6, nodes=1,
                iterations=4, warmup_iterations=1)


class TestFidelityValidation:
    def test_run_spec_rejects_unknown_fidelity(self):
        with pytest.raises(ConfigurationError):
            RunSpec(fidelity="psychic", **BASE_RUN)

    def test_experiment_spec_rejects_unknown_fidelity(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec("fig7", fidelity="psychic")

    def test_round_trips(self):
        spec = RunSpec(fidelity="hybrid", **BASE_RUN)
        assert RunSpec.from_dict(spec.to_dict()) == spec
        espec = ExperimentSpec("fig7", fidelity="hybrid")
        assert ExperimentSpec.from_dict(espec.to_dict()) == espec


class TestCacheKeysSeparateFidelities:
    def test_run_spec_key_changes_with_fidelity(self):
        full = RunSpec(**BASE_RUN)
        hybrid = full.replace(fidelity="hybrid")
        assert full.cache_key() != hybrid.cache_key()

    def test_experiment_spec_key_changes_with_fidelity(self):
        full = ExperimentSpec("fig7")
        hybrid = ExperimentSpec("fig7", fidelity="hybrid")
        assert full.cache_key() != hybrid.cache_key()

    def test_default_fidelity_keys_are_stable(self):
        # Explicit "full" and the default must agree, so pre-existing
        # cached results keyed before the field existed are not
        # resurrected under a different identity per construction site.
        assert (RunSpec(**BASE_RUN).cache_key()
                == RunSpec(fidelity="full", **BASE_RUN).cache_key())

    def test_result_cache_misses_across_fidelities(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        full = RunSpec(**BASE_RUN)
        hybrid = full.replace(fidelity="hybrid")
        cache.put(full.cache_key(), kind="run", spec=full.to_dict(),
                  payload={"tflops": 1.0})
        assert cache.get(full.cache_key()) is not None
        assert cache.get(hybrid.cache_key()) is None
        assert cache.misses == 1

    def test_fault_plan_changes_run_key(self):
        clean = RunSpec(**BASE_RUN)
        faulted = clean.replace(faults=("switch0:down@t=1ms,dur=1ms",))
        assert clean.cache_key() != faulted.cache_key()


class TestMemoKeyTracksDegradation:
    def _key(self, topology):
        return collective_cost_key(
            kind="all_reduce", payload_bytes=1e6,
            participants=(0, 1, 4, 5), algorithm="auto", profile="bursty",
            internode_launch_overhead=2.5e-3,
            intranode_launch_overhead=25e-6,
            internode_rate_efficiency=0.55,
            topology_fingerprint=topology.fingerprint(),
            degradation_stamp=topology.degradation_stamp(),
        )

    def test_degradation_invalidates_and_revalidates(self):
        topology = dual_node_cluster().topology
        healthy_key = self._key(topology)
        link = topology.links[0]
        link.set_capacity_fraction(0.5)
        degraded_key = self._key(topology)
        assert degraded_key != healthy_key
        link.set_capacity_fraction(1.0)
        # Reverting the fault restores the healthy key exactly, so
        # healthy-fabric memo entries become valid again.
        assert self._key(topology) == healthy_key

    def test_distinct_degradations_distinct_keys(self):
        topology = dual_node_cluster().topology
        link = topology.links[0]
        link.set_capacity_fraction(0.5)
        half = self._key(topology)
        link.set_capacity_fraction(0.25)
        assert self._key(topology) != half
