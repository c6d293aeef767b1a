"""The spec contract across kinds.

Training (:class:`repro.api.RunSpec`), serving
(:class:`repro.inference.InferenceSpec`), cluster scenarios and
experiments share one codec (:class:`repro.api.spec.Spec`), key the
campaign result cache under their ``KIND``, and are dispatched by
campaigns through one ``{KIND: class}`` table
(:data:`repro.campaign.spec.SPEC_KINDS`).  These tests pin that table,
round trips, fixed-salt keys and labels across kinds, and campaigns
that mix kinds.
"""

import pytest

from repro.api import RunSpec
from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.runner import execute_job
from repro.campaign.spec import SPEC_KINDS, Job
from repro.cluster import ClusterScenario
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSpec
from repro.inference import InferenceSpec

KINDS = ("train", "inference")


def _spec_for(kind):
    if kind == "train":
        return RunSpec(strategy="zero2", size_billions=0.7, iterations=3)
    if kind == "inference":
        return InferenceSpec(size_billions=0.7, gpus=2, num_requests=8)
    if kind == "experiment":
        return ExperimentSpec("fig7", iterations=4, fidelity="hybrid")
    return ClusterScenario(name="golden", policy="sjf", num_jobs=6)


#: Fixed-salt cache keys: these must NEVER change for an unchanged spec
#: payload (the result cache's correctness depends on it).  The salt is
#: pinned so the golden survives version bumps, which intentionally
#: rotate the *default* salt.
GOLDEN_SALT = "workload-golden"
GOLDEN_KEYS = {
    "train": "23e7c5d923fd356c66680a4b891e8bdd"
             "5759fcbe2da312d569fc8f3bbbdf194e",
    "inference": "59cfdac75cfc462c605d51ff533afbe2"
                 "7bb514eb5f6f3b5d37ec79b3cbae015b",
    "experiment": "1110191e7c0ba9cfe41e3e7d99e8abee"
                  "7526367c140974abb44b1857cceb7222",
    "cluster": "48db042bf3b9a756e6e7951c348fc1d8"
               "2ced57c049ad24b4e9e967049e9a96a4",
}
GOLDEN_LABELS = {
    "train": "zero2-0.7b-n1-B",
    "inference": "infer-0.7b-tp2-n1-continuous-p4x8",
}


class TestProtocol:
    def test_kinds(self):
        assert tuple(SPEC_KINDS) == ("experiment", "run", "cluster",
                                     "inference")

    @pytest.mark.parametrize("kind", KINDS)
    def test_specs_satisfy_protocol(self, kind):
        spec = _spec_for(kind)
        assert SPEC_KINDS[type(spec).KIND] is type(spec)
        assert Job("job", spec).kind == type(spec).KIND
        assert callable(spec.run) and spec.label

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="unknown job kind 'batch'"):
            execute_job({"kind": "batch", "spec": {}})


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_to_dict_from_dict_is_identity(self, kind):
        spec = _spec_for(kind)
        assert type(spec).from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("kind", KINDS)
    def test_spec_from_payload_dispatches(self, kind):
        payload = Job("job", _spec_for(kind)).to_payload()
        spec = SPEC_KINDS[payload["kind"]].from_dict(payload["spec"])
        assert spec == _spec_for(kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_unknown_payload_fields_rejected(self, kind):
        spec = _spec_for(kind)
        payload = dict(spec.to_dict())
        payload["not_a_field"] = 1
        with pytest.raises(ConfigurationError, match="not_a_field"):
            type(spec).from_dict(payload)


class TestCacheKeys:
    @pytest.mark.parametrize("kind", GOLDEN_KEYS)
    def test_fixed_salt_golden(self, kind):
        """Keyed payloads are stable across releases (cache contract)."""
        spec = _spec_for(kind)
        assert spec.cache_key(salt=GOLDEN_SALT) == GOLDEN_KEYS[kind]

    @pytest.mark.parametrize("kind", GOLDEN_LABELS)
    def test_label_golden(self, kind):
        assert _spec_for(kind).label == GOLDEN_LABELS[kind]

    def test_kinds_never_collide(self):
        """Specs of two kinds can never share a cache slot, even if
        their field dicts were to coincide."""
        keys = {kind: _spec_for(kind).cache_key(salt=GOLDEN_SALT)
                for kind in GOLDEN_KEYS}
        assert len(set(keys.values())) == len(keys)

    @pytest.mark.parametrize("kind", KINDS)
    def test_key_tracks_fields(self, kind):
        spec = _spec_for(kind)
        changed = (spec.replace(iterations=spec.iterations + 1)
                   if kind == "train"
                   else spec.replace(num_requests=spec.num_requests + 1))
        assert (changed.cache_key(salt=GOLDEN_SALT)
                != spec.cache_key(salt=GOLDEN_SALT))


class TestCampaignAcrossWorkloads:
    def _campaign(self):
        return CampaignSpec(
            name="workloads",
            strategies=("ddp",),
            sizes_billions=(0.35,),
            iterations=2,
            inference=(InferenceSpec(size_billions=0.35, gpus=2,
                                     num_requests=4),),
        )

    def test_expansion_is_deterministic_and_mixed(self):
        jobs = self._campaign().expand()
        assert [job.kind for job in jobs] == ["run", "inference"]
        assert jobs[1].job_id == "inference/infer-0.35b-tp2-n1-continuous-p4x4"
        again = self._campaign().expand()
        assert [job.job_id for job in again] == [job.job_id for job in jobs]

    def test_campaign_round_trips_through_json_dict(self):
        campaign = self._campaign()
        rebuilt = CampaignSpec.from_dict(campaign.to_dict())
        assert rebuilt == campaign

    def test_serial_and_parallel_payloads_identical(self):
        """Worker count must not leak into any cached payload, for
        either workload kind."""
        serial = run_campaign(self._campaign(), workers=1, cache=None)
        parallel = run_campaign(self._campaign(), workers=2, cache=None)
        assert [job.job_id for job in serial.jobs] == \
               [job.job_id for job in parallel.jobs]
        for ours, theirs in zip(serial.jobs, parallel.jobs):
            assert ours.payload == theirs.payload
