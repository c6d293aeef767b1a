"""The canonical RunSpec / ExperimentSpec API, the codec every spec
class shares, and the cache-key contract."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    RunSpec,
    Spec,
    canonical_json,
    default_salt,
    run_spec,
    stable_key,
)
from repro.campaign import CampaignSpec
from repro.cluster import ClusterScenario, JobSpec
from repro.core.results import load_run_spec, metrics_to_dict
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSpec
from repro.inference import InferenceSpec

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestRunSpecValidation:
    def test_needs_exactly_one_size_field(self):
        with pytest.raises(ConfigurationError):
            RunSpec(strategy="ddp")
        with pytest.raises(ConfigurationError):
            RunSpec(strategy="ddp", size_billions=1.4, num_layers=24)

    def test_rejects_bad_tie_order(self):
        with pytest.raises(ConfigurationError):
            RunSpec(strategy="ddp", size_billions=1.4, tie_order="random")

    def test_rejects_warmup_at_or_above_iterations(self):
        with pytest.raises(ConfigurationError):
            RunSpec(strategy="ddp", size_billions=1.4,
                    iterations=2, warmup_iterations=2)

    def test_faults_normalized_to_tuple(self):
        spec = RunSpec(strategy="ddp", size_billions=1.4,
                       faults=["switch0:degrade@t=1ms,dur=1ms,mag=0.5"])
        assert isinstance(spec.faults, tuple)

    def test_label(self):
        spec = RunSpec(strategy="zero2", size_billions=1.4)
        assert spec.label == "zero2-1.4b-n1-B"


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self):
        spec = RunSpec(strategy="zero3", size_billions=6.0, nodes=2,
                       iterations=5, faults=("switch0:down@t=1ms,dur=1ms",),
                       tie_order="seeded", tie_seed=11)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        payload = RunSpec(strategy="ddp", size_billions=1.4).to_dict()
        payload["warp_factor"] = 9
        with pytest.raises(ConfigurationError) as err:
            RunSpec.from_dict(payload)
        assert "warp_factor" in str(err.value)

    def test_json_round_trip(self):
        spec = RunSpec(strategy="zero2", size_billions=1.4, sanitize=True)
        reloaded = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert reloaded == spec

    def test_experiment_spec_round_trip(self):
        spec = ExperimentSpec.full("fig7", iterations=12)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict({"experiment_id": "fig7", "bogus": 1})

    def test_replace(self):
        spec = RunSpec(strategy="ddp", size_billions=1.4)
        other = spec.replace(nodes=2)
        assert other.nodes == 2 and spec.nodes == 1
        assert other.cache_key() != spec.cache_key()

    def test_replace_revalidates(self):
        """Regression: replace() must re-run __post_init__ validation,
        never hand back an invalid spec."""
        spec = RunSpec(strategy="ddp", size_billions=1.4)
        with pytest.raises(ConfigurationError):
            spec.replace(iterations=0)
        with pytest.raises(ConfigurationError):
            spec.replace(fidelity="approximate")
        with pytest.raises(ConfigurationError):
            spec.replace(size_billions=None)  # neither size nor layers

    def test_replace_rejects_unknown_fields(self):
        spec = RunSpec(strategy="ddp", size_billions=1.4)
        with pytest.raises(ConfigurationError, match="warp_factor"):
            spec.replace(warp_factor=9)


class TestCacheKey:
    def test_key_ignores_dict_ordering(self):
        spec = RunSpec(strategy="zero2", size_billions=1.4)
        payload = spec.to_dict()
        shuffled = dict(reversed(list(payload.items())))
        assert (RunSpec.from_dict(shuffled).cache_key()
                == spec.cache_key())
        assert (stable_key({"kind": "run", "spec": shuffled})
                == stable_key({"kind": "run", "spec": payload}))

    def test_key_differs_by_field(self):
        a = RunSpec(strategy="zero2", size_billions=1.4)
        assert a.cache_key() != a.replace(iterations=4).cache_key()
        assert a.cache_key() != a.replace(strategy="zero3").cache_key()

    def test_salt_invalidates(self):
        spec = RunSpec(strategy="zero2", size_billions=1.4)
        assert (spec.cache_key(salt="v1") != spec.cache_key(salt="v2"))
        assert spec.cache_key() == spec.cache_key(salt=default_salt())

    def test_run_and_experiment_keys_never_collide(self):
        # The kind wrapper keeps the two spec namespaces disjoint.
        run_key = RunSpec(strategy="ddp", size_billions=1.4).cache_key()
        exp_key = ExperimentSpec.quick("fig1").cache_key()
        assert run_key != exp_key

    def test_key_stable_across_process_restart(self):
        spec = RunSpec(strategy="zero3", size_billions=6.0, nodes=2)
        expected = spec.cache_key()
        script = (
            "import json, sys\n"
            "from repro.api import RunSpec\n"
            "payload = json.loads(sys.stdin.read())\n"
            "print(RunSpec.from_dict(payload).cache_key())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(spec.to_dict()), capture_output=True,
            text=True, check=True, env={"PYTHONPATH": SRC, "PATH": ""},
        )
        assert out.stdout.strip() == expected

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            canonical_json({"x": float("nan")})


class TestRunSpecExecution:
    def test_run_spec_stamps_metrics(self):
        spec = RunSpec(strategy="ddp", size_billions=0.7, iterations=2)
        metrics = run_spec(spec)
        assert metrics.spec == spec
        payload = metrics_to_dict(metrics)
        assert load_run_spec(payload) == spec

    def test_run_spec_matches_kwarg_shim(self):
        from repro.api.build import preset_cluster
        from repro.core.runner import run_training
        from repro.core.search import model_for_billions
        from repro.experiments.common import make_strategy

        spec = RunSpec(strategy="zero2", size_billions=1.4, iterations=3)
        via_spec = run_spec(spec)
        via_kwargs = run_training(preset_cluster(1), make_strategy("zero2"),
                                  model_for_billions(1.4), iterations=3)
        assert via_spec.tflops == via_kwargs.tflops
        assert via_spec.iteration_time == via_kwargs.iteration_time

    def test_unknown_strategy_fails_cleanly(self):
        spec = RunSpec(strategy="zorro9", size_billions=1.4)
        with pytest.raises(ConfigurationError):
            run_spec(spec)


#: One payload per spec class, shaped as outside JSON: lists for tuple
#: fields, nested specs as objects, and an int in a float field.  Each
#: golden is the payload's fixed-salt key as computed before the classes
#: shared a codec: ``cache_key`` where the class has a ``KIND``, else the
#: hash of ``to_dict()``.  Equal goldens mean ints stay ints.
GOLDEN_SALT = "workload-golden"
CODEC_SAMPLES = {
    RunSpec: (
        {"strategy": "zero2", "size_billions": 1, "nodes": 2,
         "faults": ["node0/xgmi:degrade@t=0,dur=1,mag=0.5"],
         "fault_horizon": 2, "retry_max_retries": 3,
         "activation_recompute": False},
        "755f192eb29749dc4fc5e4ec67bbe76cc76e32f0e315ebbc16b5a58df65e7ed6"),
    InferenceSpec: (
        {"size_billions": 1, "gpus": 2, "arrivals": "trace",
         "trace_requests": [{"time": 0, "name": "a", "prompt_tokens": 8,
                             "output_tokens": 4}],
         "kv_fraction": 1, "trace": True},
        "46d65e6f6f8bef9a8222b5bfd2b29a43210851b3924b67c95e0611133d0126af"),
    ClusterScenario: (
        {"name": "c", "arrivals": "trace", "rate_per_hour": 600,
         "trace_jobs": [{"time": 0, "name": "j", "gpus": 2}],
         "leak_check": True},
        "e3f190f1ea1ce7172fba12d142c90101cacd61383bd9636605d399985dcd198d"),
    ExperimentSpec: (
        {"experiment_id": "fig7", "duration_s": 5, "full_sweep": True},
        "b18c10545850241d8f911178603dff9dec4b194d5949ccdd4f56d597d1aa5d44"),
    JobSpec: (
        {"name": "j", "size_billions": 1, "request_rate_per_s": 3,
         "workload": "inference"},
        "daa887c44a74e94f740e395e35bb859d1bef0b64a7c60259a3187b41270e7135"),
    CampaignSpec: (
        {"name": "c", "experiments": ["fig1"], "strategies": ["ddp"],
         "sizes_billions": [1], "nodes": [1, 2], "full": True,
         "clusters": [{"name": "a", "num_jobs": 2}],
         "inference": [{"size_billions": 1, "gpus": 2, "num_requests": 4}]},
        "494f70b955b23695f844dbef92092c73bab96c28091a7c217aab52c897d60f73"),
}
CODEC_CLASSES = list(CODEC_SAMPLES)

#: A JSON value of the wrong type for each annotation shape the spec
#: fields use.  A field annotated otherwise (a PEP 604 union, which
#: Python 3.9 cannot evaluate, or a new shape) fails the lookup.
WRONG_JSON = {
    "bool": "yes",
    "int": True,                       # a bool is not an int
    "float": "1.5",                    # a string is not a number
    "str": 5,
    "Optional[int]": "1",
    "Optional[float]": "1.5",
    "Tuple[str, ...]": "abc",          # a string is not a list
    "Tuple[int, ...]": ["1"],
    "Tuple[float, ...]": [True],
    "Tuple[Dict[str, object], ...]": [5],  # entries must be objects
    "Tuple[ClusterScenario, ...]": ["a"],
    "Tuple[InferenceSpec, ...]": [5],
}

#: A value each class's validation rejects.
INVALID = {RunSpec: {"nodes": 0}, InferenceSpec: {"gpus": 0},
           ClusterScenario: {"nodes": 0}, ExperimentSpec: {"duration_s": 0},
           JobSpec: {"gpus": 0}, CampaignSpec: {"name": ""}}


def _fields(predicate=lambda spec_field: True):
    return [pytest.param(cls, spec_field.name,
                         id=f"{cls.__name__}.{spec_field.name}")
            for cls in CODEC_CLASSES
            for spec_field in dataclasses.fields(cls)
            if predicate(spec_field)]


def _is_tuple(spec_field):
    return spec_field.type.startswith("Tuple[")


@dataclasses.dataclass(frozen=True)
class _Counted(Spec):
    count: str = "1"

    def __post_init__(self):
        super().__post_init__()
        int(self.count)


class TestSpecCodec:
    """The contract of the one codec, for every spec class."""

    @pytest.mark.parametrize("cls", CODEC_CLASSES,
                             ids=lambda cls: cls.__name__)
    def test_json_round_trip_keeps_the_golden_key(self, cls):
        payload, golden = CODEC_SAMPLES[cls]
        spec = cls.from_dict(payload)
        text = json.dumps(spec.to_dict())
        assert cls.from_dict(json.loads(text)) == spec
        key = (spec.cache_key(salt=GOLDEN_SALT) if hasattr(cls, "KIND")
               else stable_key(spec.to_dict(), salt=GOLDEN_SALT))
        assert key == golden

    @pytest.mark.parametrize("cls", CODEC_CLASSES,
                             ids=lambda cls: cls.__name__)
    def test_unknown_field_and_non_object_rejected(self, cls):
        payload, _ = CODEC_SAMPLES[cls]
        with pytest.raises(ConfigurationError,
                           match=f"unknown {cls.__name__} fields "
                                 r"\['warp_factor'\]"):
            cls.from_dict({**payload, "warp_factor": 9})
        with pytest.raises(ConfigurationError, match=cls.__name__):
            cls.from_dict([payload])

    @pytest.mark.parametrize(
        "cls,name", _fields(lambda f: f.default is dataclasses.MISSING))
    def test_missing_required_field(self, cls, name):
        payload = dict(CODEC_SAMPLES[cls][0])
        del payload[name]
        with pytest.raises(ConfigurationError,
                           match=f"{cls.__name__} payload needs '{name}'"):
            cls.from_dict(payload)

    @pytest.mark.parametrize("cls,name", _fields())
    def test_wrong_json_type(self, cls, name):
        shape = {f.name: f.type for f in dataclasses.fields(cls)}[name]
        payload = {**CODEC_SAMPLES[cls][0], name: WRONG_JSON[shape]}
        with pytest.raises(ConfigurationError,
                           match=f"{cls.__name__} field '{name}' expects"):
            cls.from_dict(payload)

    @pytest.mark.parametrize("cls", CODEC_CLASSES,
                             ids=lambda cls: cls.__name__)
    def test_lists_stored_as_tuples(self, cls):
        spec = cls(**CODEC_SAMPLES[cls][0])
        for spec_field in filter(_is_tuple, dataclasses.fields(cls)):
            assert isinstance(getattr(spec, spec_field.name), tuple)
        assert spec == cls.from_dict(CODEC_SAMPLES[cls][0])

    @pytest.mark.parametrize("cls,name", _fields(_is_tuple))
    def test_string_for_a_tuple_field_rejected(self, cls, name):
        with pytest.raises(ConfigurationError, match=f"'{name}' expects"):
            cls(**{**CODEC_SAMPLES[cls][0], name: "abc"})

    @pytest.mark.parametrize("cls", CODEC_CLASSES,
                             ids=lambda cls: cls.__name__)
    def test_replace_rejects_unknown_fields_and_revalidates(self, cls):
        spec = cls.from_dict(CODEC_SAMPLES[cls][0])
        with pytest.raises(ConfigurationError, match="warp_factor"):
            spec.replace(warp_factor=9)
        with pytest.raises(ConfigurationError):
            spec.replace(**INVALID[cls])

    def test_construction_errors_become_configuration_errors(self):
        assert _Counted.from_dict({"count": "2"}).count == "2"
        with pytest.raises(ConfigurationError,
                           match="bad _Counted payload: invalid literal"):
            _Counted.from_dict({"count": "many"})
