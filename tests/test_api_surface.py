"""Public API surface: the names README/docs promise must exist."""

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_path(self):
        """The exact imports the README quickstart uses."""
        from repro import RunSpec, model_for_billions, run_spec
        from repro.hardware import single_node_cluster
        from repro.parallel import zero2
        assert callable(run_spec)
        assert RunSpec is not None
        assert callable(model_for_billions)
        assert callable(single_node_cluster)
        assert callable(zero2)

    def test_run_training_shim_removed(self):
        """The deprecated top-level alias now fails loudly, with a map."""
        with pytest.raises(ImportError, match="repro.core.run_training"):
            from repro import run_training  # noqa: F401
        with pytest.raises(ImportError, match="run_spec"):
            repro.run_training
        assert "run_training" not in repro.__all__
        # Unknown names still raise a plain AttributeError.
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_positional_runner_still_importable(self):
        """The replacement the error message points at actually works."""
        import warnings

        from repro import model_for_billions
        from repro.core import run_training
        from repro.hardware import single_node_cluster
        from repro.parallel import zero2

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            metrics = run_training(single_node_cluster(), zero2(),
                                   model_for_billions(0.7), iterations=2)
        assert metrics.tflops > 0
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]

    def test_exceptions_subclass_base(self):
        for name in ("ConfigurationError", "OutOfMemoryError",
                     "CapabilityError", "SimulationError", "TopologyError"):
            err = getattr(repro, name)
            assert issubclass(err, repro.ReproError)


class TestSubpackageSurfaces:
    @pytest.mark.parametrize("module_name", [
        "repro.hardware", "repro.sim", "repro.model", "repro.collectives",
        "repro.parallel", "repro.runtime", "repro.telemetry", "repro.stress",
        "repro.core", "repro.experiments",
    ])
    def test_all_exports_resolve(self, module_name):
        import importlib
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_strategy_factories_cover_paper_configs(self):
        from repro.experiments.common import ALL_STRATEGIES
        expected = {
            "ddp", "megatron", "zero1", "zero2", "zero3",
            "zero1_opt_cpu", "zero2_opt_cpu", "zero3_opt_cpu_param_cpu",
            "zero3_opt_nvme", "zero3_opt_nvme_param_nvme",
        }
        assert expected <= set(ALL_STRATEGIES)

    def test_every_module_has_docstring(self):
        import importlib
        import pkgutil

        undocumented = []
        package = importlib.import_module("repro")
        for info in pkgutil.walk_packages(package.__path__, "repro."):
            module = importlib.import_module(info.name)
            if not (module.__doc__ or "").strip():
                undocumented.append(info.name)
        assert not undocumented, undocumented
