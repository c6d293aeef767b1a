"""Max-model-size search."""

import pytest

from repro.core.search import (
    PAPER_SIZE_GRID,
    fits,
    max_model_size,
    max_model_size_on_grid,
    model_for_billions,
    snap_to_grid,
)
from repro.errors import OutOfMemoryError
from repro.hardware import single_node_cluster
from repro.model import paper_model, total_parameters
from repro.parallel import DdpStrategy, zero3


@pytest.fixture()
def cluster():
    c = single_node_cluster()
    c.reset()
    return c


class TestFits:
    def test_small_model_fits(self, cluster):
        assert fits(cluster, DdpStrategy(), paper_model(4))

    def test_huge_model_does_not(self, cluster):
        assert not fits(cluster, DdpStrategy(), paper_model(200))


class TestSearch:
    def test_result_is_exact_boundary(self, cluster):
        result = max_model_size(cluster, DdpStrategy())
        assert fits(cluster, DdpStrategy(), paper_model(result.max_layers))
        assert not fits(cluster, DdpStrategy(),
                        paper_model(result.max_layers + 1))

    def test_parameters_match_layers(self, cluster):
        result = max_model_size(cluster, DdpStrategy())
        assert result.max_parameters == total_parameters(
            paper_model(result.max_layers))

    def test_zero3_fits_more_than_ddp(self, cluster):
        ddp = max_model_size(cluster, DdpStrategy())
        z3 = max_model_size(cluster, zero3())
        assert z3.max_parameters > 3 * ddp.max_parameters

    def test_max_layers_cap_respected(self, cluster):
        result = max_model_size(cluster, zero3(), max_layers=10)
        assert result.max_layers <= 10

    def test_impossible_configuration_raises(self, cluster):
        class Impossible(DdpStrategy):
            def memory_plan(self, ctx):
                plan = super().memory_plan(ctx)
                plan.add_gpu("hog", 1e15)
                return plan

        with pytest.raises(OutOfMemoryError):
            max_model_size(cluster, Impossible())


class TestGrid:
    def test_snap_rounds_down(self):
        assert snap_to_grid(int(5.4e9)) == 5.2
        assert snap_to_grid(int(1.45e9)) == 1.4

    def test_snap_allows_small_tolerance(self):
        assert snap_to_grid(int(5.18e9)) == 5.2

    def test_snap_below_grid_is_none(self):
        assert snap_to_grid(int(0.2e9)) is None

    def test_grid_is_sorted_unique(self):
        assert list(PAPER_SIZE_GRID) == sorted(set(PAPER_SIZE_GRID))

    def test_on_grid_search(self, cluster):
        snapped = max_model_size_on_grid(cluster, DdpStrategy())
        assert snapped == 1.4  # the paper's DDP cell


class TestModelForBillions:
    @pytest.mark.parametrize("billions", [0.7, 1.4, 5.2, 11.6, 33.3])
    def test_reaches_target(self, billions):
        model = model_for_billions(billions)
        total = total_parameters(model)
        assert total >= billions * 1e9
        assert total <= billions * 1e9 + 6e7  # within one layer
