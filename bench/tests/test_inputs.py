"""Seeded inputs are a pure function of the seed, in exact proportions."""

import collections
import random

import pytest

from bench import WORKLOADS
from bench import workloads as w


def as_data(specs):
    return [(type(spec).__name__, spec.to_dict()) for spec in specs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert as_data(w.generate(workload, 5)) == as_data(w.generate(workload, 5))


@pytest.mark.parametrize("workload", ["cluster_fifo", "serve_chat",
                                      "sweep_1node"])
def test_other_seed_other_inputs(workload):
    assert as_data(w.generate(workload, 5)) != as_data(w.generate(workload, 6))


def test_train_takes_no_seed():
    assert as_data(w.generate("train_dual_zero3", 1)) == as_data(
        w.generate("train_dual_zero3", 9))


def test_balanced_draws_exact_proportions():
    drawn = w.balanced([(0.5, "a"), (0.3, "b"), (0.2, "c")], 40,
                       random.Random(3))
    assert collections.Counter(drawn) == {"a": 20, "b": 12, "c": 8}
    odd = w.balanced([(0.6, "x"), (0.3, "y"), (0.1, "z")], 7,
                     random.Random(3))
    assert collections.Counter(odd) == {"x": 4, "y": 2, "z": 1}


def test_arrival_times_increase_with_a_fixed_span():
    spans = []
    for seed in range(5):
        times = w.arrival_times(2.0, 200, random.Random(seed))
        assert all(later > earlier for earlier, later in zip(times, times[1:]))
        spans.append(times[-1])
    # Stratified gaps: the span moves far less than a Poisson sum's 7%.
    assert max(spans) / min(spans) < 1.03


def test_sweep_covers_every_cell_once_with_balanced_flags():
    specs = w.generate("sweep_1node", 4)
    cells = collections.Counter((s.strategy, s.size_billions) for s in specs)
    assert len(cells) == len(w.SWEEP_STRATEGIES) * len(w.SWEEP_SIZES)
    assert set(cells.values()) == {1}
    assert sum(s.leak_check for s in specs) == len(specs) // 4
    assert sum(s.trace for s in specs) == len(specs) // 4
    assert sum(bool(s.faults) for s in specs) == len(specs) // 5
    assert {s.fidelity for s in specs} == {"full", "hybrid"}
    assert {s.iterations for s in specs} == set(w.SWEEP_ITERATIONS)
