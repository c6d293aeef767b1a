"""Memory pools and device basics."""

import pytest

from repro.errors import ConfigurationError, OutOfMemoryError
from repro.hardware.devices import Device, DeviceKind, MemoryPool


class TestMemoryPool:
    def test_allocate_and_free(self):
        pool = MemoryPool(100.0, owner="gpu")
        pool.allocate("params", 60.0)
        assert pool.used_bytes == 60.0
        assert pool.free_bytes == 40.0
        assert pool.free("params") == 60.0
        assert pool.used_bytes == 0.0

    def test_labels_accumulate(self):
        pool = MemoryPool(100.0)
        pool.allocate("a", 10.0)
        pool.allocate("a", 15.0)
        assert pool.usage_by_label() == {"a": 25.0}

    def test_oom_raises_with_details(self):
        pool = MemoryPool(100.0, owner="gpu0")
        pool.allocate("a", 90.0)
        with pytest.raises(OutOfMemoryError) as err:
            pool.allocate("b", 20.0)
        assert err.value.device == "gpu0"
        assert err.value.required_bytes == 20.0
        assert err.value.available_bytes == pytest.approx(10.0)

    def test_oom_leaves_pool_unchanged(self):
        pool = MemoryPool(100.0)
        pool.allocate("a", 90.0)
        with pytest.raises(OutOfMemoryError):
            pool.allocate("b", 20.0)
        assert pool.used_bytes == 90.0

    def test_free_unknown_label_raises(self):
        pool = MemoryPool(10.0, owner="gpu0")
        with pytest.raises(ConfigurationError) as err:
            pool.free("nothing")
        assert "nothing" in str(err.value)
        assert "gpu0" in str(err.value)

    def test_free_unknown_label_missing_ok_sentinel(self):
        pool = MemoryPool(10.0)
        assert pool.free("nothing", missing_ok=True) == 0.0

    def test_double_free_raises(self):
        pool = MemoryPool(10.0)
        pool.allocate("a", 5.0)
        assert pool.free("a") == 5.0
        with pytest.raises(ConfigurationError):
            pool.free("a")
        # a label dropped by reset() (a fault revert) is gone as well
        pool.allocate("b", 2.0)
        pool.reset()
        with pytest.raises(ConfigurationError):
            pool.free("b")

    def test_zero_byte_allocate_is_freeable(self):
        # A zero-byte label still follows the acquire/release protocol:
        # it appears in the label map and frees exactly once.
        pool = MemoryPool(10.0)
        pool.allocate("empty", 0.0)
        assert pool.usage_by_label() == {"empty": 0.0}
        assert pool.free("empty") == 0.0
        with pytest.raises(ConfigurationError):
            pool.free("empty")

    def test_reset(self):
        pool = MemoryPool(10.0)
        pool.allocate("a", 5.0)
        pool.reset()
        assert pool.used_bytes == 0.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            MemoryPool(0.0)

    def test_rejects_negative_allocation(self):
        pool = MemoryPool(10.0)
        with pytest.raises(ConfigurationError):
            pool.allocate("a", -1.0)

    def test_exact_fill_is_allowed(self):
        pool = MemoryPool(10.0)
        pool.allocate("a", 10.0)
        assert pool.free_bytes == pytest.approx(0.0)


class TestDevice:
    def test_owner_backfilled_from_name(self):
        pool = MemoryPool(10.0)
        device = Device("node0/gpu0", DeviceKind.GPU, memory=pool)
        assert pool.owner == "node0/gpu0"

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            Device("", DeviceKind.GPU)

    def test_hashable_by_name(self):
        a = Device("x", DeviceKind.CPU)
        b = Device("x", DeviceKind.CPU)
        assert hash(a) == hash(b)

    def test_kind_enumeration(self):
        assert {k.value for k in DeviceKind} == {
            "cpu", "dram", "gpu", "nic", "nvme", "switch"
        }
