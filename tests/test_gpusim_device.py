"""Tests for device specs, occupancy and launch validation."""

import pytest

from repro.errors import DeviceError, LaunchError
from repro.gpusim import (
    DeviceSpec,
    LaunchConfig,
    get_device,
    list_devices,
    register_device,
    resident_blocks,
)


class TestDeviceRegistry:
    def test_builtin_devices_present(self):
        for name in ("v100", "gh200", "mi250x", "h100", "cpu"):
            assert name in list_devices()

    def test_lookup_case_insensitive(self):
        assert get_device("V100") is get_device("v100")

    def test_unknown_device_raises(self):
        with pytest.raises(DeviceError):
            get_device("tpu9000")

    def test_duplicate_registration_rejected(self):
        spec = get_device("v100")
        with pytest.raises(DeviceError):
            register_device(spec)

    def test_amd_wavefront_width(self):
        assert get_device("mi250x").warp_size == 64

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(DeviceError):
            DeviceSpec(name="bad", vendor="x", num_sms=0)
        with pytest.raises(DeviceError):
            DeviceSpec(name="bad", vendor="x", num_sms=1, mem_bandwidth_gbs=0)

    def test_lpu_is_deterministic(self):
        # Importing repro.lpu registers the device.
        import repro.lpu  # noqa: F401

        assert get_device("lpu").deterministic


class TestOccupancy:
    def test_resident_blocks_thread_limited(self):
        dev = get_device("v100")
        # 1024-thread blocks: 2 per SM (2048 limit).
        assert resident_blocks(dev, 1024) == 2 * dev.num_sms

    def test_resident_blocks_block_limited(self):
        dev = get_device("v100")
        # 32-thread blocks: the 32-blocks/SM cap binds before threads.
        assert resident_blocks(dev, 32) == 32 * dev.num_sms

    def test_invalid_inputs_raise(self):
        dev = get_device("v100")
        with pytest.raises(LaunchError):
            resident_blocks(dev, 0)
        with pytest.raises(LaunchError):
            resident_blocks(dev, 4096)


class TestLaunchConfig:
    def test_basic_properties(self):
        lc = LaunchConfig(device=get_device("v100"), n_blocks=100, threads_per_block=128)
        assert lc.total_threads == 12800

    def test_too_many_threads_rejected(self):
        with pytest.raises(LaunchError):
            LaunchConfig(device=get_device("v100"), n_blocks=1, threads_per_block=2048)

    def test_shared_memory_limit(self):
        dev = get_device("v100")
        with pytest.raises(LaunchError):
            LaunchConfig(
                device=dev, n_blocks=1, threads_per_block=64,
                shared_mem_bytes=dev.shared_mem_per_block + 1,
            )

    def test_zero_blocks_rejected(self):
        with pytest.raises(LaunchError):
            LaunchConfig(device=get_device("v100"), n_blocks=0, threads_per_block=64)
