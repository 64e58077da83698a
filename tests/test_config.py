"""Config validation and defaults."""

from __future__ import annotations

import os

import pytest

from repro.config import Config, DiskModel, NetworkModel, ServeConfig
from repro.errors import ConfigError


class TestValidation:
    def test_defaults_valid(self):
        Config().validate()

    @pytest.mark.parametrize("field,value", [
        ("backend", "nope"),
        ("n_machines", 0),
        ("call_timeout_s", 0.0),
        ("pickle_protocol", 1),
        ("pickle_protocol", 6),
        ("startup_timeout_s", 0),
        ("shutdown_timeout_s", -1),
        ("sim_default_compute_s", -0.5),
        ("serve", ServeConfig(workers=0)),
        ("mp_start_method", "teleport"),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            Config(**{field: value}).validate()

    def test_serve_yield_headroom(self):
        assert ServeConfig().yield_headroom == 16
        Config(serve=ServeConfig(yield_headroom=0)).validate()
        with pytest.raises(ConfigError):
            Config(serve=ServeConfig(yield_headroom=-1)).validate()

    def test_replace_returns_validated_copy(self):
        cfg = Config()
        cfg2 = cfg.replace(n_machines=8)
        assert cfg2.n_machines == 8 and cfg.n_machines == 4
        with pytest.raises(ConfigError):
            cfg.replace(n_machines=-1)

    def test_network_model_validation(self):
        with pytest.raises(ConfigError):
            NetworkModel(latency_s=-1).validate()
        with pytest.raises(ConfigError):
            NetworkModel(bandwidth_Bps=0).validate()
        with pytest.raises(ConfigError):
            NetworkModel(per_message_cpu_s=-1).validate()
        with pytest.raises(ConfigError):
            NetworkModel(backplane_Bps=-1).validate()

    def test_disk_model_validation(self):
        with pytest.raises(ConfigError):
            DiskModel(seek_s=-1).validate()
        with pytest.raises(ConfigError):
            DiskModel(bandwidth_Bps=0).validate()


class TestStorageRoot:
    def test_explicit_root_created(self, tmp_path):
        root = str(tmp_path / "deep" / "root")
        cfg = Config(storage_root=root)
        assert cfg.resolve_storage_root() == root
        assert os.path.isdir(root)

    def test_default_root_is_per_process(self):
        cfg = Config()
        root = cfg.resolve_storage_root()
        assert str(os.getpid()) in root
        assert os.path.isdir(root)
