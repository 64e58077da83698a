"""The nested Config groups (the flat spellings they replaced are gone)."""

from __future__ import annotations

import pickle
import warnings

import pytest

from repro.config import Config, RetryConfig, TraceConfig, WireConfig
from repro.errors import ConfigError


class TestNestedGroups:
    def test_defaults(self):
        cfg = Config()
        assert cfg.wire == WireConfig()
        assert cfg.retry == RetryConfig()
        assert cfg.trace is None
        assert cfg.wire.coalesce and cfg.wire.header_cache and cfg.wire.shm
        assert cfg.retry.retries == 0
        cfg.validate()

    def test_nested_construction(self):
        cfg = Config(wire=WireConfig(coalesce=False, shm=False),
                     retry=RetryConfig(retries=3, backoff_s=0.1),
                     trace=TraceConfig(max_spans=10))
        assert not cfg.wire.coalesce and not cfg.wire.shm
        assert cfg.wire.header_cache  # untouched knobs keep their defaults
        assert cfg.retry.retries == 3
        assert cfg.trace.max_spans == 10
        cfg.validate()

    def test_trace_bool_shorthands(self):
        assert Config(trace=True).trace == TraceConfig()
        assert Config(trace=False).trace is None

    def test_replace_with_nested_group(self):
        cfg = Config()
        cfg2 = cfg.replace(retry=RetryConfig(retries=2))
        assert cfg2.retry.retries == 2
        assert cfg.retry.retries == 0

    @pytest.mark.parametrize("group,message", [
        (dict(retry=RetryConfig(retries=-1)), "retry.retries"),
        (dict(retry=RetryConfig(backoff_s=0.0)), "retry.backoff_s"),
        (dict(wire=WireConfig(coalesce_max_bytes=10)), "coalesce_max_bytes"),
        (dict(wire=WireConfig(coalesce_max_msgs=0)), "coalesce_max_msgs"),
        (dict(wire=WireConfig(shm_threshold_bytes=0)), "shm_threshold_bytes"),
        (dict(trace=TraceConfig(max_spans=0)), "max_spans"),
    ])
    def test_group_validation_messages(self, group, message):
        with pytest.raises(ConfigError, match=message):
            Config(**group).validate()

    def test_pickle_roundtrip(self):
        cfg = Config(wire=WireConfig(coalesce=False),
                     retry=RetryConfig(retries=1), trace=True)
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone.wire == cfg.wire
        assert clone.retry == cfg.retry
        assert clone.trace == cfg.trace


class TestFlatKnobsAreGone:
    def test_flat_kwargs_are_a_typeerror(self):
        with pytest.raises(TypeError, match="call_retries"):
            Config(call_retries=1)
        with pytest.raises(TypeError):
            Config().replace(wire_coalesce=False)

    def test_unknown_attribute_is_a_plain_attributeerror(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must not warn on the miss
            with pytest.raises(AttributeError):
                Config().no_such_knob
            with pytest.raises(AttributeError):
                Config().call_retries
