"""retry_call backoff mechanics, the idempotency registry, retry config."""

from __future__ import annotations

import pytest

import repro as oopp
from repro.config import Config, RetryConfig
from repro.errors import CallTimeoutError, ConfigError, RemoteExecutionError
from repro.runtime.futures import RETRYABLE_ERRORS, retry_call
from repro.runtime.oid import ObjectRef, class_spec
from repro.runtime.proxy import (
    GETATTR_METHOD,
    PING_METHOD,
    is_idempotent,
)
from repro.transport.faults import FaultPlan, FaultRule


class KV:
    """Module-level so its class spec resolves on both sides."""

    __oopp_idempotent__ = frozenset({"get"})

    def get(self, k):
        return k

    def put(self, k, v):
        return v


class TestRetryCall:
    def test_success_first_try_never_sleeps(self):
        sleeps = []
        out = retry_call(lambda: 42, retries=3, backoff_s=0.1,
                         sleep=sleeps.append)
        assert out == 42 and sleeps == []

    def test_exponential_backoff_schedule(self):
        sleeps = []
        attempts = []

        def attempt():
            attempts.append(1)
            if len(attempts) < 3:
                raise CallTimeoutError("not yet")
            return "ok"

        assert retry_call(attempt, retries=3, backoff_s=0.05,
                          sleep=sleeps.append) == "ok"
        assert sleeps == [0.05, 0.1]
        assert len(attempts) == 3

    def test_budget_exhaustion_reraises_last_error(self):
        calls = []

        def attempt():
            calls.append(1)
            raise CallTimeoutError("always")

        with pytest.raises(CallTimeoutError):
            retry_call(attempt, retries=2, backoff_s=0.01, sleep=lambda s: None)
        assert len(calls) == 3  # first try + 2 retries

    def test_non_retryable_error_passes_straight_through(self):
        calls = []

        def attempt():
            calls.append(1)
            raise RemoteExecutionError("the call ran and failed remotely")

        with pytest.raises(RemoteExecutionError):
            retry_call(attempt, retries=5, backoff_s=0.01, sleep=lambda s: None)
        assert len(calls) == 1  # proof of execution: never re-sent

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            retry_call(lambda: 1, retries=-1, backoff_s=0.1)

    def test_zero_retries_is_single_attempt(self):
        calls = []

        def attempt():
            calls.append(1)
            raise CallTimeoutError("once")

        with pytest.raises(CallTimeoutError):
            retry_call(attempt, retries=0, backoff_s=0.01, sleep=lambda s: None)
        assert len(calls) == 1

    def test_retryable_set_covers_ambiguous_failures(self):
        names = {cls.__name__ for cls in RETRYABLE_ERRORS}
        assert {"CallTimeoutError", "ChannelTimeoutError",
                "MachineDownError", "TransportError"} <= names


class TestIdempotencyRegistry:
    def test_implicit_reads_are_idempotent_even_without_spec(self):
        kernel = ObjectRef(machine=0, oid=0, spec=None)
        assert is_idempotent(kernel, PING_METHOD)
        assert is_idempotent(kernel, GETATTR_METHOD)
        assert is_idempotent(kernel, "ping")

    def test_unknown_method_without_spec_is_not_idempotent(self):
        kernel = ObjectRef(machine=0, oid=0, spec=None)
        assert not is_idempotent(kernel, "create")

    def test_class_opt_in_via_oopp_idempotent(self):
        ref = ObjectRef(machine=1, oid=7, spec=class_spec(KV))
        assert is_idempotent(ref, "get")
        assert not is_idempotent(ref, "put")

    def test_unresolvable_spec_is_conservative(self):
        ref = ObjectRef(machine=1, oid=7, spec=("no.such.module", "Nope"))
        assert not is_idempotent(ref, "get")

    def test_shipped_classes_declare_their_reads(self):
        assert "read" in oopp.PageDevice.__oopp_idempotent__
        assert "sum" in oopp.Block.__oopp_idempotent__


class TestRetryConfig:
    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigError, match="retry.retries"):
            Config(retry=RetryConfig(retries=-1)).validate()

    def test_zero_backoff_rejected(self):
        with pytest.raises(ConfigError, match="retry.backoff_s"):
            Config(retry=RetryConfig(backoff_s=0.0)).validate()

    def test_fault_plan_must_quack_like_a_plan(self):
        with pytest.raises(ConfigError, match="FaultPlan"):
            Config(fault_plan=42).validate()

    def test_fault_plan_rules_validated_through_config(self):
        bad = FaultPlan(rules=[FaultRule(action="explode", nth=1)])
        with pytest.raises(ConfigError, match="action"):
            Config(fault_plan=bad).validate()

    def test_good_retry_config_validates(self):
        plan = FaultPlan(seed=1, rules=[FaultRule(action="drop", nth=1)])
        Config(retry=RetryConfig(retries=3, backoff_s=0.01),
               fault_plan=plan).validate()
