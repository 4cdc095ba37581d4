"""Failure-as-data vocabulary: TrialFailure, classification, retry."""

import pytest

from repro.campaign import (
    RetryPolicy,
    TrialFailure,
    classify_exception,
    failure_record,
    record_is_quarantined,
    record_outcome,
)
from repro.campaign.failures import crash_failure, normalize_retry
from repro.campaign.trial import Trial
from repro.core.errors import (
    ConfigurationError,
    TransientTrialError,
    WallClockTimeout,
)


def _raise_and_catch(exc):
    try:
        raise exc
    except type(exc) as caught:
        return caught


class TestClassification:
    def test_wall_clock_timeout_maps_to_timeout_outcome(self):
        failure = classify_exception(
            _raise_and_catch(WallClockTimeout("budget blown"))
        )
        assert failure.outcome == "timeout"
        assert failure.error_type == "WallClockTimeout"
        assert "budget blown" in failure.message

    def test_ordinary_exception_is_a_deterministic_error(self):
        failure = classify_exception(_raise_and_catch(RuntimeError("boom")))
        assert failure.outcome == "error"
        assert not failure.transient

    def test_transient_errors_are_flagged(self):
        for exc in (TransientTrialError("x"), OSError("y"), MemoryError()):
            assert classify_exception(_raise_and_catch(exc)).transient

    def test_traceback_digest_is_short_and_stable(self):
        a = classify_exception(_raise_and_catch(ValueError("v")))
        b = classify_exception(_raise_and_catch(ValueError("v")))
        assert len(a.traceback_digest) == 16
        # Same raise site, same type -> same fingerprint.
        assert (
            a.traceback_digest == b.traceback_digest
        )

    def test_crash_failure_shape(self):
        failure = crash_failure(attempts=2)
        assert failure.outcome == "crashed"
        assert failure.error_type == ""
        assert failure.transient
        assert failure.attempts == 2


class TestTrialFailureDocument:
    def test_invalid_outcome_rejected(self):
        with pytest.raises(ConfigurationError, match="outcome"):
            TrialFailure(outcome="ok")
        with pytest.raises(ConfigurationError, match="outcome"):
            TrialFailure(outcome="exploded")

    def test_unknown_key_strict_vs_lenient(self):
        doc = TrialFailure(outcome="error").to_dict()
        doc["from_the_future"] = 1
        with pytest.raises(ConfigurationError, match="from_the_future"):
            TrialFailure.from_dict(doc)
        assert TrialFailure.from_dict(doc, lenient=True).outcome == "error"

    def test_summary_mentions_quarantine_and_attempts(self):
        text = TrialFailure(
            outcome="timeout", error_type="WallClockTimeout",
            attempts=2, quarantined=True,
        ).summary()
        assert "quarantined" in text
        assert "2 attempt(s)" in text


class TestFailureRecords:
    TRIAL = Trial(
        index=0, params={"p": 1}, spec_doc={"name": "s"},
        workload_doc={"kind": "one_shot"}, backend="edge",
    )

    def test_failure_record_envelope(self):
        failure = classify_exception(_raise_and_catch(RuntimeError("boom")))
        record = failure_record(self.TRIAL, failure)
        assert record["key"] == self.TRIAL.key
        assert record["params"] == {"p": 1}
        assert record["outcome"] == "error"
        assert record["failure"]["error_type"] == "RuntimeError"
        assert "report" not in record

    def test_record_outcome_defaults_legacy_records_to_ok(self):
        assert record_outcome({"key": "k", "report": {}}) == "ok"
        assert record_outcome({"key": "k", "outcome": "timeout"}) == "timeout"

    def test_record_is_quarantined(self):
        assert not record_is_quarantined({"key": "k", "report": {}})
        assert not record_is_quarantined(
            {"outcome": "error", "failure": {"quarantined": False}}
        )
        assert record_is_quarantined(
            {"outcome": "error", "failure": {"quarantined": True}}
        )


class TestRetryPolicy:
    def test_deterministic_errors_never_retry(self):
        policy = RetryPolicy(max_attempts=5)
        failure = classify_exception(_raise_and_catch(RuntimeError("x")))
        assert not policy.should_retry(failure)

    def test_transient_retries_until_budget(self):
        policy = RetryPolicy(max_attempts=3)
        transient = classify_exception(
            _raise_and_catch(TransientTrialError("x")), attempts=1
        )
        assert policy.should_retry(transient)
        exhausted = classify_exception(
            _raise_and_catch(TransientTrialError("x")), attempts=3
        )
        assert not policy.should_retry(exhausted)

    def test_timeouts_not_retried_by_default(self):
        timeout = classify_exception(
            _raise_and_catch(WallClockTimeout("x"))
        )
        assert not RetryPolicy().should_retry(timeout)
        assert RetryPolicy(retry_timeout=True).should_retry(timeout)

    def test_crashes_retried_by_default(self):
        assert RetryPolicy().should_retry(crash_failure(attempts=1))
        assert not RetryPolicy(retry_crashed=False).should_retry(
            crash_failure(attempts=1)
        )

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=3.0)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.3)
        assert policy.delay_s(3) == pytest.approx(0.9)

    def test_finalize_quarantines_exhausted_retryables_only(self):
        policy = RetryPolicy(max_attempts=2)
        poison = crash_failure(attempts=2)
        assert policy.finalize(poison).quarantined
        deterministic = classify_exception(
            _raise_and_catch(RuntimeError("x")), attempts=1
        )
        assert not policy.finalize(deterministic).quarantined

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)

    def test_roundtrip_and_normalize(self):
        policy = RetryPolicy(max_attempts=7, retry_timeout=True)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        assert normalize_retry(policy) is policy
        assert normalize_retry(policy.to_dict()) == policy
        assert normalize_retry(None) is None
        with pytest.raises(ConfigurationError):
            normalize_retry("aggressive")
