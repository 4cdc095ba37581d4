"""Wire schemas of the campaign server: round trips, leniency,
content-hash keys, and the job-status rendering."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.schema import REPORT_SCHEMA_VERSION
from repro.serve.protocol import (
    DEFAULT_CLIENT,
    JOB_STATES,
    TERMINAL_STATES,
    JobStatus,
    SubmitOptions,
    SubmitRequest,
    error_doc,
)

CAMPAIGN = {"system": {"name": "s"}, "workload": {"kind": "fixed"}}


class TestSubmitOptions:
    def test_defaults(self):
        options = SubmitOptions.from_dict({})
        assert options.executor == "serial"
        assert options.workers is None
        assert not options.retry_failed

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            SubmitOptions(executor="gpu")

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_bad_wall_budget_rejected(self, value):
        with pytest.raises(ConfigurationError, match="wall_timeout_s"):
            SubmitOptions(wall_timeout_s=value)
        with pytest.raises(ConfigurationError, match="wall_timeout_s"):
            SubmitOptions.from_dict({"wall_timeout_s": value})

    def test_strict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="shards"):
            SubmitOptions.from_dict({"shards": 4})

    @pytest.mark.parametrize(
        "options",
        [
            {"workers": "2"},
            {"workers": 2.0},
            {"workers": True},
            {"workers": 0},
            {"workers": -3},
            {"retry_failed": "false"},
            {"retry_failed": 0},
            {"retry_quarantined": "yes"},
        ],
    )
    def test_malformed_options_rejected_naming_the_field(self, options):
        (name,) = options
        with pytest.raises(ConfigurationError, match=name):
            SubmitOptions.from_dict(options)
        with pytest.raises(ConfigurationError, match=name):
            SubmitRequest.from_dict(
                {"campaign": CAMPAIGN, "options": options}, lenient=True
            )

    def test_any_positive_worker_count_is_a_valid_request(self):
        assert SubmitOptions(workers=10**6).workers == 10**6

    def test_lenient_drops_unknown_keys(self):
        options = SubmitOptions.from_dict(
            {"executor": "process", "shards": 4}, lenient=True
        )
        assert options.executor == "process"


class TestSubmitRequest:
    def test_round_trip_and_version_stamp(self):
        request = SubmitRequest(campaign=CAMPAIGN, client="alice")
        doc = request.to_dict()
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION
        assert SubmitRequest.from_dict(doc) == request

    def test_lenient_survives_future_keys(self):
        doc = SubmitRequest(campaign=CAMPAIGN).to_dict()
        doc["priority"] = "high"   # a future server's field
        request = SubmitRequest.from_dict(doc, lenient=True)
        assert request.campaign == CAMPAIGN
        assert request.client == DEFAULT_CLIENT

    def test_key_is_content_hash(self):
        first = SubmitRequest(campaign=CAMPAIGN, client="alice")
        same = SubmitRequest(campaign=dict(CAMPAIGN), client="alice")
        assert first.key == same.key
        # Any of campaign / options / client changes the key.
        assert first.key != SubmitRequest(
            campaign=CAMPAIGN, client="bob"
        ).key
        assert first.key != SubmitRequest(
            campaign=CAMPAIGN,
            options=SubmitOptions(executor="process"),
            client="alice",
        ).key

    def test_needs_campaign(self):
        with pytest.raises(ConfigurationError, match="campaign"):
            SubmitRequest.from_dict({"client": "alice"})
        with pytest.raises(ConfigurationError, match="campaign"):
            SubmitRequest(campaign={})

    def test_body_must_be_object(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            SubmitRequest.from_dict(["not", "a", "dict"])


class TestJobStatus:
    def test_lenient_drops_unknown_and_derived_keys(self):
        doc = JobStatus(job_id="j", client="c", state="done").to_dict()
        assert doc["terminal"] is True   # derived, emitted for clients
        doc["gpu_hours"] = 9
        status = JobStatus.from_dict(doc, lenient=True)
        assert status.terminal

    def test_states(self):
        for state in JOB_STATES:
            status = JobStatus(job_id="j", client="c", state=state)
            assert status.terminal == (state in TERMINAL_STATES)
        with pytest.raises(ConfigurationError, match="state"):
            JobStatus(job_id="j", client="c", state="exploded")

    def test_ok_needs_done_without_failures(self):
        done = JobStatus(job_id="j", client="c", state="done")
        assert done.ok
        assert not JobStatus(
            job_id="j", client="c", state="done", failed=1
        ).ok
        assert not JobStatus(job_id="j", client="c", state="failed").ok

    def test_summary_renders_counts(self):
        text = JobStatus(
            job_id="j0", client="c", state="running", name="study",
            n_trials=4, done=2, cached=1, executed=1, failed=1,
            resumptions=1,
        ).summary()
        assert "study" in text
        assert "2/4" in text
        assert "1 from cache" in text
        assert "1 FAILED" in text
        assert "resumed x1" in text


def test_error_doc_shape():
    doc = error_doc("boom", 429)
    assert doc["error"] == "boom"
    assert doc["status"] == 429
    assert doc["schema_version"] == REPORT_SCHEMA_VERSION
