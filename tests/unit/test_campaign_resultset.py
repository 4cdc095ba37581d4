"""ResultSet queries: filter, group_by, aggregate, tables, JSONL."""

import json

import pytest

from repro.campaign import ResultSet, Trial, TrialResult, canonical_json
from repro.core.errors import ConfigurationError


def make_result(index, params, report, cached=False):
    trial = Trial(
        index=index,
        params=params,
        spec_doc={"name": "t"},
        workload_doc={"kind": "burst"},
    )
    return TrialResult(
        trial=trial,
        line=canonical_json({
            "schema_version": 1,
            "key": trial.key,
            "params": params,
            "backend": "fast",
            "report": report,
        }),
        ok=True,
        cached=cached,
    )


@pytest.fixture
def results():
    rows = [
        ({"clock_hz": 100e3, "n": 2}, {"n_ok": 2, "n_transactions": 2,
                                       "goodput_bps": 1000.0,
                                       "throughput_tps": 10.0}),
        ({"clock_hz": 100e3, "n": 4}, {"n_ok": 4, "n_transactions": 4,
                                       "goodput_bps": 2000.0,
                                       "throughput_tps": 20.0}),
        ({"clock_hz": 400e3, "n": 2}, {"n_ok": 2, "n_transactions": 2,
                                       "goodput_bps": 4000.0,
                                       "throughput_tps": 40.0}),
        ({"clock_hz": 400e3, "n": 4}, {"n_ok": 3, "n_transactions": 4,
                                       "goodput_bps": 8000.0,
                                       "throughput_tps": 80.0}),
    ]
    return ResultSet(
        [
            make_result(i, params, report, cached=(i == 3))
            for i, (params, report) in enumerate(rows)
        ],
        executor="serial",
        wall_s=0.5,
        name="unit",
    )


class TestMetricResolution:
    def test_bare_name_prefers_params(self, results):
        assert results[0].value("clock_hz") == 100e3
        assert results[0].value("n_ok") == 2

    def test_dotted_path_into_record(self, results):
        assert results[0].value("report.goodput_bps") == 1000.0
        assert results[0].value("params.n") == 2

    def test_callable_metric(self, results):
        assert results[0].value(lambda r: r.report["n_ok"] * 10) == 20

    def test_missing_metric_raises_with_default_escape(self, results):
        with pytest.raises(ConfigurationError, match="metric"):
            results[0].value("nonexistent")
        assert results[0].value("nonexistent", default=None) is None
        with pytest.raises(ConfigurationError, match="resolve"):
            results[0].value("report.missing.deeper")


class TestQueries:
    def test_filter_by_params(self, results):
        fast = results.filter(clock_hz=400e3)
        assert len(fast) == 2
        assert all(r.params["clock_hz"] == 400e3 for r in fast)

    def test_filter_drops_rows_missing_the_key(self, results):
        """Heterogeneous grids (chained sub-grids) leave some rows
        without a given axis; filtering on it must exclude them, not
        raise."""
        mixed = ResultSet(
            list(results)
            + [make_result(9, {"other_axis": 1},
                           {"n_ok": 1, "n_transactions": 1,
                            "goodput_bps": 1.0, "throughput_tps": 1.0})],
        )
        kept = mixed.filter(clock_hz=100e3)
        assert len(kept) == 2
        assert mixed.filter(other_axis=1)[0].params == {"other_axis": 1}
        assert len(mixed.filter(no_such_axis=1)) == 0

    def test_filter_by_predicate(self, results):
        lossy = results.filter(lambda r: r.report["n_ok"]
                               < r.report["n_transactions"])
        assert len(lossy) == 1
        assert lossy[0].params == {"clock_hz": 400e3, "n": 4}

    def test_group_by_single_key_uses_scalar_keys(self, results):
        groups = results.group_by("clock_hz")
        assert set(groups) == {100e3, 400e3}
        assert len(groups[100e3]) == 2

    def test_group_by_two_keys_uses_tuples(self, results):
        groups = results.group_by("clock_hz", "n")
        assert set(groups) == {
            (100e3, 2), (100e3, 4), (400e3, 2), (400e3, 4),
        }

    def test_aggregate_scalar(self, results):
        assert results.aggregate("report.goodput_bps", agg="sum") == 15000.0
        assert results.aggregate("report.n_ok", agg="count") == 4
        assert results.aggregate("report.n_ok", agg=max) == 4

    def test_aggregate_grouped(self, results):
        by_clock = results.aggregate(
            "report.throughput_tps", agg="mean", by=("clock_hz",)
        )
        assert by_clock == {100e3: 15.0, 400e3: 60.0}

    def test_unknown_aggregation_rejected(self, results):
        with pytest.raises(ConfigurationError, match="agg"):
            results.aggregate("report.n_ok", agg="mode-ish")

    def test_series(self, results):
        series = results.filter(n=2).series("clock_hz", "report.goodput_bps")
        assert series == [(100e3, 1000.0), (400e3, 4000.0)]

    def test_slice_stays_a_resultset(self, results):
        head = results[:2]
        assert isinstance(head, ResultSet)
        assert len(head) == 2


class TestProvenanceAndOutput:
    def test_cache_accounting(self, results):
        assert results.executed == 3
        assert results.cached == 1
        assert results.cache_hit_rate == 0.25
        assert "unit" in results.summary()
        assert "25%" in results.summary()

    def test_to_table_renders_params_and_metrics(self, results):
        table = results.to_table()
        assert "clock_hz" in table
        assert "cached" in table
        assert "2/2" in table and "3/4" in table

    def test_to_table_custom_columns(self, results):
        table = results.to_table(columns=[
            ("clock", "clock_hz"),
            ("bps", "report.goodput_bps"),
        ])
        assert "clock" in table and "bps" in table
        assert "8,000" in table

    def test_to_jsonl_is_canonical(self, results, tmp_path):
        path = tmp_path / "out.jsonl"
        assert results.to_jsonl(path) == 4
        lines = path.read_text().splitlines()
        assert lines == [canonical_json(r.record) for r in results]
        assert all(json.loads(line)["backend"] == "fast" for line in lines)
