"""Campaign API integration: compile, execute, memoise, resume, query.

The PR's acceptance bar lives here:

* a 12-trial fault-rate campaign produces an identical ResultSet on
  the serial and process executors, and re-running it is served
  entirely from the on-disk cache;
* a seeded RandomTraffic campaign run serial, process-parallel and
  in shuffled trial order yields byte-identical ResultStore entries;
* interrupted campaigns resume, executing only the missing trials;
* ``sweep()`` call sites migrated here (see
  ``test_scenario_runner.py`` for the deprecation shim itself).
"""

import json

import pytest

import repro.campaign.executors
import repro.campaign.store
from repro.campaign import (
    Campaign,
    Grid,
    ResultStore,
    canonical_json,
    load_campaign,
)
from repro.campaign.trial import trial_record
from repro.core import Address
from repro.core.errors import ConfigurationError
from repro.faults import FaultSpec, RandomGlitches
from repro.scenario import (
    Burst,
    NodeSpec,
    RandomTraffic,
    SystemSpec,
    run,
)

THREE_CHIP = SystemSpec(
    name="campaign-three-chip",
    clock_hz=400_000.0,
    nodes=(
        NodeSpec("m", short_prefix=0x1, is_mediator=True),
        NodeSpec("a", short_prefix=0x2),
        NodeSpec("b", short_prefix=0x3),
    ),
)

BURST = Burst("m", Address.short(0x2, 5), bytes(range(8)), count=4)

#: The acceptance study: 12 glitch rates over a fixed burst.
FAULT_RATES = [0.0] + [250.0 * 2 ** i for i in range(11)]


def fault_campaign(name="fault-acceptance"):
    return Campaign(
        spec=THREE_CHIP,
        workload=BURST,
        grid=Grid.product(rate_hz=FAULT_RATES),
        faults=lambda p: FaultSpec(
            (RandomGlitches(seed=7, rate_hz=p["rate_hz"],
                            duration_s=0.002),),
        ),
        name=name,
    )


class TestCompilation:
    def test_spec_field_axis_overrides_spec_document(self):
        trials = Campaign(
            THREE_CHIP, BURST, grid={"clock_hz": [100e3, 400e3]}
        ).trials()
        assert [t.spec_doc["clock_hz"] for t in trials] == [100e3, 400e3]
        assert [t.params for t in trials] == [
            {"clock_hz": 100e3}, {"clock_hz": 400e3},
        ]

    def test_workload_document_patch(self):
        trials = Campaign(
            THREE_CHIP, BURST, grid={"workload.count": [1, 8]}
        ).trials()
        assert [t.workload_doc["count"] for t in trials] == [1, 8]

    def test_system_document_patch_reaches_nodes(self):
        trials = Campaign(
            THREE_CHIP, BURST,
            grid={"system.nodes.1.rx_buffer_bytes": [64, 4096]},
        ).trials()
        assert [
            t.spec_doc["nodes"][1]["rx_buffer_bytes"] for t in trials
        ] == [64, 4096]

    def test_faults_document_patch(self):
        trials = Campaign(
            THREE_CHIP, BURST,
            grid={"faults.faults.0.rate_hz": [0.0, 500.0]},
            faults=FaultSpec((RandomGlitches(seed=1, rate_hz=0.0),)),
        ).trials()
        assert [
            t.faults_doc["faults"][0]["rate_hz"] for t in trials
        ] == [0.0, 500.0]

    def test_faults_patch_without_faults_rejected(self):
        with pytest.raises(ConfigurationError, match="no faults"):
            Campaign(
                THREE_CHIP, BURST, grid={"faults.faults.0.rate_hz": [1.0]}
            ).trials()

    def test_patch_typo_fails_compilation(self):
        with pytest.raises(ConfigurationError, match="no field"):
            Campaign(
                THREE_CHIP, BURST, grid={"workload.cout": [1]}
            ).trials()

    def test_key_hashes_content_not_params(self):
        """Two grids compiling to the same documents share keys."""
        via_spec_field = Campaign(
            THREE_CHIP, BURST, grid={"clock_hz": [100e3]}
        ).trials()[0]
        via_patch = Campaign(
            THREE_CHIP, BURST, grid={"system.clock_hz": [100e3]}
        ).trials()[0]
        assert via_spec_field.params != via_patch.params
        assert via_spec_field.key == via_patch.key

    def test_trial_seed_injection_is_order_independent(self):
        campaign = Campaign(
            THREE_CHIP, BURST, grid={"workload.count": [1, 2]}, seed=99
        )
        seeds = [t.params["trial_seed"] for t in campaign.trials()]
        assert len(set(seeds)) == 2
        # A pure function of (campaign seed, point): recompiling (or
        # compiling on another machine) yields the same seeds.
        assert seeds == [t.params["trial_seed"] for t in campaign.trials()]

    def test_non_workload_campaign_rejected(self):
        with pytest.raises(ConfigurationError, match="Workload"):
            Campaign(THREE_CHIP, workload="burst").trials()

    def test_gridless_campaign_is_one_trial(self):
        trials = Campaign(THREE_CHIP, BURST).trials()
        assert len(trials) == 1
        assert trials[0].params == {}


class TestAcceptance:
    """The ISSUE's acceptance bar, asserted exactly."""

    def test_process_matches_serial_and_rerun_is_fully_cached(self, tmp_path):
        campaign = fault_campaign()
        assert len(campaign.trials()) >= 12

        serial_store = ResultStore(tmp_path / "serial")
        process_store = ResultStore(tmp_path / "process")

        serial = campaign.run(executor="serial", store=serial_store)
        parallel = campaign.run(
            executor="process", workers=2, store=process_store
        )
        assert serial.executed == len(FAULT_RATES)
        assert parallel.executed == len(FAULT_RATES)

        # Identical ResultSets: same records, in trial order.
        assert serial.records() == parallel.records()
        # Identical persisted bytes (order-insensitive: the process
        # pool appends in completion order).
        assert sorted(serial_store.entries()) == sorted(
            process_store.entries()
        )

        # Re-running hits the cache for every unchanged trial.
        rerun = campaign.run(
            executor="process", workers=2, store=process_store
        )
        assert rerun.executed == 0
        assert rerun.cached == len(FAULT_RATES)
        assert rerun.records() == parallel.records()

    def test_changed_trial_executes_while_rest_stay_cached(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign = fault_campaign()
        campaign.run(store=store)

        grown = Campaign(
            spec=campaign.spec,
            workload=campaign.workload,
            grid=Grid.product(rate_hz=FAULT_RATES + [999_999.0]),
            faults=campaign.faults,
            name=campaign.name,
        )
        second = grown.run(store=store)
        assert second.cached == len(FAULT_RATES)
        assert second.executed == 1
        assert second[-1].params["rate_hz"] == 999_999.0


class TestDeterminism:
    """Satellite: byte-identical store entries across executors and
    trial orders, for a seeded RandomTraffic campaign."""

    @staticmethod
    def _campaign():
        return Campaign(
            spec=THREE_CHIP,
            workload=lambda p: RandomTraffic(
                seed=p["traffic_seed"], count=6, mean_gap_s=0.01
            ),
            grid=Grid.product(traffic_seed=[1, 2], clock_hz=[100e3, 400e3]),
            backend="fast",
            name="determinism",
        )

    def test_serial_process_and_shuffled_runs_are_byte_identical(
        self, tmp_path
    ):
        campaign = self._campaign()
        n = len(campaign.trials())

        stores = {
            label: ResultStore(tmp_path / label)
            for label in ("serial", "process", "shuffled")
        }
        campaign.run(executor="serial", store=stores["serial"])
        campaign.run(executor="process", workers=2, store=stores["process"])
        campaign.run(
            executor="serial",
            store=stores["shuffled"],
            order=list(reversed(range(n))),
        )

        entry_sets = {
            label: sorted(store.entries())
            for label, store in stores.items()
        }
        assert entry_sets["serial"] == entry_sets["process"]
        assert entry_sets["serial"] == entry_sets["shuffled"]
        # And per-key, the stored line is the same bytes everywhere.
        for key in stores["serial"].keys():
            lines = {
                json.dumps(store.get(key), sort_keys=True)
                for store in stores.values()
            }
            assert len(lines) == 1, key

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigurationError, match="permutation"):
            self._campaign().run(order=[0, 0, 1, 2])


class TestOneTrialPath:
    """A pool worker ships each record's line: the parent stores that
    line as it is, and neither encodes nor decodes an ok outcome."""

    def test_pool_stores_each_workers_line(self, monkeypatch):
        puts, encodes, decodes = [], [], []
        real_put = ResultStore.put
        real_loads = json.loads

        def recording_put(store, record=None, line=None):
            puts.append((record, line))
            return real_put(store, record, line)

        def counting_encode(document):
            encodes.append(document)
            return canonical_json(document)

        def counting_decode(text, *args, **kwargs):
            decodes.append(text)
            return real_loads(text, *args, **kwargs)

        for backend in ("edge", "fast", "batch"):
            campaign = Campaign(
                THREE_CHIP, BURST, grid={"workload.count": [1, 2, 3]},
                backend=backend,
            )
            serial = ResultStore.memory()
            campaign.run(store=serial)
            puts.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ResultStore, "put", recording_put)
                patch.setattr(json, "loads", counting_decode)
                for module in (repro.campaign.executors, repro.campaign.store):
                    patch.setattr(module, "canonical_json", counting_encode)
                results = campaign.run(executor="process", workers=2)
            assert [r.record["backend"] for r in results] == [backend] * 3
            assert len(puts) == 3
            for record, line in puts:
                assert record is None and line is not None
                assert line == serial.line(json.loads(line)["key"])
            assert encodes == []
            assert decodes == []


class TestResume:
    def test_interrupted_campaign_resumes_missing_trials_only(self, tmp_path):
        campaign = fault_campaign("resume")
        trials = campaign.trials()
        store_dir = tmp_path / "store"

        # Simulate an interrupted run: only the first 5 trials landed.
        partial = Campaign(
            spec=campaign.spec,
            workload=campaign.workload,
            grid=Grid.product(rate_hz=FAULT_RATES[:5]),
            faults=campaign.faults,
            name=campaign.name,
        )
        partial.run(store=ResultStore(store_dir))

        status = campaign.status(str(store_dir))
        assert status.cached == 5
        assert status.pending == len(trials) - 5
        assert not status.complete

        resumed = campaign.run(store=str(store_dir))
        assert resumed.cached == 5
        assert resumed.executed == len(trials) - 5
        assert campaign.status(str(store_dir)).complete

    def test_resume_false_re_executes_everything(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        campaign = Campaign(
            THREE_CHIP, BURST, grid={"workload.count": [1, 2]}
        )
        campaign.run(store=store)
        again = campaign.run(store=store, resume=False)
        assert again.executed == 2
        assert again.cached == 0


class TestExecutionModes:
    def test_duplicate_trials_execute_once(self):
        results = Campaign(
            THREE_CHIP, BURST, grid={"workload.count": [2, 2]}
        ).run()
        assert results.executed == 1
        assert results.cached == 1
        assert results[0].record == results[1].record

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            Campaign(THREE_CHIP, BURST).run(executor="quantum")

    def test_live_report_matches_record(self):
        store = ResultStore.memory()
        (result,) = Campaign(THREE_CHIP, BURST).run(store=store)
        live_doc = run(THREE_CHIP, BURST).to_dict()
        assert store.line(result.trial.key) == canonical_json(
            trial_record(result.trial, live_doc)
        )
        # Wall-clock noise (and anything derived from it) never enters
        # the content-addressed record.
        live_doc.pop("wall_s")
        live_doc.pop("wall_throughput_tps")
        assert live_doc == result.report


class TestCampaignDocuments:
    def test_round_trips_through_json(self, tmp_path):
        campaign = Campaign(
            spec=THREE_CHIP,
            workload=BURST,
            grid=Grid.product(**{"workload.count": [1, 2]}),
            faults=FaultSpec((RandomGlitches(seed=3, rate_hz=100.0),)),
            backend="edge",
            name="doc",
            seed=5,
        )
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(campaign.to_dict()))
        loaded = load_campaign(str(path))
        assert loaded.name == "doc"
        assert loaded.backend == "edge"
        assert loaded.seed == 5
        assert [t.key for t in loaded.trials()] == [
            t.key for t in campaign.trials()
        ]

    def test_factory_campaigns_are_code_not_data(self):
        with pytest.raises(ConfigurationError, match="code"):
            fault_campaign().to_dict()

    def test_unknown_key_rejected_strict_tolerated_lenient(self):
        document = Campaign(THREE_CHIP, BURST, name="lenient").to_dict()
        document["future_field"] = True
        with pytest.raises(ConfigurationError, match="unknown"):
            Campaign.from_dict(document)
        loaded = Campaign.from_dict(document, lenient=True)
        assert loaded.name == "lenient"


class TestSchemaTolerance:
    """Satellite: schema_version stamps + lenient loaders mean cached
    records survive future schema growth."""

    def test_reports_carry_schema_version(self):
        from repro.core.schema import REPORT_SCHEMA_VERSION
        from repro.scenario import run

        report = run(THREE_CHIP, BURST, faults=FaultSpec())
        document = report.to_dict()
        assert document["schema_version"] == REPORT_SCHEMA_VERSION
        assert (
            document["reliability"]["schema_version"]
            == REPORT_SCHEMA_VERSION
        )

    def test_records_carry_schema_version(self):
        results = Campaign(THREE_CHIP, BURST).run()
        from repro.core.schema import REPORT_SCHEMA_VERSION

        assert results[0].record["schema_version"] == REPORT_SCHEMA_VERSION

    def test_lenient_spec_loader_drops_unknown_keys(self):
        document = THREE_CHIP.to_dict()
        document["future_field"] = 1
        document["nodes"][0]["future_node_field"] = 2
        with pytest.raises(ConfigurationError, match="unknown"):
            SystemSpec.from_dict(document)
        assert SystemSpec.from_dict(document, lenient=True) == THREE_CHIP

    def test_lenient_workload_loader_drops_unknown_keys(self):
        from repro.scenario import workload_from_dict

        document = BURST.to_dict()
        document["future_knob"] = True
        with pytest.raises(ConfigurationError):
            workload_from_dict(document)
        assert workload_from_dict(document, lenient=True) == BURST

    def test_lenient_fault_loader_drops_unknown_keys(self):
        faults = FaultSpec((RandomGlitches(seed=3, rate_hz=10.0),), name="f")
        document = faults.to_dict()
        document["future_field"] = 1
        document["faults"][0]["future_param"] = 2
        with pytest.raises(ConfigurationError):
            FaultSpec.from_dict(document)
        assert FaultSpec.from_dict(document, lenient=True) == faults

    def test_unknown_kind_still_fails_even_lenient(self):
        from repro.scenario import workload_from_dict

        with pytest.raises(ConfigurationError, match="unknown workload"):
            workload_from_dict({"kind": "antigravity"}, lenient=True)
