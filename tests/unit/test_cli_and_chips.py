"""Unit tests for the CLI entry point and the behavioural chips."""

import pytest

from repro.__main__ import main
from repro.core import MBusSystem
from repro.systems.chips import (
    CMD_SAMPLE_REPLY,
    CMD_SAMPLE_REQUEST,
    FU_APP,
    ImagerChip,
    ProcessorSpec,
    RadioChip,
    TemperatureSensorChip,
)


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "cpu -> sensor" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for figure in ("Figure 9", "Figure 10", "Figure 14", "Figure 15"):
            assert figure in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for table in ("Table 1", "Table 2", "Table 3"):
            assert table in out

    def test_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "71 hours" in out

    def test_vcd(self, tmp_path, capsys):
        path = str(tmp_path / "out.vcd")
        assert main(["vcd", path]) == 0
        assert "$enddefinitions" in open(path).read()

    def test_run_with_output_file(self, tmp_path, capsys):
        import json

        out = str(tmp_path / "report.json")
        assert main([
            "run", "examples/scenarios/fig14_burst.json",
            "--backend", "fast", "--output", out,
        ]) == 0
        document = json.load(open(out))
        assert document["backend"] == "fast"
        assert document["n_ok"] == 6
        assert document["workload"]["kind"] == "burst"
        assert "wrote report" in capsys.readouterr().out

    def test_run_with_faults_forces_edge_and_reports_reliability(
        self, tmp_path, capsys
    ):
        import json

        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({
            "name": "drift",
            "faults": [{"kind": "clock_drift", "node": "m", "ppm": 100.0}],
        }))
        out = str(tmp_path / "report.json")
        assert main([
            "run", "examples/scenarios/fig14_burst.json",
            "--faults", str(faults), "--output", out,
        ]) == 0
        document = json.load(open(out))
        assert document["backend"] == "edge"
        assert document["faults"]["name"] == "drift"
        assert document["reliability"]["recovery_rate"] == 1.0

    def test_sweep_with_jsonl_output(self, tmp_path, capsys):
        import json

        out = str(tmp_path / "points.jsonl")
        assert main([
            "sweep", "examples/scenarios/fig14_burst.json",
            "--backend", "fast", "--output", out,
        ]) == 0
        lines = [
            json.loads(line)
            for line in open(out).read().splitlines() if line
        ]
        assert len(lines) == 4          # the fig14 clock_hz grid
        assert all("params" in line and "report" in line for line in lines)
        assert "4 sweep points" in capsys.readouterr().out

    def test_sweep_names_failed_points_and_exits_1(self, tmp_path, capsys):
        import json

        scenario = json.load(open("examples/scenarios/fig14_burst.json"))
        scenario["sweep"] = {"workload.source": ["m", "nosuch"]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(scenario))
        assert main(["sweep", str(path)]) == 1
        captured = capsys.readouterr()
        assert "workload.source=m " in captured.out   # the ok row
        (error,) = captured.err.splitlines()
        assert "workload.source=nosuch" in error
        assert "ConfigurationError" in error
        assert "Traceback" not in captured.err

    def test_reliability_command(self, capsys):
        assert main(["reliability"]) == 0
        out = capsys.readouterr().out
        assert "Recovery rate vs. glitch rate" in out
        assert "recovery rate" in out


CAMPAIGN_DOC = "examples/scenarios/recovery_campaign.json"


class TestCampaignCli:
    def test_campaign_run_then_rerun_hits_cache(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "store")
        assert main([
            "campaign", "run", CAMPAIGN_DOC, "--store", store, "--json",
        ]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["n_trials"] == 4
        assert first["executed"] == 4
        assert all(
            record["report"]["reliability"] is not None
            for record in first["results"]
        )

        assert main([
            "campaign", "run", CAMPAIGN_DOC, "--store", store, "--json",
        ]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cached"] == 4
        assert second["executed"] == 0
        assert second["results"] == first["results"]

    def test_campaign_status(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "status", CAMPAIGN_DOC,
                     "--store", store]) == 0
        assert "0/4" in capsys.readouterr().out
        assert main(["campaign", "run", CAMPAIGN_DOC, "--store", store,
                     "--output", str(tmp_path / "out.jsonl")]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", CAMPAIGN_DOC,
                     "--store", store]) == 0
        assert "4/4" in capsys.readouterr().out

    def test_campaign_results_query_and_jsonl(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "store")
        out = str(tmp_path / "records.jsonl")
        assert main(["campaign", "run", CAMPAIGN_DOC, "--store", store]) == 0
        capsys.readouterr()
        assert main([
            "campaign", "results", CAMPAIGN_DOC, "--store", store,
            "--where", "faults.faults.0.rate_hz=4000.0",
            "--output", out,
        ]) == 0
        lines = [
            json.loads(line)
            for line in open(out).read().splitlines() if line
        ]
        assert len(lines) == 1
        assert lines[0]["params"]["faults.faults.0.rate_hz"] == 4000.0

    def test_campaign_results_output_is_the_stored_lines(
        self, tmp_path, capsys
    ):
        from repro.campaign import ResultStore, load_campaign

        store = str(tmp_path / "store")
        out = tmp_path / "records.jsonl"
        assert main(["campaign", "run", CAMPAIGN_DOC, "--store", store]) == 0
        assert main([
            "campaign", "results", CAMPAIGN_DOC, "--store", store,
            "--output", str(out),
        ]) == 0
        capsys.readouterr()
        stored = ResultStore(store, readonly=True)
        lines = [
            stored.line(trial.key)
            for trial in load_campaign(CAMPAIGN_DOC).trials()
        ]
        assert out.read_bytes() == "".join(
            line + "\n" for line in lines
        ).encode()

    def test_campaign_results_empty_store_fails(self, tmp_path, capsys):
        assert main([
            "campaign", "results", CAMPAIGN_DOC,
            "--store", str(tmp_path / "empty"),
        ]) == 1
        assert "no stored results" in capsys.readouterr().err


class TestFailureCli:
    """Failure-as-data surface: exit codes, --failed-only, compact."""

    @pytest.fixture
    def chaos_doc(self, tmp_path):
        import json

        doc = tmp_path / "chaos.json"
        doc.write_text(json.dumps({
            "name": "cli-chaos",
            "system": {
                "name": "cli-chaos",
                "nodes": [
                    {"name": "m", "short_prefix": 1, "is_mediator": True},
                    {"name": "a", "short_prefix": 2},
                ],
            },
            "workload": {"kind": "chaos", "behavior": "ok"},
            "grid": {"workload.behavior": ["ok", "raise"]},
            "retry": {"max_attempts": 1},
        }))
        return str(doc)

    def test_run_exits_nonzero_when_any_trial_failed(
        self, tmp_path, chaos_doc, capsys
    ):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", chaos_doc, "--store", store]) == 1
        out = capsys.readouterr().out
        assert "1 FAILED" in out
        assert "outcome" in out

    def test_results_failed_only_and_exit_code(
        self, tmp_path, chaos_doc, capsys
    ):
        import json

        store = str(tmp_path / "store")
        main(["campaign", "run", chaos_doc, "--store", store])
        capsys.readouterr()
        assert main([
            "campaign", "results", chaos_doc, "--store", store,
            "--failed-only", "--json",
        ]) == 1
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["outcome"] == "error"

    def test_status_reports_failures(self, tmp_path, chaos_doc, capsys):
        store = str(tmp_path / "store")
        main(["campaign", "run", chaos_doc, "--store", store])
        capsys.readouterr()
        assert main(["campaign", "status", chaos_doc,
                     "--store", store]) == 0
        assert "1 FAILED" in capsys.readouterr().out

    def test_compact_subcommand(self, tmp_path, chaos_doc, capsys):
        import json

        store = str(tmp_path / "store")
        main(["campaign", "run", chaos_doc, "--store", store])
        main(["campaign", "run", chaos_doc, "--store", store,
              "--retry-failed"])
        capsys.readouterr()
        assert main(["campaign", "compact", chaos_doc,
                     "--store", store, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["live_records"] == 2

    def test_compact_requires_store(self, chaos_doc, capsys):
        assert main(["campaign", "compact", chaos_doc]) == 2
        assert "--store" in capsys.readouterr().err


class TestFuzzCli:
    def test_bounded_fuzz_smoke(self, tmp_path, capsys):
        assert main([
            "fuzz", "--count", "2", "--seed", "11",
            "--repro-dir", str(tmp_path / "repros"),
        ]) == 0
        assert "0 divergent" in capsys.readouterr().out

    def test_fuzz_json_output(self, capsys):
        import json

        assert main([
            "fuzz", "--count", "1", "--seed", "11", "--no-repros",
            "--no-invariants", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_scenarios"] == 1
        assert report["n_divergent"] == 0


class TestProcessorSpec:
    def test_relay_energy_is_1nj(self):
        """50 cycles x 20 pJ = 1 nJ (Section 6.3.1)."""
        assert ProcessorSpec().relay_energy_nj == pytest.approx(1.0)


def _bench_system():
    system = MBusSystem()
    system.add_mediator_node("cpu", short_prefix=0x1)
    system.add_node("sensor", short_prefix=0x2)
    system.add_node("radio", short_prefix=0x3)
    system.build()
    return system


class TestTemperatureSensorChip:
    def test_ignores_malformed_requests(self):
        system = _bench_system()
        chip = TemperatureSensorChip(system.node("sensor"))
        from repro.core import Address

        system.send("cpu", Address.short(0x2, FU_APP), b"\x99\x01")
        assert chip.samples_taken == 0

    def test_reply_is_8_bytes_to_named_destination(self):
        system = _bench_system()
        TemperatureSensorChip(system.node("sensor"))
        RadioChip(system.node("radio"))
        from repro.core import Address

        request = bytes([CMD_SAMPLE_REQUEST, 0x3, FU_APP, 7])
        system.send("cpu", Address.short(0x2, FU_APP), request)
        system.run_until_idle()
        packet = system.node("radio").layer.inbox[-1].payload
        assert len(packet) == 8
        assert packet[0] == CMD_SAMPLE_REPLY
        assert packet[1] == 7   # sequence echoed

    def test_readings_drift_deterministically(self):
        system = _bench_system()
        chip = TemperatureSensorChip(system.node("sensor"))
        first = [chip.read_temperature() for _ in range(5)]
        chip2 = TemperatureSensorChip(_bench_system().node("sensor"))
        second = [chip2.read_temperature() for _ in range(5)]
        assert first == second
        assert len(set(first)) > 1


class TestImagerChip:
    def _chip(self, rows=2):
        system = MBusSystem()
        system.add_mediator_node("cpu", short_prefix=0x1)
        system.add_node("imager", short_prefix=0x2)
        system.add_node("radio", short_prefix=0x3)
        system.build()
        return ImagerChip(system.node("imager"), radio_prefix=0x3, rows=rows)

    def test_geometry(self):
        chip = self._chip()
        assert chip.row_bits == 1_440         # 160 px x 9 bit
        assert chip.row_bytes == 180
        assert ImagerChip.ROWS * chip.row_bytes == 28_800

    def test_rows_are_packed_9bit_pixels(self):
        chip = self._chip()
        row = chip.capture_row(0)
        assert len(row) == 180

    def test_rows_differ(self):
        chip = self._chip()
        assert chip.capture_row(0) != chip.capture_row(1)

    def test_motion_detection_needs_reference(self):
        chip = self._chip()
        assert not chip.detect_motion([0, 0])
        assert chip.detect_motion([5_000, 5_000])


class TestRadioChip:
    def test_accumulates_bytes_and_energy(self):
        system = _bench_system()
        radio = RadioChip(system.node("radio"), nj_per_transmitted_byte=2.0)
        from repro.core import Address

        system.send("cpu", Address.short(0x3, FU_APP), bytes(10))
        assert radio.transmitted_bytes == 10
        assert radio.radio_energy_nj() == pytest.approx(20.0)
