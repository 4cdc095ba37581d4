"""ResultStore observer mode: readonly opens, torn-tail tolerance,
incremental refresh, and the O(1) membership index (the surfaces the
campaign server's dedupe path and ``campaign status`` lean on)."""

import json

import pytest

from repro.campaign import RESULTS_FILENAME, ResultStore, canonical_json
from repro.core.errors import ConfigurationError


def record(key: str, **extra):
    return {"key": key, "schema_version": 1, "report": {"n_ok": 1}, **extra}


class TestIndexedLookup:
    def test_thousand_record_membership_without_rereading(self, tmp_path):
        """The index answers 1k membership probes as dict lookups:
        after load, no probe may touch the JSONL again (asserted by
        making the file unreadable mid-probe)."""
        path = tmp_path / "store"
        store = ResultStore(path)
        for i in range(1000):
            store.put(record(f"k{i:04d}"))

        reopened = ResultStore(path)
        assert len(reopened) == 1000
        # If any of the probes below re-read the file, they would see
        # garbage and fail; membership must come from the index alone.
        (path / RESULTS_FILENAME).write_text("THIS IS NOT JSONL\n")
        assert all(f"k{i:04d}" in reopened for i in range(1000))
        assert all(
            reopened.get(f"k{i:04d}")["report"] == {"n_ok": 1}
            for i in range(1000)
        )
        assert "missing" not in reopened
        assert reopened.get("missing") is None

    def test_membership_is_o1_dict_backed(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        # The index *is* a dict, key -> line.
        assert isinstance(store._lines, dict)
        assert "k1" in store._lines


class TestReadonlyObserver:
    def test_readonly_never_truncates_a_torn_tail(self, tmp_path):
        """A status observer of a store another process is actively
        appending to must tolerate — never roll back — a torn last
        line (the regression satellite #2 pins: a plain open used to
        truncate the live file)."""
        path = tmp_path / "store"
        store = ResultStore(path)
        store.put(record("k1"))
        store.put(record("k2"))
        log = path / RESULTS_FILENAME
        intact = log.read_bytes()
        torn = intact + b'{"key": "k3", "repo'   # writer mid-append
        log.write_bytes(torn)

        observer = ResultStore(path, readonly=True)
        # The torn line is invisible to the observer...
        assert len(observer) == 2
        assert "k3" not in observer
        # ...and the file is untouched: the writer can finish its line.
        assert log.read_bytes() == torn

    def test_writable_open_still_rolls_back(self, tmp_path):
        path = tmp_path / "store"
        store = ResultStore(path)
        store.put(record("k1"))
        log = path / RESULTS_FILENAME
        intact = log.read_bytes()
        log.write_bytes(intact + b"{torn")

        reopened = ResultStore(path)
        assert len(reopened) == 1
        assert log.read_bytes() == intact

    def test_readonly_refuses_put_and_compact(self, tmp_path):
        path = tmp_path / "store"
        ResultStore(path).put(record("k1"))
        observer = ResultStore(path, readonly=True)
        assert observer.readonly
        with pytest.raises(ConfigurationError, match="readonly"):
            observer.put(record("k2"))
        with pytest.raises(ConfigurationError, match="readonly"):
            observer.compact()

    def test_readonly_on_missing_store_is_empty(self, tmp_path):
        observer = ResultStore(tmp_path / "never-created", readonly=True)
        assert len(observer) == 0
        # readonly never mkdirs either.
        assert not (tmp_path / "never-created").exists()


class TestRefresh:
    def test_refresh_picks_up_external_appends(self, tmp_path):
        path = tmp_path / "store"
        writer = ResultStore(path)
        writer.put(record("k1"))
        observer = ResultStore(path, readonly=True)
        assert len(observer) == 1

        writer.put(record("k2"))
        writer.put(record("k3"))
        assert observer.refresh() == 2
        assert observer.keys() == ["k1", "k2", "k3"]
        assert observer.refresh() == 0   # nothing new

    def test_refresh_leaves_torn_tail_for_next_time(self, tmp_path):
        path = tmp_path / "store"
        writer = ResultStore(path)
        writer.put(record("k1"))
        observer = ResultStore(path, readonly=True)

        log = path / RESULTS_FILENAME
        with open(log, "ab") as handle:
            handle.write(canonical_json(record("k2")).encode() + b"\n")
            handle.write(b'{"key": "k3"')   # torn
        assert observer.refresh() == 1
        assert "k2" in observer and "k3" not in observer

        with open(log, "ab") as handle:
            handle.write(b', "schema_version": 1}\n')   # completed
        assert observer.refresh() == 1
        assert "k3" in observer

    def test_refresh_reloads_after_external_compaction(self, tmp_path):
        path = tmp_path / "store"
        writer = ResultStore(path, auto_compact=False)
        writer.put(record("k1"))
        writer.put(record("k1", params={"x": 1}))   # supersedes
        writer.put(record("k2"))
        observer = ResultStore(path, readonly=True)
        assert observer.stale_lines == 1

        writer.compact()
        observer.refresh()
        assert observer.keys() == ["k1", "k2"]
        assert observer.stale_lines == 0
        assert observer.get("k1")["params"] == {"x": 1}


    def test_refresh_reloads_a_replaced_log_that_grew_back(self, tmp_path):
        """A compaction replaces the file; appends after it can grow the
        new file past the observer's offset.  The size check alone
        misses that: the observer would seek into the middle of a line
        and skip every record past it.  The file's identity says the
        log was replaced, so the observer reloads it whole."""
        path = tmp_path / "store"
        writer = ResultStore(path, auto_compact=False)
        for i in range(10):
            writer.put(record(f"k{i}", params={"pad": "x" * 40}))
            writer.put(record(f"k{i}", params={"pad": "y" * 40}))
        observer = ResultStore(path, readonly=True)
        offset = (path / RESULTS_FILENAME).stat().st_size
        assert len(observer) == 10 and observer.stale_lines == 10

        compactor = ResultStore(path, auto_compact=False)
        for i in range(10):
            compactor.put(record(f"k{i}"))    # supersede with short lines
        assert compactor.compact() == 20
        assert (path / RESULTS_FILENAME).stat().st_size < offset
        extra = 0
        while (path / RESULTS_FILENAME).stat().st_size <= offset:
            compactor.put(record(f"n{extra}"))
            extra += 1
        compactor.sync()

        assert observer.refresh() == 10 + extra
        assert observer.keys() == (
            [f"k{i}" for i in range(10)] + [f"n{j}" for j in range(extra)]
        )
        assert observer.stale_lines == 0
        assert observer.get("k3") == record("k3")
        assert observer.refresh() == 0


class TestCampaignStatusObserver:
    def test_status_tolerates_actively_appended_store(self, tmp_path):
        """``campaign status`` on a store with a torn tail reports the
        complete records and leaves the file alone."""
        from repro.campaign import Campaign, load_campaign

        document = json.load(
            open("examples/scenarios/recovery_campaign.json")
        )
        campaign = load_campaign(document)
        path = tmp_path / "store"
        results = campaign.run(executor="serial", store=str(path))
        assert len(results) == 4

        log = path / RESULTS_FILENAME
        full = log.read_bytes()
        torn = full[: full.rindex(b"\n", 0, len(full) - 1) + 1 + 20]
        assert not torn.endswith(b"\n")
        log.write_bytes(torn)

        status = campaign.status(str(path))
        assert status.cached == 3          # the torn record is invisible
        assert status.pending == 1
        assert log.read_bytes() == torn    # and stays on disk, untouched
