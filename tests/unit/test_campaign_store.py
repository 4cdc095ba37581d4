"""ResultStore: content-addressed memoisation, persistence, recovery."""

import json
import os

import pytest

from repro.campaign import (
    RESULTS_FILENAME,
    Campaign,
    Grid,
    ResultStore,
    canonical_json,
)
from repro.campaign.chaos import Chaos
from repro.campaign.store import SYNC_EVERY
from repro.core.errors import ConfigurationError
from repro.scenario import NodeSpec, SystemSpec


def record(key: str, **extra):
    return {"key": key, "schema_version": 1, "report": {"n_ok": 1}, **extra}


class TestMemoryStore:
    def test_put_get_roundtrip(self):
        store = ResultStore.memory()
        assert store.put(record("k1"))
        assert store.get("k1")["report"] == {"n_ok": 1}
        assert "k1" in store
        assert len(store) == 1
        assert store.path is None

    def test_identical_reput_is_a_noop(self):
        store = ResultStore.memory()
        assert store.put(record("k1"))
        assert not store.put(record("k1"))
        assert len(store) == 1

    def test_missing_key_is_none(self):
        assert ResultStore.memory().get("nope") is None

    def test_record_without_key_rejected(self):
        with pytest.raises(ConfigurationError, match="key"):
            ResultStore.memory().put({"report": {}})


class TestDiskStore:
    def test_persists_and_reloads(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        store.put(record("k2", params={"x": 1}))

        reopened = ResultStore(tmp_path / "store")
        assert len(reopened) == 2
        assert reopened.get("k2")["params"] == {"x": 1}
        assert reopened.keys() == ["k1", "k2"]

    def test_lines_are_canonical_json(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1", params={"b": 2, "a": 1}))
        lines = (tmp_path / "store" / RESULTS_FILENAME).read_text().splitlines()
        assert lines == [canonical_json(record("k1", params={"b": 2, "a": 1}))]
        # Canonical = sorted keys: insertion order cannot leak.
        assert lines[0].index('"a"') < lines[0].index('"b"')

    def test_append_only_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        changed = record("k1")
        changed["report"] = {"n_ok": 2}
        assert store.put(changed)
        raw = (tmp_path / "store" / RESULTS_FILENAME).read_text()
        assert len(raw.splitlines()) == 2  # history kept
        assert ResultStore(tmp_path / "store").get("k1")["report"] == {
            "n_ok": 2
        }

    def test_torn_tail_rolled_back_on_open(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        path = tmp_path / "store" / RESULTS_FILENAME
        with open(path, "a") as handle:
            handle.write('{"key": "k2", "repo')   # killed mid-append

        reopened = ResultStore(tmp_path / "store")
        assert len(reopened) == 1
        assert "k2" not in reopened
        # The partial line is gone from disk; new appends start clean.
        assert path.read_bytes().endswith(b"\n")
        reopened.put(record("k3"))
        assert ResultStore(tmp_path / "store").keys() == ["k1", "k3"]

    def test_corrupt_interior_line_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        path = tmp_path / "store" / RESULTS_FILENAME
        with open(path, "a") as handle:
            handle.write("not json at all\n")
        store2 = ResultStore(tmp_path / "store")
        store2.put(record("k2"))
        assert ResultStore(tmp_path / "store").keys() == ["k1", "k2"]

    def test_future_schema_records_still_load(self, tmp_path):
        """Satellite: unknown keys in stored records are tolerated —
        a store written by a newer schema version still opens."""
        store = ResultStore(tmp_path / "store")
        futuristic = record("k1", schema_version=99, hologram={"v": 1})
        store.put(futuristic)
        reopened = ResultStore(tmp_path / "store")
        loaded = reopened.get("k1")
        assert loaded["hologram"] == {"v": 1}
        assert loaded["schema_version"] == 99

    def test_entries_are_the_persisted_bytes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        store.put(record("k2"))
        on_disk = (
            (tmp_path / "store" / RESULTS_FILENAME).read_text().splitlines()
        )
        assert store.entries() == on_disk
        assert [json.loads(line)["key"] for line in on_disk] == ["k1", "k2"]


NATIVE_SPEC = SystemSpec(
    name="store-native",
    clock_hz=400_000.0,
    nodes=(
        NodeSpec("m", short_prefix=0x1, is_mediator=True),
        NodeSpec("a", short_prefix=0x2),
    ),
)


@pytest.fixture
def synced(monkeypatch):
    """The file descriptors of every ``os.fsync`` call, in order."""
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd)
    )
    return calls


class TestWritePath:
    """A put is a flushed append; fsync is batched into :meth:`sync`."""

    def test_put_is_visible_to_other_opens_before_sync(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        # No sync yet: the line sits in the page cache, which every
        # other open of the file already sees.
        assert ResultStore(tmp_path / "store").get("k1") == record("k1")
        observer = ResultStore(tmp_path / "store", readonly=True)
        assert observer.keys() == ["k1"]
        store.put(record("k2"))
        assert observer.refresh() == 1
        assert observer.keys() == ["k1", "k2"]

    def test_puts_after_compact_land_in_the_live_file(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        store.put(record("k1", params={"v": 2}))   # supersedes: 1 stale
        store.put(record("k2"))                    # append handle open
        assert store.compact() == 1
        store.put(record("k3"))
        path = tmp_path / "store" / RESULTS_FILENAME
        assert path.read_text().splitlines() == store.entries()
        assert ResultStore(tmp_path / "store").keys() == ["k1", "k2", "k3"]

    def test_put_sync_put_reopens_cleanly(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        store.sync()
        store.sync()                               # idempotent
        store.put(record("k2"))
        store.sync()
        path = tmp_path / "store" / RESULTS_FILENAME
        assert path.read_text().splitlines() == store.entries()
        assert ResultStore(tmp_path / "store").keys() == ["k1", "k2"]

    def test_fsync_is_batched(self, tmp_path, synced):
        store = ResultStore(tmp_path / "store")
        for i in range(2 * SYNC_EVERY + 3):
            store.put(record(f"k{i}"))
        assert len(synced) == 2                    # one per SYNC_EVERY
        store.sync()
        assert len(synced) == 3                    # the 3-record tail
        store.sync()
        assert len(synced) == 3                    # nothing unsynced
        assert len(ResultStore(tmp_path / "store")) == 2 * SYNC_EVERY + 3

    def test_campaign_pass_fsyncs_once_at_its_end(self, tmp_path, synced):
        campaign = Campaign(
            spec=NATIVE_SPEC,
            workload=Chaos(),
            grid=Grid.product(**{"workload.payload": ["01", "02", "03"]}),
            backend="fast",
        )
        store = ResultStore(tmp_path / "store")
        assert campaign.run(store=store).executed == 3
        assert len(synced) == 1
        assert store._handle is None               # no handle outlives it

    def test_handed_line_is_appended_as_is(self, tmp_path):
        """A caller that already encoded the record passes its line;
        the store writes those bytes and serves them back."""
        store = ResultStore(tmp_path / "store")
        rec = record("k1", params={"x": [1, 2]})
        line = canonical_json(rec)
        assert store.put(rec, line)
        assert not store.put(record("k1", params={"x": [1, 2]}))
        assert store.line("k1") == line
        assert store.line("nope") is None
        store.sync()
        path = tmp_path / "store" / RESULTS_FILENAME
        assert path.read_text() == line + "\n"
        reopened = ResultStore(tmp_path / "store")
        assert reopened.get("k1") == rec
        assert reopened.line("k1") == line

    def test_memory_store_sync_is_a_noop(self):
        store = ResultStore.memory()
        store.put(record("k1"))
        store.sync()
        assert store.get("k1") == record("k1")

    @pytest.mark.parametrize("backend", ["edge", "fast", "batch"])
    def test_indexed_records_equal_their_parsed_lines(self, tmp_path, backend):
        """put indexes the caller's dict instead of re-parsing its
        line, so real records (ok and failure, every backend) must be
        JSON-native."""
        campaign = Campaign(
            spec=NATIVE_SPEC,
            workload=Chaos(),
            grid=Grid.product(**{"workload.behavior": ["ok", "raise"]}),
            backend=backend,
        )
        store = ResultStore(tmp_path / "store")
        results = campaign.run(store=store)
        assert sorted(r.record["outcome"] for r in results) == [
            "error", "ok",
        ]
        for key, entry in zip(store.keys(), store.entries()):
            assert store.get(key) == json.loads(entry)
