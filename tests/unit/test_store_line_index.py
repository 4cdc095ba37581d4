"""The store's line index: a record is its line.

``ResultStore`` indexes an ok trial record by its line's canonical
prefix (``{"backend":"<tier>","key":"<64 hex>","outcome":"ok",``)
without decoding it, and decodes every other line once, at open.
These tests pin the rule on lines built to fool it, the decode counts
it promises (an open of ok lines decodes nothing, reading k distinct
records decodes k), what ``get()`` hands out, and what happens to a
line the prefix admitted that turns out not to decode.
"""

import json

import pytest

from repro.campaign import (
    RESULTS_FILENAME,
    ResultStore,
    Trial,
    canonical_json,
    failure_record,
    record_outcome,
)
from repro.campaign.failures import TrialFailure
from repro.campaign.trial import execute_trial
from repro.core import Address
from repro.core.errors import ConfigurationError
from repro.scenario import Burst, NodeSpec, SystemSpec

SPEC = SystemSpec(
    name="line-index",
    clock_hz=400_000.0,
    nodes=(
        NodeSpec("m", short_prefix=0x1, is_mediator=True),
        NodeSpec("a", short_prefix=0x2),
    ),
)

FAKE_KEY = "f" * 64
#: The text of an ok record's prefix, for planting inside values.
PLANTED = f'{{"backend":"batch","key":"{FAKE_KEY}","outcome":"ok",'


def trial(index, backend="auto", name="line-index"):
    return Trial(
        index=index,
        params={"i": index},
        spec_doc=SPEC.replace(name=name).to_dict(),
        workload_doc=Burst(
            "m", Address.short(0x2, 5), bytes([index % 256, 1]), count=2
        ).to_dict(),
        backend=backend,
    )


def ok_record(t, **extra):
    return {
        "schema_version": 1,
        "key": t.key,
        "params": dict(t.params),
        "backend": "batch",
        "outcome": "ok",
        "report": {"n_ok": 1},
        **extra,
    }


def adversarial_lines():
    """``(trial, line)`` pairs built to mislead a prefix reader."""
    lines = []

    def add(record, t):
        lines.append((t, canonical_json(record)))

    t = trial(0)
    add(ok_record(t, params={"text": PLANTED, "also": '"outcome":"ok"'}), t)
    t = trial(1)
    add(ok_record(t, report={"payload": PLANTED * 2}), t)
    t = trial(2)
    # The prefix's own text inside the backend value: escaped quotes.
    add(ok_record(t, backend=f'x","key":"{FAKE_KEY}","outcome":"ok",'), t)
    t = trial(3)
    failure = TrialFailure(outcome="error", message=PLANTED)
    add({**failure_record(t, failure), "params": {"p": PLANTED}}, t)
    t = trial(4)
    timeout = TrialFailure(outcome="timeout", message="slow")
    add(failure_record(t, timeout), t)
    t = trial(5)
    legacy = ok_record(t)
    del legacy["outcome"]       # written before the outcome field
    add(legacy, t)
    t = trial(6)
    add(ok_record(t, extra_member=1), t)       # sorts before "key"
    t = trial(7)
    add(ok_record(t, failure=None), t)         # so does "failure"
    t = trial(8)
    add(ok_record(t, outcome="crashed"), t)
    t = trial(9)
    add({"key": t.key, "state": "done", "request": {"n": PLANTED},
         "cached": 0, "done": 1, "schema_version": 1}, t)  # a journal line
    t = trial(10)
    lines.append((t, json.dumps(ok_record(t))))   # not canonical: spaces
    for index, backend in enumerate(("batch", "fast", "edge"), start=11):
        t = trial(index, backend=backend, name=PLANTED)
        line, _wall_s = execute_trial(t)
        lines.append((t, line))
    return lines


@pytest.fixture
def decodes(monkeypatch):
    """Every ``json.loads`` call, by its text."""
    calls = []
    real = json.loads

    def counting(text, *args, **kwargs):
        calls.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    return calls


class TestPrefixRule:
    @pytest.mark.parametrize("reopen", [False, True])
    def test_adversarial_lines_index_as_their_decoding(
        self, tmp_path, reopen
    ):
        cases = adversarial_lines()
        store = ResultStore(tmp_path / "store")
        for _t, line in cases:
            assert store.put(line=line)
        if reopen:
            store = ResultStore(tmp_path / "store")
        assert store.entries() == [line for _t, line in cases]
        for t, line in cases:
            record = json.loads(line)
            assert record["key"] == t.key
            assert store.get(t.key) == record
            result = store.result(t)      # outcome from the index
            assert result.outcome == record_outcome(record)
            assert result.ok == (record_outcome(record) == "ok")
            assert result.record == record

    def test_only_real_ok_records_skip_the_decode(self, tmp_path, decodes):
        cases = adversarial_lines()
        path = tmp_path / "store"
        path.mkdir()
        (path / RESULTS_FILENAME).write_text(
            "".join(line + "\n" for _t, line in cases)
        )
        del decodes[:]
        store = ResultStore(path)
        # Canonical ok records (trials 0, 1 and the three executed
        # ones) are indexed by their prefix; every other line decodes.
        skipped = {cases[i][1] for i in (0, 1, 11, 12, 13)}
        assert sorted(decodes) == sorted(
            line for _t, line in cases if line not in skipped
        )
        assert len(store) == len(cases)

    def test_an_open_of_ok_lines_decodes_none(self, tmp_path, decodes):
        path = tmp_path / "store"
        writer = ResultStore(path)
        trials = [trial(i, backend="batch") for i in range(50)]
        for t in trials:
            writer.put(line=execute_trial(t)[0])
        writer.sync()
        del decodes[:]
        store = ResultStore(path)
        assert len(store) == 50
        assert all(store.result(t).ok for t in trials)
        assert decodes == []

    def test_reading_k_distinct_records_decodes_k(self, tmp_path, decodes):
        path = tmp_path / "store"
        writer = ResultStore(path)
        trials = [trial(i, backend="batch") for i in range(20)]
        for t in trials:
            writer.put(line=execute_trial(t)[0])
        store = ResultStore(path)
        del decodes[:]
        for t in trials[:7]:
            assert store.get(t.key)["key"] == t.key
        assert len(decodes) == 7
        results = [store.result(t) for t in trials[7:12]]
        for result in results * 3:      # each decoded on first read only
            assert result.record["key"] == result.key
        assert len(decodes) == 12


class TestGetHandsOutCopies:
    """``get()`` decodes afresh on every call (no decoded dict is kept
    in the store), so a caller may mutate what it gets."""

    def test_mutating_a_record_cannot_change_a_later_read(self, tmp_path):
        t = trial(0)
        for store in (ResultStore.memory(), ResultStore(tmp_path / "s")):
            record = ok_record(t)
            store.put(record)
            record["report"]["n_ok"] = 99        # the caller's own dict
            got = store.get(t.key)
            assert got == ok_record(t)
            got["report"]["n_ok"] = 7
            got["params"]["i"] = "changed"
            assert store.get(t.key) == ok_record(t)
            result = store.result(t)
            result.record["report"]["n_ok"] = 5
            assert store.get(t.key) == ok_record(t)
            assert store.line(t.key) == canonical_json(ok_record(t))


class TestCorruptPrefixLine:
    """A line whose prefix the open trusted but that does not decode:
    reading it names the store and the key; compact drops it."""

    def corrupt_store(self, tmp_path):
        good, bad = trial(0, backend="batch"), trial(1)
        path = tmp_path / "store"
        path.mkdir()
        good_line = execute_trial(good)[0]
        bad_line = (
            f'{{"backend":"batch","key":"{bad.key}","outcome":"ok",'
            '"params":{"i":1},"report":{"n_ok":}'   # ends with "}"
        )
        (path / RESULTS_FILENAME).write_text(
            good_line + "\n" + bad_line + "\n"
        )
        return path, good, bad, good_line

    def test_read_raises_naming_store_and_key(self, tmp_path):
        path, good, bad, _ = self.corrupt_store(tmp_path)
        store = ResultStore(path, readonly=True)
        assert bad.key in store and store.result(bad).ok
        with pytest.raises(ConfigurationError) as raised:
            store.get(bad.key)
        assert str(path) in str(raised.value)
        assert bad.key in str(raised.value)
        with pytest.raises(ConfigurationError, match=bad.key):
            store.result(bad).record
        assert store.get(good.key)["key"] == good.key

    def test_compact_drops_it(self, tmp_path):
        path, good, bad, good_line = self.corrupt_store(tmp_path)
        store = ResultStore(path, auto_compact=False)
        assert store.stale_lines == 0
        assert store.compact() == 1
        assert bad.key not in store
        assert (path / RESULTS_FILENAME).read_text() == good_line + "\n"
        reopened = ResultStore(path)
        assert reopened.keys() == [good.key]

    def test_a_torn_interior_line_is_never_indexed(self, tmp_path):
        """A line cut short keeps its prefix but not its closing
        brace: it decodes at open, fails and counts as stale."""
        path, good, _bad, good_line = self.corrupt_store(tmp_path)
        torn = good_line[:200]
        assert torn.endswith("}") is False and good.key in torn
        (path / RESULTS_FILENAME).write_text(
            torn + "\n" + good_line + "\n"
        )
        store = ResultStore(path, readonly=True)
        assert store.keys() == [good.key] and store.stale_lines == 1
        assert store.line(good.key) == good_line
