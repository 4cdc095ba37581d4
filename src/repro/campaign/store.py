"""Content-addressed, append-only result memoisation.

A :class:`ResultStore` maps trial keys (SHA-256 of the canonical
trial documents — see :attr:`repro.campaign.trial.Trial.key`) to
executed records.  The on-disk form is one directory holding a single
``results.jsonl``: one canonical-JSON record per line, append-only.

Properties the campaign layer leans on:

* **durable** — records are appended, never rewritten in place, and
  each append is flushed to the kernel before :meth:`put` returns, so
  a killed or crashed *process* loses nothing: a resume executes only
  the missing trials, and readonly observers see every complete line.
  Disk durability is batched: :meth:`sync` fsyncs the unsynced
  appends and closes the append handle.  The campaign layer calls it
  at every pass end and SIGINT/SIGTERM checkpoint, and :meth:`put`
  calls it on its own every ``SYNC_EVERY`` records.  A power loss or
  kernel crash can therefore drop at most the unsynced tail, possibly
  cut mid-line.  :meth:`_load` rolls a torn tail back to the last
  complete line before appending anything new and skips a corrupt
  interior line, so the damage is a few missing records, which a
  resume re-executes deterministically.  Re-putting an identical
  record is a no-op; a *different* record under an existing key (e.g.
  after a schema bump, or a failed trial re-run under
  ``retry_failed``) is appended and wins on reload (last write wins),
  preserving full history in the log.
* **bounded** — last-write-wins appending leaves superseded lines
  behind, and a cross-run retry loop (a flaky trial failed and
  re-recorded every campaign run) would otherwise grow the log
  without bound.  :meth:`compact` rewrites the file down to the live
  records (atomically: temp file + ``os.replace``); stores auto-compact
  on load once the stale-line count passes
  ``max(live records, AUTO_COMPACT_MIN_STALE)``.
* **byte-deterministic** — a record *is* its line: the canonical
  JSON (:func:`~repro.campaign.trial.canonical_json`) the store
  appends, indexes and hands back, so the same trial always produces
  the same bytes, regardless of executor, process or execution order
  (asserted by ``tests/integration/test_campaign.py``).  A campaign
  trial comes back as its line
  (:func:`~repro.campaign.trial.execute_trial`), which :meth:`put`
  appends as is; readers that want bytes take them from :meth:`line`.
* **schema-tolerant** — readers keep whole records as plain JSON and
  ignore keys they do not understand; records stamped with a newer
  ``schema_version`` still load (the ``lenient`` loaders reconstruct
  objects from their documents by dropping unknown fields).
* **indexed** — the one index is ``key -> line``, plus the set of
  keys whose record is ok.  Sorted keys put ``backend``, ``key`` and
  ``outcome`` first in an ok trial record, so a line that starts
  ``{"backend":"<tier>","key":"<64 hex>","outcome":"ok",`` and ends
  with ``}`` is indexed undecoded (a failure's ``failure`` member
  sorts before ``key``, so a failure never matches).  Every other
  line is decoded once, at open.  Membership, :meth:`line` and
  :meth:`result` decode nothing, so a resume pass, ``campaign
  status`` and the server's dedupe path decode no ok record;
  :meth:`get` decodes on demand.  :meth:`refresh` picks up records
  appended by *another* process by reading only the unseen tail.
* **observer-safe** — ``readonly=True`` opens a store without ever
  writing: a torn tail is tolerated in memory (the rollback happens
  on the parsed bytes, not the file), auto-compaction is off and
  :meth:`put` refuses.  This is the mode for ``campaign status`` /
  ``results`` style observers of a store another process is actively
  appending to — a plain open used to *truncate* the live file to
  roll back a torn tail, racing the writer.

``ResultStore.memory()`` gives the same interface with no filesystem
behind it — the default scratch cache for one-off campaign runs.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import (
    BinaryIO, Dict, Iterator, List, Optional, Set, Tuple, Union,
)

from repro.campaign.failures import record_outcome
from repro.campaign.resultset import TrialResult, decode_record
from repro.campaign.trial import Trial, canonical_json
from repro.core.errors import ConfigurationError

RESULTS_FILENAME = "results.jsonl"

#: Auto-compaction floor: a loaded store rewrites itself only once it
#: carries more stale (superseded or unparsable) lines than live
#: records *and* at least this many — tiny stores never churn disk.
AUTO_COMPACT_MIN_STALE = 64

#: Unsynced appends after which :meth:`ResultStore.put` fsyncs on its
#: own — the most records a power loss can cost between checkpoints.
SYNC_EVERY = 64

#: The canonical start of an ok trial record's line: its ``backend``,
#: ``key`` and ``outcome`` members, which sorted keys put first.
_OK_PREFIX = re.compile(
    r'\{"backend":"[a-z]+","key":"([0-9a-f]{64})","outcome":"ok",'
)


def ok_line_key(line: str) -> Optional[str]:
    """The key of an ok trial record's line, read from its canonical
    prefix without decoding it; None for any other line."""
    match = _OK_PREFIX.match(line)
    if match is not None and line.endswith("}"):
        return match.group(1)
    return None


def _line_key(line: str) -> Tuple[Optional[str], bool]:
    """``(key, ok)`` of a record line: from its canonical prefix when
    it is an ok trial record's, else by decoding it.  ``key`` is None
    for a line that does not decode to a keyed record."""
    key = ok_line_key(line)
    if key is not None:
        return key, True
    try:
        record = json.loads(line)
    except ValueError:
        return None, False
    key = record.get("key") if isinstance(record, dict) else None
    if not isinstance(key, str) or not key:
        return None, False
    return key, record_outcome(record) == "ok"


class ResultStore:
    """Key -> record line memoisation, optionally JSONL-backed on disk."""

    def __init__(
        self,
        path: Union[str, Path, None],
        auto_compact: bool = True,
        readonly: bool = False,
    ):
        self._path: Optional[Path] = None if path is None else Path(path)
        self._readonly = readonly
        #: The index: each key's newest line, in first-seen key order.
        self._lines: Dict[str, str] = {}
        #: Keys whose newest line is an ok record.
        self._oks: Set[str] = set()
        self._stale = 0
        #: Bytes of the log consumed so far (complete lines only) —
        #: the resume point for :meth:`refresh` — and the
        #: ``(st_dev, st_ino)`` of the file they were read from.
        self._offset = 0
        self._identity: Optional[Tuple[int, int]] = None
        #: The append handle (opened lazily by :meth:`put`, closed by
        #: :meth:`sync`) and the appends it has not yet fsynced.
        self._handle: Optional[BinaryIO] = None
        self._unsynced = 0
        if self._path is not None:
            if not readonly:
                self._path.mkdir(parents=True, exist_ok=True)
            self._load()
            if (
                not readonly
                and auto_compact
                and self._stale
                > max(len(self._lines), AUTO_COMPACT_MIN_STALE)
            ):
                self.compact()

    @classmethod
    def memory(cls) -> "ResultStore":
        """A purely in-process store (no persistence)."""
        return cls(None)

    # -- introspection -----------------------------------------------------
    @property
    def path(self) -> Optional[Path]:
        return self._path

    @property
    def results_path(self) -> Optional[Path]:
        if self._path is None:
            return None
        return self._path / RESULTS_FILENAME

    @property
    def readonly(self) -> bool:
        return self._readonly

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, key: str) -> bool:
        return key in self._lines

    def keys(self) -> List[str]:
        """Stored keys, in first-seen order."""
        return list(self._lines)

    def records(self) -> Iterator[Dict]:
        """Stored records, in first-seen key order, each decoded."""
        for key, line in self._lines.items():
            yield decode_record(line, key, self._where)

    def entries(self) -> List[str]:
        """The canonical record lines (the exact persisted bytes,
        minus newlines) — the byte-identity test surface."""
        return list(self._lines.values())

    def get(self, key: str) -> Optional[Dict]:
        """``key``'s record, decoded from its line on every call: a
        caller owns the dict it gets, and mutating it cannot change a
        later read.  A caller that reads a record repeatedly keeps the
        dict (a :class:`~repro.campaign.resultset.TrialResult` does)."""
        line = self._lines.get(key)
        return None if line is None else decode_record(line, key, self._where)

    def line(self, key: str) -> Optional[str]:
        """The stored canonical line of ``key``'s record (the exact
        persisted bytes, minus the newline), or ``None``."""
        return self._lines.get(key)

    def result(
        self, trial: Trial, cached: bool = True, wall_s: float = 0.0
    ) -> Optional[TrialResult]:
        """``trial``'s stored result, or ``None``: backed by the
        record's line, with its ``ok`` taken from the index, so
        nothing is decoded until the record itself is read."""
        line = self._lines.get(trial.key)
        if line is None:
            return None
        return TrialResult(
            trial, line, trial.key in self._oks, cached, wall_s, self._where
        )

    @property
    def stale_lines(self) -> int:
        """Superseded or unparsable lines currently in the log — the
        bytes :meth:`compact` would reclaim."""
        return self._stale

    @property
    def _where(self) -> str:
        return "a memory store" if self._path is None else str(self._path)

    # -- mutation ----------------------------------------------------------
    def put(
        self, record: Optional[Dict] = None, line: Optional[str] = None
    ) -> bool:
        """Memoise a record, given as its canonical line, as a dict or
        as both; returns True if anything was written.

        Identical re-puts are no-ops.  A changed record under an
        existing key is appended (the log keeps history; the index
        takes the newest).  ``line``, when given, must be the record's
        canonical JSON; it is appended as is, and alone it is indexed
        as an open indexes it.  The line is flushed but not fsynced;
        see :meth:`sync`.
        """
        if self._readonly:
            raise ConfigurationError(
                "this store was opened readonly (an observer of a log "
                "another process is appending to); open it without "
                "readonly=True to write"
            )
        if record is not None:   # indexed from the dict, not its line
            key, ok = record.get("key"), record_outcome(record) == "ok"
            line = canonical_json(record) if line is None else line
        elif line is not None:
            key, ok = _line_key(line)
        else:
            raise ConfigurationError("put needs a record or its line")
        if not isinstance(key, str) or not key:
            raise ConfigurationError(
                "a store record needs a non-empty string 'key'"
            )
        if self._lines.get(key) == line:
            return False
        self._index(key, line, ok)
        if self._path is not None:
            if self._handle is None:
                self._handle = open(self.results_path, "ab")
            data = (line + "\n").encode("utf-8")
            self._handle.write(data)
            self._handle.flush()
            self._offset += len(data)
            self._unsynced += 1
            if self._unsynced >= SYNC_EVERY:
                self.sync()
        return True

    def _index(self, key: str, line: str, ok: bool) -> None:
        if key in self._lines:
            self._stale += 1  # the old line is now dead weight
        self._lines[key] = line
        if ok:
            self._oks.add(key)
        else:
            self._oks.discard(key)

    def sync(self) -> None:
        """Make every append so far durable: fsync the unsynced lines,
        then close the append handle (the next :meth:`put` reopens
        it).  A no-op when nothing was appended since the last sync,
        and for memory stores."""
        handle = self._handle
        if handle is None:
            return
        self._handle = None
        try:
            os.fsync(handle.fileno())
        finally:
            handle.close()
            self._unsynced = 0

    # -- loading -----------------------------------------------------------
    def _load(self) -> None:
        self._read(roll_back=not self._readonly)

    def refresh(self) -> int:
        """Pick up records another process appended since the last
        load/refresh, reading only the unseen tail of the log (the
        in-memory index stays O(1) for lookups; nothing is rescanned).
        A torn last line is left unconsumed for the next refresh.  A
        log that was replaced (another file at the path, as after an
        external :meth:`compact`) or that shrank is reloaded whole.
        Returns the number of record lines consumed."""
        return self._read(roll_back=False)

    def _read(self, roll_back: bool) -> int:
        path = self.results_path
        if path is None or not path.exists():
            return 0
        with open(path, "rb") as handle:
            stat = os.fstat(handle.fileno())
            identity = (stat.st_dev, stat.st_ino)
            if identity != self._identity or stat.st_size < self._offset:
                self._lines.clear()
                self._oks.clear()
                self._stale = self._offset = 0
                self._identity = identity
            handle.seek(self._offset)
            raw = handle.read()
        keep = raw.rfind(b"\n") + 1
        if keep < len(raw):
            # A torn tail: either a killed writer (mid-append) or a
            # *live* writer another process is racing us with.  It is
            # always left unparsed; only a writable open also rolls
            # the file itself back (so its own appends start clean).
            # A readonly observer must never truncate a log someone
            # else is appending to.
            raw = raw[:keep]
            if roll_back:
                path.write_bytes(raw)
        self._offset += keep
        return self._consume(raw)

    def _consume(self, raw: bytes) -> int:
        """Index complete record lines from ``raw``; returns how many
        lines carried a key (new or superseding)."""
        indexed = 0
        for line in raw.decode("utf-8", errors="replace").splitlines():
            line = line.strip()
            if not line:
                continue
            key, ok = _line_key(line)
            if key is None:
                # A corrupt interior line loses one record, never the
                # store: skip it rather than refuse to open.
                self._stale += 1
                continue
            self._index(key, line, ok)
            indexed += 1
        return indexed

    # -- compaction --------------------------------------------------------
    def compact(self) -> int:
        """Rewrite the log down to the live records, in first-seen key
        order.  Every live line is decoded first, and one that does not
        decode (a corrupt line the open indexed by its prefix) is
        dropped with the stale lines.  Atomic (temp file +
        ``os.replace``): a crash mid-compact leaves the original log
        untouched.  Returns the number of lines reclaimed; a no-op for
        memory stores and for logs that are already compact.
        """
        if self._readonly:
            raise ConfigurationError(
                "cannot compact a store opened readonly"
            )
        if self._path is None:
            return 0
        for key, line in list(self._lines.items()):
            try:
                json.loads(line)
            except ValueError:
                del self._lines[key]
                self._oks.discard(key)
                self._stale += 1
        reclaimed = self._stale
        if reclaimed == 0:
            return 0
        # Appends after the replace must land in the new file, not in
        # the orphaned inode an open handle would still point at.
        self.sync()
        path = self.results_path
        tmp = path.with_suffix(".jsonl.tmp")
        written = 0
        with open(tmp, "w") as handle:
            for line in self._lines.values():
                line += "\n"
                handle.write(line)
                written += len(line.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._stale = 0
        self._offset = written
        return reclaimed
