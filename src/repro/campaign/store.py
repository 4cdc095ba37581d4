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
* **byte-deterministic** — records are serialised with
  :func:`~repro.campaign.trial.canonical_json`, so the same trial
  always produces the same bytes, regardless of executor, process or
  execution order (asserted by ``tests/integration/test_campaign.py``).
  A caller that already holds a record's canonical line (every
  campaign trial does, see
  :func:`~repro.campaign.trial.execute_trial`) hands it to :meth:`put`,
  which appends it as is: the same bytes, encoded once.  The index
  keeps every line, so a reader that wants bytes (the campaign
  server's result stream) takes them from :meth:`line` instead of
  encoding the record again.
* **schema-tolerant** — readers keep whole records as plain JSON and
  ignore keys they do not understand; records stamped with a newer
  ``schema_version`` still load (the ``lenient`` loaders reconstruct
  objects from their documents by dropping unknown fields).
* **indexed** — loading builds an in-memory ``key -> record`` index
  once; membership (``key in store``) and :meth:`get` are O(1) dict
  lookups that never re-read the JSONL (the lookup surface the
  campaign server's dedupe path and ``campaign status`` lean on).
  :meth:`refresh` picks up records appended by *another* process by
  reading only the file tail past the last consumed byte.
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
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Union

from repro.campaign.trial import canonical_json
from repro.core.errors import ConfigurationError

RESULTS_FILENAME = "results.jsonl"

#: Auto-compaction floor: a loaded store rewrites itself only once it
#: carries more stale (superseded or unparsable) lines than live
#: records *and* at least this many — tiny stores never churn disk.
AUTO_COMPACT_MIN_STALE = 64

#: Unsynced appends after which :meth:`ResultStore.put` fsyncs on its
#: own — the most records a power loss can cost between checkpoints.
SYNC_EVERY = 64


class ResultStore:
    """Key -> record memoisation, optionally JSONL-backed on disk."""

    def __init__(
        self,
        path: Union[str, Path, None],
        auto_compact: bool = True,
        readonly: bool = False,
    ):
        self._path: Optional[Path] = None if path is None else Path(path)
        self._readonly = readonly
        self._records: Dict[str, Dict] = {}
        self._lines: Dict[str, str] = {}
        self._order: List[str] = []
        self._stale = 0
        #: Bytes of the log consumed so far (complete lines only) —
        #: the resume point for :meth:`refresh`.
        self._offset = 0
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
                > max(len(self._records), AUTO_COMPACT_MIN_STALE)
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
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def keys(self) -> List[str]:
        """Stored keys, in first-seen order."""
        return list(self._order)

    def records(self) -> Iterator[Dict]:
        """Stored records, in first-seen key order."""
        for key in self._order:
            yield self._records[key]

    def entries(self) -> List[str]:
        """The canonical record lines (the exact persisted bytes,
        minus newlines) — the byte-identity test surface."""
        return [self._lines[key] for key in self._order]

    def get(self, key: str) -> Optional[Dict]:
        return self._records.get(key)

    def line(self, key: str) -> Optional[str]:
        """The stored canonical line of ``key``'s record (the exact
        persisted bytes, minus the newline), or ``None``."""
        return self._lines.get(key)

    @property
    def stale_lines(self) -> int:
        """Superseded or unparsable lines currently in the log — the
        bytes :meth:`compact` would reclaim."""
        return self._stale

    # -- mutation ----------------------------------------------------------
    def put(self, record: Dict, line: Optional[str] = None) -> bool:
        """Memoise ``record``; returns True if anything was written.

        Identical re-puts are no-ops.  A changed record under an
        existing key is appended (the log keeps history; the index
        takes the newest).  The store takes ownership of ``record``:
        it is indexed as given, so it must be JSON-native
        (``json.loads(canonical_json(record)) == record``) and must
        not be mutated afterwards.  ``line``, when given, must be
        ``canonical_json(record)``; it is appended as is rather than
        encoded again.  The line is flushed but not fsynced; see
        :meth:`sync`.
        """
        if self._readonly:
            raise ConfigurationError(
                "this store was opened readonly (an observer of a log "
                "another process is appending to); open it without "
                "readonly=True to write"
            )
        key = record.get("key")
        if not isinstance(key, str) or not key:
            raise ConfigurationError(
                "a store record needs a non-empty string 'key'"
            )
        if line is None:
            line = canonical_json(record)
        if self._lines.get(key) == line:
            return False
        if key not in self._records:
            self._order.append(key)
        else:
            self._stale += 1  # the old line is now dead weight
        self._records[key] = record
        self._lines[key] = line
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
        path = self.results_path
        if not path.exists():
            return
        raw = path.read_bytes()
        if raw and not raw.endswith(b"\n"):
            # A torn tail: either a killed writer (mid-append) or a
            # *live* writer another process is racing us with.  The
            # rollback to the last complete line always happens on the
            # parsed bytes; only a writable open also rolls the file
            # itself back (so its own appends start clean).  A
            # readonly observer must never truncate a log someone else
            # is appending to.
            keep = raw.rfind(b"\n") + 1
            if not self._readonly:
                path.write_bytes(raw[:keep])
            raw = raw[:keep]
        self._consume(raw)
        self._offset = len(raw)

    def _consume(self, raw: bytes) -> int:
        """Index complete record lines from ``raw``; returns how many
        lines carried a key (new or superseding)."""
        indexed = 0
        for line in raw.decode("utf-8", errors="replace").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A corrupt interior line loses one record, never the
                # store: skip it rather than refuse to open.
                self._stale += 1
                continue
            key = record.get("key") if isinstance(record, dict) else None
            if not isinstance(key, str) or not key:
                self._stale += 1
                continue
            if key not in self._records:
                self._order.append(key)
            else:
                self._stale += 1
            self._records[key] = record
            self._lines[key] = line
            indexed += 1
        return indexed

    def refresh(self) -> int:
        """Pick up records another process appended since the last
        load/refresh, reading only the unseen tail of the log (the
        in-memory index stays O(1) for lookups; nothing is rescanned).
        A torn last line is left unconsumed for the next refresh; a
        log that *shrank* (externally compacted) triggers one full
        reload.  Returns the number of record lines consumed."""
        path = self.results_path
        if path is None or not path.exists():
            return 0
        size = path.stat().st_size
        if size < self._offset:
            # Externally compacted/rewritten: start over.
            self._records.clear()
            self._lines.clear()
            self._order.clear()
            self._stale = 0
            self._offset = 0
        if size == self._offset:
            return 0
        with open(path, "rb") as handle:
            handle.seek(self._offset)
            raw = handle.read()
        if raw and not raw.endswith(b"\n"):
            keep = raw.rfind(b"\n") + 1
            raw = raw[:keep]   # leave the torn tail for next time
        if not raw:
            return 0
        consumed = self._consume(raw)
        self._offset += len(raw)
        return consumed

    # -- compaction --------------------------------------------------------
    def compact(self) -> int:
        """Rewrite the log down to the live records, in first-seen key
        order.  Atomic (temp file + ``os.replace``): a crash mid-compact
        leaves the original log untouched.  Returns the number of
        stale lines reclaimed; a no-op for memory stores and for logs
        that are already compact.
        """
        if self._readonly:
            raise ConfigurationError(
                "cannot compact a store opened readonly"
            )
        reclaimed = self._stale
        if self._path is None or reclaimed == 0:
            return 0
        # Appends after the replace must land in the new file, not in
        # the orphaned inode an open handle would still point at.
        self.sync()
        path = self.results_path
        tmp = path.with_suffix(".jsonl.tmp")
        written = 0
        with open(tmp, "w") as handle:
            for key in self._order:
                line = self._lines[key] + "\n"
                handle.write(line)
                written += len(line.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._stale = 0
        self._offset = written
        return reclaimed
