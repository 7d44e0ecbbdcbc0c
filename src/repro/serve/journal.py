"""Durable result journal: a fsync-batched JSONL write-ahead log.

Crash safety for the serving pipeline.  The journal records two event
types, one JSON object per line:

``accepted``
    A device entered the service (id, design, failure-signature hash) —
    written before any diagnosis work, so a crash can never lose track
    of what was admitted.
``resolved``
    A device's final :class:`~repro.serve.service.DeviceResult` — the
    answer-bearing fields keyed by the failure-signature hash, enough to
    replay the result **bit-identically** on restart.

Restart semantics (``--resume``): :func:`read_journal` returns the
resolved map; the service replays answer-bearing results (``status``
``"ok"`` or ``"degraded"``) for any device whose signature already
resolved, without re-diagnosing, and re-runs everything else (a restart
is a fresh chance for ``timeout``/``error`` devices).  Together with
the service's in-memory exactly-once guard this gives exactly-once
resolution *across process death*.

Durability/latency trade:

* ``append`` takes the journal lock, writes one line into the OS file
  buffer and returns — no fsync on the caller's (shard) thread, so
  journaling stays off the result latency path.
* A background flusher thread group-commits: every ``flush_interval``
  seconds (or as soon as ``batch_size`` records are pending) it does
  one ``flush`` + ``os.fsync`` covering every record appended since
  the last commit.  ``close()`` performs a final synchronous commit.
* A record is durable only after the batch commit; a crash inside the
  window loses at most the last batch — those devices simply re-run on
  resume (at-least-once work, exactly-once results).

Crash-mid-record tolerance: the reader accepts only complete,
well-formed lines.  A torn tail — the process died mid-``write`` — is
either a line without a trailing newline or invalid JSON; both are
counted (``truncated``/``bad_records``) and skipped, never fatal.
Each record also carries a CRC32 of its canonical payload so a
corrupted-but-parseable line is rejected rather than replayed.

``before_flush``/``after_flush`` hooks exist for the chaos harness
(:mod:`repro.serve.chaos`) to simulate a crash on either side of the
commit boundary.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .intake import signature_key

__all__ = [
    "JournalReplay",
    "ResultJournal",
    "read_journal",
    "signature_key",
]

#: DeviceResult statuses whose journal records are replayed on resume
#: (they carry answers); other statuses re-run.
REPLAYABLE_STATUSES = ("ok", "degraded")

#: The :meth:`~repro.serve.service.DeviceResult.to_record` keys a
#: ``resolved`` record keeps: enough to replay the answer, nothing
#: about the run that produced it.
RESOLVED_FIELDS = (
    "id", "design", "status", "answer", "cardinality", "solutions",
    "winner", "degraded_rung", "validity", "error",
)


def _payload_crc(record: dict) -> int:
    """CRC32 over the record's canonical JSON form, ``crc`` excluded."""
    body = {k: v for k, v in record.items() if k != "crc"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canon.encode("utf-8")) & 0xFFFFFFFF


def _encode_solutions(solutions) -> list[list[str]]:
    return [sorted(s) for s in solutions]


def _decode_solutions(raw) -> tuple:
    return tuple(frozenset(s) for s in raw)


@dataclass
class JournalReplay:
    """What a journal file held at read time."""

    #: signature key -> resolved record (answer-bearing fields).
    resolved: dict[str, dict] = field(default_factory=dict)
    #: signature keys with an ``accepted`` record.
    accepted: set[str] = field(default_factory=set)
    #: Well-formed records read.
    records: int = 0
    #: Parseable lines rejected (bad CRC, unknown type, missing fields).
    bad_records: int = 0
    #: True when the file ended in a torn (crash-mid-write) tail.
    truncated: bool = False

    def replayable(self, key: str) -> dict | None:
        """The resolved record for ``key`` iff its status replays."""
        record = self.resolved.get(key)
        if record is not None and record["status"] in REPLAYABLE_STATUSES:
            return record
        return None


def read_journal(path: str | Path) -> JournalReplay:
    """Parse a journal file, tolerating a torn tail.

    Reading is idempotent and convergent: re-reading the same file (or
    a file extended by a later run) yields a superset of the same
    resolved map — the chaos invariants assert this.
    """
    replay = JournalReplay()
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return replay
    if not data:
        return replay
    lines = data.split(b"\n")
    # A well-formed journal ends with a newline, so the final split
    # element is empty; anything else is a torn last record.
    tail = lines.pop()
    if tail:
        replay.truncated = True
    for raw in lines:
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            replay.bad_records += 1
            continue
        if not isinstance(record, dict):
            replay.bad_records += 1
            continue
        crc = record.get("crc")
        if crc != _payload_crc(record):
            replay.bad_records += 1
            continue
        kind = record.get("type")
        key = record.get("sig")
        if not isinstance(key, str):
            replay.bad_records += 1
            continue
        if kind == "accepted":
            replay.accepted.add(key)
            replay.records += 1
        elif kind == "resolved":
            if "status" not in record:
                replay.bad_records += 1
                continue
            replay.resolved[key] = record
            replay.records += 1
        else:
            replay.bad_records += 1
    return replay


class ResultJournal:
    """Append-only JSONL WAL with background group-commit fsync.

    Parameters
    ----------
    path:
        Journal file, opened in append mode (resume keeps writing to
        the same file; the reader's last-write-wins handles re-resolved
        signatures).
    batch_size:
        Pending records that force an immediate commit wake-up.
    flush_interval:
        Group-commit period in seconds.  Both knobs only bound the
        durability window — appends never wait for the disk.
    before_flush / after_flush:
        Chaos hooks called around each fsync commit (see module
        docstring); exceptions propagate to the caller on the
        synchronous ``close``/``flush`` path, otherwise they stop the
        flusher thread (recorded as ``flusher_error`` — a simulated
        crash of the background commit).
    """

    def __init__(
        self,
        path: str | Path,
        batch_size: int = 32,
        flush_interval: float = 0.05,
        before_flush: Callable[[], None] | None = None,
        after_flush: Callable[[], None] | None = None,
    ) -> None:
        self.path = Path(path)
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self.before_flush = before_flush
        self.after_flush = after_flush
        self._lock = threading.Lock()
        self._pending = 0
        self._closed = False
        #: Exception that stopped the background flusher, if any.
        self.flusher_error: Exception | None = None
        self._stopping = threading.Event()
        self._kick = threading.Event()
        self.stats = {
            "appended": 0,
            "commits": 0,
            "synced_records": 0,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "ab")
        self._flusher = threading.Thread(
            target=self._flush_loop,
            name="repro-journal-flusher",
            daemon=True,
        )
        self._flusher.start()

    # ------------------------------------------------------------------
    # append path (shard threads): buffer write only, no fsync
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        record["crc"] = _payload_crc(record)
        line = (
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode("utf-8")
        with self._lock:
            if self._closed:
                raise RuntimeError("journal is closed")
            self._fh.write(line)
            self._pending += 1
            self.stats["appended"] += 1
            kick = self._pending >= self.batch_size
        if kick:
            self._kick.set()

    def accepted(self, device_id: str, design: str, key: str) -> None:
        """Record that a device was admitted (before any work)."""
        self._append(
            {
                "type": "accepted",
                "sig": key,
                "id": device_id,
                "design": design,
            }
        )

    def resolved(self, key: str, result) -> None:
        """Record a final :class:`DeviceResult` under its signature key."""
        record = result.to_record()
        self._append(
            {
                "type": "resolved",
                "sig": key,
                **{name: record[name] for name in RESOLVED_FIELDS},
            }
        )

    # ------------------------------------------------------------------
    # commit path (background thread / explicit flush)
    # ------------------------------------------------------------------
    def _commit(self) -> None:
        """One group commit: flush + fsync everything appended so far."""
        if self.before_flush is not None:
            self.before_flush()
        with self._lock:
            if self._closed:
                return
            batch = self._pending
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._pending = 0
            if batch:
                self.stats["commits"] += 1
                self.stats["synced_records"] += batch
        if self.after_flush is not None:
            self.after_flush()

    def _flush_loop(self) -> None:
        while not self._stopping.is_set():
            self._kick.wait(self.flush_interval)
            self._kick.clear()
            if self._stopping.is_set():
                return
            with self._lock:
                dirty = self._pending > 0 and not self._closed
            if dirty:
                try:
                    self._commit()
                except Exception as exc:
                    # A failed background commit stops group-committing
                    # (the chaos harness's simulated crash lands here);
                    # appends keep buffering and close()'s synchronous
                    # commit still decides final durability.
                    self.flusher_error = exc
                    return

    def flush(self) -> None:
        """Synchronous commit — everything appended so far is durable."""
        self._commit()

    def close(self) -> None:
        """Final commit, stop the flusher, close the file."""
        self._stopping.set()
        self._kick.set()
        self._flusher.join(timeout=1.0)
        try:
            self._commit()
        finally:
            with self._lock:
                self._closed = True
                self._fh.close()

    def __enter__(self) -> "ResultJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
