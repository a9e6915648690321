"""Append-only JSONL journal — the queue's single source of truth.

The service stores queue state the way Balsam's launcher stores job
state in its database: every transition is a *record*, and the current
table is a fold over the record stream.  Here the store is a plain
JSONL file because it gives exactly the two properties the service
needs with zero dependencies:

* **Transactional appends.**  Each record is one canonical JSON line
  written with a single ``os.write`` on an ``O_APPEND`` descriptor —
  the POSIX guarantee for append-mode writes means concurrent workers
  never interleave bytes within a line.
* **Crash evidence, not crash loss.**  A worker killed mid-append
  leaves at most one truncated *final* line, which :meth:`records`
  skips; everything before it is intact.  Corruption anywhere earlier
  is a real integrity failure and raises
  :class:`~repro.errors.JournalCorruptionError`.

Records are canonical JSON (sorted keys, fixed separators) so the
journal bytes are a deterministic function of the transition sequence
— ``repro analyze lint`` holds this module to the same DET rules as
the exporters.
"""

from __future__ import annotations

import json
import os
import pathlib

from ..chaos.hooks import get_chaos
from ..errors import JournalCorruptionError
from ..obs.export import canonical_json

__all__ = ["Journal"]


class Journal:
    """One append-only JSONL file of state-transition records.

    ``durable=True`` (the service default) fsyncs every append before
    returning, so an acknowledged record survives ``kill -9`` and power
    loss — the durability contract a queue's source of truth owes its
    submitters.  Tests and throwaway replays may pass ``durable=False``
    to skip the sync.
    """

    def __init__(self, path: str | os.PathLike,
                 durable: bool = True) -> None:
        self.path = pathlib.Path(path)
        self.durable = durable

    def append(self, record: dict) -> None:
        """Durably append one record (a JSON-able dict) as a single
        canonical line.  One ``os.write`` per record: concurrent
        appenders can interleave *lines*, never bytes.

        Refuses (:class:`~repro.errors.JournalCorruptionError`) when
        the file ends mid-line: appending after a torn tail would glue
        the new record onto the crash fragment and turn tolerated tail
        damage into *interior* corruption.  ``repro service verify
        --repair`` heals the tail; then appends flow again.
        """
        data = (canonical_json(record) + "\n").encode("utf-8")
        # O_RDWR, not O_WRONLY: the torn-tail guard preads the final
        # byte through the same descriptor.  O_APPEND still pins every
        # write to the (current) end of file.
        fd = os.open(self.path, os.O_APPEND | os.O_CREAT | os.O_RDWR,
                     0o644)
        try:
            if self.torn_tail_bytes(fd) > 0:
                raise JournalCorruptionError(
                    f"{self.path}: torn final line (crash evidence); "
                    "appending would corrupt it further — run "
                    "'repro service verify --repair' first")
            cz = get_chaos()
            if cz is None:
                os.write(fd, data)
            else:
                cz.write(fd, data, "journal.append")
            if self.durable:
                os.fsync(fd)
        finally:
            os.close(fd)

    @staticmethod
    def torn_tail_bytes(fd: int) -> int:
        """Bytes past the last newline (0 when the tail is healthy).

        A non-empty journal whose final byte is not ``\\n`` carries a
        crash-truncated append; everything after the last newline is
        the torn fragment.  One ``pread`` of the final byte on the
        healthy path — cheap enough to guard every append.
        """
        size = os.fstat(fd).st_size
        if size == 0 or os.pread(fd, 1, size - 1) == b"\n":
            return 0
        # Walk back in chunks to the last newline (torn fragments are
        # at most one record, so this is one read in practice).
        torn = 0
        pos = size
        while pos > 0:
            step = min(4096, pos)
            chunk = os.pread(fd, step, pos - step)
            cut = chunk.rfind(b"\n")
            if cut >= 0:
                return torn + (len(chunk) - cut - 1)
            torn += len(chunk)
            pos -= step
        return torn

    def heal_torn_tail(self) -> bytes:
        """Truncate a torn final line off, returning the removed bytes
        (``b""`` when the tail was already healthy).  The fragment was
        never acknowledged — dropping it is the one safe repair — but
        callers (fsck) quarantine the returned bytes for post-mortems.
        Only safe while no appender is live."""
        try:
            fd = os.open(self.path, os.O_RDWR)
        except OSError:
            return b""
        try:
            torn = self.torn_tail_bytes(fd)
            if torn == 0:
                return b""
            size = os.fstat(fd).st_size
            fragment = os.pread(fd, torn, size - torn)
            os.ftruncate(fd, size - torn)
            if self.durable:
                os.fsync(fd)
            return fragment
        finally:
            os.close(fd)

    def records(self) -> list[dict]:
        """Every intact record, in append order.

        A missing file is an empty journal.  An unparseable *final*
        line is a crash-truncated append and is skipped; an
        unparseable earlier line raises
        :class:`~repro.errors.JournalCorruptionError`.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        out: list[dict] = []
        lines = text.split("\n")
        for i, line in enumerate(lines):
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                if i == len(lines) - 1:
                    break  # torn final append: tolerated, not trusted
                raise JournalCorruptionError(
                    f"{self.path}:{i + 1}: unparseable journal line "
                    f"({exc})") from exc
            if not isinstance(record, dict):
                if i == len(lines) - 1:
                    break
                raise JournalCorruptionError(
                    f"{self.path}:{i + 1}: journal line is "
                    f"{type(record).__name__}, expected object")
            out.append(record)
        return out
