"""Packed, append-only sweep result store (one artifact, not N tiny files).

A sweep cache of one ``{cache_key}.json`` per point scales linearly in
*filesystem operations*: every warm point costs one ``stat`` plus one
``open``/``read``/``close`` plus a JSON parse, and a million-point grid
becomes a million tiny files.  This module packs the content-hash-keyed
results into **one** self-indexing, append-only data file:

``pack.data``
    a magic header followed by records.  Each record is a 12-byte
    ``(crc32, key length, payload length)`` frame, then the UTF-8 cache
    key, then the pickled :class:`~repro.api.results.ExperimentResult`;
    the checksum covers key and payload.  Records are only ever appended;
    existing bytes are immutable, which is what makes concurrent readers
    safe.  The in-memory ``key -> (offset, length)`` index is built by
    walking the frames (keys only, no payload is unpickled), and a reader
    that already indexed a prefix scans only the bytes appended since.
``pack.lock``
    a PID-sentinel file held only while a writer appends
    (:class:`PackedStoreLockedError` on contention, stale locks from dead
    processes reclaimed).

An incomplete final record is an append in progress: readers leave it
unindexed, and the next writer -- holding the lock, so its author is dead
-- warns and truncates it.  A complete record whose checksum fails is
skipped with a :class:`RuntimeWarning` and the scan continues past it.

The payload codec is pickle, not JSON, on purpose: a warm sweep point
decodes ~5x faster, and the cache key already embeds the package version
(see :meth:`repro.api.sweep.SweepPoint.cache_key`), so a release whose
pickled layout changed can never be asked for stale records.  The pack is
a private local cache -- do not load packs from untrusted sources.

Reads are batched: :meth:`PackedResultStore.probe` answers "which of these
N keys exist" from the in-memory index, and
:meth:`PackedResultStore.get_many` coalesces adjacent records into large
sequential reads -- a fully warm grid restore is one frame scan plus one
pass over the data file.
"""

from __future__ import annotations

import os
import pickle
import struct
import warnings
import zlib
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "DATA_FILENAME",
    "LOCK_FILENAME",
    "PackedStoreError",
    "PackedStoreLockedError",
    "PackedResultStore",
]

#: Data file name inside the store directory.
DATA_FILENAME = "pack.data"

#: Writer-lock sentinel file name inside the store directory.
LOCK_FILENAME = "pack.lock"

#: Magic bytes opening every data file; a mismatch means the file is not a
#: pack (or a different, incompatible pack generation).
_MAGIC = b"RPRPACK2\n"

#: Per-record frame: little-endian (crc32 of key + payload, key length,
#: payload length).
_FRAME = struct.Struct("<III")


class PackedStoreError(RuntimeError):
    """The pack's on-disk state cannot be used (bad magic)."""


class PackedStoreLockedError(PackedStoreError):
    """Another live process holds the pack's writer lock.

    Appends take an exclusive PID-sentinel lock so two writers can never
    interleave records.  Callers for whom caching is best-effort (the
    sweep service, the serve daemon) catch this, warn, and continue
    uncached; a lock whose holder is dead is reclaimed automatically.
    """


class PackedResultStore:
    """One directory-backed pack of cache-keyed experiment results.

    The store is cheap to construct (nothing is read until first use) and
    keeps its index in memory; long-lived owners (a sweep invocation, the
    serve daemon) should reuse one instance.  Readers never take the lock;
    writers serialise through :meth:`append_many`.

    Args:
        directory: the store directory.

    Attributes:
        data_path: the append-only record file (``pack.data``).
        lock_path: the PID-sentinel writer lock (``pack.lock``).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        from ..dist.locks import PidFileLock

        self.directory = Path(directory)
        self.data_path = self.directory / DATA_FILENAME
        self.lock_path = self.directory / LOCK_FILENAME
        self._entries: Dict[str, Tuple[int, int]] = {}
        self._indexed_bytes = 0
        # The writer lock is the shared PID-sentinel implementation; the
        # message templates reproduce this store's historical wording
        # byte-for-byte (pinned by the store tests).
        self._lock = PidFileLock(
            self.lock_path,
            error=PackedStoreLockedError,
            contended=(
                f"pack {self.directory} is being written by a live "
                "process (pid {holder}, lock file {path})"
            ),
            stale=(
                "reclaiming stale pack lock {path} (holder pid {holder} "
                "is gone)"
            ),
            exhausted=(
                "could not acquire pack lock {path}: another writer "
                "keeps re-creating it"
            ),
        )

    def __len__(self) -> int:
        """Number of indexed records."""
        self.maybe_refresh()
        return len(self._entries)

    # -- index ----------------------------------------------------------
    def maybe_refresh(self) -> int:
        """Index the records appended since the last scan.

        One ``stat`` when nothing changed -- cheap enough for every read
        to call, so a long-lived reader (the serve daemon) observes
        records appended by concurrent sweep processes.  Only the bytes
        after the indexed prefix are read; a shrunken file (deleted or
        replaced) is rescanned from the start.

        Returns:
            The data file size the scan saw; anything beyond the indexed
            prefix is an incomplete record (an append in progress).

        Raises:
            PackedStoreError: the data file does not start with this pack
                generation's magic.
        """
        try:
            size = self.data_path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size < self._indexed_bytes:
            self._entries, self._indexed_bytes = {}, 0
        if size > self._indexed_bytes:
            self._scan(size)
        return size

    def _scan(self, size: int) -> None:
        """Index every complete frame in ``[_indexed_bytes, size)``."""
        base = self._indexed_bytes
        with open(self.data_path, "rb") as handle:
            handle.seek(base)
            blob = memoryview(handle.read(size - base))
        position = 0
        if base == 0:
            head = bytes(blob[: len(_MAGIC)])
            if head != _MAGIC[: len(head)]:
                raise PackedStoreError(
                    f"{self.data_path} is not a packed result store of "
                    f"this version (bad magic {head!r}); delete it -- the "
                    "cache is recomputed by the next sweep"
                )
            if len(head) < len(_MAGIC):
                return  # the first writer is still writing the header
            position = len(_MAGIC)
        end_of_data = len(blob)
        while position + _FRAME.size <= end_of_data:
            crc, key_length, payload_length = _FRAME.unpack_from(
                blob, position
            )
            body_start = position + _FRAME.size
            end = body_start + key_length + payload_length
            if end > end_of_data:
                break  # an append in progress
            if zlib.crc32(blob[body_start:end]) != crc:
                warnings.warn(
                    f"skipping damaged pack record at byte {base + position} "
                    f"of {self.data_path} (checksum mismatch)",
                    RuntimeWarning,
                    stacklevel=4,
                )
            else:
                key = str(blob[body_start : body_start + key_length], "utf-8")
                self._entries[key] = (base + position, end - position)
            position = end
        self._indexed_bytes = base + position

    # -- reads ----------------------------------------------------------
    def probe(self, keys: Iterable[str]) -> FrozenSet[str]:
        """The subset of ``keys`` present in the pack.

        One in-memory set intersection -- this is the batched replacement
        for a per-file cache's N ``stat`` calls, and what
        :class:`~repro.api.sweep.ShardPlanner` plans warm/cold shards from.
        Picks up records appended by other processes first
        (:meth:`maybe_refresh`).
        """
        self.maybe_refresh()
        index = self._entries
        return frozenset(key for key in keys if key in index)

    def locate(self, keys: Iterable[str]) -> Dict[str, Tuple[int, int]]:
        """``{key: (offset, length)}`` of the present subset of ``keys``.

        No sweep path calls it; the store tests use it to find records,
        and ``perfbench/tracer.py`` probes it by name."""
        self.maybe_refresh()
        index = self._entries
        return {key: index[key] for key in keys if key in index}

    def get(self, key: str) -> Optional[Any]:
        """One record's :class:`~repro.api.results.ExperimentResult`, or
        ``None`` when absent or unreadable."""
        return self.get_many((key,)).get(key)

    def get_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        """Batched read of every present, readable record of ``keys``.

        Requested records are sorted by file offset and adjacent records
        are coalesced into single sequential reads, so restoring a fully
        warm grid costs one pass over the data file instead of N opens.
        Every record's checksum and key are verified; a damaged record is
        reported with a :class:`RuntimeWarning`, omitted and dropped from
        the index (the caller recomputes it and the next append writes a
        fresh copy).  Like :meth:`probe`, first picks up records appended
        by other processes.
        """
        self.maybe_refresh()
        index = self._entries
        wanted = [
            (index[key][0], index[key][1], key)
            for key in dict.fromkeys(keys)
            if key in index
        ]
        results: Dict[str, Any] = {}
        if not wanted:
            return results
        wanted.sort()
        # Coalesce adjacent records into contiguous spans (mutated in
        # place so a fully-adjacent batch stays O(N)).
        spans: List[List[Any]] = []
        for offset, length, key in wanted:
            if spans and spans[-1][0] + spans[-1][1] == offset:
                spans[-1][1] += length
                spans[-1][2].append((offset, length, key))
            else:
                spans.append([offset, length, [(offset, length, key)]])
        try:
            handle = open(self.data_path, "rb")
        except FileNotFoundError:
            return results
        with handle:
            for start, span_length, members in spans:
                handle.seek(start)
                blob = handle.read(span_length)
                for offset, length, key in members:
                    record = blob[offset - start : offset - start + length]
                    result = self._decode(key, record, offset)
                    if result is not None:
                        results[key] = result
                    else:
                        index.pop(key, None)
        return results

    def _decode(self, key: str, record: bytes, offset: int) -> Optional[Any]:
        """Decode one framed record; warn and return ``None`` on damage."""
        reason = None
        body = record[_FRAME.size :]
        if len(record) < _FRAME.size:
            reason = "truncated frame"
        else:
            crc, key_length, payload_length = _FRAME.unpack_from(record)
            stored_key = body[:key_length].decode("utf-8", "replace")
            if len(body) < key_length + payload_length:
                reason = "truncated record"
            elif zlib.crc32(body) != crc:
                reason = "checksum mismatch"
            elif stored_key != key:
                reason = f"key mismatch (record holds {stored_key!r})"
            else:
                try:
                    return pickle.loads(body[key_length:])
                except Exception as error:
                    reason = f"undecodable payload ({type(error).__name__})"
        warnings.warn(
            f"ignoring damaged pack record for {key} at byte {offset} of "
            f"{self.data_path} ({reason}); treating as a cache miss",
            RuntimeWarning,
            stacklevel=3,
        )
        return None

    # -- writes ---------------------------------------------------------
    def _acquire_lock(self) -> None:
        """Take the exclusive writer lock (PID sentinel, ``O_EXCL``).

        Delegates to the shared :class:`repro.dist.locks.PidFileLock`
        (stale locks from dead writers are reclaimed with a
        :class:`RuntimeWarning`).

        Raises:
            PackedStoreLockedError: a live process holds the lock.
        """
        self._lock.acquire(stacklevel=5)

    def _release_lock(self) -> None:
        """Drop the writer lock (idempotent)."""
        self._lock.release()

    def append_many(self, entries: Sequence[Tuple[str, Any]]) -> None:
        """Append ``(cache_key, result)`` records in one batch.

        Takes the writer lock and catches up with records appended by
        previous lock holders (keys already present are skipped -- appends
        are idempotent per key).  An incomplete tail left by a writer that
        died mid-append is truncated with a :class:`RuntimeWarning`.  Then
        every new frame is appended in one write and the data file is
        fsynced once; nothing else is written.

        Raises:
            PackedStoreLockedError: a live process holds the writer lock.
        """
        if not entries:
            return
        self._acquire_lock()
        try:
            size = self.maybe_refresh()
            index = self._entries
            if size > self._indexed_bytes:
                warnings.warn(
                    f"dropping an incomplete record of "
                    f"{size - self._indexed_bytes} bytes at the end of "
                    f"{self.data_path} (its writer died mid-append)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                os.truncate(self.data_path, self._indexed_bytes)
            chunks: List[bytes] = [] if self._indexed_bytes else [_MAGIC]
            offset = self._indexed_bytes or len(_MAGIC)
            fresh: Dict[str, Tuple[int, int]] = {}
            for key, result in entries:
                if key in index or key in fresh:
                    continue
                key_bytes = key.encode("utf-8")
                payload = pickle.dumps(
                    result, protocol=pickle.HIGHEST_PROTOCOL
                )
                crc = zlib.crc32(payload, zlib.crc32(key_bytes))
                chunks += (
                    _FRAME.pack(crc, len(key_bytes), len(payload)),
                    key_bytes,
                    payload,
                )
                length = _FRAME.size + len(key_bytes) + len(payload)
                fresh[key] = (offset, length)
                offset += length
            if fresh:
                with open(self.data_path, "ab") as handle:
                    handle.write(b"".join(chunks))
                    handle.flush()
                    os.fsync(handle.fileno())
                index.update(fresh)
                self._indexed_bytes = offset
        finally:
            self._release_lock()
