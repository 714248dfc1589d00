"""Packed, append-only sweep result store (one artifact, not N tiny files).

The per-file sweep cache (``{cache_key}.json`` under ``cache_dir``) scales
linearly in *filesystem operations*: every warm point of a resumed or
re-run sweep costs one ``stat`` plus one ``open``/``read``/``close`` plus a
JSON parse, and a million-point grid becomes a million tiny files.  This
module packs the same content-hash-keyed results into **one** append-only
data file plus a small index:

``pack.data``
    a magic header followed by length-prefixed records.  Each record is an
    8-byte ``(crc32, length)`` frame followed by a pickled ``(cache_key,``
    :class:`~repro.api.results.ExperimentResult`\\ ``)`` payload.  Records
    are only ever appended; existing bytes are immutable, which is what
    makes concurrent readers safe and two packs mergeable by
    concatenation.
``pack.index``
    a JSON ``cache_key -> (offset, length)`` map plus the data size it was
    computed at, replaced atomically (unique temp file + fsync +
    ``os.replace``) after every append batch.  A missing, corrupt or stale
    index is rebuilt by scanning the data file
    (:meth:`PackedResultStore.rebuild_index`), tolerating a torn tail from
    a killed writer.
``pack.lock``
    a PID-sentinel file held only while a writer appends
    (:class:`PackedStoreLockedError` on contention, stale locks from dead
    processes reclaimed).

The payload codec is pickle, not JSON, on purpose: a warm sweep point
decodes ~5x faster, and the cache key already embeds the package version
(see :meth:`repro.api.sweep.SweepPoint.cache_key`), so a release whose
pickled layout changed can never be asked for stale records.  The pack is
a private local cache -- do not load packs from untrusted sources.

Reads are batched: :meth:`PackedResultStore.probe` answers "which of these
N keys exist" from the in-memory index without touching the data file, and
:meth:`PackedResultStore.get_many` coalesces adjacent records into large
sequential reads -- a fully warm grid restore is one index load plus one
pass over the data file.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import tempfile
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
    "INDEX_FILENAME",
    "LOCK_FILENAME",
    "PackedStoreError",
    "PackedStoreLockedError",
    "PackedResultStore",
    "migrate_files_to_packed",
]

#: Data file name inside the store directory.
DATA_FILENAME = "pack.data"

#: Index file name inside the store directory.
INDEX_FILENAME = "pack.index"

#: Writer-lock sentinel file name inside the store directory.
LOCK_FILENAME = "pack.lock"

#: Magic bytes opening every data file; a mismatch means the file is not a
#: pack (or a different, incompatible pack generation).
_MAGIC = b"RPRPACK1\n"

#: Per-record frame: little-endian (crc32-of-payload, payload-length).
_FRAME = struct.Struct("<II")

#: Index format stamp; bump on incompatible layout changes.
_INDEX_FORMAT = 1

#: Payload codec recorded in the index (future-proofing; only pickle today).
_CODEC = "pickle"


class PackedStoreError(RuntimeError):
    """The pack's on-disk state cannot be used (bad magic, bad codec)."""


class PackedStoreLockedError(PackedStoreError):
    """Another live process holds the pack's writer lock.

    Appends take an exclusive PID-sentinel lock so two writers can never
    interleave records.  Callers for whom caching is best-effort (the
    sweep service, the serve daemon) catch this, warn, and continue
    uncached; a lock whose holder is dead is reclaimed automatically.
    """


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe of another process on this host.

    Thin wrapper over the shared :func:`repro.dist.locks.pid_alive` (kept
    under the historical private name).
    """
    from ..dist.locks import pid_alive

    return pid_alive(pid)


class PackedResultStore:
    """One directory-backed pack of cache-keyed experiment results.

    The store is cheap to construct (nothing is read until first use) and
    caches its index in memory; long-lived owners (a sweep invocation, the
    serve daemon) should reuse one instance.  Readers never take the lock;
    writers serialise through :meth:`append_many`.

    Args:
        directory: the store directory (shared with -- or converted from --
            a per-file sweep cache; see :func:`migrate_files_to_packed`).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        from ..dist.locks import PidFileLock

        self.directory = Path(directory)
        self._entries: Optional[Dict[str, Tuple[int, int]]] = None
        self._indexed_bytes = 0
        self._index_sig: Optional[Tuple[int, int]] = None
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

    # -- paths ----------------------------------------------------------
    @property
    def data_path(self) -> Path:
        """The append-only record file (``pack.data``)."""
        return self.directory / DATA_FILENAME

    @property
    def index_path(self) -> Path:
        """The atomically-replaced key->offset index (``pack.index``)."""
        return self.directory / INDEX_FILENAME

    @property
    def lock_path(self) -> Path:
        """The PID-sentinel writer lock (``pack.lock``)."""
        return self.directory / LOCK_FILENAME

    def __len__(self) -> int:
        """Number of indexed records."""
        return len(self._index())

    # -- index ----------------------------------------------------------
    def _index(self) -> Dict[str, Tuple[int, int]]:
        """The in-memory index, loading (or rebuilding) it on first use."""
        if self._entries is None:
            self._load_index()
        assert self._entries is not None
        return self._entries

    def refresh(self) -> None:
        """Drop the in-memory index so the next read reloads it from disk
        (picks up records appended by another process)."""
        self._entries = None

    def _stat_index(self) -> Optional[Tuple[int, int]]:
        """``(mtime_ns, size)`` of ``pack.index`` (``None`` when absent)."""
        try:
            stat = self.index_path.stat()
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def maybe_refresh(self) -> None:
        """Reload the index only if ``pack.index`` changed on disk.

        One ``stat`` when nothing changed -- cheap enough for
        :meth:`probe` and :meth:`get_many` to call every time, so a
        long-lived reader (the serve daemon) observes records appended by
        concurrent sweep processes.
        """
        if self._entries is not None and self._stat_index() != self._index_sig:
            self.refresh()

    def _load_index(self) -> None:
        """Read ``pack.index``; fall back to a data-file scan when it is
        missing, unreadable, or stale relative to the data file."""
        try:
            payload = json.loads(self.index_path.read_text(encoding="utf-8"))
            if payload.get("format") != _INDEX_FORMAT:
                raise ValueError(
                    f"unsupported index format {payload.get('format')!r}"
                )
            if payload.get("codec") != _CODEC:
                raise PackedStoreError(
                    f"unsupported pack codec {payload.get('codec')!r} "
                    f"(expected {_CODEC!r})"
                )
            entries = {
                str(key): (int(offset), int(length))
                for key, (offset, length) in payload["entries"].items()
            }
            indexed = int(payload["data_bytes"])
        except FileNotFoundError:
            entries, indexed = None, 0
        except PackedStoreError:
            raise
        except (OSError, ValueError, KeyError, TypeError) as error:
            warnings.warn(
                f"rebuilding unreadable pack index {self.index_path} "
                f"({type(error).__name__}: {error})",
                RuntimeWarning,
                stacklevel=3,
            )
            entries, indexed = None, 0
        try:
            data_bytes = self.data_path.stat().st_size
        except FileNotFoundError:
            data_bytes = 0
        self._index_sig = self._stat_index()
        if entries is not None and indexed == data_bytes:
            self._entries, self._indexed_bytes = entries, indexed
            return
        if entries is not None and indexed != data_bytes:
            # A writer died between appending records and replacing the
            # index (indexed < data), or the data file was truncated
            # (indexed > data): rescan so the index matches reality.
            warnings.warn(
                f"pack index {self.index_path} covers {indexed} bytes but "
                f"{self.data_path} holds {data_bytes}; rebuilding",
                RuntimeWarning,
                stacklevel=3,
            )
        self._scan_data()

    def _scan_data(self) -> None:
        """Rebuild the in-memory index by walking every data-file record.

        Tolerates a torn tail: the scan stops (with a warning) at the first
        truncated or corrupt record, keeping everything before it.
        """
        entries: Dict[str, Tuple[int, int]] = {}
        good = 0
        try:
            handle = open(self.data_path, "rb")
        except FileNotFoundError:
            self._entries, self._indexed_bytes = entries, 0
            return
        with handle:
            magic = handle.read(len(_MAGIC))
            if not magic:
                self._entries, self._indexed_bytes = entries, 0
                return
            if magic != _MAGIC:
                raise PackedStoreError(
                    f"{self.data_path} is not a packed result store "
                    f"(bad magic {magic!r})"
                )
            good = len(_MAGIC)
            while True:
                offset = good
                frame = handle.read(_FRAME.size)
                if not frame:
                    break  # clean end of file
                if len(frame) < _FRAME.size:
                    self._warn_tail(offset, "truncated record frame")
                    break
                crc, length = _FRAME.unpack(frame)
                payload = handle.read(length)
                if len(payload) < length:
                    self._warn_tail(offset, "truncated record payload")
                    break
                if zlib.crc32(payload) != crc:
                    self._warn_tail(offset, "checksum mismatch")
                    break
                try:
                    key, _ = pickle.loads(payload)
                except Exception as error:
                    self._warn_tail(
                        offset, f"undecodable payload ({type(error).__name__})"
                    )
                    break
                good = offset + _FRAME.size + length
                entries[str(key)] = (offset, _FRAME.size + length)
        self._entries, self._indexed_bytes = entries, good

    def _warn_tail(self, offset: int, reason: str) -> None:
        """Report a scan stopping early; records before ``offset`` survive."""
        warnings.warn(
            f"pack data file {self.data_path} is damaged at byte {offset} "
            f"({reason}); keeping the {offset} intact bytes before it",
            RuntimeWarning,
            stacklevel=4,
        )

    def rebuild_index(self) -> int:
        """Rescan the data file and atomically rewrite ``pack.index``.

        Returns:
            The number of records indexed after the rebuild.
        """
        self._scan_data()
        self._write_index()
        return len(self._index())

    def _write_index(self) -> None:
        """Atomically replace ``pack.index`` with the in-memory index."""
        payload = {
            "format": _INDEX_FORMAT,
            "codec": _CODEC,
            "data_bytes": self._indexed_bytes,
            "entries": {
                key: list(location)
                for key, location in self._index().items()
            },
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        handle, temporary = tempfile.mkstemp(
            dir=self.directory, prefix=f".{INDEX_FILENAME}.", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                json.dump(payload, stream, separators=(",", ":"))
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(temporary, self.index_path)
            self._index_sig = self._stat_index()
        except BaseException:
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise

    # -- reads ----------------------------------------------------------
    def probe(self, keys: Iterable[str]) -> FrozenSet[str]:
        """The subset of ``keys`` present in the pack.

        One in-memory set intersection -- this is the batched replacement
        for the per-file cache's N ``stat`` calls, and what
        :class:`~repro.api.sweep.ShardPlanner` plans warm/cold shards from.
        Picks up records appended by other processes first
        (:meth:`maybe_refresh`, one ``stat``).
        """
        self.maybe_refresh()
        index = self._index()
        return frozenset(key for key in keys if key in index)

    def locate(self, keys: Iterable[str]) -> Dict[str, Tuple[int, int]]:
        """``{key: (offset, length)}`` of the present subset of ``keys``
        (the locations slim journal records carry)."""
        index = self._index()
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
        Damaged records are reported with a :class:`RuntimeWarning` and
        omitted (the caller recomputes them -- same contract as an
        unreadable per-file cache entry).  Like :meth:`probe`, first picks
        up records appended by other processes.
        """
        self.maybe_refresh()
        index = self._index()
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
        return results

    def _decode(self, key: str, record: bytes, offset: int) -> Optional[Any]:
        """Decode one framed record; warn and return ``None`` on damage."""
        reason = None
        if len(record) < _FRAME.size:
            reason = "truncated frame"
        else:
            crc, length = _FRAME.unpack(record[: _FRAME.size])
            payload = record[_FRAME.size : _FRAME.size + length]
            if len(payload) < length:
                reason = "truncated payload"
            elif zlib.crc32(payload) != crc:
                reason = "checksum mismatch"
            else:
                try:
                    stored_key, result = pickle.loads(payload)
                except Exception as error:
                    reason = f"undecodable payload ({type(error).__name__})"
                else:
                    if stored_key != key:
                        reason = f"key mismatch (record holds {stored_key!r})"
                    else:
                        return result
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

    def _lock_holder(self) -> Optional[int]:
        """PID recorded in the lock file (``None`` when unreadable)."""
        return self._lock.holder()

    def _release_lock(self) -> None:
        """Drop the writer lock (idempotent)."""
        self._lock.release()

    def append_many(
        self, entries: Sequence[Tuple[str, Any]]
    ) -> Dict[str, Tuple[int, int]]:
        """Append ``(cache_key, result)`` records atomically, in one batch.

        Takes the writer lock, re-syncs the index from disk (so records
        appended by a previous lock holder are seen and duplicate keys are
        skipped -- appends are idempotent per key), appends every new
        record, fsyncs the data file, then atomically replaces the index.
        A crash between the two leaves a data tail the next index load
        rescans -- never a corrupt store.

        Returns:
            ``{key: (offset, length)}`` for **every** requested key,
            pre-existing ones included (slim journal records use these).

        Raises:
            PackedStoreLockedError: a live process holds the writer lock.
        """
        if not entries:
            return {}
        self._acquire_lock()
        try:
            self.refresh()
            index = self._index()
            fresh = [
                (key, result)
                for key, result in entries
                if key not in index
            ]
            if fresh:
                with open(self.data_path, "ab") as handle:
                    if handle.tell() == 0:
                        handle.write(_MAGIC)
                    offset = handle.tell()
                    for key, result in fresh:
                        if key in index:
                            continue  # duplicate key inside one batch
                        payload = pickle.dumps(
                            (key, result), protocol=pickle.HIGHEST_PROTOCOL
                        )
                        handle.write(
                            _FRAME.pack(zlib.crc32(payload), len(payload))
                        )
                        handle.write(payload)
                        length = _FRAME.size + len(payload)
                        index[key] = (offset, length)
                        offset += length
                    handle.flush()
                    os.fsync(handle.fileno())
                    self._indexed_bytes = handle.tell()
                self._write_index()
            return {key: index[key] for key, _ in entries}
        finally:
            self._release_lock()

    # -- migration ------------------------------------------------------
    def ingest_files(self, directory: Optional[Union[str, Path]] = None) -> int:
        """Migrate a per-file sweep cache (:class:`~repro.store.FileResultStore`).

        Every readable per-file entry of ``directory`` (default: the
        store's own directory, the usual shared-cache layout) whose key is
        not already packed is appended in one batch, in key order.  The
        source files are left in place -- the per-file backend keeps
        working during and after a migration.  Unreadable entries are
        skipped with a :class:`RuntimeWarning`.

        Returns:
            The number of newly packed entries.
        """
        from .files import FileResultStore

        source = FileResultStore(
            directory if directory is not None else self.directory
        )
        keys = sorted(source.keys().difference(self._index()))
        fetched = source.get_many(keys)
        batch = [(key, fetched[key]) for key in keys if key in fetched]
        if batch:
            self.append_many(batch)
        return len(batch)


def migrate_files_to_packed(directory: Union[str, Path]) -> int:
    """Convert a per-file sweep cache directory into a packed store.

    Convenience wrapper: opens (or creates) the pack inside ``directory``
    and ingests every per-file ``{cache_key}.json`` entry alongside it, so
    an existing cache can switch to ``cache_backend="packed"`` without
    recomputing anything.  Idempotent -- re-running migrates only entries
    the pack does not hold yet.

    Returns:
        The number of newly packed entries.
    """
    return PackedResultStore(directory).ingest_files(directory)
