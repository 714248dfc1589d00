"""Shared PID-sentinel exclusive lock (stale-holder reclaim included).

Two subsystems need the same on-disk mutual exclusion: the packed result
store (two writers must not interleave records into one ``pack.data``)
and the directory broker (one coordinator per sweep directory).  This
module is the single shared implementation:

* the lock is a sidecar file created with ``O_CREAT | O_EXCL`` (atomic on
  every platform the test suite runs on) holding the owner's PID;
* a lock whose recorded PID belongs to a **live** process is contended --
  :meth:`PidFileLock.acquire` raises the caller-supplied exception type
  with the caller-supplied message, so a caller's public error
  (``PackedStoreLockedError``) and its pinned wording keep working
  unchanged;
* a lock whose holder is dead (a killed sweep, a crashed writer) is
  *stale* and is reclaimed automatically with a :class:`RuntimeWarning`,
  so one SIGKILL never wedges a cache directory forever.

The liveness probe (:func:`pid_alive`) is same-host best-effort: PID 0 /
negative PIDs are never alive, ``EPERM`` means "exists, owned by someone
else", anything else unexpected reads as dead.  Cross-host coordination
(the broker) therefore layers a heartbeat timestamp on top of the PID --
see :mod:`repro.dist.broker`.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Optional, Type, Union

__all__ = ["PidFileLockError", "PidFileLock", "pid_alive"]


class PidFileLockError(RuntimeError):
    """Another live process holds the PID-sentinel lock.

    The default contention error; callers with a historical public
    exception type pass it as :class:`PidFileLock` 's ``error`` so their
    callers keep catching what they always caught.
    """


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe of another process on this host.

    ``os.kill(pid, 0)`` performs permission checks without delivering a
    signal: ``ProcessLookupError`` means dead, ``PermissionError`` means
    alive but owned by someone else, anything else unexpected is treated
    as dead (a stale lock must never wedge the caller forever).
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


class PidFileLock:
    """An exclusive on-disk lock: one sentinel file holding the owner PID.

    The packed result store's writer lock and the broker's coordinator
    lock are both instances.  Their acquire/reclaim/release semantics --
    and exact messages -- are pinned by their own test suites: the three
    message templates are caller-supplied ``str.format`` strings taking
    ``{path}`` and (where a holder exists) ``{holder}``.

    Args:
        path: the sentinel file location.
        error: exception type raised when a live process holds the lock.
        contended: message template when a live holder is found.
        stale: :class:`RuntimeWarning` template when a dead holder's lock
            is reclaimed.
        exhausted: message template when acquisition keeps losing the
            ``O_EXCL`` race after a reclaim.
    """

    def __init__(
        self,
        path: Union[str, Path],
        error: Type[Exception] = PidFileLockError,
        contended: str = (
            "{path} is locked by a running process (pid {holder})"
        ),
        stale: str = (
            "reclaiming stale lock {path} (holder pid {holder} is gone)"
        ),
        exhausted: str = (
            "could not acquire lock {path}: another process keeps "
            "re-creating it"
        ),
    ) -> None:
        self.path = Path(path)
        self.error = error
        self.contended = contended
        self.stale = stale
        self.exhausted = exhausted
        self._locked = False

    @property
    def locked(self) -> bool:
        """True while this instance holds the lock."""
        return self._locked

    def holder(self) -> Optional[int]:
        """PID recorded in the lock file (``None`` when unreadable)."""
        try:
            return int(self.path.read_text(encoding="utf-8").strip())
        except (OSError, ValueError):
            return None

    def acquire(self, stacklevel: int = 2) -> None:
        """Take the lock (``O_EXCL`` create), reclaiming stale holders.

        If the sentinel already exists and its PID belongs to a live
        process the configured ``error`` is raised; a dead holder's lock
        is reclaimed with a :class:`RuntimeWarning` and acquisition
        retried once.

        Args:
            stacklevel: forwarded to :func:`warnings.warn` for the stale
                reclaim, so the warning points at the caller's caller.

        Raises:
            Exception: the configured ``error`` type, when a live process
                holds the lock (or keeps re-creating it).
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for _ in range(2):  # one retry after reclaiming a stale lock
            try:
                handle = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                holder = self.holder()
                if holder is not None and pid_alive(holder):
                    raise self.error(
                        self.contended.format(path=self.path, holder=holder)
                    )
                warnings.warn(
                    self.stale.format(path=self.path, holder=holder),
                    RuntimeWarning,
                    stacklevel=stacklevel,
                )
                try:
                    os.unlink(self.path)
                except FileNotFoundError:
                    pass
                continue
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(f"{os.getpid()}\n")
            self._locked = True
            return
        raise self.error(self.exhausted.format(path=self.path))

    def release(self) -> None:
        """Drop the lock taken by :meth:`acquire` (idempotent).

        Releasing a lock this instance does not hold is a no-op -- it
        never unlinks a sentinel some *other* process created.
        """
        if not self._locked:
            return
        self._locked = False
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    def __enter__(self) -> "PidFileLock":
        """Context-manager support: acquire on entry."""
        self.acquire(stacklevel=3)
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager support: release on exit."""
        self.release()
