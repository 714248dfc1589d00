"""Tests for the shared PID-sentinel lock (``repro.dist.locks``).

The store- and broker-specific acquire/reclaim/release behaviours stay
pinned by their own suites (``tests/store/test_packed_store.py``,
``tests/dist/test_broker.py``); this module pins the generic contract --
exclusivity, stale-holder reclaim, caller-supplied error types and
message templates, and the guarded release that never unlinks someone
else's sentinel.
"""

import os
import subprocess
import sys

import pytest

from repro.dist.locks import PidFileLock, PidFileLockError, pid_alive


def _dead_pid() -> int:
    """A PID that is guaranteed dead: a subprocess we already reaped."""
    probe = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    return int(probe.stdout.strip())


class TestPidAlive:
    def test_own_pid_is_alive(self):
        assert pid_alive(os.getpid())

    def test_reaped_pid_is_dead(self):
        assert not pid_alive(_dead_pid())

    def test_nonpositive_pids_are_never_alive(self):
        assert not pid_alive(0)
        assert not pid_alive(-1)


class TestPidFileLock:
    def test_acquire_is_exclusive_and_records_pid(self, tmp_path):
        path = tmp_path / "x.lock"
        first = PidFileLock(path)
        first.acquire()
        assert first.locked
        assert first.holder() == os.getpid()
        second = PidFileLock(path)
        with pytest.raises(PidFileLockError, match="locked by a running"):
            second.acquire()
        first.release()
        assert not path.exists()
        second.acquire()  # free again
        second.release()

    def test_custom_error_type_and_message_template(self, tmp_path):
        class MyLocked(RuntimeError):
            pass

        path = tmp_path / "y.lock"
        holder = PidFileLock(path)
        holder.acquire()
        try:
            contender = PidFileLock(
                path,
                error=MyLocked,
                contended="busy: {path} held by {holder}",
            )
            with pytest.raises(MyLocked) as excinfo:
                contender.acquire()
            assert str(excinfo.value) == (
                f"busy: {path} held by {os.getpid()}"
            )
        finally:
            holder.release()

    def test_stale_lock_from_dead_process_is_reclaimed(self, tmp_path):
        path = tmp_path / "z.lock"
        dead = _dead_pid()
        path.write_text(f"{dead}\n", encoding="utf-8")
        lock = PidFileLock(path, stale="stale {path} (pid {holder})")
        with pytest.warns(RuntimeWarning, match="stale"):
            lock.acquire()
        assert lock.holder() == os.getpid()
        lock.release()

    def test_unreadable_holder_counts_as_stale(self, tmp_path):
        path = tmp_path / "junk.lock"
        path.write_text("not-a-pid\n", encoding="utf-8")
        lock = PidFileLock(path)
        with pytest.warns(RuntimeWarning, match="reclaiming stale"):
            lock.acquire()
        lock.release()

    def test_release_is_guarded_and_idempotent(self, tmp_path):
        path = tmp_path / "g.lock"
        owner = PidFileLock(path)
        owner.acquire()
        bystander = PidFileLock(path)
        # A lock this instance never acquired must not unlink the
        # owner's sentinel.
        bystander.release()
        assert path.exists()
        owner.release()
        owner.release()  # idempotent
        assert not path.exists()

    def test_context_manager(self, tmp_path):
        path = tmp_path / "cm.lock"
        with PidFileLock(path) as lock:
            assert lock.locked and path.exists()
        assert not path.exists()

    def test_exhausted_when_lock_keeps_reappearing(self, tmp_path, monkeypatch):
        path = tmp_path / "racy.lock"
        path.write_text(f"{_dead_pid()}\n", encoding="utf-8")
        # A racer keeps re-creating the stale sentinel: simulate by making
        # the reclaim unlink a no-op, so every retry loses again.
        monkeypatch.setattr(
            "repro.dist.locks.os.unlink", lambda _path: None
        )
        lock = PidFileLock(path, exhausted="gave up on {path}")
        with pytest.warns(RuntimeWarning):
            with pytest.raises(PidFileLockError, match="gave up on"):
                lock.acquire()
