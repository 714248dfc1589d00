"""Shared-directory sweep broker: leases, fragments, and the coordinator.

The first *distributed* shard transport.  There is no server: coordinator
and workers rendezvous on a plain directory (local disk for multi-process
sweeps, a shared filesystem for multi-host ones) using only atomic
filesystem primitives -- ``O_EXCL`` creates for claims, temp-file +
``os.replace`` for publications -- so a SIGKILL at any instant leaves
either the old state or the new state, never a torn one::

    <sweep_dir>/
        manifest.json        # sweep id, package/schema versions, shard ids
        coordinator.lock     # PID sentinel: one coordinator per directory
        tasks/shard-0007.task    # pickled SweepShard (points + configs)
        leases/shard-0007.lease  # JSON {pid, worker, host, created, time}
        results/shard-0007.jsonl # result fragment (atomically renamed)
        STOP                 # coordinator is done; workers exit

Lifecycle: the coordinator (:class:`BrokerTransport`, selected with
``run_sweep(transport="broker", sweep_dir=...)``) publishes the cold
shards as task files and then loops -- consuming result fragments,
breaking leases whose holder died (same-host PID probe) or stopped
heartbeating (cross-host TTL), and, unless told otherwise, leasing and
executing shards itself so a sweep with zero attached workers still
completes.  Workers (``repro worker <sweep_dir>``, see
:mod:`repro.dist.worker`) claim leases, heartbeat while executing, and
stream results back as result fragments.  A broken lease simply makes
the shard claimable again; per-shard attempts are counted by the
coordinator and bounded by ``max_attempts``
(:class:`~repro.dist.transport.WorkerLostError` names the shard when the
budget runs out).

Determinism: shard execution is deterministic and fragments are keyed by
grid indices, so however many workers race -- including duplicated
completions from workers that outlived an expired lease -- the merged
:class:`~repro.api.results.SweepResult` is byte-for-byte identical to the
serial transport's (pinned by ``tests/dist/`` and the CI ``dist-smoke``
job).

Task files are pickled (like every shard a process pool ships); a sweep
directory is private coordination state -- do not point workers at
directories you do not trust.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import tempfile
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .locks import PidFileLock, pid_alive
from .transport import (
    ShardOutcomes,
    ShardRunner,
    ShardFinisher,
    ShardTransport,
    TransportError,
    WorkerLostError,
)

__all__ = [
    "MANIFEST_FILENAME",
    "STOP_FILENAME",
    "COORDINATOR_LOCK_FILENAME",
    "MANIFEST_FORMAT",
    "SweepManifestError",
    "DirectoryBroker",
    "BrokerTransport",
]

#: Manifest file name inside the sweep directory.
MANIFEST_FILENAME = "manifest.json"

#: Stop-sentinel file name: its existence tells workers to exit.
STOP_FILENAME = "STOP"

#: Coordinator PID-sentinel lock file name.
COORDINATOR_LOCK_FILENAME = "coordinator.lock"

#: Manifest layout stamp; bump on incompatible directory-layout changes.
MANIFEST_FORMAT = 1

_TASKS_DIR = "tasks"
_LEASES_DIR = "leases"
_RESULTS_DIR = "results"


class SweepManifestError(TransportError):
    """The sweep directory cannot be attached to.

    Raised when the manifest is missing (after the attach timeout),
    unreadable, from an incompatible package/schema version, or the
    directory's task files do not match it -- a worker must fail loudly
    rather than compute results the coordinator would discard.
    """


def _atomic_write(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (temp + fsync + replace)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temporary = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(payload)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temporary, path)
    except BaseException:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise


class DirectoryBroker:
    """The on-disk sweep-directory protocol, shared by both sides.

    One instance wraps one sweep directory; the coordinator uses the
    publish/consume half, workers the attach/lease/execute half.  All
    mutation is crash-safe: claims are ``O_EXCL`` creates, everything
    else is temp-file + ``os.replace``.

    Args:
        root: the shared sweep directory.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- paths ----------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        """The sweep manifest (written last during publication)."""
        return self.root / MANIFEST_FILENAME

    @property
    def stop_path(self) -> Path:
        """The stop sentinel telling workers to exit."""
        return self.root / STOP_FILENAME

    def task_path(self, shard_index: int) -> Path:
        """The pickled task file of one shard."""
        return self.root / _TASKS_DIR / f"shard-{shard_index:04d}.task"

    def lease_path(self, shard_index: int) -> Path:
        """The lease sentinel of one shard."""
        return self.root / _LEASES_DIR / f"shard-{shard_index:04d}.lease"

    def result_path(self, shard_index: int) -> Path:
        """The result fragment of one shard."""
        return self.root / _RESULTS_DIR / f"shard-{shard_index:04d}.jsonl"

    # -- publication (coordinator) --------------------------------------
    def publish(self, shards: Sequence[Any], sweep_id: str) -> None:
        """Publish a fresh sweep: task files first, manifest last.

        Any state from a previous sweep in the same directory (tasks,
        leases, results, the stop sentinel, the old manifest) is removed
        first, so a re-used directory can never leak stale fragments into
        the new run.  The manifest is written last -- a worker that sees
        a manifest is guaranteed to find every task file it names.
        """
        try:
            os.unlink(self.manifest_path)
        except FileNotFoundError:
            pass
        for directory in (_TASKS_DIR, _LEASES_DIR, _RESULTS_DIR):
            path = self.root / directory
            path.mkdir(parents=True, exist_ok=True)
            for stale in path.iterdir():
                try:
                    os.unlink(stale)
                except OSError:
                    pass
        try:
            os.unlink(self.stop_path)
        except FileNotFoundError:
            pass
        for shard in shards:
            _atomic_write(
                self.task_path(shard.index),
                pickle.dumps(shard, protocol=pickle.HIGHEST_PROTOCOL),
            )
        from .. import __version__
        from ..api.results import SCHEMA_VERSION

        manifest = {
            "kind": "sweep-manifest",
            "format": MANIFEST_FORMAT,
            "sweep_id": sweep_id,
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "shards": sorted(shard.index for shard in shards),
            "points": {
                str(shard.index): len(shard.points) for shard in shards
            },
            "created_at": time.time(),
        }
        _atomic_write(
            self.manifest_path,
            (json.dumps(manifest, sort_keys=True) + "\n").encode("utf-8"),
        )

    def read_manifest(
        self, wait_s: float = 0.0, poll_s: float = 0.1
    ) -> Dict[str, Any]:
        """Read (optionally waiting for) the sweep manifest.

        Args:
            wait_s: how long to keep polling for a manifest to appear --
                lets workers be started *before* the coordinator.
            poll_s: polling interval while waiting.

        Raises:
            SweepManifestError: no readable, compatible manifest appeared
                within the deadline.
        """
        from .. import __version__
        from ..api.results import SCHEMA_VERSION

        deadline = time.monotonic() + max(0.0, wait_s)
        while True:
            try:
                payload = json.loads(
                    self.manifest_path.read_text(encoding="utf-8")
                )
            except FileNotFoundError:
                payload = None
            except (OSError, ValueError) as error:
                raise SweepManifestError(
                    f"unreadable sweep manifest {self.manifest_path} "
                    f"({type(error).__name__}: {error})"
                ) from error
            if payload is not None:
                if payload.get("format") != MANIFEST_FORMAT:
                    raise SweepManifestError(
                        f"sweep manifest {self.manifest_path} has "
                        f"unsupported format {payload.get('format')!r} "
                        f"(this build speaks format {MANIFEST_FORMAT})"
                    )
                if (
                    payload.get("version") != __version__
                    or payload.get("schema_version") != SCHEMA_VERSION
                ):
                    raise SweepManifestError(
                        f"sweep manifest {self.manifest_path} was published "
                        f"by version {payload.get('version')!r} (schema "
                        f"{payload.get('schema_version')!r}); this worker "
                        f"runs {__version__!r} (schema {SCHEMA_VERSION!r}) "
                        "-- mixed-version fleets would poison the cache keys"
                    )
                return payload
            if time.monotonic() >= deadline:
                raise SweepManifestError(
                    f"no sweep manifest at {self.manifest_path}; is the "
                    "coordinator running? (start it with repro sweep "
                    "--transport broker --sweep-dir ...)"
                )
            time.sleep(poll_s)

    def write_stop(self) -> None:
        """Drop the stop sentinel so attached workers exit their loops."""
        try:
            _atomic_write(self.stop_path, b"stop\n")
        except OSError:
            pass  # best-effort: workers also exit on all-results-present

    def stopped(self) -> bool:
        """True once the coordinator dropped the stop sentinel."""
        return self.stop_path.exists()

    # -- tasks ----------------------------------------------------------
    def load_task(self, shard_index: int) -> Any:
        """Unpickle one shard's task file.

        Raises:
            SweepManifestError: the task file is missing or undecodable
                (the directory does not match its manifest).
        """
        try:
            payload = self.task_path(shard_index).read_bytes()
            return pickle.loads(payload)
        except FileNotFoundError:
            raise SweepManifestError(
                f"task file {self.task_path(shard_index)} named by the "
                "manifest is missing; the sweep directory is damaged or "
                "was re-published mid-claim"
            ) from None
        except Exception as error:
            raise SweepManifestError(
                f"task file {self.task_path(shard_index)} cannot be "
                f"decoded ({type(error).__name__}: {error})"
            ) from error

    # -- leases ---------------------------------------------------------
    def try_lease(self, shard_index: int, worker: str) -> bool:
        """Attempt to claim a shard (atomic ``O_EXCL`` create).

        Returns:
            True when this call won the claim; False when some other
            worker already holds (or just grabbed) the lease.
        """
        path = self.lease_path(shard_index)
        path.parent.mkdir(parents=True, exist_ok=True)
        now = time.time()
        payload = json.dumps(
            {
                "pid": os.getpid(),
                "worker": worker,
                "host": socket.gethostname(),
                "created": now,
                "time": now,
            },
            sort_keys=True,
        )
        try:
            handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(payload + "\n")
        return True

    def heartbeat_lease(self, shard_index: int, worker: str) -> bool:
        """Refresh a held lease's ``time`` stamp (atomic replace).

        Returns:
            True when the stamp was refreshed; False when the lease is
            gone or no longer ours (the coordinator broke it -- the
            worker should finish the shard anyway; completion is
            idempotent).
        """
        info = self.lease_info(shard_index)
        if info is None or info.get("worker") != worker:
            return False
        info["time"] = time.time()
        try:
            _atomic_write(
                self.lease_path(shard_index),
                (json.dumps(info, sort_keys=True) + "\n").encode("utf-8"),
            )
        except OSError:
            return False
        return True

    def lease_info(self, shard_index: int) -> Optional[Dict[str, Any]]:
        """The lease sentinel's payload (``None`` when absent/unreadable).

        An unreadable lease reads as held-by-nobody only after it has
        also failed the liveness test in :meth:`lease_is_dead` -- here it
        is reported as an empty claim so callers do not double-claim.
        """
        try:
            return json.loads(
                self.lease_path(shard_index).read_text(encoding="utf-8")
            )
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # Torn mid-replace or damaged: report a claim with no
            # liveness data; the coordinator's TTL will break it.
            return {}

    def lease_is_dead(
        self, info: Optional[Dict[str, Any]], lease_ttl_s: float
    ) -> bool:
        """Whether a lease's holder should be presumed lost.

        Same-host holders are PID-probed (a SIGKILLed worker is detected
        within one poll interval, not one TTL); cross-host (or unreadable)
        leases fall back to the heartbeat TTL.
        """
        if info is None:
            return False  # no lease at all
        pid = info.get("pid")
        host = info.get("host")
        if (
            isinstance(pid, int)
            and host == socket.gethostname()
            and not pid_alive(pid)
        ):
            return True
        stamp = info.get("time")
        if not isinstance(stamp, (int, float)):
            return True  # unreadable/damaged lease: only the TTL applies
        return (time.time() - stamp) > lease_ttl_s

    def break_lease(self, shard_index: int) -> None:
        """Remove a (presumed-lost) lease so the shard is claimable again."""
        try:
            os.unlink(self.lease_path(shard_index))
        except FileNotFoundError:
            pass

    def release_lease(self, shard_index: int) -> None:
        """Drop a lease after completing (or abandoning) its shard."""
        self.break_lease(shard_index)

    # -- results --------------------------------------------------------
    def has_result(self, shard_index: int) -> bool:
        """Whether a result fragment exists for the shard."""
        return self.result_path(shard_index).exists()

    def write_outcomes(
        self,
        shard_index: int,
        outcomes: ShardOutcomes,
        worker: str,
        sweep_id: str,
    ) -> None:
        """Publish one shard's outcomes as a result fragment.

        The fragment is a JSONL blob -- a header line followed by one
        ``{"kind": "outcome", "index", "cache_hit", "result"}`` line per
        grid point -- written to a temp file and atomically renamed, so
        readers only ever see whole fragments.  Duplicated completions simply replace
        the fragment with identical bytes (idempotent).
        """
        lines = [
            json.dumps(
                {
                    "kind": "fragment",
                    "sweep_id": sweep_id,
                    "shard": shard_index,
                    "worker": worker,
                    "points": len(outcomes),
                },
                sort_keys=True,
            )
        ]
        for index, result, hit in outcomes:
            lines.append(
                json.dumps(
                    {
                        "kind": "outcome",
                        "index": int(index),
                        "cache_hit": bool(hit),
                        "result": result.to_dict(),
                    },
                    sort_keys=True,
                )
            )
        _atomic_write(
            self.result_path(shard_index),
            ("\n".join(lines) + "\n").encode("utf-8"),
        )

    def write_failure(
        self,
        shard_index: int,
        message: str,
        point_payload: Optional[Dict[str, Any]],
        worker: str,
        sweep_id: str,
    ) -> None:
        """Publish a shard's grid-point failure as an error fragment.

        A *deterministic* failure (a bad parameter, an experiment bug)
        must fail the sweep with the original
        :class:`~repro.api.sweep.SweepPointError` rather than burn the
        retry budget re-running a shard that can never succeed.
        """
        payload = {
            "kind": "fragment-error",
            "sweep_id": sweep_id,
            "shard": shard_index,
            "worker": worker,
            "message": message,
            "point": point_payload,
        }
        _atomic_write(
            self.result_path(shard_index),
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
        )

    def discard_result(self, shard_index: int) -> None:
        """Remove a damaged/foreign fragment so the shard re-runs."""
        try:
            os.unlink(self.result_path(shard_index))
        except FileNotFoundError:
            pass

    def read_result(
        self, shard_index: int, sweep_id: str
    ) -> Optional[Tuple[str, Any]]:
        """Consume one shard's fragment, if any.

        Returns:
            ``None`` when no fragment exists yet; otherwise one of
            ``("ok", outcomes)`` (grid-index/result/hit triples),
            ``("error", (message, point_payload))`` for a published
            grid-point failure, or ``("damaged", reason)`` when the
            fragment is unreadable or belongs to a different sweep (the
            coordinator discards it and lets the shard re-run).
        """
        from ..api.results import ExperimentResult

        try:
            text = self.result_path(shard_index).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as error:
            return ("damaged", f"unreadable fragment ({error})")
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            return ("damaged", "empty fragment")
        try:
            header = json.loads(lines[0])
        except ValueError:
            return ("damaged", "unparseable fragment header")
        if header.get("sweep_id") != sweep_id:
            return (
                "damaged",
                f"fragment belongs to sweep {header.get('sweep_id')!r}, "
                f"not {sweep_id!r}",
            )
        if header.get("kind") == "fragment-error":
            return (
                "error",
                (str(header.get("message")), header.get("point")),
            )
        if header.get("kind") != "fragment":
            return ("damaged", f"unknown fragment kind {header.get('kind')!r}")
        outcomes: ShardOutcomes = []
        try:
            for line in lines[1:]:
                entry = json.loads(line)
                if entry.get("kind") != "outcome":
                    return (
                        "damaged",
                        f"unknown fragment line kind {entry.get('kind')!r}",
                    )
                outcomes.append(
                    (
                        int(entry["index"]),
                        ExperimentResult.from_dict(entry["result"]),
                        bool(entry["cache_hit"]),
                    )
                )
        except (KeyError, TypeError, ValueError) as error:
            return (
                "damaged",
                f"undecodable outcome line ({type(error).__name__}: {error})",
            )
        if len(outcomes) != header.get("points"):
            return (
                "damaged",
                f"fragment holds {len(outcomes)} outcomes but its header "
                f"promises {header.get('points')}",
            )
        return ("ok", outcomes)


class BrokerTransport(ShardTransport):
    """The coordinator side of the shared-directory broker.

    Selected with ``run_sweep(transport="broker", sweep_dir=...)``.
    Publishes the cold shards into the sweep directory, then loops:
    consume finished fragments, break dead leases (PID probe on this
    host, heartbeat TTL across hosts) and requeue their shards within the
    per-shard attempt budget, and -- by default -- lease and execute
    shards itself, so the sweep completes even with zero attached
    workers.  On exit (success or failure) the stop sentinel is dropped
    so workers terminate.

    Args:
        sweep_dir: the shared coordination directory (required).
        lease_ttl_s: heartbeat age after which a lease is presumed lost.
        poll_s: coordinator polling interval while waiting on workers.
        max_attempts: per-shard lease budget before
            :class:`~repro.dist.transport.WorkerLostError` (a broker-only
            option: an in-process transport cannot lose a shard).
        coordinator_executes: whether the coordinator leases and runs
            shards itself alongside the workers (True by default; pass
            False to make it a pure coordinator).
    """

    name = "broker"
    distributed = True

    def __init__(
        self,
        sweep_dir: Optional[Union[str, Path]] = None,
        lease_ttl_s: float = 15.0,
        poll_s: float = 0.05,
        max_attempts: int = 3,
        coordinator_executes: bool = True,
    ) -> None:
        if sweep_dir is None:
            raise ValueError(
                "the broker transport requires sweep_dir= (the shared "
                "coordination directory workers attach to)"
            )
        if lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if poll_s <= 0:
            raise ValueError("poll_s must be positive")
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        self.max_attempts = max_attempts
        self.sweep_dir = Path(sweep_dir)
        self.lease_ttl_s = lease_ttl_s
        self.poll_s = poll_s
        self.coordinator_executes = coordinator_executes
        self.worker_id = f"coordinator-{os.getpid()}"
        self.broker = DirectoryBroker(self.sweep_dir)
        #: Leases each shard has burned (coordinator and worker leases).
        self._attempts: Dict[int, int] = {}
        #: Last observed (worker, pid, created) signature per shard, so
        #: each distinct lease counts exactly one attempt.
        self._observed: Dict[int, Tuple[Any, Any, Any]] = {}

    # -- attempt accounting over disk leases ----------------------------
    def _observe_lease(self, shard_index: int, info: Dict[str, Any]) -> None:
        """Count a newly appeared lease as one attempt."""
        signature = (info.get("worker"), info.get("pid"), info.get("created"))
        if self._observed.get(shard_index) != signature:
            self._observed[shard_index] = signature
            self._attempts[shard_index] = (
                self._attempts.get(shard_index, 0) + 1
            )

    def _lost(self, shard: Any, info: Dict[str, Any]) -> None:
        """Break a dead lease so the shard is claimable again (bounded).

        Raises:
            WorkerLostError: the shard already burned ``max_attempts``
                leases; the error names the shard.
        """
        attempts = self._attempts.get(shard.index, 1)
        warnings.warn(
            f"sweep shard {shard.index} lost its worker "
            f"{info.get('worker')!r} (pid {info.get('pid')}); requeueing "
            f"(attempt {self._attempts.get(shard.index, 0)} of "
            f"{self.max_attempts})",
            RuntimeWarning,
            stacklevel=4,
        )
        self.broker.break_lease(shard.index)
        self._observed.pop(shard.index, None)
        if attempts >= self.max_attempts:
            raise WorkerLostError(
                f"shard {shard.index} was lost {attempts} times "
                f"(last worker {str(info.get('worker'))!r}); giving up after "
                f"max_attempts={self.max_attempts}",
                shard_index=shard.index,
                attempts=attempts,
                point_indices=tuple(shard.indices),
            )

    def _raise_point_error(
        self, message: str, point_payload: Optional[Dict[str, Any]]
    ) -> None:
        """Re-raise a worker-published grid-point failure, typed."""
        from ..api.sweep import SweepPoint, SweepPointError

        point = None
        if isinstance(point_payload, dict):
            try:
                point = SweepPoint(
                    experiment=str(point_payload["experiment"]),
                    config=str(point_payload["config"]),
                    seed=int(point_payload["seed"]),
                    params=dict(point_payload.get("params") or {}),
                    engine=str(point_payload["engine"]),
                )
            except Exception:
                point = None  # unknown engine/config in this process
        raise SweepPointError(message, point)

    # -- driver ---------------------------------------------------------
    def run(
        self,
        shards: Sequence[Any],
        runner: ShardRunner,
        finish: ShardFinisher,
        max_workers: int,
    ) -> None:
        """Coordinate the sweep over the shared directory.

        One coordinator per directory: a second concurrent coordinator
        fails fast on the ``coordinator.lock`` PID sentinel
        (:class:`~repro.dist.transport.TransportError`); a dead
        coordinator's lock is reclaimed with a :class:`RuntimeWarning`.
        """
        lock = PidFileLock(
            self.sweep_dir / COORDINATOR_LOCK_FILENAME,
            error=TransportError,
            contended=(
                "sweep directory {path} already has a live coordinator "
                "(pid {holder}); one sweep directory serves one sweep at "
                "a time"
            ),
            stale=(
                "reclaiming stale coordinator lock {path} (holder pid "
                "{holder} is gone)"
            ),
        )
        lock.acquire(stacklevel=3)
        try:
            sweep_id = f"{os.getpid():x}-{time.time_ns():x}"
            self.broker.publish(shards, sweep_id)
            pending: Dict[int, Any] = {shard.index: shard for shard in shards}
            try:
                while pending:
                    progressed = self._consume(pending, sweep_id, finish)
                    progressed = self._reap(pending) or progressed
                    if pending and self.coordinator_executes:
                        progressed = (
                            self._execute_one(pending, sweep_id, runner, finish)
                            or progressed
                        )
                    if pending and not progressed:
                        time.sleep(self.poll_s)
            finally:
                # Success or failure, tell the workers the sweep is over.
                self.broker.write_stop()
        finally:
            lock.release()

    def _consume(
        self,
        pending: Dict[int, Any],
        sweep_id: str,
        finish: ShardFinisher,
    ) -> bool:
        """Merge every available fragment; True when any was consumed."""
        progressed = False
        for shard_index in sorted(pending):
            status = self.broker.read_result(shard_index, sweep_id)
            if status is None:
                continue
            kind, payload = status
            if kind == "error":
                message, point_payload = payload
                self._raise_point_error(message, point_payload)
            if kind == "damaged":
                warnings.warn(
                    f"discarding bad result fragment for shard "
                    f"{shard_index}: {payload}; the shard will re-run",
                    RuntimeWarning,
                    stacklevel=4,
                )
                self.broker.discard_result(shard_index)
                continue
            finish(pending.pop(shard_index), payload)
            progressed = True
        return progressed

    def _reap(self, pending: Dict[int, Any]) -> bool:
        """Observe live leases, break dead ones; True when any broke."""
        progressed = False
        for shard_index in sorted(pending):
            info = self.broker.lease_info(shard_index)
            if info is None:
                continue
            self._observe_lease(shard_index, info)
            if info.get("worker") == self.worker_id:
                continue  # our own inline lease is reaped by completion
            if self.broker.lease_is_dead(info, self.lease_ttl_s):
                self._lost(pending[shard_index], info)
                progressed = True
        return progressed

    def _execute_one(
        self,
        pending: Dict[int, Any],
        sweep_id: str,
        runner: ShardRunner,
        finish: ShardFinisher,
    ) -> bool:
        """Lease and execute one available shard inline (coordinator)."""
        from ..api.sweep import SweepPointError

        for shard_index in sorted(pending):
            if self.broker.has_result(shard_index):
                continue
            if self.broker.lease_info(shard_index) is not None:
                continue
            if not self.broker.try_lease(shard_index, self.worker_id):
                continue  # a worker won the race; let it run
            shard = pending[shard_index]
            self._attempts[shard_index] = (
                self._attempts.get(shard_index, 0) + 1
            )
            self._observed[shard_index] = (
                self.worker_id,
                os.getpid(),
                None,
            )
            try:
                outcomes = runner(shard)
            except SweepPointError as error:
                point = getattr(error, "point", None)
                self.broker.write_failure(
                    shard_index,
                    str(error),
                    {
                        "experiment": point.experiment,
                        "config": point.config,
                        "seed": point.seed,
                        "params": point.params,
                        "engine": point.engine,
                    }
                    if point is not None
                    else None,
                    self.worker_id,
                    sweep_id,
                )
                raise
            finally:
                self.broker.release_lease(shard_index)
            # Publish for lingering workers' exit checks, then merge
            # directly: popping the shard from ``pending`` means a
            # duplicate fragment is never consumed.
            self.broker.write_outcomes(
                shard_index, outcomes, self.worker_id, sweep_id
            )
            finish(pending.pop(shard_index), outcomes)
            return True
        return False
